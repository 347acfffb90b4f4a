"""Exact sparse linear algebra over a coefficient field.

Vectors are dicts {index: nonzero scalar}.  The index type only needs a
total order; deterministic pivot selection (always the least index, or
always the greatest under the "last" strategy) makes every reduction and
coset representative reproducible across runs.  `Echelon` is the one
elimination loop; `column_kernel` reads its basis off a reduced echelon
form, so that basis depends only on the matrix, not on any pivoting.

Elimination is one pass: each monic row is zero at every other pivot,
so a vector's coefficient on the row at pivot q is its own entry at q.
Inserting a row at a new pivot p clears p only from the rows that the
column map (non-pivot index -> pivots of the rows holding it) names.
"""


def add_scaled(dst, src, c, field):
    """dst += c * src in place, dropping entries that become zero."""
    zero, add, mul = field.zero, field.add, field.mul
    if c == zero:
        return dst
    for j, v in src.items():
        w = add(dst.get(j, zero), mul(c, v))
        if w == zero:
            dst.pop(j, None)
        else:
            dst[j] = w
    return dst


class Echelon:
    """A row space kept in reduced echelon form, built incrementally.

    `reduce` is the canonical projection modulo the row space: its output
    is supported away from the pivot set, so when the rows span an ideal
    the reduced vector is the coset representative in the complementary
    coordinates.
    """

    def __init__(self, field, pivoting="first"):
        self.field = field
        self.rows = {}  # pivot index -> monic row (dict), zero at other pivots
        self.users = {}  # non-pivot index -> pivots of the rows with an entry there
        if pivoting not in ("first", "last"):
            raise ValueError(f"unknown pivoting strategy {pivoting!r}")
        self.pivoting = pivoting

    def _pick(self, support):
        return min(support) if self.pivoting == "first" else max(support)

    @property
    def rank(self):
        return len(self.rows)

    @property
    def pivots(self):
        return set(self.rows)

    def reduce(self, vec):
        """Canonical representative of vec modulo the row space."""
        return self._eliminate(vec)[1]

    def coordinates(self, vec):
        """(coefficients over pivot rows, residual) with vec = sum + residual."""
        return self._eliminate(vec)

    def _eliminate(self, vec):
        field, rows = self.field, self.rows
        zero, sub, mul = field.zero, field.sub, field.mul
        out = {j: v for j, v in vec.items() if v != zero}
        coords = {q: c for q, c in out.items() if q in rows}
        for q, c in coords.items():
            for j, v in rows[q].items():
                w = sub(out.get(j, zero), mul(c, v))
                if w == zero:
                    out.pop(j, None)
                else:
                    out[j] = w
        return coords, out

    def insert(self, vec):
        """Add vec to the span; returns the new pivot or None if dependent."""
        field, rows, users = self.field, self.rows, self.users
        res = self.reduce(vec)
        if not res:
            return None
        p = self._pick(res)
        inv = field.inv(res[p])
        row = {j: field.mul(inv, v) for j, v in res.items()}
        del res[p]
        # keep reduced form: clear the new pivot from the rows that hold it
        touched = users.pop(p, ())
        for j in res:
            users.setdefault(j, set()).add(p)
        for q in touched:
            old = rows[q]
            add_scaled(old, row, field.neg(old[p]), field)
            for j in res:
                if j in old:
                    users[j].add(q)
                else:
                    users[j].discard(q)
        rows[p] = row
        return p

    def contains(self, vec):
        return not self.reduce(vec)


def column_kernel(columns, field):
    """Nullspace of the linear map sending unit column j to columns[j].

    One vector per column j that depends on the columns before it: e_j
    minus the unique expression of column j over the earlier independent
    columns, listed by increasing j.  It is read off the reduced echelon
    form of the matrix's rows: the dependent columns are its free
    columns, and the coefficient at pivot k is minus row k's entry at j.
    """
    ech = Echelon(field)
    rows = {}
    for j, col in enumerate(columns):
        for i, v in col.items():
            rows.setdefault(i, {})[j] = v
    for row in rows.values():
        ech.insert(row)
    kernel = {j: {} for j in range(len(columns)) if j not in ech.rows}
    for k in sorted(ech.rows):
        for j, v in ech.rows[k].items():
            if j != k:
                kernel[j][k] = field.neg(v)
    for j, vec in kernel.items():
        vec[j] = field.one
    return list(kernel.values())


def matrix_rank(columns, field):
    ech = Echelon(field)
    for col in columns:
        ech.insert(col)
    return ech.rank
