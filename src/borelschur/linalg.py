"""Exact sparse linear algebra over a coefficient field.

Vectors are dicts {index: nonzero scalar}.  The index type only needs a
total order; deterministic pivot selection (always the least index, or
always the greatest under the "last" strategy) makes every reduction and
coset representative reproducible across runs.  `Echelon` is the one
elimination loop.  `Echelon.insert_columns` eliminates a matrix's
columns once and reads its nullspace off the same pass: each row carries
its combination of the columns, so a dependent column's combination is
its kernel vector, and that basis depends only on the matrix, not on
any pivoting.

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
        self.combos = {}  # pivot -> its row over the columns of `insert_columns`
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

    def _eliminate(self, vec, combo=None):
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
            if combo is not None:
                add_scaled(combo, self.combos[q], field.neg(c), field)
        return coords, out

    def insert(self, vec, combo=None):
        """Add vec to the span; returns the new pivot or None if dependent.

        `combo`, vec written over the columns of `insert_columns`, is
        reduced in place alongside vec: it ends as the new row's
        combination, or as a kernel vector when vec is dependent.
        """
        field, rows, users, combos = self.field, self.rows, self.users, self.combos
        res = self._eliminate(vec, combo)[1]
        if not res:
            return None
        p = self._pick(res)
        inv = field.inv(res[p])
        row = {j: field.mul(inv, v) for j, v in res.items()}
        del res[p]
        if combo is not None:
            for k, v in combo.items():
                combo[k] = field.mul(inv, v)
            combos[p] = combo
        # keep reduced form: clear the new pivot from the rows that hold it
        touched = users.pop(p, ())
        for j in res:
            users.setdefault(j, set()).add(p)
        for q in touched:
            old = rows[q]
            c = field.neg(old[p])
            add_scaled(old, row, c, field)
            if combo is not None:
                add_scaled(combos[q], combo, c, field)
            for j in res:
                if j in old:
                    users[j].add(q)
                else:
                    users[j].discard(q)
        rows[p] = row
        return p

    def insert_columns(self, columns, kernel=True):
        """Insert columns[0], columns[1], ... in turn; return the nullspace
        of the map sending unit column j to columns[j].

        One vector per column j that depends on the columns before it: e_j
        minus its unique expression over the earlier independent columns,
        listed by increasing j.  Each row's combination of the columns is
        kept in `combos` while every insert carries one; with kernel=False
        none is kept and the list is empty.
        """
        one = self.field.one
        out = []
        for j, col in enumerate(columns):
            combo = {j: one} if kernel else None
            if self.insert(col, combo) is None and kernel:
                out.append(combo)
        return out

    def contains(self, vec):
        return not self.reduce(vec)


def matrix_rank(columns, field):
    ech = Echelon(field)
    for col in columns:
        ech.insert(col)
    return ech.rank
