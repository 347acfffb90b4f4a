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
Rows, combinations and residuals hold canonical scalars: the loops
multiply and accumulate with native `+ - *` and reduce each entry once
with `field.of`.
"""


def add_scaled(dst, src, c, field):
    """dst += c * src in place, each changed entry reduced once by
    `field.of` and dropped when it becomes zero; c may be any int as well
    as a canonical scalar."""
    if not c:
        return dst
    of = field.of
    for j, v in src.items():
        w = of(dst.get(j, 0) + c * v)
        if w:
            dst[j] = w
        else:
            dst.pop(j, None)
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
        rows, of = self.rows, self.field.of
        out = {j: v for j, v in vec.items() if v}
        coords = {q: c for q, c in out.items() if q in rows}
        if not coords:
            return coords, out
        for q, c in coords.items():
            for j, v in rows[q].items():
                out[j] = out.get(j, 0) - c * v
            if combo is not None:
                for k, v in self.combos[q].items():
                    combo[k] = combo.get(k, 0) - c * v
        if combo is not None:
            for k, v in list(combo.items()):
                if w := of(v):
                    combo[k] = w
                else:
                    del combo[k]
        return coords, {j: w for j, v in out.items() if (w := of(v))}

    def insert(self, vec, combo=None):
        """Add vec to the span; returns the new pivot or None if dependent.

        `combo`, vec written over the columns of `insert_columns`, is
        reduced in place alongside vec: it ends as the new row's
        combination, or as a kernel vector when vec is dependent.
        """
        field, rows, users, combos = self.field, self.rows, self.users, self.combos
        of = field.of
        row = self._eliminate(vec, combo)[1]
        if not row:
            return None
        p = self._pick(row)
        lead = row.pop(p)
        if lead != field.one:
            inv = field.inv(lead)
            for j, v in row.items():
                row[j] = of(inv * v)
            if combo is not None:
                for k, v in combo.items():
                    combo[k] = of(inv * v)
        if combo is not None:
            combos[p] = combo
        # keep reduced form: clear the new pivot from the rows that hold it
        touched = users.pop(p, ())
        for j in row:
            users.setdefault(j, set()).add(p)
        for q in touched:
            old = rows[q]
            c = old.pop(p)
            for j, v in row.items():
                if w := of(old.get(j, 0) - c * v):
                    old[j] = w
                    users[j].add(q)
                else:
                    del old[j]
                    users[j].discard(q)
            if combo is not None:
                add_scaled(combos[q], combo, -c, field)
        row[p] = field.one
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
