"""Exact sparse linear algebra over a coefficient field.

Vectors are dicts {index: nonzero scalar}.  The index type only needs a
total order; deterministic pivot selection (always the least index, or
always the greatest under the "last" strategy) makes every reduction and
coset representative reproducible across runs.  `Echelon` is the one
elimination interface.  `Echelon.insert_columns` eliminates a matrix's
columns once and reads its nullspace off the same pass: each row carries
its combination of the columns, so a dependent column's combination is
its kernel vector, and that basis depends only on the matrix, not on
any pivoting.

`Echelon(field)` picks its kernel from the field.  Over QQ and GF(p),
p > 2, elimination is one pass in reduced echelon form: each monic row
is zero at every other pivot, so a vector's coefficient on the row at
pivot q is its own entry at q.  Inserting a row at a new pivot p clears
p only from the rows that the column map (non-pivot index -> pivots of
the rows holding it) names.  Rows, combinations and residuals hold
canonical scalars: the loops multiply and accumulate with native
`+ - *` and reduce each entry once with `field.of`.

Over GF(2), `Echelon(field)` builds a `BitEchelon`: each row, residual
and column combination is one int, bit k for index k, so an index must
be a non-negative int there (else `TypeError`; callers with other keys
number them, which changes no rank and no kernel).  It reduces with
`v & pivot_mask` and XOR and keeps its rows in echelon form, not
reduced form, so an insert does no back-substitution and keeps no
column map.  The reduced rows, their combinations and the kernel basis
depend only on the span and the matrix, so `reduce`, `coordinates` and
the kernels are the dict kernel's, and `rows` and `combos` are built
when they are read.
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

    def __new__(cls, field, pivoting="first"):
        if cls is Echelon and field.characteristic == 2:
            return BitEchelon(field, pivoting)
        return super().__new__(cls)

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
        """The pivot indices, as a live set-like view."""
        return self.rows.keys()

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


def _ones(v):
    """The set bits of v as a vector {index: 1}, by increasing index."""
    out = {}
    while v:
        low = v & -v
        out[low.bit_length() - 1] = 1
        v ^= low
    return out


class BitEchelon:
    """`Echelon` over GF(2) on int bitsets, bit k standing for index k.

    The row at pivot p has p as its least bit (its greatest under
    "last").  Clearing the pivots a vector holds in that order never
    sets one already cleared, so the residual is zero at every pivot, as
    in reduced form.  A row is stored shifted down to its least bit,
    since an int takes memory up to its highest bit; its combination
    over the columns of `insert_columns` is 0 when it carries none.
    """

    def __init__(self, field, pivoting="first"):
        if pivoting not in ("first", "last"):
            raise ValueError(f"unknown pivoting strategy {pivoting!r}")
        self.field = field
        self.pivoting = pivoting
        self._rows = {}  # pivot -> (row bits >> its least bit, that bit)
        self._combos = {}  # pivot -> its row's combination bits
        self._mask = 0  # the pivot bits

    @property
    def rank(self):
        return len(self._rows)

    @property
    def pivots(self):
        return self._rows.keys()

    @staticmethod
    def _bits(vec):
        v = 0
        for j, c in vec.items():
            if c & 1:
                try:
                    v |= 1 << j
                except (TypeError, ValueError):
                    raise TypeError("over GF(2) an Echelon index must be a "
                                    f"non-negative int, got {j!r}") from None
        return v

    def _reduce(self, v, combo=0):
        """v and its combination reduced to zero at every pivot."""
        rows, combos, mask = self._rows, self._combos, self._mask
        first = self.pivoting == "first"
        hit = v & mask
        while hit:
            p = (hit & -hit if first else hit).bit_length() - 1
            row, low = rows[p]
            v ^= row << low
            combo ^= combos[p]
            hit = v & mask
        return v, combo

    def _reduced(self):
        """pivot -> (its reduced row, that row's combination), as bits."""
        out = {}
        for p, (row, low) in self._rows.items():
            bit = 1 << p
            v, combo = self._reduce(row << low ^ bit, self._combos[p])
            out[p] = v | bit, combo
        return out

    @property
    def rows(self):
        """pivot -> row of the reduced echelon form."""
        return {p: _ones(v) for p, (v, _) in self._reduced().items()}

    @property
    def combos(self):
        """pivot -> combination of the columns giving that reduced row,
        for the rows that carry one."""
        return {p: _ones(c) for p, (_, c) in self._reduced().items() if c}

    def reduce(self, vec):
        return _ones(self._reduce(self._bits(vec))[0])

    def coordinates(self, vec):
        # the coefficient on a reduced row is the vector's entry at its pivot
        v = self._bits(vec)
        return _ones(v & self._mask), _ones(self._reduce(v)[0])

    def contains(self, vec):
        return not self._reduce(self._bits(vec))[0]

    def insert(self, vec):
        return self._insert(self._bits(vec), 0)[0]

    def _insert(self, v, combo):
        v, combo = self._reduce(v, combo)
        if not v:
            return None, combo
        low = (v & -v).bit_length() - 1
        p = low if self.pivoting == "first" else v.bit_length() - 1
        self._rows[p] = v >> low, low
        self._combos[p] = combo
        self._mask |= 1 << p
        return p, combo

    def insert_columns(self, columns, kernel=True):
        out = []
        for j, col in enumerate(columns):
            p, combo = self._insert(self._bits(col), 1 << j if kernel else 0)
            if p is None and kernel:
                out.append(_ones(combo))
        return out


def matrix_rank(columns, field):
    ech = Echelon(field)
    for col in columns:
        ech.insert(col)
    return ech.rank
