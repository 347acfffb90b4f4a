"""Exact sparse linear algebra over a coefficient field.

Vectors are dicts {index: scalar}, nonzero canonical scalars in every
result.  The index type only needs a total order; deterministic pivot
selection (always the least index, or always the greatest under the
"last" strategy) makes every reduction and coset representative
reproducible across runs.

`Echelon` is the one elimination interface, and it runs one algorithm.
Each row is stored monic at its pivot and zero before it (after it
under "last"): echelon form, not reduced form.  A vector is reduced by
clearing the pivots it holds in pivot order; clearing pivot q only adds
indices beyond q, so a cleared pivot is never set again and the
residual is zero at every pivot.  An insert stores the residual, scaled
monic at its first index, with no back-substitution.  The residual and
the reduced echelon form depend only on the span, so `reduce` is the
canonical projection, a vector's coefficient on the reduced row at
pivot q is its own entry at q, and the reduced `rows` and `combos` are
built when they are read.  `Echelon.eliminate` (and `insert_columns`
on dicts) eliminates a matrix's columns once and reads its nullspace
off the same pass: each row carries its combination of the columns, so
a dependent column's combination is its kernel vector, and that basis
depends only on the matrix, not on any pivoting.

The two kernels differ only in how they hold a vector.  Both take
entries as any ints (over QQ, rationals too), unreduced and possibly
zero, and reduce each entry once as they read it.  Over QQ and GF(p),
p > 2, a vector is a dict, read with `field.of`; the loops multiply and
accumulate with native `+ - *`, and reduce an entry once more where it
is cleared at a pivot or stored.  Over GF(2), `Echelon(field)` builds a
`BitEchelon`, where it is one int, bit k for index k, read with `c & 1`,
so an index must be a non-negative int there (else `TypeError`; callers
with other keys number them, which changes no rank and no kernel), and
clearing a pivot is one XOR.

`insert`, `reduce`, `contains`, `coordinates`, `rows`, `combos`,
`insert_columns` and `matrix_rank` take and give dicts.  The resolution
engine and its reader instead keep their vectors in the echelon's own form,
which only this module reads: `columns` builds a map's columns straight
into it from the algebra's products (the dict kernel with one
`field.of` per entry; the bit kernel XORs in each odd product term and
skips even ones before it looks up the index), `eliminate` inserts such
columns and returns the kernel in the same form, `units` gives unit
vectors in it, and `cover` reduces kernel vectors in it and hands back
only the new generators' residuals as dicts.
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
    """A row space in echelon form, built incrementally; the dict kernel.

    `reduce` is the canonical projection modulo the row space: its output
    is supported away from the pivot set, so when the rows span an ideal
    the reduced vector is the coset representative in the complementary
    coordinates.  A kernel supplies only its vector form: `_vec` and
    `_dict` convert from and to dicts, `columns` and `units` build
    vectors, `_at_pivots` reads a vector's pivot entries, and `_reduce`,
    `_insert` and `_reduced` eliminate.
    """

    def __new__(cls, field, pivoting="first"):
        if cls is Echelon and field.characteristic == 2:
            cls = BitEchelon
        return super().__new__(cls)

    def __init__(self, field, pivoting="first"):
        if pivoting not in ("first", "last"):
            raise ValueError(f"unknown pivoting strategy {pivoting!r}")
        self.field = field
        self.pivoting = pivoting
        self._rows = {}  # pivot -> its stored row, without the pivot
        self._combos = {}  # pivot -> that row's combination of the columns

    @property
    def rank(self):
        return len(self._rows)

    @property
    def pivots(self):
        """The pivot indices, as a live set-like view."""
        return self._rows.keys()

    @property
    def rows(self):
        """pivot -> row of the reduced echelon form."""
        return {p: self._dict(v) for p, (v, _) in self._reduced().items()}

    @property
    def combos(self):
        """pivot -> combination of the columns giving that reduced row,
        for the rows that carry one."""
        return {p: self._dict(c) for p, (_, c) in self._reduced().items() if c}

    def reduce(self, vec):
        """Canonical representative of vec modulo the row space."""
        return self._dict(self._reduce(self._vec(vec))[0])

    def contains(self, vec):
        return not self._reduce(self._vec(vec))[0]

    def coordinates(self, vec):
        """(coefficients over the reduced rows, residual) with
        vec = sum + residual."""
        v = self._vec(vec)
        return self._at_pivots(v), self._dict(self._reduce(v)[0])

    def insert(self, vec):
        """Add vec to the span; returns the new pivot or None if dependent."""
        return self._insert(self._vec(vec), None)[0]

    def insert_columns(self, columns, kernel=True):
        """Insert columns[0], columns[1], ... in turn; return the nullspace
        of the map sending unit column j to columns[j], as `eliminate`
        does, on dicts."""
        vecs = self.eliminate(map(self._vec, columns), kernel)
        return [self._dict(v) for v in vecs]

    def eliminate(self, vecs, kernel=True, cap=None):
        """Insert vecs[0], vecs[1], ..., in this echelon's own form, in
        turn; return, in the same form, the nullspace of the map sending
        unit column j to vecs[j].

        One vector per column j that depends on the columns before it: e_j
        minus its unique expression over the earlier independent columns,
        listed by increasing j.  Each row's combination of the columns is
        kept while every insert carries one; with kernel=False none is
        kept and the list is empty.  With `cap`, a bound the caller knows
        the rank cannot exceed, it stops once the rank reaches it.  The
        vectors are used up: the dict kernel reduces them in place.
        """
        insert, rows, out = self._insert, self._rows, []
        for j, v in enumerate(vecs):
            if len(rows) == cap:
                break
            p, combo = insert(v, j if kernel else None)
            if p is None and kernel:
                out.append(combo)
        return out

    def cover(self, vecs):
        """New generators at one kernel piece with basis `vecs`, in this
        echelon's form, whose radical the echelon spans: each vector
        independent of the span and of the ones before it, reduced modulo
        them and inserted.  Returns their residuals as dicts.

        The radical lies in the kernel, so exactly len(vecs) - rank new
        generators exist, and the walk stops once it has them.  A rank
        above len(vecs) never stops it early.  As in `eliminate`, the
        vectors are used up.
        """
        need = len(vecs) - self.rank
        fresh = []
        for v in vecs:
            if len(fresh) == need:
                break
            residual = self._dict(self._reduce(v)[0])
            if residual:
                self._insert(self._vec(residual), None)
                fresh.append(residual)
        return fresh

    def columns(self, src, dst, by_col, mul):
        """Columns of a map, in this echelon's form: the image of each
        pair (s, x) of `src`, over positions in the pairs `dst`.

        `by_col` is {s: {t: entry}}, an entry {basis element: scalar}, and
        (s, x) goes to the sum over t of (t, x * entry), with `mul` the
        product as (basis element, scalar) pairs.  Each entry is summed
        natively and reduced once.  Every product must land in `dst`.
        """
        index = {b: k for k, b in enumerate(dst)}
        of = self.field.of
        cols = []
        for s, x in src:
            col = {}
            for t, entry in by_col.get(s, {}).items():
                for y, c in entry.items():
                    for z, cz in mul(x, y):
                        k = index[t, z]
                        col[k] = col.get(k, 0) + c * cz
            cols.append({k: w for k, c in col.items() if (w := of(c))})
        return cols

    def units(self, count):
        """The unit vectors e_0, ..., e_{count - 1} in this echelon's form."""
        one = self.field.one
        return [{k: one} for k in range(count)]

    def _vec(self, vec):
        of = self.field.of
        return {j: w for j, c in vec.items() if (w := of(c))}

    @staticmethod
    def _dict(v):
        return v

    def _at_pivots(self, v):
        rows = self._rows
        return {q: c for q, c in v.items() if q in rows}

    def _reduce(self, v, combo=None):
        """v and, unless it is None, its combination, both changed in place,
        with every pivot cleared."""
        rows, combos, of = self._rows, self._combos, self.field.of
        todo = {q for q in v if q in rows}
        if not todo:
            return v, combo
        pick = min if self.pivoting == "first" else max
        while todo:
            q = pick(todo)
            todo.remove(q)
            c = of(v.pop(q))
            if not c:
                continue
            for j, x in rows[q].items():
                if j in v:
                    v[j] -= c * x
                else:
                    v[j] = -c * x
                    if j in rows:
                        todo.add(j)
            if combo is not None:
                for k, x in combos[q].items():
                    combo[k] = combo.get(k, 0) - c * x
        if combo is not None:
            combo = {k: w for k, x in combo.items() if (w := of(x))}
        return {j: w for j, x in v.items() if (w := of(x))}, combo

    def _insert(self, v, j):
        """Reduce v, whose combination is the unit at column j (empty when
        j is None), and store it as a row unless it vanishes: (new pivot
        or None, the reduced combination)."""
        field = self.field
        v, combo = self._reduce(v, {} if j is None else {j: field.one})
        if not v:
            return None, combo
        p = min(v) if self.pivoting == "first" else max(v)
        lead = v.pop(p)
        if lead != field.one:
            inv, of = field.inv(lead), field.of
            v = {k: of(inv * x) for k, x in v.items()}
            combo = {k: of(inv * x) for k, x in combo.items()}
        self._rows[p] = v
        self._combos[p] = combo
        return p, combo

    def _reduced(self):
        """pivot -> (its reduced row, that row's combination)."""
        one, combos, out = self.field.one, self._combos, {}
        for p, row in self._rows.items():
            v, c = self._reduce(dict(row), dict(combos[p]))
            v[p] = one
            out[p] = v, c
        return out


def _ones(v):
    """The set bits of v as a vector {index: 1}, by increasing index."""
    out = {}
    while v:
        low = v & -v
        out[low.bit_length() - 1] = 1
        v ^= low
    return out


class BitEchelon(Echelon):
    """`Echelon` over GF(2) on int bitsets, bit k standing for index k.

    A row is stored shifted down to its least bit, since an int takes
    memory up to its highest bit.
    """

    _mask = 0  # the pivot bits

    @staticmethod
    def _vec(vec):
        v = 0
        for j, c in vec.items():
            if c & 1:
                try:
                    v |= 1 << j
                except (TypeError, ValueError):
                    raise TypeError("over GF(2) an Echelon index must be a "
                                    f"non-negative int, got {j!r}") from None
        return v

    _dict = staticmethod(_ones)

    def _at_pivots(self, v):
        return _ones(v & self._mask)

    def _reduce(self, v, combo=0):
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

    def _insert(self, v, j):
        v, combo = self._reduce(v, 0 if j is None else 1 << j)
        if not v:
            return None, combo
        low = (v & -v).bit_length() - 1
        p = low if self.pivoting == "first" else v.bit_length() - 1
        self._rows[p] = v >> low, low
        self._combos[p] = combo
        self._mask |= 1 << p
        return p, combo

    def columns(self, src, dst, by_col, mul):
        index = {b: k for k, b in enumerate(dst)}
        cols = []
        for s, x in src:
            v = 0
            for t, entry in by_col.get(s, {}).items():
                for y, c in entry.items():
                    if c & 1:
                        for z, cz in mul(x, y):
                            if cz & 1:
                                v ^= 1 << index[t, z]
            cols.append(v)
        return cols

    @staticmethod
    def units(count):
        return [1 << k for k in range(count)]

    def _reduced(self):
        out = {}
        for p, (row, low) in self._rows.items():
            bit = 1 << p
            v, combo = self._reduce(row << low ^ bit, self._combos[p])
            out[p] = v | bit, combo
        return out


def matrix_rank(columns, field):
    """The rank of the columns."""
    ech = Echelon(field)
    ech.eliminate(map(ech._vec, columns), kernel=False)
    return ech.rank
