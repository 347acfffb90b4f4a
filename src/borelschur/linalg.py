"""Exact sparse linear algebra over a coefficient field.

Vectors are dicts {index: nonzero scalar}.  The index type only needs a
total order; deterministic pivot selection (always the least index, or
always the greatest under the "last" strategy) makes every reduction,
kernel basis and coset representative reproducible across runs.
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


def scale(vec, c, field):
    if c == field.zero:
        return {}
    return {j: field.mul(c, v) for j, v in vec.items()}


class Echelon:
    """A row space kept in reduced echelon form, built incrementally.

    `reduce` is the canonical projection modulo the row space: its output
    is supported away from the pivot set, so when the rows span an ideal
    the reduced vector is the coset representative in the complementary
    coordinates.
    """

    def __init__(self, field, pivoting="first"):
        self.field = field
        self.rows = {}  # pivot index -> monic row (dict), other pivots eliminated
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
        coords, out = self._eliminate(vec)
        return out

    def coordinates(self, vec):
        """(coefficients over pivot rows, residual) with vec = sum + residual."""
        return self._eliminate(vec)

    def _eliminate(self, vec):
        field = self.field
        zero = field.zero
        work = {j: v for j, v in vec.items() if v != zero}
        out = {}
        coords = {}
        while work:
            idx = self._pick(work)
            c = work.pop(idx)
            if c == zero:
                continue
            row = self.rows.get(idx)
            if row is None:
                out[idx] = field.add(out.get(idx, zero), c)
                if out[idx] == zero:
                    del out[idx]
            else:
                coords[idx] = field.add(coords.get(idx, zero), c)
                for j, rj in row.items():
                    if j == idx:
                        continue
                    w = field.sub(work.get(j, zero), field.mul(c, rj))
                    if w == zero:
                        work.pop(j, None)
                    else:
                        work[j] = w
        return coords, out

    def insert(self, vec):
        """Add vec to the span; returns the new pivot or None if dependent."""
        field = self.field
        res = self.reduce(vec)
        if not res:
            return None
        p = self._pick(res)
        inv = field.inv(res[p])
        row = {j: field.mul(inv, v) for j, v in res.items()}
        # keep reduced form: clear the new pivot from every existing row
        for q, old in self.rows.items():
            c = old.get(p)
            if c is not None:
                add_scaled(old, row, field.neg(c), field)
        self.rows[p] = row
        return p

    def contains(self, vec):
        return not self.reduce(vec)


def column_kernel(columns, field, pivoting="first"):
    """Nullspace of the linear map sending unit column j to columns[j].

    Returns a list of dicts over column indices, in a deterministic order.
    Plain (non-reduced) elimination with combination tracking.
    """
    zero = field.zero
    one = field.one
    pick = (lambda s: min(s)) if pivoting == "first" else (lambda s: max(s))
    rows = {}   # pivot -> row vector over row indices
    combos = {}  # pivot -> combination over column indices producing that row
    kernel = []
    for j, col in enumerate(columns):
        work = {i: v for i, v in col.items() if v != zero}
        combo = {j: one}
        while work:
            idx = pick(work)
            c = work.pop(idx)
            if c == zero:
                continue
            row = rows.get(idx)
            if row is None:
                inv = field.inv(c)
                new_row = {i: field.mul(inv, v) for i, v in work.items()}
                new_row[idx] = one
                rows[idx] = new_row
                combos[idx] = scale(combo, inv, field)
                combo = None
                break
            add_scaled(work, row, field.neg(c), field)
            work.pop(idx, None)
            add_scaled(combo, combos[idx], field.neg(c), field)
        if combo is not None:
            kernel.append(combo)
    return kernel


def matrix_rank(columns, field):
    ech = Echelon(field)
    for col in columns:
        ech.insert(col)
    return ech.rank


class SpanSolver:
    """Expresses vectors as combinations of a fixed independent list.

    Plain echelon with combination tracking; `express` returns None for
    vectors outside the span.
    """

    def __init__(self, field):
        self.field = field
        self.rows = {}
        self.combos = {}
        self.count = 0

    def add(self, vec):
        field = self.field
        work = {j: v for j, v in vec.items() if v != field.zero}
        combo = {self.count: field.one}
        while work:
            idx = min(work)
            c = work.pop(idx)
            if c == field.zero:
                continue
            row = self.rows.get(idx)
            if row is None:
                inv = field.inv(c)
                new_row = {j: field.mul(inv, v) for j, v in work.items()}
                new_row[idx] = field.one
                self.rows[idx] = new_row
                self.combos[idx] = scale(combo, inv, field)
                self.count += 1
                return
            add_scaled(work, row, field.neg(c), field)
            work.pop(idx, None)
            add_scaled(combo, self.combos[idx], field.neg(c), field)
        raise ValueError("vector is dependent on the ones already added")

    def express(self, vec):
        field = self.field
        work = {j: v for j, v in vec.items() if v != field.zero}
        out = {}
        while work:
            idx = min(work)
            c = work.pop(idx)
            if c == field.zero:
                continue
            row = self.rows.get(idx)
            if row is None:
                return None
            add_scaled(work, row, field.neg(c), field)
            work.pop(idx, None)
            add_scaled(out, self.combos[idx], c, field)
        return out
