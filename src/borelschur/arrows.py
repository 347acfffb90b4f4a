"""Based arrows between lattice points and their truncated algebras.

An arrow is a pair (monomial, base point); it runs from its base y to
y + degree(monomial).  The product of two arrows composes head-to-tail:

    (a1 at y1) * (a2 at y2) = 0 unless y1 = y2 + degree(a2),

otherwise it is the monomial product of a1 and a2 re-based at y2.  All
terms of that product share one degree, so the result is again a sum of
arrows from y2 to y1 + degree(a1).

Restricting bases and heads to a finite convex set of points gives a
finite-dimensional algebra whose basis is exactly the arrows inside the
set.  Quotienting further to the compositions is done by the diagonal
completion rule (`arrow_is_kept`): the surviving arrows are indexed by
upper-triangular marginal matrices, which realizes the Borel subalgebra
of the Schur algebra.
"""

from .combinatorics import (
    coords_to_vector,
    is_composition,
    is_convex,
    point_add,
    point_sub,
    positive_root_coords,
    tri_matrices_all,
)
from .divided_powers import DividedPowerAlgebra
from .linalg import add_scaled


def arrow_head(alg, arrow):
    m, base = arrow
    return point_add(base, coords_to_vector(alg.degree(m)))


def arrow_product(alg, x, y, field):
    """Bilinear product of arrow elements (dicts {(monomial, base): scalar})."""
    out = {}
    for (m2, y2), c2 in y.items():
        head2 = arrow_head(alg, (m2, y2))
        for (m1, y1), c1 in x.items():
            if y1 != head2:
                continue
            prod = alg.monomial_product(m1, m2, field)
            add_scaled(out, {(m, y2): c for m, c in prod.items()},
                       field.mul(c1, c2), field)
    return out


def indicator(alg, point):
    return (alg.unit, tuple(point))


def arrow_is_kept(alg, arrow, r):
    """Diagonal completion test for membership in the composition quotient.

    An arrow (m, mu) survives iff mu is a composition and every diagonal
    entry mu_j - sum_{i<j} k_ij of the completed marginal matrix is
    non-negative; equivalently all partial column products keep the point
    inside the compositions.
    """
    m, mu = arrow
    if not is_composition(mu, r):
        return False
    n = alg.n
    for j in range(2, n + 1):
        col = sum(m.exps[alg.pair_index[(i, j)]] for i in range(1, j))
        if mu[j - 1] - col < 0:
            return False
    return True


def reduce_to_compositions(alg, element, r):
    """Quotient map onto the composition algebra in the arrow basis:
    drop every arrow failing the diagonal completion test."""
    return {a: c for a, c in element.items() if arrow_is_kept(alg, a, r)}


def matrix_to_arrow(alg, K):
    mu = tuple(sum(K[i][t] for i in range(t + 1)) for t in range(alg.n))
    exps = {}
    for i in range(1, alg.n + 1):
        for j in range(i + 1, alg.n + 1):
            exps[(i, j)] = K[i - 1][j - 1]
    return (alg.monomial(exps), mu)


class BasedAlgebra:
    """Index and multiplication shared by algebras with a basis of arrows.

    A subclass sets `field`, `arrows` (pairs (monomial, base)) and
    `heads`, calls `_index_arrows` once, and supplies `_product(i, j)`,
    the product of composable basis arrows as a vector over basis
    indices; `product_indices` caches it.  The index answers "which
    arrows start at y", "which end at w" and "which run from y to w" by
    lookup; each answer lists indices in increasing order.  Basis arrows
    i and j compose only when base(i) == head(j); every other product is
    zero by grading and is skipped without a table lookup.
    """

    def _index_arrows(self):
        self.bases = [a[1] for a in self.arrows]
        by_base, by_head, by_pair = {}, {}, {}
        for i, (y, w) in enumerate(zip(self.bases, self.heads)):
            by_base.setdefault(y, []).append(i)
            by_head.setdefault(w, []).append(i)
            by_pair.setdefault((y, w), []).append(i)
        self._by_base = {y: tuple(v) for y, v in by_base.items()}
        self._by_head = {w: tuple(v) for w, v in by_head.items()}
        self._by_pair = {k: tuple(v) for k, v in by_pair.items()}
        self._ptable = {}

    @property
    def dim(self):
        return len(self.arrows)

    def head(self, i):
        return self.heads[i]

    def base(self, i):
        return self.bases[i]

    def is_unit_arrow(self, i):
        return self.arrows[i][0].is_unit()

    def based_at(self, y):
        """Indices of the arrows starting at y."""
        return self._by_base.get(tuple(y), ())

    def ending_at(self, w):
        """Indices of the arrows ending at w."""
        return self._by_head.get(tuple(w), ())

    def between(self, y, w):
        """Indices of the arrows from y to w."""
        return self._by_pair.get((tuple(y), tuple(w)), ())

    def indicator_vector(self, y):
        return {self.index[indicator(self.alg, tuple(y))]: self.field.one}

    def product_indices(self, i, j):
        """Product of basis arrows i and j as a vector over basis indices."""
        if self.bases[i] != self.heads[j]:
            return {}
        hit = self._ptable.get((i, j))
        if hit is None:
            hit = self._ptable[(i, j)] = self._product(i, j)
        return dict(hit)

    def _compose(self, i, j):
        """Product of composable basis arrows i and j as an arrow element."""
        (m1, _), (m2, y2) = self.arrows[i], self.arrows[j]
        return {(m, y2): c for m, c
                in self.alg.monomial_product(m1, m2, self.field).items()}

    def product(self, x, y):
        """Bilinear product of index vectors."""
        field = self.field
        bases = self.bases
        out = {}
        for j, cj in y.items():
            head = self.heads[j]
            for i, ci in x.items():
                if bases[i] == head:
                    add_scaled(out, self.product_indices(i, j),
                               field.mul(ci, cj), field)
        return out


class ConvexTruncation(BasedAlgebra):
    """The finite-dimensional algebra carried by a convex set of points.

    Basis arrows have both endpoints in the set; the product of basis
    arrows never leaves the set, so no reduction is needed.
    """

    def __init__(self, alg, points, field):
        self.alg = alg
        self.field = field
        self.points = sorted(tuple(p) for p in points)
        if len(set(self.points)) != len(self.points):
            raise ValueError("duplicate points")
        if not is_convex(self.points):
            raise ValueError("point set is not convex; use quotient_algebra")
        arrows = []
        for y in self.points:
            for w in self.points:
                d = positive_root_coords(point_sub(w, y))
                if d is None:
                    continue
                for m in alg.component_basis(d):
                    arrows.append((y, w, m))
        arrows.sort(key=lambda t: (t[0], t[1], t[2].exps))
        self.arrows = [(m, y) for y, _, m in arrows]
        self.heads = [w for _, w, _ in arrows]
        self.index = {a: i for i, a in enumerate(self.arrows)}
        self._index_arrows()

    def _product(self, i, j):
        index = self.index
        return {index[a]: c for a, c in self._compose(i, j).items()}


class BorelAlgebra(BasedAlgebra):
    """The composition-indexed quotient: basis = kept arrows = marginal matrices.

    Products are computed in the ambient arrow algebra and reduced by the
    monomial-drop rule; the linear-algebra quotient realization agrees
    (tested against `quotient_algebra`).
    """

    def __init__(self, n, r, field, alg=None):
        self.alg = alg if alg is not None else DividedPowerAlgebra(n)
        if self.alg.n != n:
            raise ValueError("algebra rank mismatch")
        self.n = n
        self.r = r
        self.field = field
        self.matrices = tri_matrices_all(n, r)
        self.arrows = [matrix_to_arrow(self.alg, K) for K in self.matrices]
        self.heads = [arrow_head(self.alg, a) for a in self.arrows]
        self.index = {a: i for i, a in enumerate(self.arrows)}
        self._index_arrows()

    def reduce_element(self, element):
        """Arrow element -> index vector, dropping non-kept arrows."""
        out = {}
        for a, c in element.items():
            if arrow_is_kept(self.alg, a, self.r):
                out[self.index[a]] = c
        return out

    def _product(self, i, j):
        return self.reduce_element(self._compose(i, j))

    def to_json(self):
        return {
            "n": self.n,
            "r": self.r,
            "char": self.field.characteristic,
            "dimension": self.dim,
            "basis": [{"matrix": [list(row) for row in K],
                       "exponents": list(a[0].exps),
                       "base": list(a[1]),
                       "head": list(w)}
                      for K, a, w in zip(self.matrices, self.arrows,
                                         self.heads)],
        }
