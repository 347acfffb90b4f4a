"""Based arrows between lattice points and their truncated algebras.

An arrow is a pair (exps, base) of a monomial's exponent tuple and a
point; it runs from its base y to y + degree(exps).  The product of two
arrows composes head-to-tail:

    (a1 at y1) * (a2 at y2) = 0 unless y1 = y2 + degree(a2),

otherwise it is the monomial product of a1 and a2 re-based at y2.  All
terms of that product share one degree, so the result is again a sum of
arrows from y2 to y1 + degree(a1).

Restricting bases and heads to a finite convex set of points gives a
finite-dimensional algebra whose basis is exactly the arrows inside the
set.  Quotienting further to the compositions keeps the arrows that pass
the diagonal completion test (`arrow_is_kept`): they are indexed by
upper-triangular marginal matrices, which realizes the Borel subalgebra
of the Schur algebra.  `BorelAlgebra` builds its basis from those
matrices, so its drop rule, `reduce_element`, is membership in the
basis; `arrow_is_kept` is the independent description tests compare it
with.
"""

from itertools import product as iproduct
from operator import sub

from .combinatorics import (
    is_composition,
    is_convex,
    prefix_sums,
    tri_matrices_all,
)
from .divided_powers import DividedPowerAlgebra
from .linalg import add_scaled


def indicator(alg, point):
    return (alg.unit, tuple(point))


def arrow_is_kept(alg, arrow, r):
    """Diagonal completion test for membership in the composition quotient.

    An arrow (exps, mu) survives iff mu is a composition and every diagonal
    entry mu_j - sum_{i<j} k_ij of the completed marginal matrix is
    non-negative; equivalently all partial column products keep the point
    inside the compositions.
    """
    exps, mu = arrow
    if not is_composition(mu, r):
        return False
    n = alg.n
    for j in range(2, n + 1):
        col = sum(exps[alg.pair_index[(i, j)]] for i in range(1, j))
        if mu[j - 1] - col < 0:
            return False
    return True


def matrix_to_arrow(alg, K):
    """The arrow of an upper-triangular marginal matrix K: the exponent of
    e_ij is the cell (i, j), i < j, in `alg.pairs` order, and the base is
    the column sums."""
    return (tuple(K[i - 1][j - 1] for i, j in alg.pairs),
            tuple(map(sum, zip(*K))))


class BasedAlgebra:
    """Index and multiplication shared by algebras with a basis of arrows.

    A subclass sets `field`, `arrows` (pairs (exps, base)) and
    `heads`, calls `_index_arrows` once, and supplies `_product(i, j)`,
    the product of composable basis arrows as a vector over basis
    indices; `product_indices` and `product_terms` cache it and give a
    copy the caller owns or the cached pairs.  The index answers "which
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

    def is_unit(self, i):
        return not any(self.arrows[i][0])

    def based_at(self, y):
        """Indices of the arrows starting at y."""
        return self._by_base.get(tuple(y), ())

    def ending_at(self, w):
        """Indices of the arrows ending at w."""
        return self._by_head.get(tuple(w), ())

    def between(self, y, w):
        """Indices of the arrows from the point y to the point w (tuples)."""
        return self._by_pair.get((y, w), ())

    def module_basis(self, gens, block):
        """The basis on the set of points `block` of the free module on
        generators at the points `gens`: the pairs (t, i), i an arrow from
        gens[t] into `block`, by one pass over the arrows at each
        generator."""
        heads = self.heads
        return [(t, i) for t, y in enumerate(gens) for i in self.based_at(y)
                if heads[i] in block]

    def product_indices(self, i, j):
        """Product of basis arrows i and j as a vector over basis indices."""
        return dict(self.product_terms(i, j))

    def product_terms(self, i, j):
        """The same product as (index, scalar) pairs, read from the cached
        table entry without a copy: the resolution engine's `mul`."""
        if self.bases[i] != self.heads[j]:
            return ()
        hit = self._ptable.get((i, j))
        if hit is None:
            hit = self._ptable[(i, j)] = self._product(i, j)
        return hit.items()

    def _compose(self, i, j):
        """Product of composable basis arrows i and j as an arrow element."""
        (m1, _), (m2, y2) = self.arrows[i], self.arrows[j]
        of = self.field.of
        return {(m, y2): c for m, k in self.alg.product_terms(m1, m2)
                if (c := of(k))}

    def product(self, x, y):
        """Bilinear product of index vectors."""
        bases = self.bases
        out = {}
        for j, cj in y.items():
            head = self.heads[j]
            for i, ci in x.items():
                if bases[i] == head:
                    add_scaled(out, self.product_indices(i, j), ci * cj,
                               self.field)
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
        # w lies above y iff every prefix sum of w is >= y's and the
        # totals agree, so the heads above y are the points in the box of
        # prefix sums from y's up to the largest ones of its total
        sums = {prefix_sums(y): y for y in self.points}
        tops = {}
        for s in sums:
            tops[s[-1]] = tuple(map(max, tops.get(s[-1], s), s))
        arrows = []
        for s, y in sums.items():
            ends = [t + 1 for t in tops[s[-1]]]
            for above in iproduct(*map(range, s, ends)):
                w = sums.get(above)
                if w is not None:
                    d = tuple(map(sub, above, s))[:-1]
                    arrows.extend((y, w, m) for m in alg.component_basis(d))
        arrows.sort()
        self.arrows = [(m, y) for y, _, m in arrows]
        self.heads = [w for _, w, _ in arrows]
        self.index = {a: i for i, a in enumerate(self.arrows)}
        self._index_arrows()

    def indicator_vector(self, y):
        """The unit arrow at the point y, as a vector over basis indices."""
        return {self.index[indicator(self.alg, tuple(y))]: self.field.one}

    def _product(self, i, j):
        index = self.index
        return {index[a]: c for a, c in self._compose(i, j).items()}


class BorelAlgebra(BasedAlgebra):
    """The composition-indexed quotient: basis = kept arrows = marginal matrices.

    Products are computed in the ambient arrow algebra and reduced by the
    monomial-drop rule, which drops every arrow outside the basis; the
    linear-algebra quotient realization agrees (tested against
    `quotient_algebra`).
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
        # the base of K is its column sums (matrix_to_arrow), its head
        # the row sums
        self.heads = [tuple(map(sum, K)) for K in self.matrices]
        self.index = {a: i for i, a in enumerate(self.arrows)}
        self._index_arrows()

    def reduce_element(self, element):
        """Arrow element -> index vector: the drop rule keeps exactly the
        arrows that are basis elements."""
        index = self.index
        return {index[a]: c for a, c in element.items() if a in index}

    def _product(self, i, j):
        return self.reduce_element(self._compose(i, j))

    def to_json(self):
        return {
            "n": self.n,
            "r": self.r,
            "char": self.field.characteristic,
            "dimension": self.dim,
            "basis": [{"matrix": [list(row) for row in K],
                       "exponents": list(a[0]),
                       "base": list(a[1]),
                       "head": list(w)}
                      for K, a, w in zip(self.matrices, self.arrows,
                                         self.heads)],
        }
