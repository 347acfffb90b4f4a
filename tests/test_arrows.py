import random

import pytest

from borelschur.arrows import (
    BorelAlgebra,
    ConvexTruncation,
    arrow_head,
    arrow_is_kept,
    arrow_product,
    indicator,
    matrix_to_arrow,
    reduce_to_compositions,
)
from borelschur.combinatorics import (
    compositions,
    dominance_leq,
    interval_points,
    point_sub,
    positive_root_coords,
    tri_count,
    tri_matrices_all,
)
from borelschur.divided_powers import DividedPowerAlgebra
from borelschur.fields import PrimeField, Rationals
from borelschur.idempotents import quotient_algebra, removal_order
from oracles import arrow_to_matrix, column_factors, unit

QQ = Rationals()


def test_arrow_product_examples():
    A2 = DividedPowerAlgebra(2)
    e12 = A2.monomial({(1, 2): 1})
    # indicator at the head passes the arrow through
    out = arrow_product(A2, {indicator(A2, (2, 0)): QQ.one},
                        {(e12, (1, 1)): QQ.one}, QQ)
    assert out == {(e12, (1, 1)): QQ.one}
    # endpoint mismatch kills the product
    out = arrow_product(A2, {indicator(A2, (1, 1)): QQ.one},
                        {(e12, (1, 1)): QQ.one}, QQ)
    assert out == {}
    # composing two single steps gives twice the divided square
    out = arrow_product(A2, {(e12, (1, 1)): QQ.one}, {(e12, (0, 2)): QQ.one}, QQ)
    assert out == {(A2.monomial({(1, 2): 2}), (0, 2)): QQ.of(2)}


def count_arrows(alg, points):
    """Independent dimension oracle: arrows = pairs of comparable points
    weighted by the size of the connecting graded component."""
    total = 0
    for y in points:
        for w in points:
            d = positive_root_coords(point_sub(w, y))
            if d is not None:
                total += len(alg.component_basis(d))
    return total


def test_truncation_dimensions():
    A2 = DividedPowerAlgebra(2)
    T = ConvexTruncation(A2, interval_points(2, 2), QQ)
    assert T.dim == 6 == count_arrows(A2, interval_points(2, 2))
    T1 = ConvexTruncation(A2, [(1, 1)], QQ)
    assert T1.dim == 1
    A3 = DividedPowerAlgebra(3)
    T3 = ConvexTruncation(A3, interval_points(3, 2), QQ)
    # oracle count over the nine-point interval
    assert T3.dim == count_arrows(A3, interval_points(3, 2)) == 46


def test_truncation_rejects_non_convex():
    A3 = DividedPowerAlgebra(3)
    with pytest.raises(ValueError):
        ConvexTruncation(A3, compositions(3, 2), QQ)


def test_truncation_unit_and_associativity():
    A3 = DividedPowerAlgebra(3)
    T = ConvexTruncation(A3, interval_points(3, 2), PrimeField(3))
    u = unit(T)
    rng = random.Random(23)
    for _ in range(20):
        i = rng.randrange(T.dim)
        v = {i: T.field.one}
        assert T.product(u, v) == v
        assert T.product(v, u) == v
    for _ in range(30):
        i, j, k = (rng.randrange(T.dim) for _ in range(3))
        a, b, c = ({x: T.field.one} for x in (i, j, k))
        assert T.product(T.product(a, b), c) == T.product(a, T.product(b, c))


def test_arrow_product_is_graded():
    A3 = DividedPowerAlgebra(3)
    T = ConvexTruncation(A3, interval_points(3, 2), QQ)
    for i in range(T.dim):
        for j in range(T.dim):
            prod = T.product_indices(i, j)
            if not prod:
                continue
            assert T.base(i) == arrow_head(A3, T.arrows[j])
            for k in prod:
                assert T.base(k) == T.base(j)
                assert T.head(k) == T.head(i)


def test_kept_arrow_examples():
    A3 = DividedPowerAlgebra(3)
    m = A3.monomial({(2, 3): 1, (1, 2): 1})
    # completing the diagonal at the middle column goes negative
    assert not arrow_is_kept(A3, (m, (1, 0, 1)), 2)
    assert arrow_is_kept(A3, (A3.monomial({(1, 3): 1}), (1, 0, 1)), 2)
    # arrows at non-compositions never survive
    assert not arrow_is_kept(A3, (A3.unit, (1, -1, 2)), 2)
    assert arrow_is_kept(A3, (A3.unit, (1, 1, 0)), 2)


def test_kept_arrows_biject_with_marginal_matrices():
    for n, r in [(2, 3), (3, 2), (3, 3)]:
        alg = DividedPowerAlgebra(n)
        trunc_arrows = []
        for y in interval_points(n, r):
            for w in interval_points(n, r):
                d = positive_root_coords(point_sub(w, y))
                if d is None:
                    continue
                trunc_arrows.extend((m, y) for m in alg.component_basis(d))
        kept = [a for a in trunc_arrows if arrow_is_kept(alg, a, r)]
        assert len(kept) == tri_count(n, r)
        mats = sorted(arrow_to_matrix(alg, a) for a in kept)
        assert mats == tri_matrices_all(n, r)
        for a in kept:
            assert matrix_to_arrow(alg, arrow_to_matrix(alg, a)) == a


@pytest.mark.parametrize("n,r", [(3, 2), (3, 3), (4, 2)])
def test_kept_test_equals_partial_point_condition(n, r):
    """The diagonal completion test is equivalent to all partial column
    products keeping the point on a composition: walking up the columns
    from the base must never leave the composition set."""
    from borelschur.combinatorics import coords_to_vector, is_composition, point_add

    alg = DividedPowerAlgebra(n)
    trunc = ConvexTruncation(alg, interval_points(n, r), QQ)
    for a in trunc.arrows:
        m, mu = a
        path_ok = is_composition(mu, r)
        pt = mu
        for f in reversed(column_factors(alg, m)):
            pt = point_add(pt, coords_to_vector(alg.degree(f)))
            path_ok = path_ok and is_composition(pt, r)
        assert path_ok == arrow_is_kept(alg, a, r), a


def test_kept_arrow_endpoints_dominate():
    B = BorelAlgebra(3, 3, QQ)
    for i in range(B.dim):
        mu = B.base(i)
        lam = B.head(i)
        assert dominance_leq(mu, lam)
        assert sum(mu) == 3 and all(x >= 0 for x in mu)
        assert all(x >= 0 for x in lam)


def test_reduce_examples():
    A3 = DividedPowerAlgebra(3)
    kept = (A3.monomial({(1, 3): 1}), (1, 0, 1))
    dropped = (A3.monomial({(2, 3): 1, (1, 2): 1}), (1, 0, 1))
    elem = {kept: QQ.of(5), dropped: QQ.of(7)}
    assert reduce_to_compositions(A3, elem, 2) == {kept: QQ.of(5)}


def test_borel_dimensions():
    assert BorelAlgebra(2, 2, QQ).dim == 6
    assert BorelAlgebra(3, 2, QQ).dim == 21
    assert BorelAlgebra(2, 0, QQ).dim == 1


def test_projective_dimensions():
    """The projective at a composition is spanned by the arrows based there."""
    B = BorelAlgebra(2, 2, QQ)
    assert len(B.based_at((1, 1))) == 2
    assert len(B.based_at((2, 0))) == 1
    assert B.based_at((1, -1)) == ()
    B32 = BorelAlgebra(3, 2, QQ)
    for mu in compositions(3, 2):
        expected = len([K for K in tri_matrices_all(3, 2)
                        if tuple(sum(K[s][t] for s in range(t + 1))
                                 for t in range(3)) == mu])
        assert len(B32.based_at(mu)) == expected
    assert len(B32.based_at((2, 0, 0))) == 1


def test_borel_unit():
    B = BorelAlgebra(3, 2, PrimeField(2))
    u = unit(B)
    for i in range(B.dim):
        v = {i: B.field.one}
        assert B.product(u, v) == v
        assert B.product(v, u) == v


@pytest.mark.parametrize("n,r", [(2, 3), (3, 2), (3, 3)])
def test_reduce_is_algebra_map(n, r):
    """The drop map must be multiplicative on every pair of interval
    arrows: reduce(x * y) = reduce(x) * reduce(y), the right side taken in
    the quotient.  In particular products with a dropped factor must die."""
    alg = DividedPowerAlgebra(n)
    field = PrimeField(3)
    B = BorelAlgebra(n, r, field)
    T = ConvexTruncation(alg, interval_points(n, r), field)
    for a in T.arrows:
        va = B.reduce_element({a: field.one})
        for b in T.arrows:
            vb = B.reduce_element({b: field.one})
            ambient = arrow_product(alg, {a: field.one}, {b: field.one}, field)
            lhs = B.reduce_element(ambient)
            rhs = B.product(va, vb)
            assert lhs == rhs, (a, b)


def _based_algebra(kind, char):
    field = QQ if char == 0 else PrimeField(char)
    if kind == "borel":
        return BorelAlgebra(3, 2, field)
    T = ConvexTruncation(DividedPowerAlgebra(3), interval_points(3, 2), field)
    if kind == "truncation":
        return T
    return quotient_algebra(T, [removal_order(3, 2)[0][1]])


@pytest.mark.parametrize("kind", ["truncation", "borel", "quotient"])
@pytest.mark.parametrize("char", [0, 2])
def test_index_matches_linear_scan(kind, char):
    A = _based_algebra(kind, char)
    heads = [arrow_head(A.alg, a) for a in A.arrows]
    for i in range(A.dim):
        assert A.head(i) == heads[i]
        assert A.base(i) == A.arrows[i][1]
    points = {a[1] for a in A.arrows} | set(heads)
    for y in points:
        assert list(A.based_at(y)) == [
            i for i, a in enumerate(A.arrows) if a[1] == y]
        assert list(A.ending_at(y)) == [
            i for i in range(A.dim) if heads[i] == y]
        for w in points:
            assert list(A.between(y, w)) == [
                i for i, a in enumerate(A.arrows) if a[1] == y and heads[i] == w]
    assert A.based_at((9, 9, 9)) == () == A.between((9, 9, 9), (9, 9, 9))


@pytest.mark.parametrize("kind", ["truncation", "borel", "quotient"])
@pytest.mark.parametrize("char", [0, 2])
def test_zero_by_grading_skips_the_table(kind, char):
    A = _based_algebra(kind, char)
    for i in range(A.dim):
        for j in range(A.dim):
            prod = A.product_indices(i, j)
            if A.base(i) != A.head(j):
                assert prod == {}
            elif kind == "truncation" and char == 0:
                # over QQ the arrow algebra has no zero divisors among arrows
                assert prod
            # the caller owns the returned vector; the cached one is kept
            kept = dict(prod)
            prod.clear()
            assert A.product_indices(i, j) == kept
    assert A._ptable
    assert all(A.base(i) == A.head(j) for i, j in A._ptable)
