import random
from collections import Counter
from itertools import combinations, permutations, product as iproduct
from math import comb, factorial, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from borelschur.combinatorics import (
    compositions,
    coords_to_vector,
    dominance_between,
    dominance_leq,
    interval_points,
    is_convex,
    layer_key,
    layer_points,
    matrix_to_pair,
    orbit_of_pair,
    orbit_size,
    point_add,
    point_sub,
    positive_root_coords,
    tri_count,
    tri_matrices_all,
    weight,
)
from oracles import in_column_monoid, pair_to_matrix
from oracles import is_convex as brute_is_convex


# ---------------------------------------------------------------- dominance

def test_dominance_examples():
    assert dominance_leq((0, 2), (2, 0))
    assert dominance_leq((1, 1, 0), (1, 1, 0))
    # prefix sums of the differences are (-1, 1) and (1, -1): incomparable
    assert not dominance_leq((1, 0, 1), (0, 2, 0))
    assert not dominance_leq((0, 2, 0), (1, 0, 1))


def test_dominance_length_mismatch():
    with pytest.raises(ValueError):
        dominance_leq((1, 0), (1, 0, 0))


def test_dominance_partial_order_random():
    rng = random.Random(2024)
    pts = [tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(40)]
    for a in pts:
        assert dominance_leq(a, a)
    for a in pts:
        for b in pts:
            if dominance_leq(a, b) and dominance_leq(b, a):
                assert a == b
    for _ in range(300):
        a, b, c = rng.choice(pts), rng.choice(pts), rng.choice(pts)
        if dominance_leq(a, b) and dominance_leq(b, c):
            assert dominance_leq(a, c)


def test_dominance_equals_monoid_order_on_box():
    # dominance comparison must coincide with membership of the difference
    # in the positive monoid, exhaustively on small boxes
    for n, r in [(2, 3), (3, 2)]:
        box = list(iproduct(range(-r, r + 1), repeat=n))
        for z in box:
            for w in box:
                assert dominance_leq(z, w) == (
                    positive_root_coords(point_sub(w, z)) is not None)


def test_positive_root_coords_examples():
    assert positive_root_coords((1, 0, -1)) == (1, 1)
    assert positive_root_coords((0, 0, 0)) == (0, 0)
    assert positive_root_coords((-1, 1, 0)) is None


def test_coords_vector_round_trip():
    rng = random.Random(5)
    for _ in range(50):
        c = tuple(rng.randint(0, 4) for _ in range(3))
        assert positive_root_coords(coords_to_vector(c)) == c


# ---------------------------------------------------------------- intervals

def test_in_interval_examples():
    pts = interval_points(3, 2)
    assert (2, -1, 1) in pts and (2, -1, 1) not in compositions(3, 2)
    assert (0, 0, 2) in pts and (0, 0, 2) in compositions(3, 2)
    # prefix sum 3 exceeds r: outside the interval
    assert (3, 0, -1) not in pts


def brute_interval(n, r):
    """Independent oracle: scan a box for points between the two extremes."""
    lo = (0,) * (n - 1) + (r,)
    hi = (r,) + (0,) * (n - 1)
    box = iproduct(range(-r * n, r * n + 1), repeat=n)
    return sorted(z for z in box
                  if dominance_leq(lo, z) and dominance_leq(z, hi))


@pytest.mark.parametrize("n,r", [(1, 0), (1, 2), (2, 2), (2, 3), (3, 2), (3, 3)])
def test_interval_points_against_oracle(n, r):
    assert interval_points(n, r) == brute_interval(n, r)


def test_interval_examples():
    assert interval_points(2, 2) == [(0, 2), (1, 1), (2, 0)]
    pts = interval_points(3, 2)
    assert len(pts) == 9
    assert set(pts) == set(compositions(3, 2)) | {(1, -1, 2), (2, -1, 1), (2, -2, 2)}
    assert interval_points(1, 0) == [(0,)]


def test_interval_special_cases():
    # for two rows the interval is exactly the compositions
    for r in range(5):
        assert interval_points(2, r) == compositions(2, r)
    # requiring every coordinate non-negative recovers the compositions
    for n, r in [(1, 0), (3, 0), (3, 2), (3, 3), (4, 2), (5, 3)]:
        assert [z for z in interval_points(n, r) if min(z) >= 0] == \
            compositions(n, r)


def test_layer_points():
    assert layer_points(3, 2, 2) == sorted([(1, -1, 2), (2, -1, 1), (2, -2, 2)])
    # layers and the compositions partition the interval
    for n, r in [(3, 2), (3, 3), (4, 2)]:
        parts = [compositions(n, r)] + \
            [layer_points(n, r, k) for k in range(2, n + 1)]
        flat = [z for part in parts for z in part]
        assert sorted(flat) == interval_points(n, r)
        assert len(flat) == len(set(flat))


# ------------------------------------------------------------ multi-indices

def test_weight_examples():
    assert weight((1, 1, 2), 2) == (2, 1)
    assert weight((3, 3, 3), 3) == (0, 0, 3)
    assert weight((1, 2, 1, 3), 3) == (2, 1, 1)


def test_pair_to_matrix_examples():
    assert pair_to_matrix((1, 1, 2), (1, 2, 2), 2) == ((1, 1), (0, 1))
    assert pair_to_matrix((1, 2, 3), (1, 2, 3), 3) == (
        (1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert pair_to_matrix((1, 1), (2, 2), 2) == ((0, 2), (0, 0))
    with pytest.raises(ValueError):
        pair_to_matrix((2, 1), (1, 2), 2)


def test_matrix_to_pair_examples():
    assert matrix_to_pair(((1, 1), (0, 1))) == ((1, 1, 2), (1, 2, 2))
    assert matrix_to_pair(((3, 0), (0, 0))) == ((1, 1, 1), (1, 1, 1))
    assert matrix_to_pair(((0, 2), (0, 0))) == ((1, 1), (2, 2))


def test_pair_matrix_orbit_invariance():
    rng = random.Random(11)
    for _ in range(60):
        r = rng.randint(1, 5)
        n = rng.randint(2, 3)
        j = tuple(rng.randint(1, n) for _ in range(r))
        i = tuple(rng.randint(1, x) for x in j)
        K = pair_to_matrix(i, j, n)
        perm = list(range(r))
        rng.shuffle(perm)
        ip = tuple(i[p] for p in perm)
        jp = tuple(j[p] for p in perm)
        assert pair_to_matrix(ip, jp, n) == K
        # canonical pair stays in the orbit and maps back to K
        ci, cj = matrix_to_pair(K)
        assert (ci, cj) in orbit_of_pair(i, j)
        assert pair_to_matrix(ci, cj, n) == K


@pytest.mark.parametrize("n,r", [(2, 2), (2, 4), (3, 2), (3, 4)])
def test_orbit_bijection_exhaustive(n, r):
    seen = set()
    for j in iproduct(range(1, n + 1), repeat=r):
        for i in iproduct(*(range(1, x + 1) for x in j)):
            K = pair_to_matrix(i, j, n)
            assert matrix_to_pair(K) in orbit_of_pair(i, j)
            seen.add(K)
    assert seen == set(tri_matrices_all(n, r))


@st.composite
def letter_pairs(draw, max_r):
    n = draw(st.integers(1, 3))
    r = draw(st.integers(0, max_r))
    word = st.lists(st.integers(1, n), min_size=r, max_size=r)
    return tuple(draw(word)), tuple(draw(word))


@settings(max_examples=150, deadline=None)
@given(letter_pairs(6))
def test_orbit_of_pair_matches_all_permutations(pair):
    i, j = pair
    reference = {(tuple(i[p] for p in perm), tuple(j[p] for p in perm))
                 for perm in permutations(range(len(i)))}
    assert orbit_of_pair(i, j) == reference


@settings(max_examples=60, deadline=None)
@given(letter_pairs(8))
def test_orbit_of_pair_size_is_multinomial(pair):
    i, j = pair
    K = Counter(zip(i, j))
    expected = factorial(len(i)) // prod(factorial(k) for k in K.values())
    assert len(orbit_of_pair(i, j)) == expected
    assert orbit_size(zip(i, j)) == len(orbit_of_pair(i, j))


def test_orbit_of_pair_twelve_letters():
    # 12! = 479,001,600 permutations, but only C(12, 6) distinct arrangements
    ones = (1,) * 12
    got = orbit_of_pair(ones, (1,) * 6 + (2,) * 6)
    assert len(got) == 924
    assert got == {(ones, tuple(2 if t in s else 1 for t in range(12)))
                   for s in combinations(range(12), 6)}


def test_orbit_of_pair_rejects_length_mismatch():
    with pytest.raises(ValueError):
        orbit_of_pair((1, 2), (2,))


# --------------------------------------------------------- marginal matrices

def marginal_matrices(lam, mu):
    """The matrices of tri_matrices_all with row sums lam and column sums mu."""
    n = len(lam)
    return [K for K in tri_matrices_all(n, sum(lam))
            if marginals(K) == (tuple(lam), tuple(mu))]


def marginals(K):
    n = len(K)
    return (tuple(sum(row) for row in K),
            tuple(sum(K[s][t] for s in range(t + 1)) for t in range(n)))


def test_tri_matrices_examples():
    assert marginal_matrices((2, 1), (1, 2)) == [((1, 1), (0, 1))]
    lam = (2, 1, 0)
    assert marginal_matrices(lam, lam) == [((2, 0, 0), (0, 1, 0), (0, 0, 0))]
    assert marginal_matrices((0, 2), (2, 0)) == []
    assert len(tri_matrices_all(2, 2)) == 6


def brute_tri_all(n, r):
    """Oracle: add one to each upper cell of every matrix with sum r - 1."""
    if r == 0:
        return {((0,) * n,) * n}
    return {tuple(tuple(x + ((s, t) == (i, j)) for t, x in enumerate(row))
                  for s, row in enumerate(K))
            for K in brute_tri_all(n, r - 1)
            for i in range(n) for j in range(i, n)}


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("r", [0, 1, 2, 3, 4, 5])
def test_tri_count_matches_oracle(n, r):
    brute = brute_tri_all(n, r)
    assert len(brute) == comb(n * (n + 1) // 2 + r - 1, r) == tri_count(n, r)
    assert tri_matrices_all(n, r) == sorted(brute)


def test_tri_matrices_empty_unless_dominated():
    """Some matrix has rows lam and columns mu exactly when mu <= lam in the
    dominance order; exhaustive over compositions with n <= 4, r <= 4."""
    pairs = 0
    for n in range(1, 5):
        for r in range(5):
            found = {marginals(K) for K in tri_matrices_all(n, r)}
            for lam in compositions(n, r):
                for mu in compositions(n, r):
                    assert ((lam, mu) in found) == dominance_leq(mu, lam)
                    pairs += 1
    assert pairs == 2173


def test_marginals_of_enumeration():
    # rows (2,1,1) and columns (1,2,1) force a single matrix
    assert marginal_matrices((2, 1, 1), (1, 2, 1)) == [
        ((1, 1, 0), (0, 1, 0), (0, 0, 1))]


# -------------------------------------------------------------- layer order

def test_layer_order_examples():
    # keys: (3,1,2,1) against (4,2,2,2)
    assert layer_key((2, -1, 1), 2) == (3, 1, 2, 1)
    assert layer_key((2, -2, 2), 2) == (4, 2, 2, 2)
    assert layer_key((2, -1, 1), 2) < layer_key((2, -2, 2), 2)


def column_generators(n, k):
    """Generators v_i - v_k, i < k, of the single-column monoid."""
    return [tuple(1 if t == i else -1 if t == k - 1 else 0 for t in range(n))
            for i in range(k - 1)]


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_layer_order_monoid_properties(n, r):
    # adding a generator v_i - v_j with j <= k (lower block) must increase
    # the layer order, adding one with j > k (upper block) must decrease
    # it; exhaustive over the layer and the generator lists
    for k in range(2, n + 1):
        layer = set(layer_points(n, r, k))
        lower = [g for j in range(2, k + 1) for g in column_generators(n, j)]
        upper = [g for j in range(k + 1, n + 1)
                 for g in column_generators(n, j)]
        for z in layer:
            key = layer_key(z, k)
            for g in lower:
                z2 = point_add(z, g)
                if z2 in layer:
                    assert key < layer_key(z2, k)
            for g in upper:
                z2 = point_add(z, g)
                if z2 in layer:
                    assert key > layer_key(z2, k)


def test_column_monoid_membership():
    n = 4
    for k in range(1, n + 1):
        gens = column_generators(n, k)
        assert len(gens) == k - 1
        for g in gens:
            assert in_column_monoid(g, n, k)
        total = (0,) * n
        for g in gens:
            total = point_add(total, g)
        assert in_column_monoid(total, n, k)
        assert in_column_monoid((0,) * n, n, k)
    assert not in_column_monoid((0, 1, -1), 3, 2)
    assert in_column_monoid((1, -1, 0), 3, 2)


# ----------------------------------------------------------------- convexity

HOLED = [z for z in interval_points(3, 2) if z != (1, 0, 1)]


def test_is_convex_examples():
    assert is_convex(interval_points(3, 2))
    assert not is_convex(compositions(3, 2))
    assert not is_convex(HOLED)  # (0,0,2) < (1,0,1) < (2,0,0)
    assert is_convex([(1, 1)])


@st.composite
def point_sets(draw):
    """A random subset of an interval, or a sub-interval of it with at
    most one point removed."""
    n = draw(st.integers(1, 4))
    Y = interval_points(n, draw(st.integers(0, 3 if n == 4 else 4)))
    if draw(st.booleans()):
        return draw(st.lists(st.sampled_from(Y), unique=True))
    pts = dominance_between(draw(st.sampled_from(Y)), draw(st.sampled_from(Y)))
    if pts and draw(st.booleans()):
        pts.remove(draw(st.sampled_from(pts)))
    return pts


@settings(max_examples=200, deadline=None)
@given(point_sets())
@example(compositions(3, 2))
@example(HOLED)
def test_is_convex_matches_every_interval(points):
    """The cover-step test agrees with checking every dominance interval
    between two points of the set."""
    assert is_convex(points) == brute_is_convex(points)


def test_convexity_witness():
    # (2,-1,1) lies between two compositions of 2 but is not one
    a, b = (1, 0, 1), (2, 0, 0)
    between = dominance_between(a, b)
    assert (2, -1, 1) in between
    assert (2, -1, 1) not in compositions(3, 2)


def test_dominance_between_bounds():
    a, b = (0, 0, 2), (2, 0, 0)
    pts = dominance_between(a, b)
    assert a in pts and b in pts
    for z in pts:
        assert dominance_leq(a, z) and dominance_leq(z, b)
    assert sorted(pts) == interval_points(3, 2)
