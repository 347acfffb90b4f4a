"""Compositions, dominance order and triangular marginal matrices.

Lattice points are plain int tuples.  The dominance order compares prefix
sums; it coincides with the order generated by adding the vectors
v_i - v_{i+1}, which is how truncation sets and gradings are cut out
everywhere else in the package.
"""

from collections import Counter
from itertools import combinations, product as iproduct
from math import comb
from operator import ge


def _check_point(z):
    if not z:
        raise ValueError("lattice points must have positive length")


def prefix_sums(z):
    out = []
    s = 0
    for x in z:
        s += x
        out.append(s)
    return tuple(out)


def dominance_leq(z, w):
    """True iff w dominates z: every prefix sum of w - z is >= 0 and totals agree."""
    if len(z) != len(w):
        raise ValueError(f"length mismatch: {len(z)} vs {len(w)}")
    _check_point(z)
    s = 0
    for a, b in zip(z, w):
        s += b - a
        if s < 0:
            return False
    return s == 0


def positive_root_coords(d):
    """Coefficients of d over the vectors v_i - v_{i+1}, or None.

    The j-th coefficient is the j-th prefix sum of d; membership in the
    positive monoid means all of them are >= 0 and the total is 0.
    """
    _check_point(d)
    ps = prefix_sums(d)
    if ps[-1] != 0 or any(c < 0 for c in ps[:-1]):
        return None
    return ps[:-1]


def coords_to_vector(coords):
    """Inverse of positive_root_coords: the lattice vector with given coefficients."""
    n = len(coords) + 1
    ext = (0,) + tuple(coords) + (0,)
    return tuple(ext[i + 1] - ext[i] for i in range(n))


def point_add(z, d):
    return tuple(a + b for a, b in zip(z, d))


def point_sub(z, w):
    return tuple(a - b for a, b in zip(z, w))


def _check_size(n, r):
    if n < 1:
        raise ValueError("n must be >= 1")
    if r < 0:
        raise ValueError("r must be >= 0")


def interval_points(n, r):
    """All points of the dominance interval between (0,..,0,r) and (r,0,..,0),
    sorted lexicographically."""
    _check_size(n, r)
    return dominance_between((0,) * (n - 1) + (r,), (r,) + (0,) * (n - 1))


def compositions(n, r):
    """Compositions of r into n non-negative parts, sorted lexicographically.

    Stars and bars: the parts are the gaps between n - 1 bars placed among
    r + n - 1 slots.  Bar sets come in lexicographic order, and so do the
    gap tuples they give.
    """
    _check_size(n, r)
    out = []
    for bars in combinations(range(r + n - 1), n - 1):
        ends = bars + (r + n - 1,)
        out.append(tuple(e - s - 1 for s, e in zip((-1,) + bars, ends)))
    return out


def layer_points(n, r, k, interval=None):
    """Interval points whose first negative coordinate is the k-th.

    `interval`, if given, is `interval_points(n, r)`, which is then not
    built again.
    """
    if interval is None:
        interval = interval_points(n, r)
    return [z for z in interval
            if z[k - 1] < 0 and all(z[i] >= 0 for i in range(k - 1))]


def is_composition(z, r):
    return sum(z) == r and all(x >= 0 for x in z)


def weight(idx, n):
    """Content vector of a multi-index: how often each letter 1..n occurs."""
    out = [0] * n
    for x in idx:
        if not 1 <= x <= n:
            raise ValueError(f"multi-index entry {x} out of range 1..{n}")
        out[x - 1] += 1
    return tuple(out)


def matrix_to_pair(K):
    """Canonical representative pair of the orbit indexed by K.

    The first index lists each row label with multiplicity the row sum;
    the second lists the column labels row by row.
    """
    n = len(K)
    i = []
    j = []
    for s in range(n):
        for t in range(s, n):
            i.extend([s + 1] * K[s][t])
            j.extend([t + 1] * K[s][t])
    return tuple(i), tuple(j)


def tri_matrices_all(n, r):
    """All upper-triangular matrices over the naturals with entry sum r, sorted.

    The n(n+1)/2 upper cells, read row by row, take the compositions of r;
    lexicographic order on those readings is the order on the matrices.
    """
    out = []
    for cells in compositions(n * (n + 1) // 2, r):
        rows = []
        k = 0
        for s in range(n):
            rows.append((0,) * s + cells[k:k + n - s])
            k += n - s
        out.append(tuple(rows))
    return out


def tri_count(n, r):
    """Stars-and-bars count of tri_matrices_all."""
    return comb(n * (n + 1) // 2 + r - 1, r)


def layer_key(z, k):
    """Sort key whose lexicographic order gives the layer ordering.

    (sum of all but the k-th coordinate, sum beyond k, the coordinates
    before k, then the coordinates after k reversed.)
    """
    n = len(z)
    head = sum(z) - z[k - 1]
    tail = sum(z[k:])
    return (head, tail) + tuple(z[: k - 1]) + tuple(reversed(z[k:]))


def dominance_between(a, b):
    """All points z with a <= z <= b in dominance order (empty unless a <= b)."""
    if not dominance_leq(a, b):
        return []
    pa, pb = prefix_sums(a), prefix_sums(b)
    n = len(a)
    out = []
    for ps in iproduct(*(range(pa[i], pb[i] + 1) for i in range(n - 1))):
        full = ps + (pa[-1],)
        z = tuple(full[i] - (full[i - 1] if i else 0) for i in range(n))
        out.append(z)
    return sorted(out)


def is_convex(points):
    """Convexity in the dominance order, by cover steps.

    Steps v_i - v_{i+1} lead from a to any z <= b, and such a chain leaves
    the set at a first step when z is outside it.  So the set is convex
    iff no step a + (v_i - v_{i+1}) from a point a of the set lands
    outside it and below a point of it.  The step adds 1 to a's i-th
    prefix sum, and z <= b iff b has z's length and total and every
    prefix sum of b is at least z's.
    """
    level = {}
    for a in set(points):
        level.setdefault((len(a), sum(a)), set()).add(prefix_sums(a))
    for sums in level.values():
        top = tuple(map(max, zip(*sums)))
        for s in sums:
            for i in range(len(s) - 1):
                z = s[:i] + (s[i] + 1,) + s[i + 1:]
                if s[i] < top[i] and z not in sums and any(
                        all(map(ge, t, z)) for t in sums):
                    return False
    return True


def orbit_of_pair(i, j):
    """All distinct simultaneous rearrangements of the pair of multi-indices.

    Walks the distinct arrangements of the letter pairs (i_t, j_t) as a
    multiset, in lexicographic order by the next-permutation step.  That
    is r!/prod_st K_st! arrangements, where K_st counts the positions t
    with (i_t, j_t) = (s, t), at O(r) each, instead of all r! permutations.
    """
    if len(i) != len(j):
        raise ValueError("multi-index length mismatch")
    seq = sorted(zip(i, j))
    r = len(seq)
    out = set()
    while True:
        out.add((tuple(a for a, _ in seq), tuple(b for _, b in seq)))
        k = r - 2
        while k >= 0 and seq[k] >= seq[k + 1]:
            k -= 1
        if k < 0:
            return out
        m = r - 1
        while seq[m] <= seq[k]:
            m -= 1
        seq[k], seq[m] = seq[m], seq[k]
        seq[k + 1:] = reversed(seq[k + 1:])


def orbit_size(pairs):
    """Number of distinct rearrangements of the letter pairs (i_t, j_t),
    the size of the orbit `orbit_of_pair` walks: r!/prod_st K_st!, taken
    as a product of binomials C(running total, K_st) so no factorial of r
    is formed."""
    size, total = 1, 0
    for m in Counter(pairs).values():
        total += m
        size *= comb(total, m)
    return size
