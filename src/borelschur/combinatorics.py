"""Compositions, dominance order and triangular marginal matrices.

Lattice points are plain int tuples.  The dominance order compares prefix
sums; it coincides with the order generated by adding the vectors
v_i - v_{i+1}, which is how truncation sets and gradings are cut out
everywhere else in the package.
"""

from itertools import product as iproduct
from math import comb


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


def height(coords):
    return sum(coords)


def coords_to_vector(coords):
    """Inverse of positive_root_coords: the lattice vector with given coefficients."""
    n = len(coords) + 1
    ext = (0,) + tuple(coords) + (0,)
    return tuple(ext[i + 1] - ext[i] for i in range(n))


def point_add(z, d):
    return tuple(a + b for a, b in zip(z, d))


def point_sub(z, w):
    return tuple(a - b for a, b in zip(z, w))


def in_interval(z, r, k=1):
    """Membership in the dominance interval between (0,..,0,r) and (r,0,..,0),
    with the first k coordinates required non-negative.

    k = len(z) cuts out exactly the compositions of r.
    """
    _check_point(z)
    n = len(z)
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}, got {k}")
    if any(z[i] < 0 for i in range(k)):
        return False
    s = 0
    for x in z[:-1]:
        s += x
        if not 0 <= s <= r:
            return False
    return s + z[-1] == r


def interval_points(n, r):
    """All points of the dominance interval, sorted lexicographically."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if r < 0:
        raise ValueError("r must be >= 0")
    pts = []
    for ps in iproduct(range(r + 1), repeat=n - 1):
        full = ps + (r,)
        z = tuple(full[i] - (full[i - 1] if i else 0) for i in range(n))
        pts.append(z)
    return sorted(pts)


def compositions(n, r):
    """Compositions of r into n non-negative parts, sorted lexicographically."""
    return [z for z in interval_points(n, r) if all(x >= 0 for x in z)]


def layer_points(n, r, k):
    """Interval points whose first negative coordinate is the k-th."""
    return [
        z
        for z in interval_points(n, r)
        if z[k - 1] < 0 and all(z[i] >= 0 for i in range(k - 1))
    ]


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


def pair_to_matrix(i, j, n):
    """Upper-triangular position-count matrix of a componentwise-ordered pair."""
    if len(i) != len(j):
        raise ValueError("multi-index length mismatch")
    k = [[0] * n for _ in range(n)]
    for a, b in zip(i, j):
        if a > b:
            raise ValueError(f"pair not ordered: {a} > {b}")
        if not (1 <= a <= n and 1 <= b <= n):
            raise ValueError("multi-index entry out of range")
        k[a - 1][b - 1] += 1
    return tuple(tuple(row) for row in k)


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


def col_marginals(K):
    n = len(K)
    return tuple(sum(K[s][t] for s in range(t + 1)) for t in range(n))


def tri_matrices(lam, mu):
    """All upper-triangular matrices with row marginals lam and column marginals mu.

    Row-major recursive fill; the diagonal entry of each row is forced by the
    column marginal, the strictly-upper entries are free up to budgets.
    Output sorted by the flattened row-major tuple.
    """
    n = len(lam)
    if len(mu) != n:
        raise ValueError("marginal length mismatch")
    found = []
    rows = []
    col_used = [0] * n

    def fill_row(s):
        if s == n:
            found.append(tuple(tuple(row) for row in rows))
            return
        diag = mu[s] - col_used[s]
        rest = lam[s] - diag
        if diag < 0 or rest < 0:
            return
        row = [0] * n
        row[s] = diag

        def fill_entry(t, remaining):
            if t == n:
                if remaining == 0:
                    rows.append(row[:])
                    for u in range(s, n):
                        col_used[u] += row[u]
                    fill_row(s + 1)
                    for u in range(s, n):
                        col_used[u] -= row[u]
                    rows.pop()
                return
            cap = min(remaining, mu[t] - col_used[t])
            for v in range(cap + 1):
                row[t] = v
                fill_entry(t + 1, remaining - v)
            row[t] = 0

        fill_entry(s + 1, rest)

    fill_row(0)
    return sorted(found)


def tri_matrices_all(n, r):
    """All upper-triangular matrices over the naturals with entry sum r."""
    out = []
    for lam in compositions(n, r):
        for mu in compositions(n, r):
            out.extend(tri_matrices(lam, mu))
    return sorted(out)


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


def layer_compare(z, w, k):
    a, b = layer_key(z, k), layer_key(w, k)
    return (a > b) - (a < b)


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
    """Brute-force convexity in the dominance order."""
    pts = set(points)
    for a in pts:
        for b in pts:
            if a != b and dominance_leq(a, b):
                if any(z not in pts for z in dominance_between(a, b)):
                    return False
    return True


def column_generators(n, k):
    """Generators v_i - v_k, i < k, of the single-column monoid."""
    gens = []
    for i in range(1, k):
        v = [0] * n
        v[i - 1] = 1
        v[k - 1] = -1
        gens.append(tuple(v))
    return gens


def lower_generators(n, k):
    """Generators v_i - v_j with i < j <= k (columns up to k)."""
    gens = []
    for j in range(2, k + 1):
        gens.extend(column_generators(n, j))
    return gens


def upper_generators(n, k):
    """Generators v_i - v_j with i < j and j > k (columns beyond k)."""
    gens = []
    for j in range(k + 1, n + 1):
        gens.extend(column_generators(n, j))
    return gens


def in_column_monoid(d, n, k):
    """Membership of d in the monoid generated by v_i - v_k, i < k."""
    if len(d) != n:
        raise ValueError("length mismatch")
    if any(d[i] != 0 for i in range(k, n)):
        return False
    if any(d[i] < 0 for i in range(k - 1)):
        return False
    return d[k - 1] == -sum(d[i] for i in range(k - 1))


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
