"""Test oracles: reference computations that no command runs.

Marginal matrices of ordered pairs (criterion 4) and of kept arrows,
the degree of a monomial and the head of an arrow from it, products
and column factors of divided-power elements, structure constants by
rewriting whole words of syllables, the product of arrow elements in
the ambient arrow algebra, the unit and the arrow-side product table
of a based algebra, the largest reachable height by
search over the compositions, the Euler characteristics of a
transported complex (criterion 7), Tor through the interval algebra's
product filtered by the diagonal completion test, elimination against
an echelon form by picking one pivot at a time, the nullspace of a
list of columns by eliminating the transposed matrix, convexity by
every dominance interval between two points, the layer hypotheses by
testing every pair of points for a single-column monoid step, Tor at
one weight from a resolution of that simple over the interval algebra
pushed down by hand through the diagonal completion test, and the
graded Betti numbers of the trivial module in closed form (two rows in
characteristic p, Kostant's theorem in characteristic 0), and its first
syzygies and Ext^1 between simples in closed form in every
characteristic; the exactness of a graded resolution slice by slice,
a map's columns as dicts of unreduced sums, the ranks and d^2 verdict
of a complex with every column composed and eliminated, one changed,
deleted or added coefficient of a complex's maps, and a random change
of generators of a complex.
"""

from itertools import accumulate, combinations, permutations
from math import comb

from hypothesis import strategies as st

from borelschur.arrows import arrow_is_kept
from borelschur.combinatorics import (
    compositions,
    coords_to_vector,
    dominance_between,
    dominance_leq,
    interval_points,
    is_composition,
    layer_points,
    point_add,
    point_sub,
    positive_root_coords,
)
from borelschur.fields import serialize_scalar
from borelschur.linalg import Echelon, add_scaled, matrix_rank
from borelschur.resolutions import ModuleComplex, by_column, free_basis
from borelschur.transport import resolve_simple
from letter_oracle import written_rank


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


def monomial(alg, exps_by_pair):
    """The exponent tuple of the monomial with the exponents
    {(i, j): k}, every other exponent zero."""
    exps = [0] * len(alg.pairs)
    for (i, j), k in exps_by_pair.items():
        if k < 0:
            raise ValueError("negative exponent")
        exps[alg.pair_index[(i, j)]] = k
    return tuple(exps)


def degree(alg, m):
    """Coefficients of a monomial's degree over the simple positive
    vectors v_l - v_{l+1}."""
    c = [0] * (alg.n - 1)
    for a, k in enumerate(m):
        if k:
            i, j = alg.pairs[a]
            for l in range(i - 1, j - 1):
                c[l] += k
    return tuple(c)


def arrow_head(alg, arrow):
    """The head of an arrow: its base plus the degree of its monomial."""
    m, base = arrow
    return point_add(base, coords_to_vector(degree(alg, m)))


def arrow_to_matrix(alg, arrow):
    """Completed marginal matrix of a kept arrow."""
    m, mu = arrow
    n = alg.n
    K = [[0] * n for _ in range(n)]
    for (i, j), a in alg.pair_index.items():
        K[i - 1][j - 1] = m[a]
    for j in range(1, n + 1):
        K[j - 1][j - 1] = mu[j - 1] - sum(K[i][j - 1] for i in range(j - 1))
    return tuple(tuple(row) for row in K)


def multiply(alg, x, y, field):
    """Bilinear product of divided-power elements (dicts monomial -> scalar)."""
    out = {}
    for m1, c1 in x.items():
        for m2, c2 in y.items():
            add_scaled(out, dict(alg.product_terms(m1, m2)), c1 * c2, field)
    return out


def arrow_product(alg, x, y, field):
    """Bilinear product of arrow elements (dicts {(exps, base): scalar})
    in the ambient arrow algebra, with no truncation or reduction."""
    out = {}
    for (m2, y2), c2 in y.items():
        head2 = arrow_head(alg, (m2, y2))
        for (m1, y1), c1 in x.items():
            if y1 != head2:
                continue
            prod = alg.product_terms(m1, m2)
            add_scaled(out, {(m, y2): k for m, k in prod}, c1 * c2, field)
    return out


def column_factors(alg, m):
    """Single-column factors of m for columns n, n-1, ..., 2; concatenated
    in this order they reproduce m."""
    return [tuple(k if alg.pairs[a][1] == j else 0 for a, k in enumerate(m))
            for j in range(alg.n, 1, -1)]


class WordOracle:
    """Products of DividedPowerAlgebra monomials by rewriting whole words
    of syllables e_ij^(k), memoized by word.

    The first adjacent pair out of canonical order is rewritten: equal
    pairs merge, commuting pairs swap, and e_ij^(p) e_jl^(q) expands by
    the Heisenberg rule (the one non-commuting pair that can be out of
    order: e_ij before e_ki is in order).  Terminates because each
    rewrite shortens the word's expansion into letters, removes
    inversions from it, or merges two syllables.
    """

    def __init__(self, alg):
        self.alg = alg
        self.rank = written_rank(alg)
        self.memo = {}

    def straighten(self, word):
        """A word of syllables (a, k), each standing for e_A^(k), as
        {canonical exponent vector: integer coefficient}."""
        hit = self.memo.get(word)
        if hit is not None:
            return hit
        alg = self.alg
        rank = self.rank
        for pos in range(len(word) - 1):
            (a, p), (b, q) = word[pos], word[pos + 1]
            if rank[a] >= rank[b]:
                break
        else:
            exps = [0] * len(alg.pairs)
            for a, k in word:
                exps[a] = k
            self.memo[word] = result = {tuple(exps): 1}
            return result
        head, tail = word[:pos], word[pos + 2:]
        (i, j), (k, l) = alg.pairs[a], alg.pairs[b]
        if a == b:    # e^(p) e^(q) = C(p+q, p) e^(p+q)
            rewrites = [(comb(p + q, p), ((a, p + q),))]
        elif j != k:  # commuting pairs
            rewrites = [(1, ((b, q), (a, p)))]
        else:         # sum over t of e_jl^(q-t) e_il^(t) e_ij^(p-t)
            c = alg.pair_index[(i, l)]
            rewrites = []
            for t in range(min(p, q) + 1):
                middle = ((b, q - t), (c, t), (a, p - t))
                rewrites.append((1, tuple(s for s in middle if s[1])))
        result = {}
        for coeff, middle in rewrites:
            for exps, x in self.straighten(head + middle + tail).items():
                result[exps] = result.get(exps, 0) + coeff * x
        self.memo[word] = result
        return result

    def product_terms(self, m1, m2):
        """Same contract as DividedPowerAlgebra.product_terms: a tuple of
        (exponent vector, integer coefficient) sorted by letter word."""
        order = self.alg.written_order
        word = tuple((a, m[a]) for m in (m1, m2) for a in order if m[a])
        return tuple(sorted(
            self.straighten(word).items(),
            key=lambda t: [a for a in order for _ in range(t[0][a])]))


def euler_ok(complex_):
    """Per head weight, the alternating sum of slice dimensions must see
    exactly the one-dimensional module at lam."""
    algebra = complex_.alg
    for mu in set(algebra.heads):
        total = sum((-1) ** i * len(algebra.between(w, mu))
                    for i, ws in enumerate(complex_.gens) for w in ws)
        if total != (mu == complex_.info["lam"]):
            return False
    return True


def unit(algebra):
    """Sum of the indicator arrows: the unit of a based algebra."""
    one = algebra.field.one
    return {i: one for i in range(algebra.dim) if algebra.is_unit(i)}


def products_json(algebra):
    """Every nonzero structure constant as [i, j, k, coeff]: the `products`
    field of the arrow-algebra JSON schema."""
    return [[i, j, k, serialize_scalar(c)]
            for i in range(algebra.dim) for j in range(algebra.dim)
            for k, c in sorted(algebra.product_indices(i, j).items())]


def max_reachable_height(lam, n, r):
    """Largest height of mu - lam over compositions mu dominating lam."""
    best = 0
    for mu in compositions(n, r):
        d = positive_root_coords(point_sub(mu, lam))
        if d is not None:
            best = max(best, sum(d))
    return best


def columns(src, dst, by_col, mul):
    """Columns of a map, given `by_column`, on the pairs `src`, over
    positions in `dst`, as dicts: the reference for `Echelon.columns`.

    Each entry is its plain sum of products of scalars and structure
    constants, not reduced and possibly zero: the echelon it goes into
    reduces it.  Every product must land in `dst`.
    """
    index = {b: k for k, b in enumerate(dst)}
    cols = []
    for s, x in src:
        col = {}
        for t, entry in by_col.get(s, {}).items():
            for y, c in entry.items():
                for z, cz in mul(x, y):
                    k = index[t, z]
                    col[k] = col.get(k, 0) + c * cz
        cols.append(col)
    return cols


def chain_ranks(bases, maps, mul, field):
    """Ranks of d_1, d_2, ... (`maps`, each `by_column`) between the bases
    of P_0, P_1, ..., and whether every composite d_i d_{i+1} vanishes on
    them: every column of every map composed and eliminated in full."""
    cols = [columns(bases[i + 1], bases[i], by_col, mul)
            for i, by_col in enumerate(maps)]

    def vanishes(lower, col):
        composite = {}
        for k, c in col.items():
            add_scaled(composite, lower[k], c, field)
        return not composite

    d2 = all(vanishes(lower, col)
             for lower, upper in zip(cols, cols[1:]) for col in upper)
    return [matrix_rank(c, field) for c in cols], d2


def composed_report(complex_):
    """The dimensions, ranks, d^2 verdict and exact spots of
    `ModuleComplex.verify`, by `chain_ranks` on each block: every column
    composed, every map eliminated in full."""
    alg, maps = complex_.alg, [by_column(d) for d in complex_.diffs]
    dims, ranks = [0] * len(complex_.gens), [0] * len(complex_.diffs)
    d2 = True
    for block in complex_.blocks:
        bases = [free_basis(gens, block, alg.between)
                 for gens in complex_.gens]
        block_ranks, block_d2 = chain_ranks(bases, maps, alg.product_terms,
                                            complex_.field)
        d2 = d2 and block_d2
        dims = [a + len(b) for a, b in zip(dims, bases)]
        ranks = [a + b for a, b in zip(ranks, block_ranks)]
    return {"d_squared_zero": d2, "dims": dims, "ranks": ranks,
            "exact_spots": {i: ranks[i - 1] + ranks[i] == dims[i]
                            for i in range(1, len(ranks))}}


def interval_tor(trunc, borel, lam):
    """dim Tor_1 and Tor_2 at the simple lam, one resolution per weight: the
    simple resolved over the interval algebra `trunc` itself, pushed down
    to `borel` by hand (the summands at compositions kept, and of each
    entry the truncation arrows that pass `arrow_is_kept`, read as `borel`
    basis elements), and the homology of the pushed-down complex."""
    res = resolve_simple(trunc, lam, 3)
    r = borel.r
    keep = []   # per module, {old summand: new summand}
    for ws in res.gens:
        kept = [s for s, w in enumerate(ws) if is_composition(w, r)]
        keep.append({s: k for k, s in enumerate(kept)})
    diffs = []
    for rows, cols, diff in zip(keep, keep[1:], res.diffs):
        out = {}
        for (t, s), entry in diff.items():
            if t in rows and s in cols:
                vec = {borel.index[a]: c for x, c in entry.items()
                       if arrow_is_kept(trunc.alg, a := trunc.arrows[x], r)}
                if vec:
                    out[rows[t], cols[s]] = vec
        diffs.append(out)
    bases = [[(k, a) for s, k in kp.items() for a in borel.based_at(ws[s])]
             for ws, kp in zip(res.gens, keep)]
    ranks, d2 = chain_ranks(bases, [by_column(d) for d in diffs],
                            borel.product_terms, borel.field)
    assert d2, "the pushed-down resolution is not a complex"
    return {i: len(bases[i]) - ranks[i - 1] - ranks[i] if i < len(ranks)
            else 0 for i in (1, 2)}


def filtered_tor(trunc, r, lam):
    """dim Tor_1 and Tor_2 at the simple lam, by the filtered product: the
    resolution over the interval algebra `trunc`, its maps applied to the
    truncation arrows that pass `arrow_is_kept`, and every product of
    `trunc` restricted to those arrows."""
    res = resolve_simple(trunc, lam, 3)
    memo = {}

    def kept(a):
        if a not in memo:
            memo[a] = arrow_is_kept(trunc.alg, trunc.arrows[a], r)
        return memo[a]

    def mul(x, y):
        return [(z, c) for z, c in trunc.product_terms(x, y) if kept(z)]

    bases = [[(t, a) for t, w in enumerate(ws) for a in trunc.based_at(w)
              if kept(a)] for ws in res.gens]
    ranks, d2 = chain_ranks(bases, [by_column(d) for d in res.diffs], mul,
                            trunc.field)
    assert d2, "the filtered resolution is not a complex"
    out = {}
    for i in (1, 2):
        if i >= len(ranks):
            out[i] = 0  # the resolution ended early: P_i = 0
            continue
        out[i] = len(bases[i]) - ranks[i - 1] - ranks[i]
    return out


def picking_coordinates(ech, vec):
    """`Echelon.coordinates` by repeated picking: take the least (or, under
    "last" pivoting, the greatest) index left, and subtract its row when it
    is a pivot.  A row's other entries come after its pivot in picking
    order, so no index is picked twice."""
    field, rows = ech.field, ech.rows
    zero = field.zero
    pick = min if ech.pivoting == "first" else max
    work = {j: v for j, v in vec.items() if v != zero}
    out = {}
    coords = {}
    while work:
        idx = pick(work)
        c = work.pop(idx)
        row = rows.get(idx)
        if row is None:
            out[idx] = c
            continue
        coords[idx] = c
        for j, rj in row.items():
            if j != idx:
                w = field.of(work.get(j, zero) - c * rj)
                if w == zero:
                    work.pop(j, None)
                else:
                    work[j] = w
    return coords, out


def column_kernel(columns, field):
    """Nullspace of the linear map sending unit column j to columns[j],
    by rows: the reference for `Echelon.insert_columns`.

    One vector per column j that depends on the columns before it: e_j
    minus the unique expression of column j over the earlier independent
    columns, listed by increasing j.  It is read off the reduced echelon
    form of the matrix's rows: the dependent columns are its free
    columns, and the coefficient at pivot k is minus row k's entry at j.
    """
    ech = Echelon(field)
    rows = {}
    for j, col in enumerate(columns):
        for i, v in col.items():
            rows.setdefault(i, {})[j] = v
    for row in rows.values():
        ech.insert(row)
    kernel = {j: {} for j in range(len(columns)) if j not in ech.rows}
    for k in sorted(ech.rows):
        for j, v in ech.rows[k].items():
            if j != k:
                kernel[j][k] = field.of(-v)
    for j, vec in kernel.items():
        vec[j] = field.one
    return list(kernel.values())


def is_convex(points):
    """Brute-force convexity in the dominance order: every point between
    two points of the set lies in it."""
    pts = set(points)
    for a in pts:
        for b in pts:
            if a != b and dominance_leq(a, b):
                if any(z not in pts for z in dominance_between(a, b)):
                    return False
    return True


def in_column_monoid(d, n, k):
    """Membership of d in the monoid generated by v_i - v_k, i < k."""
    if len(d) != n:
        raise ValueError("length mismatch")
    if any(d[i] != 0 for i in range(k, n)):
        return False
    if any(d[i] < 0 for i in range(k - 1)):
        return False
    return d[k - 1] == -sum(d[i] for i in range(k - 1))


def check_layer_hypotheses(n, r):
    """`idempotents.check_layer_hypotheses` by testing every pair (z, y)
    of a layer (or union of layers) and the interval for a monoid step."""
    Y = interval_points(n, r)
    m = n - 1
    if m < 1:
        return {"zj_condition": True, "yj_condition": True, "cases": []}
    Z = {1: [z for z in Y if all(x >= 0 for x in z)]}
    for i in range(2, m + 1):
        Z[i] = layer_points(n, r, n + 1 - i)
    col = {i: n + 1 - i for i in range(1, m + 1)}
    cases = []
    ok_z = ok_y = True
    for i in range(1, m + 1):
        for j in range(i, m + 1):
            allowed = set()
            for k in range(i, j + 1):
                allowed.update(Z[k])
            reach = {
                y
                for z in Z[i]
                for y in Y
                if in_column_monoid(point_sub(y, z), n, col[j])
            }
            good = reach <= allowed
            ok_z = ok_z and good
            cases.append(("layer", i, j, good))
    for j in range(1, m + 1):
        Yj = set()
        for k in range(1, j + 1):
            Yj.update(Z[k])
        for i in range(1, j):
            reach = {
                y
                for z in Yj
                for y in Y
                if in_column_monoid(point_sub(y, z), n, col[i])
            }
            good = reach == Yj
            ok_y = ok_y and good
            cases.append(("union", i, j, good))
    return {"zj_condition": ok_z, "yj_condition": ok_y, "cases": cases}


def one_variable_betti(p, length, height):
    """Graded Betti numbers of the trivial module over the divided powers
    in one variable in characteristic p > 0, by closed form and with no
    resolution: that algebra is the tensor product over k of the
    truncated polynomial rings F_p[x_{p^k}]/(x^p), so its Betti series is

        prod_k (1 + t u^{p^k}) / (1 - t^2 u^{p^{k+1}}),

    t counting the homological degree and u the degree.  Returns
    {i: sorted degrees (d,), with multiplicity} for i <= length and
    d <= height: the `betti()` of the two-row resolution at those cutoffs.
    """
    series = {(0, 0): 1}
    q = 1
    while q <= height:
        # times (1 + t u^q), then times 1 / (1 - t^2 u^{pq}) = sum of powers
        for (dt, du), most in (((1, q), 1), ((2, p * q), None)):
            out = dict(series)
            for (i, d), c in series.items():
                k = 1
                while (i + k * dt <= length and d + k * du <= height
                       and (most is None or k <= most)):
                    key = (i + k * dt, d + k * du)
                    out[key] = out.get(key, 0) + c
                    k += 1
            series = out
        q *= p
    return {i: sorted((d,) for (j, d), c in series.items() if j == i
                      for _ in range(c)) for i in range(length + 1)}


def kostant_betti(n, length, height):
    """Graded Betti numbers of the trivial module over U(n+) in
    characteristic 0, by Kostant's theorem: one generator for each
    permutation w of n letters, in homological degree l(w) (its
    inversions) and of degree rho - w rho.  With rho = (n-1, ..., 1, 0),
    entry k of rho - w rho is w(k) - k, and the degree over the simple
    positive vectors v_j - v_{j+1} is its prefix sums.  Returns
    {i: sorted degrees} for i <= length and degree height <= height."""
    out = {i: [] for i in range(length + 1)}
    for w in permutations(range(n)):
        inversions = sum(a > b for a, b in combinations(w, 2))
        degree = tuple(accumulate(w[k] - k for k in range(n - 1)))
        if inversions <= length and sum(degree) <= height:
            out[inversions].append(degree)
    return {i: sorted(degs) for i, degs in out.items()}


def first_syzygy_degrees(n, p, height):
    """Generator degrees of P_1 in the minimal resolution of the trivial
    module over the Kostant form in characteristic p, to `height`, by
    closed form and with no resolution.

    Over F_p the algebra is generated by the divided powers
    e_{i,i+1}^{(p^k)} (Kostant's Z-form and Lucas' theorem), minimally,
    so P_1 has one generator at each p^k alpha_i with p^k <= height; in
    characteristic 0 the e_{i,i+1} generate, one at each alpha_i.
    Degrees are coefficient tuples over the simple roots, sorted.
    """
    out = []
    for i in range(n - 1):
        q = 1
        while q <= height:
            out.append(tuple(q if j == i else 0 for j in range(n - 1)))
            if p == 0:
                break
            q *= p
    return sorted(out)


def ext_one_closed_form(lam, p):
    """{mu: 1} for every composition mu with Ext^1(K_lam, K_mu) = 1 over
    S+(n, r) in characteristic p: mu - lam = p^k (eps_i - eps_{i+1})
    (k = 0 only in characteristic 0), the first syzygies pushed to lam."""
    out = {}
    for i in range(len(lam) - 1):
        q = 1
        while q <= lam[i + 1]:
            mu = list(lam)
            mu[i] += q
            mu[i + 1] -= q
            out[tuple(mu)] = 1
            if p == 0:
                break
            q *= p
    return out


def slice_exact(complex_):
    """`resolve`'s exactness by the per-slice rule, for a resolution of the
    trivial module over the divided-power algebra: on every degree slice
    of the height window d_i d_{i+1} = 0, d_1 has the slice's dimension of
    P_0 as its rank, except at degree 0 where its rank is 0, and the ranks
    at each interior spot add up to the slice's dimension there."""
    alg, field, steps = complex_.alg, complex_.field, len(complex_.diffs)
    maps = [by_column(d) for d in complex_.diffs]
    for coords in alg.degrees_to_height(complex_.info["height"]):
        bases = [free_basis(gens, [coords], alg.between)
                 for gens in complex_.gens]
        ranks, d2 = chain_ranks(bases, maps, alg.product_terms, field)
        if not d2:
            return False
        aug_ker = len(bases[0]) if any(coords) else 0
        if steps >= 1 and ranks[0] != aug_ker:
            return False
        if any(ranks[i - 1] + ranks[i] != len(bases[i])
               for i in range(1, steps)):
            return False
    return True


def tamper_one_coefficient(complex_, data):
    """Change, delete or add one coefficient of one map of `complex_`, in
    place, as `data` (hypothesis) draws it.  An added coefficient sits on
    a basis element between the entry's two generators, so every map
    stays homogeneous; a complex with no slot of the drawn kind is left
    as it is."""
    alg, field, diffs = complex_.alg, complex_.field, complex_.diffs
    kind = data.draw(st.sampled_from(["change", "delete", "add"]),
                     label="kind")
    if kind == "add":
        slots = [(i, (t, s), x) for i, diff in enumerate(diffs)
                 for t, g in enumerate(complex_.gens[i])
                 for s, h in enumerate(complex_.gens[i + 1])
                 for x in alg.between(g, h) if x not in diff.get((t, s), {})]
    else:
        slots = [(i, key, x) for i, diff in enumerate(diffs)
                 for key, entry in diff.items() for x in entry]
    if not slots:
        return
    i, key, x = data.draw(st.sampled_from(slots), label="slot")
    entry = diffs[i].setdefault(key, {})
    step = data.draw(st.sampled_from([1, -1]), label="step")
    value = field.of(entry.get(x, 0) + step)
    if kind == "delete" or value == field.zero:
        del entry[x]
    else:
        entry[x] = value


def _compose(alg, field, a, b):
    """The map b, then a: maps {(t, s): entry} sending the pair (s, x) to
    the sum over t of (t, x * entry), so (a b)[t, s] is the sum over u of
    b[u, s] * a[t, u]."""
    by_source = {}
    for (t, u), entry in a.items():
        by_source.setdefault(u, []).append((t, entry))
    out = {}
    for (u, s), first in b.items():
        for t, then in by_source.get(u, ()):
            acc = out.setdefault((t, s), {})
            for x, c in first.items():
                for y, e in then.items():
                    for z, k in alg.product_terms(x, y):
                        acc[z] = acc.get(z, 0) + c * e * k
    out = {key: {z: w for z, c in acc.items() if (w := field.of(c))}
           for key, acc in out.items()}
    return {key: entry for key, entry in out.items() if entry}


def _add_maps(field, a, b, c=1):
    """a + c * b for maps {(t, s): entry}."""
    out = {key: dict(entry) for key, entry in a.items()}
    for key, entry in b.items():
        add_scaled(out.setdefault(key, {}), entry, c, field)
    return {key: entry for key, entry in out.items() if entry}


def change_generators(complex_, data=None):
    """`complex_` with its generators changed, as `data` (hypothesis) draws
    the change: a new `ModuleComplex` with the maps
    phi_i^-1 d_(i+1) phi_(i+1).  Without `data` the change is the
    simplest one: in every module with a slot, its first slot, that
    slot's first basis element and the scalar 1.

    Each phi_i = (1 - M)^-1 = 1 + M + M^2 + ... is an automorphism of P_i
    that is unit-triangular and degree-preserving: M sends a few
    generators to multiples of basis elements running to them from
    generators at other pieces, which are radical, so M is nilpotent and
    the sum ends.  The new complex is isomorphic to the old one, with
    the same generators, so it stays exact, minimal and d^2 = 0."""
    alg, field = complex_.alg, complex_.field
    scalar = st.integers(1, 3).map(field.of).filter(bool)
    phis, inverses = [], []
    for gens in complex_.gens:
        one = {(s, s): {x: field.one for x in alg.between(g, g)}
               for s, g in enumerate(gens)}
        slots = [(t, s) for t, g in enumerate(gens) for s, h in enumerate(gens)
                 if g != h and alg.between(g, h)]
        if data is None:
            m = {(t, s): {alg.between(gens[t], gens[s])[0]: field.one}
                 for t, s in slots[:1]}
        else:
            chosen = data.draw(st.lists(st.sampled_from(slots), min_size=1,
                                        max_size=4, unique=True),
                               label="slots") if slots else []
            m = {(t, s): {data.draw(st.sampled_from(
                     alg.between(gens[t], gens[s])), label="element"):
                     data.draw(scalar, label="scalar")} for t, s in chosen}
        phi = term = one
        while term := _compose(alg, field, m, term):
            phi = _add_maps(field, phi, term)
        phis.append(phi)
        inverses.append(_add_maps(field, one, m, -1))
    diffs = [_compose(alg, field, inverses[i],
                      _compose(alg, field, d, phis[i + 1]))
             for i, d in enumerate(complex_.diffs)]
    return ModuleComplex(alg, field, complex_.gens, diffs, complex_.blocks,
                         **complex_.info)
