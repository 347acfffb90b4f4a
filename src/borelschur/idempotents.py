"""Quotients by point indicators and idempotent-ideal diagnostics.

`quotient_algebra` realizes C(Y)/<indicators of removed points> by plain
linear algebra.  The two-sided ideal of a removed point z is

    A e_z A = span{x * y : base(x) = z, head(y) = z},

and its closure, `close_two_sided_ideal`, inserts the product of every
pair of basis arrows leaving and entering z: the all-pairs reference
route.  The quotient multiplies coset representatives and reduces.  It
is the independent oracle for the monomial-drop description of the
composition quotient.

`two_idempotent_report` compares dim(AeA) with dim(Ae (x)_{eAe} eA) in
any based algebra: the two agree exactly when the ideal generated by the
idempotent is 2-idempotent.  `chain_report` walks the layered removal of
the interval down to the compositions one point at a time, in the layer
order, and makes that comparison at every step with `removal_step`,
which reads it off the one ideal the walk grows instead of building each
quotient, and closes that ideal at z from the p * q products of the
p arrows leaving and q arrows entering z that survive in the quotient.
The combinatorial hypotheses on the layer sets and Tor-vanishing spot
checks complete the report.  `tor_dimensions` resolves the trivial
module once and reads Tor at each sampled simple off the dimensions and
ranks that `resolutions.ModuleComplex.verify` reports on its push-down by
`transport.push_graded`: the interval is convex, so the shifted graded
resolution restricted to it resolves the simple over its algebra.
"""

from operator import ge

from .arrows import BasedAlgebra, BorelAlgebra, ConvexTruncation
from .combinatorics import (
    compositions,
    interval_points,
    layer_key,
    layer_points,
    point_sub,
    positive_root_coords,
    tri_count,
)
from .divided_powers import DividedPowerAlgebra
from .linalg import Echelon, add_scaled
from .resolutions import ModuleComplex, resolve
from .transport import push_graded


def _insert_products(trunc, ideal, leaving, entering):
    """Insert every nonzero product x * y, x in `leaving`, y in `entering`."""
    for a in leaving:
        for b in entering:
            prod = trunc.product_indices(a, b)
            if prod:
                ideal.insert(prod)


def close_two_sided_ideal(trunc, ideal, points):
    """Grow `ideal` (an Echelon over basis indices) by the two-sided ideal
    generated by the indicators of `points`.

    `ideal` must already span a two-sided ideal (it starts empty).  The
    sum of two-sided ideals is two-sided, so adding the products x * y
    with base(x) = z and head(y) = z for every z gives the ideal generated
    by the old span and the new indicators.  With deterministic pivots,
    the pivots, the residuals and the reduced rows of the echelon depend
    only on that span, not on the order in which vectors are inserted.
    """
    for z in points:
        z = tuple(z)
        if not ideal.contains(trunc.indicator_vector(z)):
            _insert_products(trunc, ideal, trunc.based_at(z),
                             trunc.ending_at(z))
    return ideal


class QuotientAlgebra(BasedAlgebra):
    """C(Y)/I presented on coset representatives.

    Representatives are the basis arrows of the ambient truncation at the
    non-pivot coordinates of the ideal's reduced echelon form; products
    are computed upstairs and canonically reduced.
    """

    def __init__(self, trunc, ideal):
        self.trunc = trunc
        self.field = trunc.field
        self.ideal = ideal
        self.reps = sorted(set(range(trunc.dim)) - ideal.pivots)
        self.rep_pos = {g: k for k, g in enumerate(self.reps)}
        self.arrows = [trunc.arrows[g] for g in self.reps]
        self.heads = [trunc.heads[g] for g in self.reps]
        self._index_arrows()

    def project(self, vec):
        """Global truncation vector -> local coordinates of its coset."""
        res = self.ideal.reduce(vec)
        return {self.rep_pos[g]: c for g, c in res.items()}

    def _product(self, i, j):
        return self.project(
            self.trunc.product_indices(self.reps[i], self.reps[j]))


def quotient_algebra(trunc, removed):
    """Quotient of a convex truncation by the ideal of removed points."""
    removed = [tuple(z) for z in removed]
    point_set = set(trunc.points)
    for z in removed:
        if z not in point_set:
            raise ValueError(f"removed point {z} not in the truncation")
    ideal = close_two_sided_ideal(trunc, Echelon(trunc.field), removed)
    return QuotientAlgebra(trunc, ideal)


def _partners(algebra, x, side):
    """Basis arrows b, in index order, for which b * x (side='left') or
    x * b (side='right') can be nonzero: the arrows starting at a head of
    x, or ending at a base of x."""
    if side == "left":
        points, arrows_at = {algebra.head(i) for i in x}, algebra.based_at
    else:
        points, arrows_at = {algebra.base(i) for i in x}, algebra.ending_at
    return sorted(b for y in points for b in arrows_at(y))


def _products_with(algebra, e, side):
    """Span generators of Ae (side='right') or eA (side='left')."""
    one = algebra.field.one
    if side == "right":
        prods = (algebra.product({i: one}, e)
                 for i in _partners(algebra, e, "left"))
    else:
        prods = (algebra.product(e, {i: one})
                 for i in _partners(algebra, e, "right"))
    return [v for v in prods if v]


def two_idempotent_report(algebra, e):
    """Exact comparison dim(AeA) vs dim(Ae (x)_{eAe} eA).

    The multiplication map Ae (x)_{eAe} eA -> AeA is always onto, so ideal
    2-idempotency is equivalent to the two dimensions agreeing.
    """
    field = algebra.field
    if algebra.product(e, e) != e:
        raise ValueError("e is not idempotent")

    ae_gens = _products_with(algebra, e, "right")
    ae = Echelon(field)
    for v in ae_gens:
        ae.insert(v)
    ea = Echelon(field)
    for v in _products_with(algebra, e, "left"):
        ea.insert(v)
    eae = Echelon(field)
    for v in ae_gens:
        eae.insert(algebra.product(e, v))

    ae_rows, ea_rows, eae_rows = ae.rows, ea.rows, eae.rows
    ae_basis = [ae_rows[p] for p in sorted(ae_rows)]
    ea_basis = [ea_rows[p] for p in sorted(ea_rows)]
    eae_basis = [eae_rows[p] for p in sorted(eae_rows)]
    ae_pos = {p: k for k, p in enumerate(sorted(ae_rows))}
    ea_pos = {p: k for k, p in enumerate(sorted(ea_rows))}
    p, q = len(ae_basis), len(ea_basis)

    aea = Echelon(field)
    for u in ae_basis:
        for j in _partners(algebra, u, "right"):
            v = algebra.product(u, {j: field.one})
            if v:
                aea.insert(v)
    dim_aea = aea.rank

    # tensor over eAe: kill (u s) (x) w - u (x) (s w); u_k (x) w_l is
    # numbered k * q + l
    relations = Echelon(field)
    minus_one = field.of(-1)
    for u_idx, u in enumerate(ae_basis):
        for s in eae_basis:
            us = algebra.product(u, s)
            coords_us, res = ae.coordinates(us)
            if res:
                raise AssertionError("Ae is not right eAe-stable")
            for w_idx, w in enumerate(ea_basis):
                rel = {ae_pos[piv] * q + w_idx: c
                       for piv, c in coords_us.items()}
                sw = algebra.product(s, w)
                coords_sw, res2 = ea.coordinates(sw)
                if res2:
                    raise AssertionError("eA is not left eAe-stable")
                add_scaled(rel, {u_idx * q + ea_pos[piv]: c
                                 for piv, c in coords_sw.items()},
                           minus_one, field)
                if rel:
                    relations.insert(rel)
    dim_tensor = p * q - relations.rank

    return {
        "dim_Ae": p,
        "dim_eA": q,
        "dim_eAe": len(eae_basis),
        "dim_AeA": dim_aea,
        "dim_tensor": dim_tensor,
        "two_idempotent": dim_aea == dim_tensor,
    }


def removal_order(n, r, interval=None):
    """Points of the interval outside the compositions, in removal order.

    Layers with the earliest negative coordinate go first; inside a layer
    the largest point in the layer order is removed first.  `interval`,
    if given, is `interval_points(n, r)`, which is then not built again.
    """
    order = []
    for k in range(2, n + 1):
        layer = layer_points(n, r, k, interval)
        layer.sort(key=lambda z: layer_key(z, k), reverse=True)
        order.extend((k, z) for z in layer)
    return order


def column_reach(points, interval, c):
    """The points of `interval` that a point of `points` reaches by the
    monoid of v_i - v_c, i < c, as a set.

    y - z lies in that monoid iff y and z agree after column c, have one
    total, and every coordinate of y before column c is at least z's.  So
    the points are grouped by their coordinates after column c, each
    group keeping the set of its heads (the coordinates before c), and
    each interval point is tested once against the heads of its group.
    The points and the interval must share one total.
    """
    heads = {}
    for z in points:
        heads.setdefault(z[c:], set()).add(z[:c - 1])
    reached = set()
    for y in interval:
        group = heads.get(y[c:])
        if group:
            h = y[:c - 1]
            if h in group or any(all(map(ge, h, g)) for g in group):
                reached.add(y)
    return reached


def check_layer_hypotheses(n, r, interval=None):
    """Set-theoretic hypotheses behind the layered removal.

    With Z_1 the compositions and Z_i the layer with first negative
    coordinate n + 1 - i, and with the single-column monoids attached the
    same way, checks
        (monoid_j . Z_i) := {z + d} cap interval  inside  Z_i ... Z_j
    for i <= j, and invariance of the unions Y_j under the earlier monoids.
    Reaches are `column_reach`.  `interval`, if given, is
    `interval_points(n, r)`, which is then not built again.
    """
    Y = interval if interval is not None else interval_points(n, r)
    m = n - 1
    if m < 1:
        return {"zj_condition": True, "yj_condition": True, "cases": []}
    Z = {1: [z for z in Y if all(x >= 0 for x in z)]}
    for i in range(2, m + 1):
        Z[i] = layer_points(n, r, n + 1 - i, Y)

    def reach(points, i):
        return column_reach(points, Y, n + 1 - i)

    def union(lo, hi):
        return set().union(*(Z[k] for k in range(lo, hi + 1)))

    cases = [("layer", i, j, reach(Z[i], j) <= union(i, j))
             for i in range(1, m + 1) for j in range(i, m + 1)]
    cases += [("union", i, j, reach(union(1, j), i) == union(1, j))
              for j in range(1, m + 1) for i in range(1, j)]
    return {"zj_condition": all(c[3] for c in cases if c[0] == "layer"),
            "yj_condition": all(c[3] for c in cases if c[0] == "union"),
            "cases": cases}


def tor_dimensions(trunc, borel, lams):
    """dim Tor_1 and Tor_2 of (interval algebra / composition ideal, simple
    at lam) for each tuple lam in `lams`, as {lam: {1: ..., 2: ...}}.

    One graded resolution of the trivial module, over the down-closed
    degrees D = union of (Y - lam) cap Gamma for Y the points of `trunc`,
    serves every lam: Y is convex, so shifted by lam and restricted to Y
    it resolves the simple at lam over C(Y).  `resolve` builds it straight
    from the divided-power algebra's `between` and `product_terms`, and
    `push_graded` pushes its degrees and maps down to `borel` at each lam.
    Tor is the homology of that push-down, read off the dimensions and
    ranks that `ModuleComplex.verify` reports on it, checked in one block
    of every head weight, once d^2 = 0.  Y must hold every lam and the
    compositions.
    """
    if not set(lams) <= set(trunc.points):
        raise ValueError("every weight must be a point of the truncation")
    pieces = {d for lam in lams for y in trunc.points
              if (d := positive_root_coords(point_sub(y, lam))) is not None}
    alg = trunc.alg
    degrees, graded = resolve(alg, pieces, (0,) * (alg.n - 1), trunc.field,
                              3, "first")
    block = sorted(set(borel.heads))
    out = {}
    for lam in lams:
        weights, diffs, _ = push_graded(borel, degrees, graded, lam)
        report = ModuleComplex(borel, borel.field, weights, diffs,
                               [block]).verify()
        if not report["d_squared_zero"]:
            raise ArithmeticError("the pushed-down resolution is not a complex")
        dims, ranks = report["dims"], report["ranks"]
        # H_i = dim ker(d_i) - rank(d_{i+1}); P_i = 0 once the resolution ended
        out[lam] = {i: dims[i] - ranks[i - 1] - ranks[i]
                    if i < len(ranks) else 0 for i in (1, 2)}
    return out


def removal_step(trunc, ideal, z):
    """Two-idempotent report of e_z in C(Y)/I, I = `ideal`; then I += A e_z A.

    The ideal is grown from products of basis arrows, each homogeneous in
    (base, head), so its reduced echelon rows are too, and the quotient
    keeps the non-pivot arrows of every (base, head) block.  Every arrow
    from z to z has degree 0, so eAe is spanned by e_z alone and
    Ae (x)_{eAe} eA = Ae (x)_K eA.  Hence, with the arrows that survive
    in the quotient: dim Ae (p) counts those based at z, dim eA (q) those
    ending at z, dim eAe those from z to z (one), the tensor product has
    dimension p * q, and dim AeA is the rank that closing I at z adds.
    Modulo I every arrow at z is a combination of the surviving arrows of
    its block, and I is two-sided, so their p * q products close I at z.
    """
    if ideal.contains(trunc.indicator_vector(z)):
        return {"error": "indicator vanishes"}

    pivots = ideal.pivots

    def surviving(indices):
        return [i for i in indices if i not in pivots]

    leaving = surviving(trunc.based_at(z))
    entering = surviving(trunc.ending_at(z))
    p, q = len(leaving), len(entering)
    dim_eae, rank = len(surviving(trunc.between(z, z))), ideal.rank
    _insert_products(trunc, ideal, leaving, entering)
    dim_aea = ideal.rank - rank
    return {
        "dim_Ae": p,
        "dim_eA": q,
        "dim_eAe": dim_eae,
        "dim_AeA": dim_aea,
        "dim_tensor": p * q,
        "two_idempotent": dim_aea == p * q,
    }


def chain_report(n, r, field, tor_sample=None):
    """Full layered-removal diagnostics from the interval to the compositions.

    Returns per-step two-idempotent reports (`removal_step`), the
    combinatorial layer hypotheses, the final quotient dimension, and
    Tor-vanishing spot checks for simples at the sampled compositions.
    """
    alg = DividedPowerAlgebra(n)
    interval = interval_points(n, r)
    trunc = ConvexTruncation(alg, interval, field)
    hypotheses = check_layer_hypotheses(n, r, interval)

    ideal = Echelon(field)
    steps = [{"layer": k, "point": z, **removal_step(trunc, ideal, z)}
             for k, z in removal_order(n, r, interval)]
    comps = compositions(n, r)
    final_dim = trunc.dim - ideal.rank
    expected = tri_count(n, r)

    borel = BorelAlgebra(n, r, field, alg=alg)
    if tor_sample is None:
        tor_sample = comps
    tor = tor_dimensions(trunc, borel, tor_sample)

    passed = (
        hypotheses["zj_condition"]
        and hypotheses["yj_condition"]
        and all(s.get("two_idempotent") for s in steps)
        and final_dim == expected
        and all(all(v == 0 for v in t.values()) for t in tor.values())
    )
    return {
        "n": n,
        "r": r,
        "char": field.characteristic,
        "hypotheses": hypotheses,
        "steps": steps,
        "final_dim": final_dim,
        "expected_dim": expected,
        "tor": tor,
        "passed": passed,
    }
