from operator import gt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from borelschur import combinatorics, idempotents, resolutions
from borelschur.arrows import BorelAlgebra, ConvexTruncation
from borelschur.combinatorics import compositions, interval_points, tri_count
from borelschur.divided_powers import DividedPowerAlgebra
from borelschur.fields import PrimeField, Rationals, field_of_characteristic
from borelschur.idempotents import (
    QuotientAlgebra,
    chain_report,
    check_layer_hypotheses,
    close_two_sided_ideal,
    column_reach,
    quotient_algebra,
    removal_order,
    removal_step,
    tor_dimensions,
    two_idempotent_report,
)
from borelschur.linalg import Echelon
from oracles import check_layer_hypotheses as pairwise_hypotheses
from oracles import (composed_report, filtered_tor, in_column_monoid,
                     interval_tor, unit)

QQ = Rationals()

# (n, r) within budget: intervals of at most 36 points, where the
# reference chain below takes under 0.1 s
SMALL = [(n, r) for n in range(1, 6) for r in range(7)
         if len(interval_points(n, r)) <= 36]
small_cases = st.tuples(st.sampled_from(SMALL), st.sampled_from([0, 2, 3, 5]))


def field_of(char):
    return QQ if char == 0 else PrimeField(char)


def interval_truncation(n, r, field=QQ):
    return ConvexTruncation(DividedPowerAlgebra(n), interval_points(n, r),
                            field)


def rebuilt_quotient_steps(n, r, field):
    """Reference chain: before each removal, rebuild the quotient by the
    points removed so far and run the general two-idempotent report on the
    coset of the next indicator."""
    T = interval_truncation(n, r, field)
    ideal = Echelon(field)
    steps = []
    for k, z in removal_order(n, r):
        current = QuotientAlgebra(T, ideal)
        e = current.project(T.indicator_vector(z))
        if not e:
            steps.append({"layer": k, "point": z,
                          "error": "indicator vanishes"})
            continue
        steps.append({"layer": k, "point": z,
                      **two_idempotent_report(current, e)})
        close_two_sided_ideal(T, ideal, [z])
    return steps


def test_quotient_trivial_cases():
    T = interval_truncation(3, 2)
    assert quotient_algebra(T, []).dim == T.dim
    assert quotient_algebra(T, T.points).dim == 0
    with pytest.raises(ValueError):
        quotient_algebra(T, [(9, 9, 9)])


def test_quotient_dimension_is_marginal_count():
    T = interval_truncation(3, 2)
    removed = [z for z in T.points if any(x < 0 for x in z)]
    q = quotient_algebra(T, removed)
    assert q.dim == 21 == tri_count(3, 2)


def check_drop_rule(n, r, char):
    """The monomial-drop product and the linear-algebra quotient are the
    same algebra under [kept arrow] -> its coset, on every basis pair."""
    field = field_of(char)
    T = interval_truncation(n, r, field)
    removed = [z for z in T.points if any(x < 0 for x in z)]
    q = quotient_algebra(T, removed)
    B = BorelAlgebra(n, r, field)
    assert q.dim == B.dim

    proj = []
    ech = Echelon(field)
    for a in B.arrows:
        v = q.project({T.index[a]: field.one})
        proj.append(v)
        assert ech.insert(dict(v)) is not None
    assert ech.rank == B.dim

    for i in range(B.dim):
        for j in range(B.dim):
            lhs = q.product(proj[i], proj[j])
            rhs = {}
            for k, c in B.product_indices(i, j).items():
                for key, x in proj[k].items():
                    w = field.of(rhs.get(key, field.zero) + c * x)
                    if w == field.zero:
                        rhs.pop(key, None)
                    else:
                        rhs[key] = w
            assert lhs == rhs, (i, j)


@pytest.mark.parametrize("n,r,char", [(2, 3, 0), (3, 2, 0), (3, 2, 2), (3, 3, 3)])
def test_drop_rule_matches_quotient_oracle(n, r, char):
    check_drop_rule(n, r, char)


@settings(max_examples=40, deadline=None)
@given(small_cases)
def test_drop_rule_matches_quotient_oracle_random(case):
    (n, r), char = case
    check_drop_rule(n, r, char)


def test_two_idempotent_trivial():
    T = interval_truncation(3, 2)
    rep = two_idempotent_report(T, unit(T))
    assert rep["two_idempotent"]
    assert rep["dim_AeA"] == T.dim == rep["dim_tensor"]
    rep0 = two_idempotent_report(T, {})
    assert rep0["two_idempotent"] and rep0["dim_AeA"] == 0


def test_indicator_vector_is_a_truncation_method():
    """The unit arrow at a point is indexed in the convex truncation; a
    quotient of it has no `indicator_vector`, and the coset is `project`
    of the truncation's."""
    T = interval_truncation(3, 2)
    y = (0, 0, 2)
    ((i, c),) = T.indicator_vector(y).items()
    assert T.is_unit(i) and T.base(i) == T.head(i) == y and c == QQ.one
    q = quotient_algebra(T, [(2, -2, 2)])
    assert not hasattr(q, "indicator_vector")
    assert not hasattr(BorelAlgebra(3, 2, QQ), "indicator_vector")
    assert q.project(T.indicator_vector(y)) == {q.rep_pos[i]: QQ.one}


def test_two_idempotent_negative_control():
    """A genuine non-example: corner cutting at the middle point of the
    degree-two interval.  In characteristic 2 the composite through the
    middle collapses (the product of the two single steps is twice the
    divided square), so the multiplication map acquires a kernel."""
    for char, expected in [(0, True), (2, False), (3, True)]:
        field = field_of(char)
        T = interval_truncation(2, 2, field)
        rep = two_idempotent_report(T, T.indicator_vector((1, 1)))
        assert rep["two_idempotent"] is expected, (char, rep)
        if not expected:
            assert rep["dim_AeA"] == 3 and rep["dim_tensor"] == 4


def test_removal_step_negative_control():
    """The step read off the ideal sees the same char-2 kernel as the
    general report: dim AeA = 3 < 4 = dim Ae (x) eA."""
    field = PrimeField(2)
    T = interval_truncation(2, 2, field)
    ideal = Echelon(field)
    step = removal_step(T, ideal, (1, 1))
    assert step == two_idempotent_report(T, T.indicator_vector((1, 1)))
    assert step["dim_AeA"] == 3 and step["dim_tensor"] == 4
    assert step["two_idempotent"] is False
    assert ideal.rank == 3
    assert removal_step(T, ideal, (1, 1)) == {"error": "indicator vanishes"}


@settings(max_examples=40, deadline=None)
@given(small_cases)
def test_removal_steps_match_rebuilt_quotients(case):
    """Every step of the chain equals the general report on the quotient
    rebuilt from scratch before that step."""
    (n, r), char = case
    field = field_of(char)
    rep = chain_report(n, r, field, tor_sample=[])
    assert rep["steps"] == rebuilt_quotient_steps(n, r, field)


@settings(max_examples=40, deadline=None)
@given(small_cases)
def test_surviving_closure_matches_the_all_pairs_closure(case):
    """`removal_step` closes the ideal from at most p * q products of
    surviving arrows, and after every step its rows equal those of the
    all-pairs closure over every arrow at the removed points."""
    (n, r), char = case
    field = field_of(char)
    T = interval_truncation(n, r, field)
    calls = []
    product_indices = T.product_indices

    def counted(i, j):
        calls.append((i, j))
        return product_indices(i, j)

    T.product_indices = counted
    fast, slow = Echelon(field), Echelon(field)
    for _, z in removal_order(n, r):
        calls.clear()
        step = removal_step(T, fast, z)
        assert len(calls) <= step.get("dim_Ae", 0) * step.get("dim_eA", 0)
        close_two_sided_ideal(T, slow, [z])
        assert fast.rows == slow.rows, z
    assert fast.rank == T.dim - tri_count(n, r)


def test_chain_builds_no_quotient(monkeypatch):
    def refuse(*args):
        raise AssertionError("chain_report built a quotient")

    monkeypatch.setattr(idempotents, "QuotientAlgebra", refuse)
    monkeypatch.setattr(idempotents, "two_idempotent_report", refuse)
    rep = chain_report(3, 3, PrimeField(2))
    assert rep["passed"] and len(rep["steps"]) == 6


def test_two_idempotent_rejects_non_idempotent():
    T = interval_truncation(2, 2)
    arrow_e = next(i for i in range(T.dim) if not T.is_unit(i))
    with pytest.raises(ValueError):
        two_idempotent_report(T, {arrow_e: T.field.one})


def test_two_idempotent_chain_idempotent():
    # the indicator of everything outside the compositions: its ideal is the
    # full kernel of the quotient, which the layering shows is 2-idempotent
    T = interval_truncation(3, 2)
    e = {}
    for z in T.points:
        if any(x < 0 for x in z):
            e.update(T.indicator_vector(z))
    rep = two_idempotent_report(T, e)
    assert rep["two_idempotent"]
    assert rep["dim_AeA"] == T.dim - tri_count(3, 2) == 25


def test_removal_order():
    order = removal_order(3, 2)
    assert [z for _, z in order] == [(2, -2, 2), (1, -1, 2), (2, -1, 1)]
    assert all(k == 2 for k, _ in order)
    order42 = removal_order(4, 2)
    assert [k for k, _ in order42] == [2] * 9 + [3] * 8


def test_layer_hypotheses():
    for n, r in [(2, 4), (3, 2), (3, 3), (4, 2)]:
        hyp = check_layer_hypotheses(n, r)
        assert hyp["zj_condition"], (n, r)
        assert hyp["yj_condition"], (n, r)


@pytest.mark.parametrize("n,r", SMALL + [(4, 4), (5, 3)])
def test_layer_hypotheses_match_the_pairwise_oracle(n, r):
    """Reaches looked up by the coordinates after the column equal the
    reaches found by testing every pair of points, case by case."""
    assert check_layer_hypotheses(n, r) == pairwise_hypotheses(n, r)


def pairwise_reach(points, interval, c):
    """Every pair (z, y) tested for a step of the monoid of v_i - v_c."""
    n = len(interval[0])
    return {y for z in points for y in interval
            if in_column_monoid(tuple(a - b for a, b in zip(y, z)), n, c)}


@st.composite
def reach_cases(draw):
    n = draw(st.integers(2, 5))
    r = draw(st.integers(0, {2: 6, 3: 4, 4: 3, 5: 2}[n]))
    interval = interval_points(n, r)
    points = draw(st.lists(st.sampled_from(interval), max_size=len(interval)))
    return interval, points, draw(st.integers(2, n))


@settings(max_examples=150, deadline=None)
@given(reach_cases())
def test_column_reach_matches_the_pairwise_definition(case):
    """The reach sets themselves, not only the verdicts built on them."""
    interval, points, c = case
    assert column_reach(points, interval, c) == pairwise_reach(
        points, interval, c)


def test_reach_comparison_catches_a_strict_comparison(monkeypatch):
    """From (0, 0, 2) the step v_1 - v_3 reaches (1, 0, 1), whose head
    (1, 0) exceeds (0, 0) in one coordinate only: a reach that compares
    heads strictly misses it."""
    interval, points = interval_points(3, 2), [(0, 0, 2)]
    want = pairwise_reach(points, interval, 3)
    assert (1, 0, 1) in want
    assert column_reach(points, interval, 3) == want
    monkeypatch.setattr(idempotents, "ge", gt)
    assert (1, 0, 1) not in column_reach(points, interval, 3)


def test_chain_builds_the_interval_once(monkeypatch):
    """The truncation, the layer hypotheses and the removal order share
    one `interval_points` walk."""
    calls = []

    def counted(n, r):
        calls.append((n, r))
        return interval_points(n, r)

    monkeypatch.setattr(idempotents, "interval_points", counted)
    monkeypatch.setattr(combinatorics, "interval_points", counted)
    rep = chain_report(4, 2, PrimeField(2))
    assert rep["passed"] and len(rep["steps"]) == 17
    assert calls == [(4, 2)]


def test_tor_vanishing_direct():
    T = interval_truncation(3, 2, PrimeField(2))
    B = BorelAlgebra(3, 2, T.field, alg=T.alg)
    tor = tor_dimensions(T, B, compositions(3, 2))
    assert list(tor) == compositions(3, 2)
    for lam, t in tor.items():
        assert t == {1: 0, 2: 0}, (lam, t)


@st.composite
def interval_weights(draw):
    n = draw(st.sampled_from([2, 3]))
    r = draw(st.integers(0, 3))
    lam = draw(st.sampled_from(interval_points(n, r)))
    return n, r, lam, draw(st.sampled_from([0, 2, 3]))


@settings(max_examples=60, deadline=None)
@given(interval_weights())
@example((3, 3, (1, -1, 3), 0))
def test_tor_matches_the_filtered_product_route(case):
    """Tor through the push-down equals Tor through the interval
    algebra's product filtered by the diagonal completion test, at every
    weight of the interval, compositions or not."""
    n, r, lam, char = case
    T = interval_truncation(n, r, field_of_characteristic(char))
    B = BorelAlgebra(n, r, T.field, alg=T.alg)
    tor = tor_dimensions(T, B, [lam])[lam]
    assert tor == filtered_tor(T, r, lam)
    if case == (3, 3, (1, -1, 3), 0):
        assert tor[1] == 3


@st.composite
def weight_samples(draw):
    n = draw(st.sampled_from([1, 2, 3]))
    r = draw(st.integers(0, 3))
    sample = draw(st.lists(st.sampled_from(interval_points(n, r)),
                           min_size=1, unique=True))
    return n, r, sample, draw(st.sampled_from([0, 2, 3]))


@settings(max_examples=40, deadline=None)
@given(weight_samples())
def test_one_resolution_matches_a_resolution_per_weight(case):
    """Tor from the one graded resolution, pushed down at every weight of
    a sample, equals Tor from a resolution of each simple over the
    interval algebra; and a weight's answer does not depend on the rest
    of the sample."""
    n, r, sample, char = case
    T = interval_truncation(n, r, field_of_characteristic(char))
    B = BorelAlgebra(n, r, T.field, alg=T.alg)
    tor = tor_dimensions(T, B, sample)
    assert list(tor) == sample
    for lam in sample:
        assert tor[lam] == interval_tor(T, B, lam), lam
        assert tor_dimensions(T, B, [lam]) == {lam: tor[lam]}


def test_tor_sample_edges(monkeypatch):
    T = interval_truncation(3, 2, PrimeField(3))
    B = BorelAlgebra(3, 2, T.field, alg=T.alg)
    seen = []

    def recorded(alg, pieces, *args):
        seen.append(set(pieces))
        return resolutions.resolve(alg, pieces, *args)

    monkeypatch.setattr(idempotents, "resolve", recorded)
    assert tor_dimensions(T, B, []) == {}
    assert seen == [set()]
    with pytest.raises(ValueError):
        tor_dimensions(T, B, [(3, 0, -1)])


def test_chain_resolves_once(monkeypatch):
    """check-ideals resolves the trivial module once for the whole Tor
    sample."""
    calls = []

    def counted(*args):
        calls.append(args[1])
        return resolutions.resolve(*args)

    monkeypatch.setattr(idempotents, "resolve", counted)
    rep = chain_report(3, 3, PrimeField(2))
    assert rep["passed"] and len(rep["tor"]) == 10
    # here the degree set D has one degree per point of the interval
    assert len(calls) == 1 and len(calls[0]) == len(interval_points(3, 3))


def test_tor_reader_walks_the_arrows_at_each_generator(monkeypatch):
    """On the 35 pushed-down complexes of the Tor checks at (3,4) char 3,
    (4,2) char 2 and (3,3) char 0, `verify` asks `between` once per map
    entry, for the homogeneity check, and builds each module's basis from
    the arrows at its generators; its report is the full composition's."""
    seen = []

    class Counted(resolutions.ModuleComplex):
        def verify(self):
            calls = []
            between = self.alg.between
            self.alg.between = lambda y, w: calls.append(1) or between(y, w)
            try:
                report = super().verify()
            finally:
                del self.alg.between
            seen.append((self, len(calls), report))
            return report

    monkeypatch.setattr(idempotents, "ModuleComplex", Counted)
    for n, r, char in [(3, 4, 3), (4, 2, 2), (3, 3, 0)]:
        T = interval_truncation(n, r, field_of(char))
        B = BorelAlgebra(n, r, T.field, alg=T.alg)
        tor_dimensions(T, B, compositions(n, r))
    assert len(seen) == 35
    for c, calls, report in seen:
        assert calls == sum(len(col) for d in c.diffs for col in d.values())
        assert {key: report[key] for key in ("d_squared_zero", "dims",
                                             "ranks", "exact_spots")} \
            == composed_report(c)


def test_tor_rejects_a_pushed_complex_that_is_not_one(monkeypatch):
    # one coefficient of d_2 of the graded resolution changed before the
    # push-down: homology would be meaningless, so Tor must refuse rather
    # than count ranks
    T = interval_truncation(3, 2, PrimeField(3))
    B = BorelAlgebra(3, 2, T.field, alg=T.alg)
    assert tor_dimensions(T, B, [(0, 0, 2)]) == {(0, 0, 2): {1: 0, 2: 0}}

    def corrupted(*args):
        degrees, diffs = resolutions.resolve(*args)
        entry = diffs[1][0][0]
        assert entry[(1, 0, 1)] == 1
        entry[(1, 0, 1)] = 2
        return degrees, diffs

    monkeypatch.setattr(idempotents, "resolve", corrupted)
    with pytest.raises(ArithmeticError):
        tor_dimensions(T, B, [(0, 0, 2)])


def test_chain_report_vacuous_for_two_rows():
    rep = chain_report(2, 2, PrimeField(2))
    assert rep["passed"]
    assert rep["steps"] == []
    assert rep["final_dim"] == 6


@pytest.mark.parametrize("char", [0, 2])
def test_chain_report_three_rows(char):
    field = field_of(char)
    rep = chain_report(3, 2, field)
    assert rep["passed"], rep
    assert len(rep["steps"]) == 3
    for step in rep["steps"]:
        assert step["two_idempotent"]
        assert step["dim_AeA"] == step["dim_tensor"]
    assert rep["final_dim"] == tri_count(3, 2)


def worklist_closure(trunc, ideal, seeds):
    """Reference closure: a worklist fixed point in which every vector that
    enters the span is multiplied by every basis arrow on both sides."""
    work = []
    for v in seeds:
        p = ideal.insert(v)
        if p is not None:
            work.append(dict(ideal.rows[p]))
    while work:
        v = work.pop()
        for b in range(trunc.dim):
            bv = {b: trunc.field.one}
            for prod in (trunc.product(bv, v), trunc.product(v, bv)):
                if not prod:
                    continue
                p = ideal.insert(prod)
                if p is not None:
                    work.append(dict(ideal.rows[p]))
    return ideal


@pytest.mark.parametrize("n,r,char", [(3, 2, 0), (3, 3, 2), (4, 2, 3)])
def test_one_pass_closure_matches_worklist(n, r, char):
    """A e_z A built from the base and head indexes has the same reduced
    echelon rows as the worklist fixed point at every removal step."""
    field = field_of(char)
    T = interval_truncation(n, r, field)
    fast = Echelon(field)
    slow = Echelon(field)
    for _, z in removal_order(n, r):
        close_two_sided_ideal(T, fast, [z])
        worklist_closure(T, slow, [T.indicator_vector(z)])
        assert fast.rows == slow.rows, z
    assert fast.rank == T.dim - tri_count(n, r)
