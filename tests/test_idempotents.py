import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from borelschur import idempotents
from borelschur.arrows import BorelAlgebra, ConvexTruncation
from borelschur.combinatorics import compositions, interval_points, tri_count
from borelschur.divided_powers import DividedPowerAlgebra
from borelschur.fields import PrimeField, Rationals
from borelschur.idempotents import (
    QuotientAlgebra,
    chain_report,
    check_layer_hypotheses,
    close_two_sided_ideal,
    quotient_algebra,
    removal_order,
    removal_step,
    tor_dimensions,
    two_idempotent_report,
)
from borelschur.linalg import Echelon
from borelschur.transport import resolve_simple
from oracles import unit

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
                    w = field.add(rhs.get(key, field.zero), field.mul(c, x))
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


def test_chain_builds_no_quotient(monkeypatch):
    def refuse(*args):
        raise AssertionError("chain_report built a quotient")

    monkeypatch.setattr(idempotents, "QuotientAlgebra", refuse)
    monkeypatch.setattr(idempotents, "two_idempotent_report", refuse)
    rep = chain_report(3, 3, PrimeField(2))
    assert rep["passed"] and len(rep["steps"]) == 6


def test_two_idempotent_rejects_non_idempotent():
    T = interval_truncation(2, 2)
    arrow_e = next(i for i in range(T.dim) if not T.is_unit_arrow(i))
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


def test_tor_vanishing_direct():
    T = interval_truncation(3, 2, PrimeField(2))
    for lam in compositions(3, 2):
        tor = tor_dimensions(T, 2, lam, imax=2)
        assert tor == {1: 0, 2: 0}, (lam, tor)


def test_tor_rejects_a_pushed_complex_that_is_not_one(monkeypatch):
    # one coefficient of d_2 changed before the push-down: homology would
    # be meaningless, so Tor must refuse rather than count ranks
    T = interval_truncation(3, 2, PrimeField(3))
    assert tor_dimensions(T, 2, (0, 0, 2)) == {1: 0, 2: 0}

    def corrupted(algebra, lam, length):
        res = resolve_simple(algebra, lam, length)
        entry = res.diffs[1][(0, 0)]
        assert entry[18] == 1
        entry[18] = 2
        return res

    monkeypatch.setattr(idempotents, "resolve_simple", corrupted)
    with pytest.raises(ArithmeticError):
        tor_dimensions(T, 2, (0, 0, 2))


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
