import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from borelschur.arrows import BorelAlgebra, arrow_is_kept
from borelschur.combinatorics import (compositions, coords_to_vector,
                                      interval_points, point_add)
from borelschur.divided_powers import DividedPowerAlgebra
from borelschur.fields import PrimeField, Rationals, field_of_characteristic
from borelschur.linalg import add_scaled
from borelschur.resolutions import minimal_resolution
from borelschur.transport import (
    ext_table_csv,
    max_reachable_height,
    resolve_simple,
    transport_resolution,
)
from oracles import euler_ok
from oracles import max_reachable_height as reachable_by_search

QQ = Rationals()
F2 = PrimeField(2)
F3 = PrimeField(3)


def test_transport_middle_weight_char_zero():
    alg = DividedPowerAlgebra(2)
    gc = minimal_resolution(alg, QQ, 6, 4)
    bc = transport_resolution(gc, (1, 1), 2)
    assert bc.weights[0] == [(1, 1)]
    assert bc.weights[1] == [(2, 0)]
    assert bc.weights[2] == []
    report = bc.verify()
    assert report["dims"][:2] == [2, 1]
    assert report["passed"]
    assert bc.complete and bc.terminated
    assert euler_ok(bc)


def test_transport_maximal_weight_is_projective():
    alg = DividedPowerAlgebra(2)
    gc = minimal_resolution(alg, F2, 6, 4)
    bc = transport_resolution(gc, (2, 0), 2)
    assert bc.weights[0] == [(2, 0)]
    assert all(not ws for ws in bc.weights[1:])
    assert bc.verify()["passed"]
    assert bc.ext_dimensions() == {(0, (2, 0)): 1}


def test_transport_degree_filtering_char_two():
    # generators at heights 1, 2, 4 exist; from (0, 2) only the first two
    # land on compositions, the third leaves the region and is deleted
    alg = DividedPowerAlgebra(2)
    gc = minimal_resolution(alg, F2, 6, 4)
    bc = transport_resolution(gc, (0, 2), 2)
    assert sorted(bc.weights[1]) == [(1, 1), (2, 0)]
    deleted_weights = {w for _, _, w in bc.deleted}
    assert (4, -2) in deleted_weights
    assert bc.verify()["passed"]


def test_transport_rejects_non_composition():
    alg = DividedPowerAlgebra(2)
    gc = minimal_resolution(alg, QQ, 2, 2)
    with pytest.raises(ValueError):
        transport_resolution(gc, (1, -1), 0)
    with pytest.raises(ValueError):
        transport_resolution(gc, (3, 0), 2)
    with pytest.raises(ValueError):
        transport_resolution(gc, (1, 1, 0), 2)
    with pytest.raises(ValueError):
        transport_resolution(gc, (1, 1), 2, borel=BorelAlgebra(2, 2, F2))


def test_ext_dimensions_examples():
    alg = DividedPowerAlgebra(2)
    gc = minimal_resolution(alg, QQ, 6, 4)
    bc = transport_resolution(gc, (1, 1), 2)
    ext = bc.ext_dimensions()
    assert ext == {(0, (1, 1)): 1, (1, (2, 0)): 1}
    assert (5, (2, 0)) not in ext
    bc_max = transport_resolution(gc, (2, 0), 2)
    assert bc_max.ext_dimensions() == {(0, (2, 0)): 1}


def test_minimality_tripwire():
    alg = DividedPowerAlgebra(2)
    gc = minimal_resolution(alg, F2, 4, 4)
    bc = transport_resolution(gc, (0, 2), 2)
    assert bc.verify()["minimal"]
    (key, entry) = next(iter(bc.diffs[0].items()))
    t = key[0]
    unit_idx = bc.algebra.index[(bc.algebra.alg.unit, bc.weights[0][t])]
    entry[unit_idx] = bc.field.one
    assert not bc.verify()["minimal"]
    del entry[unit_idx]
    assert bc.verify()["minimal"]


def test_d_squared_tripwire():
    # one coefficient of d_2 changed: still minimal with the same ranks,
    # but d_1 d_2 no longer vanishes
    gc = minimal_resolution(DividedPowerAlgebra(3), F3, 4, 6)
    bc = transport_resolution(gc, (0, 1, 1), 2)
    entry = bc.diffs[1][(0, 0)]
    assert entry[14] == 1
    entry[14] = 2
    report = bc.verify()
    assert not report["d_squared_zero"] and not report["passed"]
    assert report["minimal"]
    assert report["ranks"] == [5, 1, 0, 0]
    entry[14] = 1
    assert bc.verify()["passed"]


def test_starved_cutoff_is_flagged_incomplete():
    # height 1 cannot reach (2, 0) from (0, 2): the complex must say so
    alg = DividedPowerAlgebra(2)
    gc = minimal_resolution(alg, F2, 4, 1)
    bc = transport_resolution(gc, (0, 2), 2)
    assert max_reachable_height((0, 2), 2, 2) == 2
    assert not bc.complete
    # the verdicts that are still computable are reported
    report = bc.verify()
    assert report["d_squared_zero"] and report["minimal"]


def test_max_reachable_height():
    assert max_reachable_height((0, 2), 2, 2) == 2
    assert max_reachable_height((2, 0), 2, 2) == 0
    assert max_reachable_height((0, 0, 2), 3, 2) == 4
    assert max_reachable_height((1, 1, 0), 3, 2) == 1
    # the closed form equals the search over every dominating composition
    for n in range(1, 6):
        for r in range(6):
            for lam in compositions(n, r):
                assert max_reachable_height(lam, n, r) == \
                    reachable_by_search(lam, n, r), lam


@pytest.mark.parametrize("char", [0, 2, 3])
def test_transport_soundness_two_rows(char):
    field = QQ if char == 0 else PrimeField(char)
    alg = DividedPowerAlgebra(2)
    gc = minimal_resolution(alg, field, 8, 4)
    for r in range(0, 5):
        borel = BorelAlgebra(2, r, field)
        for lam in compositions(2, r):
            bc = transport_resolution(gc, lam, r, borel=borel)
            report = bc.verify()
            assert report["passed"], (char, r, lam, report)
            assert bc.complete and bc.terminated
            assert euler_ok(bc)


@pytest.mark.parametrize("char", [0, 2])
def test_transport_matches_direct_resolution(char):
    """Independent oracle: resolving the simple directly over the Borel
    algebra by projective covers must give identical Ext data."""
    field = QQ if char == 0 else PrimeField(char)
    alg = DividedPowerAlgebra(3)
    gc = minimal_resolution(alg, field, 8, 4)
    borel = BorelAlgebra(3, 2, field)
    for lam in compositions(3, 2):
        bc = transport_resolution(gc, lam, 2, borel=borel)
        assert bc.verify()["passed"]
        direct = resolve_simple(borel, lam, 8)
        assert direct.verify()["passed"]
        assert direct.ext_dimensions() == bc.ext_dimensions(), lam
        assert euler_ok(direct)


def test_two_stage_truncation_matches_direct():
    """Cutting to the interval first and then to the compositions gives the
    same transported complex as cutting directly."""
    field = F2
    n, r = 3, 2
    alg = DividedPowerAlgebra(n)
    gc = minimal_resolution(alg, field, 6, 4)
    borel = BorelAlgebra(n, r, field)
    interval = set(interval_points(n, r))

    for lam in compositions(n, r):
        direct = transport_resolution(gc, lam, r, borel=borel)
        # stage one: keep generators whose weight stays in the interval
        keep = []
        for i, degs in enumerate(gc.degrees):
            kp = {}
            for s, g in enumerate(degs):
                w = point_add(lam, coords_to_vector(g))
                if w in interval:
                    kp[s] = w
            keep.append(kp)
        # stage two: drop the non-composition weights and non-kept arrows
        weights = []
        for i, kp in enumerate(keep):
            weights.append([w for w in kp.values()
                            if arrow_is_kept(alg, (alg.unit, w), r)])
        for i, ws in enumerate(weights):
            assert ws == direct.weights[i]
        for i, diff in enumerate(gc.diffs):
            rebuilt = {}
            new_t = {}
            cnt = 0
            for s in sorted(keep[i]):
                w = keep[i][s]
                if arrow_is_kept(alg, (alg.unit, w), r):
                    new_t[s] = cnt
                    cnt += 1
            new_s = {}
            cnt = 0
            for s in sorted(keep[i + 1]):
                w = keep[i + 1][s]
                if arrow_is_kept(alg, (alg.unit, w), r):
                    new_s[s] = cnt
                    cnt += 1
            for (t, s), entry in diff.items():
                if t not in keep[i] or s not in keep[i + 1]:
                    continue
                base = keep[i][t]
                # stage one restricts to arrows inside the interval
                staged = {(m, base): c for m, c in entry.items()
                          if point_add(base, coords_to_vector(alg.degree(m)))
                          in interval}
                if t not in new_t or s not in new_s:
                    continue
                vec = borel.reduce_element(staged)
                if vec:
                    rebuilt[(new_t[t], new_s[s])] = vec
            assert rebuilt == direct.diffs[i]


def test_ext_csv_format():
    alg = DividedPowerAlgebra(2)
    gc = minimal_resolution(alg, F2, 6, 4)
    bc = transport_resolution(gc, (0, 2), 2)
    text = ext_table_csv(bc)
    lines = text.strip().splitlines()
    assert lines[0] == "degree,weight,count"
    assert lines[1].startswith("0,0 2,")


def test_resolve_simple_r_zero():
    borel = BorelAlgebra(2, 0, QQ)
    direct = resolve_simple(borel, (0, 0), 3)
    assert direct.verify()["passed"]
    assert direct.ext_dimensions() == {(0, (0, 0)): 1}


def test_transport_three_rows_degree_three():
    """Bigger sweep: every simple of the 56-dimensional algebra in
    characteristic 2, transported and matched against direct covers."""
    alg = DividedPowerAlgebra(3)
    gc = minimal_resolution(alg, F2, 8, 6)
    borel = BorelAlgebra(3, 3, F2)
    for lam in compositions(3, 3):
        bc = transport_resolution(gc, lam, 3, borel=borel)
        rep = bc.verify()
        assert rep["passed"] and bc.complete and bc.terminated, (lam, rep)
        assert euler_ok(bc)
        direct = resolve_simple(borel, lam, 8)
        assert direct.ext_dimensions() == bc.ext_dimensions(), lam
    # frozen spot value: the socle-heaviest simple needs a length-3 resolution
    bc = transport_resolution(gc, (0, 0, 3), 3, borel=borel)
    assert bc.verify()["dims"][:4] == [10, 21, 19, 7]


@st.composite
def simples(draw):
    n = draw(st.sampled_from([2, 3]))
    r = draw(st.integers(0, 3))
    lam = draw(st.sampled_from(compositions(n, r)))
    char = draw(st.sampled_from([0, 2, 3]))
    pivoting = draw(st.sampled_from(["first", "last"]))
    return n, r, lam, char, pivoting


@settings(max_examples=40, deadline=None)
@given(simples())
def test_transport_and_direct_covers_agree(case):
    """The two routes through the resolution engine: the degree-graded
    resolution transported to the Borel algebra, and the head-graded
    resolution of the simple computed over it directly."""
    n, r, lam, char, pivoting = case
    field = field_of_characteristic(char)
    height = max_reachable_height(lam, n, r)
    # every step raises the height of the weight, so height + 1 steps end
    length = height + 1
    gc = minimal_resolution(DividedPowerAlgebra(n), field, length, height,
                            pivoting=pivoting)
    bc = transport_resolution(gc, lam, r)
    direct = resolve_simple(BorelAlgebra(n, r, field), lam, length,
                            pivoting=pivoting)
    assert bc.verify()["passed"] and direct.verify()["passed"]
    assert bc.ext_dimensions() == direct.ext_dimensions()
    assert euler_ok(bc) and euler_ok(direct)


def d_squared_oracle(bc):
    """d_i d_{i+1} = 0 entry by entry: the composite's entry at (t, u) is
    the sum over s of the algebra products d_{i+1}[s, u] * d_i[t, s]."""
    algebra, field = bc.algebra, bc.field
    for lower, upper in zip(bc.diffs, bc.diffs[1:]):
        composite = {}
        for (s, u), a in upper.items():
            for (t, s2), b in lower.items():
                if s2 == s:
                    add_scaled(composite.setdefault((t, u), {}),
                               algebra.product(a, b), field.one, field)
        if any(composite.values()):
            return False
    return True


@settings(max_examples=100, deadline=None)
@given(simples(), st.data())
def test_verify_d_squared_matches_entry_oracle(case, data):
    """`verify` composes column lists; the oracle multiplies entries."""
    n, r, lam, char, _ = case
    field = field_of_characteristic(char)
    height = max_reachable_height(lam, n, r)
    gc = minimal_resolution(DividedPowerAlgebra(n), field, height + 1, height)
    bc = transport_resolution(gc, lam, r)
    # a coefficient of a diff that composes with a nonempty neighbour
    nonempty = [i for i, diff in enumerate(bc.diffs) if diff]
    slots = [(i, key, a) for i in nonempty
             if i - 1 in nonempty or i + 1 in nonempty
             for key, entry in bc.diffs[i].items() for a in entry]
    if slots and data.draw(st.booleans(), label="corrupt"):
        i, key, a = data.draw(st.sampled_from(slots), label="slot")
        entry = bc.diffs[i][key]
        c = field.add(entry[a], field.of(data.draw(st.integers(1, 2))))
        if c == field.zero:
            del entry[a]
        else:
            entry[a] = c
    report = bc.verify()
    assert report["d_squared_zero"] == d_squared_oracle(bc)
    assert report["dims"] == [
        sum(len(bc.algebra.based_at(w)) for w in ws) for ws in bc.weights]
