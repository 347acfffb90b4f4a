from collections import Counter
from itertools import product as iproduct
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from borelschur.arrows import BorelAlgebra, ConvexTruncation, arrow_is_kept
from borelschur.combinatorics import (compositions, coords_to_vector,
                                      interval_points, is_composition,
                                      point_add)
from borelschur.divided_powers import DividedPowerAlgebra
from borelschur.fields import PrimeField, Rationals, field_of_characteristic
from borelschur.linalg import add_scaled
from borelschur.resolutions import ModuleComplex, is_exact, minimal_resolution
from borelschur.transport import (
    ext_table_csv,
    max_reachable_height,
    push_graded,
    resolve_simple,
    transport_resolution,
    verification,
)
from oracles import (chain_ranks, change_generators, degree, euler_ok,
                     ext_one_closed_form, kostant_betti, one_variable_betti,
                     tamper_one_coefficient)
from oracles import max_reachable_height as reachable_by_search

QQ = Rationals()
F2 = PrimeField(2)
F3 = PrimeField(3)


def test_transport_middle_weight_char_zero():
    alg = DividedPowerAlgebra(2)
    gc = minimal_resolution(alg, QQ, 6, 4)
    bc = transport_resolution(gc, (1, 1), 2)
    assert bc.gens[0] == [(1, 1)]
    assert bc.gens[1] == [(2, 0)]
    assert bc.gens[2] == []
    report = verification(bc)
    assert report["dims"][:2] == [2, 1]
    assert report["passed"]
    assert bc.info["complete"] and bc.info["terminated"]
    assert euler_ok(bc)


def test_transport_maximal_weight_is_projective():
    alg = DividedPowerAlgebra(2)
    gc = minimal_resolution(alg, F2, 6, 4)
    bc = transport_resolution(gc, (2, 0), 2)
    assert bc.gens[0] == [(2, 0)]
    assert all(not ws for ws in bc.gens[1:])
    assert verification(bc)["passed"]
    assert bc.ext_dimensions() == {(0, (2, 0)): 1}


def test_transport_degree_filtering_char_two():
    # generators at heights 1, 2, 4 exist; from (0, 2) only the first two
    # land on compositions, the third leaves the region and is deleted
    alg = DividedPowerAlgebra(2)
    gc = minimal_resolution(alg, F2, 6, 4)
    bc = transport_resolution(gc, (0, 2), 2)
    assert sorted(bc.gens[1]) == [(1, 1), (2, 0)]
    deleted_weights = {w for _, _, w in bc.info["deleted"]}
    assert (4, -2) in deleted_weights
    assert verification(bc)["passed"]


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
    assert verification(bc)["minimal"]
    # a unit entry of d_2 between the generators at (2, 0) of P_1 and P_2
    assert bc.gens[1][1] == bc.gens[2][0] == (2, 0)
    assert 1 not in bc.diffs[1][0]
    bc.diffs[1][0][1] = {bc.alg.index[alg.unit, (2, 0)]: bc.field.one}
    assert not verification(bc)["minimal"]
    del bc.diffs[1][0][1]
    assert verification(bc)["minimal"]


def test_an_inhomogeneous_entry_is_refused():
    """The unit arrow at (0, 2) put into the d_1 entry from the generator
    at (1, 1): it does not run from (0, 2) to (1, 1), and the reader
    refuses the complex instead of multiplying the arrow as zero."""
    alg = DividedPowerAlgebra(2)
    bc = transport_resolution(minimal_resolution(alg, F2, 4, 4), (0, 2), 2)
    assert bc.gens[0] == [(0, 2)] and bc.gens[1][0] == (1, 1)
    bc.diffs[0][0][0][bc.alg.index[alg.unit, (0, 2)]] = bc.field.one
    with pytest.raises(ValueError, match=r"entry \(0, 0\) of d_1"):
        verification(bc)


def test_d_squared_tripwire():
    # one coefficient of d_2 changed: still minimal with the same ranks,
    # but d_1 d_2 no longer vanishes
    gc = minimal_resolution(DividedPowerAlgebra(3), F3, 4, 6)
    bc = transport_resolution(gc, (0, 1, 1), 2)
    entry = bc.diffs[1][0][0]
    assert entry[14] == 1
    entry[14] = 2
    report = verification(bc)
    assert not report["d_squared_zero"] and not report["passed"]
    assert report["minimal"]
    assert report["ranks"] == [5, 1, 0, 0]
    entry[14] = 1
    assert verification(bc)["passed"]


def test_starved_cutoff_is_flagged_incomplete():
    # height 1 cannot reach (2, 0) from (0, 2): the complex must say so
    alg = DividedPowerAlgebra(2)
    gc = minimal_resolution(alg, F2, 4, 1)
    bc = transport_resolution(gc, (0, 2), 2)
    assert max_reachable_height((0, 2), 2, 2) == 2
    assert not bc.info["complete"]
    # the verdicts that are still computable are reported
    report = verification(bc)
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
            report = verification(bc)
            assert report["passed"], (char, r, lam, report)
            assert bc.info["complete"] and bc.info["terminated"]
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
        assert verification(bc)["passed"]
        direct = resolve_simple(borel, lam, 8)
        assert verification(direct)["passed"]
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
        for i, degs in enumerate(gc.gens):
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
            assert ws == direct.gens[i]
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
            for s, col in diff.items():
                for t, entry in col.items():
                    if t not in keep[i] or s not in keep[i + 1]:
                        continue
                    base = keep[i][t]
                    # stage one restricts to arrows inside the interval
                    staged = {(m, base): c for m, c in entry.items()
                              if point_add(base,
                                           coords_to_vector(degree(alg, m)))
                              in interval}
                    if t not in new_t or s not in new_s:
                        continue
                    vec = borel.reduce_element(staged)
                    if vec:
                        rebuilt.setdefault(new_s[s], {})[new_t[t]] = vec
            assert rebuilt == direct.diffs[i]


def test_ext_csv_format():
    alg = DividedPowerAlgebra(2)
    gc = minimal_resolution(alg, F2, 6, 4)
    bc = transport_resolution(gc, (0, 2), 2)
    text = ext_table_csv(bc)
    lines = text.strip().splitlines()
    assert lines[0] == "degree,weight,count"
    assert lines[1].startswith("0,0 2,")


@pytest.mark.parametrize("n,r", [(2, 2), (3, 2)])
def test_resolve_simple_at_length_zero_passes(n, r):
    for lam in compositions(n, r):
        direct = resolve_simple(BorelAlgebra(n, r, QQ), lam, 0)
        report = verification(direct)
        assert direct.gens == [[lam]] and not direct.diffs
        assert report["top_is_simple"] and report["passed"], lam


def test_resolve_simple_r_zero():
    borel = BorelAlgebra(2, 0, QQ)
    direct = resolve_simple(borel, (0, 0), 3)
    assert verification(direct)["passed"]
    assert direct.ext_dimensions() == {(0, (0, 0)): 1}


def test_transport_three_rows_degree_three():
    """Bigger sweep: every simple of the 56-dimensional algebra in
    characteristic 2, transported and matched against direct covers."""
    alg = DividedPowerAlgebra(3)
    gc = minimal_resolution(alg, F2, 8, 6)
    borel = BorelAlgebra(3, 3, F2)
    for lam in compositions(3, 3):
        bc = transport_resolution(gc, lam, 3, borel=borel)
        rep = verification(bc)
        assert rep["passed"] and bc.info["complete"], (lam, rep)
        assert bc.info["terminated"], lam
        assert euler_ok(bc)
        direct = resolve_simple(borel, lam, 8)
        assert direct.ext_dimensions() == bc.ext_dimensions(), lam
    # frozen spot value: the socle-heaviest simple needs a length-3 resolution
    bc = transport_resolution(gc, (0, 0, 3), 3, borel=borel)
    assert verification(bc)["dims"][:4] == [10, 21, 19, 7]


@pytest.mark.parametrize("char", [0, 2, 3])
def test_transport_four_rows_degree_three(char):
    """The theorem at n = 4: one graded resolution, long and high enough
    for every weight, transported to every simple of S+(4, 3) and matched
    against direct covers over the Borel algebra."""
    field = field_of_characteristic(char)
    gc = minimal_resolution(DividedPowerAlgebra(4), field, 10, 9)
    borel = BorelAlgebra(4, 3, field)
    for lam in compositions(4, 3):
        bc = transport_resolution(gc, lam, 3, borel=borel)
        assert verification(bc)["passed"], lam
        assert bc.info["complete"] and bc.info["terminated"], lam
        direct = resolve_simple(borel, lam, 10)
        assert direct.ext_dimensions() == bc.ext_dimensions(), lam


@pytest.mark.parametrize("n,r", [(2, 5), (3, 3), (3, 4), (4, 2), (4, 3)])
@pytest.mark.parametrize("char", [0, 2, 3, 5])
def test_ext_one_in_closed_form(n, r, char):
    """Through F_lam, Ext^1(K_lam, K_mu) is 1 exactly when mu - lam is
    p^k (eps_i - eps_{i+1}) (k = 0 in characteristic 0) and mu is a
    composition, and 0 otherwise, at every composition lam."""
    # (n - 1) r is the largest height reachable from any lam
    gc = minimal_resolution(DividedPowerAlgebra(n),
                            field_of_characteristic(char), 1, (n - 1) * r)
    borel = BorelAlgebra(n, r, gc.field)
    lams = [lam for lam in iproduct(range(r + 1), repeat=n) if sum(lam) == r]
    assert len(lams) == comb(n + r - 1, r)
    for lam in lams:
        bc = transport_resolution(gc, lam, r, borel=borel)
        assert bc.info["complete"] and verification(bc)["minimal"], lam
        ext_one = {w: c for (i, w), c in bc.ext_dimensions().items() if i == 1}
        assert ext_one == ext_one_closed_form(lam, char), lam


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
    assert verification(bc)["passed"] and verification(direct)["passed"]
    assert bc.ext_dimensions() == direct.ext_dimensions()
    assert euler_ok(bc) and euler_ok(direct)


@st.composite
def interval_simples(draw):
    n = draw(st.sampled_from([2, 3]))
    r = draw(st.integers(0, 3))
    lam = draw(st.sampled_from(interval_points(n, r)))
    char = draw(st.sampled_from([0, 2, 3]))
    return n, r, lam, char


@settings(max_examples=40, deadline=None)
@given(interval_simples())
def test_interval_truncation_keeps_the_generators_inside(case):
    """The convex step: over the interval truncation C(Y), the minimal
    resolution of the simple at lam has one generator at each weight
    lam + gamma in Y for each generator of degree gamma of the graded
    resolution of the trivial module, in the same homological degree."""
    n, r, lam, char = case
    field = field_of_characteristic(char)
    alg = DividedPowerAlgebra(n)
    points = interval_points(n, r)
    gc = minimal_resolution(alg, field, 4, (n - 1) * r)
    inside = {}
    for i, degs in enumerate(gc.gens):
        for g in degs:
            w = point_add(lam, coords_to_vector(g))
            if w in points:
                inside[i, w] = inside.get((i, w), 0) + 1
    direct = resolve_simple(ConvexTruncation(alg, points, field), lam, 4)
    assert direct.ext_dimensions() == inside


def d_squared_oracle(bc):
    """d_i d_{i+1} = 0 entry by entry: the composite's entry at (t, u) is
    the sum over s of the algebra products d_{i+1}[u][s] * d_i[s][t]."""
    algebra, field = bc.alg, bc.field
    for lower, upper in zip(bc.diffs, bc.diffs[1:]):
        composite = {}
        for u, col in upper.items():
            for s, a in col.items():
                for t, b in lower.get(s, {}).items():
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
    slots = [(i, (t, s), a) for i in nonempty
             if i - 1 in nonempty or i + 1 in nonempty
             for s, col in bc.diffs[i].items() for t, entry in col.items()
             for a in entry]
    if slots and data.draw(st.booleans(), label="corrupt"):
        i, (t, s), a = data.draw(st.sampled_from(slots), label="slot")
        entry = bc.diffs[i][s][t]
        c = field.of(entry[a] + data.draw(st.integers(1, 2)))
        if c == field.zero:
            del entry[a]
        else:
            entry[a] = c
    report = verification(bc)
    assert report["d_squared_zero"] == d_squared_oracle(bc)
    assert report["dims"] == [
        sum(len(bc.alg.based_at(w)) for w in ws) for ws in bc.gens]


@settings(max_examples=60, deadline=None)
@given(simples(), st.data())
def test_one_block_sums_the_head_blocks(case, data):
    """A pushed-down complex is checked in one block of every head weight;
    its dimensions, ranks and d^2 verdict must be those of the blocks of
    the single head weights, summed, tampered or not, complete or not."""
    n, r, lam, char, _ = case
    field = field_of_characteristic(char)
    height = data.draw(st.integers(0, max_reachable_height(lam, n, r)))
    length = data.draw(st.integers(0, height + 1))
    gc = minimal_resolution(DividedPowerAlgebra(n), field, length, height)
    bc = transport_resolution(gc, lam, r)
    tamper_one_coefficient(bc, data)
    algebra, maps = bc.alg, bc.diffs
    dims, ranks, d2 = [0] * len(bc.gens), [0] * len(bc.diffs), True
    for w in set(algebra.heads):
        bases = [[(t, a) for t, g in enumerate(gens)
                  for a in algebra.between(g, w)] for gens in bc.gens]
        head_ranks, head_d2 = chain_ranks(bases, maps, algebra.product_terms,
                                          field)
        dims = [d + len(b) for d, b in zip(dims, bases)]
        ranks = [a + b for a, b in zip(ranks, head_ranks)]
        d2 = d2 and head_d2
    report = bc.verify()
    assert (report["dims"], report["ranks"]) == (dims, ranks)
    assert report["d_squared_zero"] == d2


@settings(max_examples=40, deadline=None)
@given(simples(), st.data())
def test_contractible_pair_is_exact_but_not_minimal(case, data):
    """P(gamma) <- P(gamma) through the unit, added at spots i and i + 1 of
    a minimal resolution, changes no homology: the complex stays exact
    with d^2 = 0 and is no longer minimal.  Pushed down at lam the pair
    survives, and breaks minimality, exactly when lam + gamma is a
    composition; otherwise it is deleted and the report is unchanged."""
    n, r, lam, char, _ = case
    field = field_of_characteristic(char)
    alg = DividedPowerAlgebra(n)
    height = data.draw(st.integers(0, 5), label="height")
    c = minimal_resolution(alg, field, data.draw(st.integers(1, 4)), height)
    i = data.draw(st.integers(0, len(c.diffs) - 1), label="spot")
    gamma = data.draw(st.sampled_from(alg.degrees_to_height(height)))
    gens = [list(g) for g in c.gens]
    diffs = [dict(d) for d in c.diffs]
    gens[i].append(gamma)
    gens[i + 1].append(gamma)
    diffs[i][len(gens[i + 1]) - 1] = {len(gens[i]) - 1: {alg.unit: field.one}}
    report = ModuleComplex(alg, field, gens, diffs, c.blocks).verify()
    assert report["d_squared_zero"] and is_exact(report)
    assert not report["minimal"]

    borel = BorelAlgebra(n, r, field, alg=alg)

    def pushed(gens, diffs):
        weights, maps, _ = push_graded(borel, gens, diffs, lam)
        return ModuleComplex(borel, field, weights, maps,
                             [sorted(set(borel.heads))]).verify()

    before, after = pushed(c.gens, c.diffs), pushed(gens, diffs)
    kept = is_composition(point_add(lam, coords_to_vector(gamma)), r)
    assert before["minimal"] and after["minimal"] == (not kept)
    if kept:
        for key in ("d_squared_zero", "top", "exact_spots"):
            assert after[key] == before[key], key
    else:
        assert after == before


def check_change_of_generators(c, changed, r):
    """`changed` still verifies: exact, minimal, d^2 = 0; pushed down at
    every lam of S+(n, r), it reports as `c` does, with the same Ext
    table."""
    report = changed.verify()
    assert report["d_squared_zero"] and report["minimal"] and is_exact(report)
    field = c.field
    borel = BorelAlgebra(c.alg.n, r, field, alg=c.alg)
    for lam in compositions(c.alg.n, r):
        before, after = (
            ModuleComplex(borel, field, *push_graded(borel, x.gens, x.diffs,
                                                     lam)[:2],
                          [sorted(set(borel.heads))])
            for x in (c, changed))
        assert after.verify() == before.verify()
        assert after.ext_dimensions() == before.ext_dimensions()


# (n, char, greatest height drawn), each a size whose resolution has two
# generators of one module at comparable pieces, so that a change of
# generators can change the maps.  At n = 4 in characteristic 0 they first
# sit so at height 6 (P_3 at (0,2,2) and (1,2,3)); at n = 2 in
# characteristic 3 the changes that height 8 allows bring in only
# multiples of 3.  In characteristic 0 at n <= 3 no two generators of one
# module are comparable, so those complexes are checked by other tests.
CHANGE_SIZES = [(2, 2, 8), (2, 3, 14), (3, 2, 5), (3, 3, 5), (3, 5, 6),
                (4, 0, 6), (4, 2, 4)]


@pytest.mark.parametrize("n,char,top", CHANGE_SIZES)
def test_every_change_size_can_change_the_maps(n, char, top):
    """At its greatest height and length, each size's simplest change of
    generators gives other maps."""
    c = minimal_resolution(DividedPowerAlgebra(n),
                           field_of_characteristic(char), 4, top)
    assert change_generators(c).diffs != c.diffs


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(CHANGE_SIZES), st.data())
def test_change_of_generators_is_invisible_after_push_down(size, data):
    """A random unit-triangular, degree-preserving change of generators of
    a minimal resolution, with radical off-diagonal entries, gives other
    maps that still verify, and that pushed down at every lam report as
    the unchanged ones do."""
    n, char, top = size
    alg = DividedPowerAlgebra(n)
    height = data.draw(st.integers(3, top), label="height")
    c = minimal_resolution(alg, field_of_characteristic(char),
                           data.draw(st.integers(2, 4)), height)
    r = data.draw(st.integers(2, {2: 6, 3: 4, 4: 3}[n]), label="r")
    check_change_of_generators(c, change_generators(c, data), r)


@pytest.mark.parametrize("n,char,length,height,r", [
    (4, 0, 3, 6, 3), (2, 3, 4, 14, 6)])
def test_change_of_generators_changes_the_maps(n, char, length, height, r):
    """The two sizes where small heights change nothing: the simplest
    change of generators gives other maps, and they still pass."""
    c = minimal_resolution(DividedPowerAlgebra(n),
                           field_of_characteristic(char), length, height)
    changed = change_generators(c)
    assert changed.diffs != c.diffs
    check_change_of_generators(c, changed, r)


def closed_form_ext(char, lam, length, height):
    """The Ext table F_lam gives by closed form: the graded Betti degrees of
    the trivial module (`kostant_betti` in characteristic 0,
    `one_variable_betti` at n = 2), shifted by lam, at the compositions."""
    n, r = len(lam), sum(lam)
    betti = (kostant_betti(n, length, height) if char == 0
             else one_variable_betti(char, length, height))
    return Counter((i, w) for i, degs in betti.items() for g in degs
                   if is_composition(w := point_add(lam, coords_to_vector(g)),
                                     r))


def check_closed_form_ext(char, lam, length, height):
    n, r = len(lam), sum(lam)
    gc = minimal_resolution(DividedPowerAlgebra(n),
                            field_of_characteristic(char), length, height)
    bc = transport_resolution(gc, lam, r)
    assert bc.info["complete"]
    assert verification(bc)["passed"]
    assert bc.ext_dimensions() == closed_form_ext(char, lam, length, height)


@st.composite
def closed_form_cases(draw):
    char = draw(st.sampled_from([0, 2, 3, 5]))
    n = draw(st.sampled_from([2, 3, 4])) if char == 0 else 2
    r = draw(st.integers(0, {2: 7, 3: 3, 4: 2}[n]))
    lam = draw(st.sampled_from(compositions(n, r)))
    height = max_reachable_height(lam, n, r) + draw(st.integers(0, 2))
    return char, lam, draw(st.integers(0, 5)), height


@settings(max_examples=40, deadline=None)
@given(closed_form_cases())
def test_transported_ext_tables_in_closed_form(case):
    """Every complete transported Ext table is the closed-form Betti
    series of the trivial module pushed to lam, and it verifies."""
    check_closed_form_ext(*case)


@pytest.mark.parametrize("char,lam,length,height", [
    (3, (2, 10), 9, 10),       # one_variable_betti
    (0, (0, 1, 0, 2), 6, 8),   # kostant_betti
])
def test_transported_ext_tables_in_closed_form_pinned(char, lam, length,
                                                      height):
    check_closed_form_ext(char, lam, length, height)
