from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from borelschur import resolutions
from borelschur.arrows import BorelAlgebra, ConvexTruncation
from borelschur.combinatorics import compositions, interval_points
from borelschur.divided_powers import DividedPowerAlgebra
from borelschur.fields import PrimeField, Rationals, field_of_characteristic
from borelschur.linalg import Echelon, add_scaled
from borelschur.resolutions import ModuleComplex, is_exact, minimal_resolution
from borelschur.transport import (max_reachable_height, resolve_simple,
                                  transport_resolution)
from oracles import (column_kernel, columns, composed_report,
                     first_syzygy_degrees, free_basis, kostant_betti, multiply,
                     one_variable_betti, slice_exact, tamper_one_coefficient)

QQ = Rationals()


def test_characteristic_zero_two_rows():
    # the augmentation ideal is free on the single generator: length one
    alg = DividedPowerAlgebra(2)
    c = minimal_resolution(alg, QQ, 5, 6)
    b = c.betti()
    assert b[0] == [(0,)]
    assert b[1] == [(1,)]
    for i in range(2, 6):
        assert not b.get(i)
    assert is_exact(c.verify())
    assert c.verify()["minimal"]


def expected_generator_heights(p, bound):
    """Independent slice oracle for two rows in characteristic p.

    The kernel of the augmentation in the slice of height k is spanned by
    the single divided power; the radical span inside that slice is
    generated by the products of lower divided powers, whose coefficients
    are binomials.  A new generator appears exactly when all of them
    vanish mod p.
    """
    out = []
    for k in range(1, bound + 1):
        if all(comb(k, a) % p == 0 for a in range(1, k)):
            out.append(k)
    return out


@pytest.mark.parametrize("p,bound,expected", [
    (2, 8, [1, 2, 4, 8]),
    (3, 9, [1, 3, 9]),
    (5, 6, [1, 5]),
])
def test_first_syzygy_two_rows_prime(p, bound, expected):
    assert expected_generator_heights(p, bound) == expected
    alg = DividedPowerAlgebra(2)
    c = minimal_resolution(alg, PrimeField(p), 1, bound)
    assert c.betti()[1] == [(k,) for k in expected]


def betti_to(complex_, length):
    """`betti()` with an empty list at every homological degree up to
    `length` where the resolution has no generator."""
    b = complex_.betti()
    return {i: b.get(i, []) for i in range(length + 1)}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.integers(0, 6), st.integers(0, 24))
def test_two_rows_match_the_closed_form_betti_series(p, length, height):
    """Every generator of the two-row resolution in characteristic p, as
    the Betti series of the one-variable divided powers predicts."""
    c = minimal_resolution(DividedPowerAlgebra(2), PrimeField(p), length,
                           height)
    assert betti_to(c, length) == one_variable_betti(p, length, height)


def test_two_rows_closed_form_pinned():
    c = minimal_resolution(DividedPowerAlgebra(2), PrimeField(2), 8, 33)
    expected = one_variable_betti(2, 8, 33)
    assert sum(map(len, expected.values())) == 534
    assert betti_to(c, 8) == expected


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([2, 3]), st.integers(0, 5), st.integers(0, 6))
def test_characteristic_zero_matches_kostant_random(n, length, height):
    c = minimal_resolution(DividedPowerAlgebra(n), QQ, length, height)
    assert betti_to(c, length) == kostant_betti(n, length, height)


@pytest.mark.parametrize("n,length,height,count", [(3, 5, 6, 6),
                                                   (4, 6, 10, 24)])
def test_characteristic_zero_matches_kostant(n, length, height, count):
    """Kostant's theorem: in characteristic 0 the generators are the
    degrees rho - w rho, one per permutation w, in homological degree
    l(w); these cutoffs hold all n! of them."""
    c = minimal_resolution(DividedPowerAlgebra(n), QQ, length, height)
    expected = kostant_betti(n, length, height)
    assert sum(map(len, expected.values())) == count
    assert betti_to(c, length) == expected


@pytest.mark.parametrize("n,height", [(2, 12), (3, 10), (4, 7)])
@pytest.mark.parametrize("char", [0, 2, 3, 5])
def test_first_syzygies_in_closed_form(n, height, char):
    """P_1 of the trivial module has one generator at each p^k alpha_i
    with p^k <= height in characteristic p, and at each alpha_i in
    characteristic 0."""
    c = minimal_resolution(DividedPowerAlgebra(n),
                           field_of_characteristic(char), 1, height)
    assert c.betti()[1] == first_syzygy_degrees(n, char, height)


def test_trivial_cutoffs():
    alg = DividedPowerAlgebra(2)
    c = minimal_resolution(alg, QQ, 0, 4)
    assert c.betti() == {0: [(0,)]}
    assert c.verify()["minimal"]
    c2 = minimal_resolution(alg, PrimeField(2), 3, 0)
    assert c2.betti()[0] == [(0,)]
    assert not c2.betti().get(1)


def test_three_rows_characteristic_zero():
    # Betti numbers of the nilpotent rank-two Lie algebra: 1, 2, 2, 1
    alg = DividedPowerAlgebra(3)
    c = minimal_resolution(alg, QQ, 5, 4)
    b = c.betti()
    assert b[0] == [(0, 0)]
    assert b[1] == [(0, 1), (1, 0)]
    assert b[2] == [(1, 2), (2, 1)]
    assert b[3] == [(2, 2)]
    assert not b.get(4)
    assert is_exact(c.verify())
    assert c.verify()["minimal"]


@pytest.mark.parametrize("n,char,L,H", [(2, 2, 4, 6), (3, 2, 4, 4), (3, 3, 3, 4)])
def test_exactness_and_minimality(n, char, L, H):
    alg = DividedPowerAlgebra(n)
    c = minimal_resolution(alg, PrimeField(char), L, H)
    assert is_exact(c.verify())
    assert c.verify()["minimal"]


def test_exactness_tripwire():
    alg = DividedPowerAlgebra(2)
    c = minimal_resolution(alg, PrimeField(2), 3, 4)
    assert is_exact(c.verify())
    # zero out one differential entry: exactness must break
    entry = next(iter(next(iter(c.diffs[0].values())).values()))
    saved = dict(entry)
    entry.clear()
    assert not is_exact(c.verify())
    entry.update(saved)
    assert is_exact(c.verify())


def test_top_tripwire():
    """A new generator of P_1 at degree 0, sent to the unit of P_0, makes
    d_1 onto: the complex then resolves 0, not the trivial module, though
    d^2 = 0 and, at length one, there is no interior spot to fail."""
    alg = DividedPowerAlgebra(3)
    c = minimal_resolution(alg, PrimeField(3), 1, 4)
    assert is_exact(c.verify()) and slice_exact(c)
    c.gens[1].append((0, 0))
    c.diffs[0][len(c.gens[1]) - 1] = {0: {alg.unit: c.field.one}}
    report = c.verify()
    assert report["d_squared_zero"] and not report["exact_spots"]
    assert not report["top"] and not is_exact(report)
    assert not slice_exact(c)


def test_exactness_requires_differentials_to_compose_to_zero():
    """Rank counting alone accepts this map: one coefficient of d_2 is
    changed so that d_1 d_2 is nonzero on generator 5, yet every slice
    keeps its ranks."""
    alg = DividedPowerAlgebra(3)
    field = PrimeField(3)
    c = minimal_resolution(alg, field, 3, 5)
    m = (1, 0, 2)
    assert c.diffs[1][5][0] == {m: 2}
    diffs = [dict(d) for d in c.diffs]
    diffs[1][5] = {**c.diffs[1][5], 0: {m: 1}}
    bad = ModuleComplex(alg, field, c.gens, diffs, c.blocks)
    assert bad.verify()["minimal"]
    assert not is_exact(bad.verify())
    assert is_exact(c.verify())


@st.composite
def graded_cases(draw):
    n = draw(st.sampled_from([2, 3, 4]))
    char = draw(st.sampled_from([0, 2, 3]))
    length = draw(st.integers(0, {2: 5, 3: 4, 4: 3}[n]))
    height = draw(st.integers(0, {2: 8, 3: 5, 4: 4}[n]))
    return n, char, length, height


@settings(max_examples=80, deadline=None)
@given(graded_cases(), st.data())
def test_summed_exactness_matches_the_per_slice_rule(case, data):
    """The one reader sums dimensions and ranks over the degree slices and
    asks for a corank-one top; the per-slice rule asks each slice for its
    own ranks.  One changed, deleted or added coefficient must get the
    same verdict from both."""
    n, char, length, height = case
    c = minimal_resolution(DividedPowerAlgebra(n),
                           field_of_characteristic(char), length, height)
    assert is_exact(c.verify()) and slice_exact(c)
    tamper_one_coefficient(c, data)
    assert is_exact(c.verify()) == slice_exact(c)


def reader_fields(report):
    """The part of `verify`'s report that `composed_report` recomputes."""
    return {key: report[key]
            for key in ("d_squared_zero", "dims", "ranks", "exact_spots")}


@settings(max_examples=60, deadline=None)
@given(graded_cases(), st.booleans(), st.data())
def test_reader_matches_full_composition_on_graded_complexes(case, tamper,
                                                             data):
    """The reader composes only generator columns and stops each map's
    elimination at the rank d^2 = 0 allows; the oracle composes every
    column and eliminates every map in full.  Their dimensions, ranks and
    verdicts agree, and after one changed, deleted or added coefficient
    so does exactness by the per-slice rule."""
    n, char, length, height = case
    c = minimal_resolution(DividedPowerAlgebra(n),
                           field_of_characteristic(char), length, height)
    if tamper:
        tamper_one_coefficient(c, data)
    report = c.verify()
    assert reader_fields(report) == composed_report(c)
    assert is_exact(report) == slice_exact(c)


@st.composite
def based_complexes(draw):
    """A complex over a based algebra: a graded resolution pushed down to
    the Borel algebra, or a simple resolved directly over the Borel or the
    interval algebra."""
    n = draw(st.sampled_from([2, 3]))
    r = draw(st.integers(0, 3))
    char = draw(st.sampled_from([0, 2, 3]))
    family = draw(st.sampled_from(["push-down", "borel", "interval"]))
    if family == "push-down":
        lam = draw(st.sampled_from(compositions(n, r)))
        height = draw(st.integers(0, max_reachable_height(lam, n, r)))
        gc = minimal_resolution(DividedPowerAlgebra(n),
                                field_of_characteristic(char),
                                draw(st.integers(0, height + 1)), height)
        return transport_resolution(gc, lam, r)
    algebra = head_algebras(n, r, char)[family == "interval"]
    lam = draw(st.sampled_from(sorted(set(algebra.heads))))
    return resolve_simple(algebra, lam, draw(st.integers(0, 4)))


@settings(max_examples=60, deadline=None)
@given(based_complexes(), st.booleans(), st.data())
def test_reader_matches_full_composition_on_based_complexes(c, tamper, data):
    """As on the graded complexes, in the one block of every head weight,
    tampered or not."""
    if tamper:
        tamper_one_coefficient(c, data)
    assert reader_fields(c.verify()) == composed_report(c)


def test_a_failed_d_squared_reports_the_true_ranks():
    """A unit entry added to d_3 between the generators of P_2 and P_3 at
    degree 3 makes rank d_2 + rank d_3 exceed dim P_2, so an elimination
    of d_3 capped at dim P_2 - rank d_2 would stop one short.  d^2 then
    fails on that generator, and the reader reports the ranks of the
    full elimination."""
    alg, field = DividedPowerAlgebra(2), PrimeField(2)
    c = minimal_resolution(alg, field, 3, 4)
    assert c.gens[2][1] == c.gens[3][0] == (3,) and 1 not in c.diffs[2][0]
    c.diffs[2][0][1] = {alg.unit: field.one}
    oracle = composed_report(c)
    assert not oracle["d_squared_zero"] and oracle["ranks"] == [4, 4, 3]
    assert oracle["ranks"][1] + oracle["ranks"][2] > oracle["dims"][2]
    assert reader_fields(c.verify()) == oracle


def test_reader_work_on_the_bench_complex(monkeypatch):
    """On the complex of `resolve --n 3 --char 2 --length 5 --height 12`
    the reader composes the own column of each generator of P_2, ..., P_5
    and no other (190 of the 4,990 columns of d_2, ..., d_5), and its
    field's kernel inserts fewer than 4,000 columns (composing every
    column and eliminating in full inserted all 5,952)."""
    c = minimal_resolution(DividedPowerAlgebra(3), PrimeField(2), 5, 12)
    composed, inserted = [], []
    kernel = type(Echelon(c.field))
    compose, insert = resolutions.composite, kernel._insert

    def counted_composite(col, lower, mul, field):
        composed.append(col)
        return compose(col, lower, mul, field)

    def counted_insert(self, vec, j):
        inserted.append(vec)
        return insert(self, vec, j)

    monkeypatch.setattr(resolutions, "composite", counted_composite)
    monkeypatch.setattr(kernel, "_insert", counted_insert)
    report = c.verify()
    assert is_exact(report)
    assert composed == [col for d in c.diffs[1:] for col in d.values()]
    assert len(composed) == sum(map(len, c.gens[2:])) == 190
    assert sum(report["ranks"]) <= len(inserted) < 4000


def reversed_betti(betti):
    """A Betti table with every degree's coordinates reversed."""
    return {i: sorted(g[::-1] for g in gens) for i, gens in betti.items()}


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([3, 4, 5]), st.sampled_from([0, 2, 3, 5]), st.data())
def test_betti_table_is_invariant_under_the_diagram_automorphism(n, char,
                                                                 data):
    """e_ij -> -e_{n+1-j, n+1-i} is a Lie automorphism of n+ that maps the
    Kostant form to itself and reverses the coordinates of a degree over
    the simple roots, so it maps the minimal resolution of the trivial
    module to one: the Betti table is unchanged when every degree is
    reversed.  The check needs no second route to the Betti numbers."""
    length = data.draw(st.integers(0, {3: 4, 4: 3, 5: 3}[n]), label="length")
    height = data.draw(st.integers(0, {3: 8, 4: 5, 5: 4}[n]), label="height")
    betti = minimal_resolution(DividedPowerAlgebra(n),
                               field_of_characteristic(char), length,
                               height).betti()
    assert reversed_betti(betti) == betti


def test_diagram_automorphism_catches_a_moved_generator():
    """One generator of P_2 moved from degree (1, 2) to (1, 3): its mirror
    (2, 1) stays, so the table is no longer invariant."""
    c = minimal_resolution(DividedPowerAlgebra(3), PrimeField(2), 4, 8)
    assert reversed_betti(c.betti()) == c.betti()
    c.gens[2][c.gens[2].index((1, 2))] = (1, 3)
    assert reversed_betti(c.betti()) != c.betti()


def test_minimality_tripwire():
    alg = DividedPowerAlgebra(2)
    c = minimal_resolution(alg, PrimeField(2), 2, 4)
    assert c.verify()["minimal"]
    # a unit entry of d_2 between generators of degree 2 in P_1 and P_2
    assert c.gens[1][1] == c.gens[2][0] == (2,) and 1 not in c.diffs[1][0]
    c.diffs[1][0][1] = {alg.unit: c.field.one}
    assert not c.verify()["minimal"]
    del c.diffs[1][0][1]
    assert c.verify()["minimal"]


def test_an_inhomogeneous_entry_is_refused():
    """The unit monomial put into an entry of d_1 whose two generators
    differ in degree: the reader refuses the complex by name instead of
    failing when the product leaves the degree slice."""
    alg = DividedPowerAlgebra(2)
    c = minimal_resolution(alg, PrimeField(2), 2, 4)
    assert c.gens[0] == [(0,)] and c.gens[1][0] == (1,)
    c.diffs[0][0][0][alg.unit] = c.field.one
    with pytest.raises(ValueError, match=r"entry \(0, 0\) of d_1"):
        c.verify()


def test_slice_dimensions_match_component_counts():
    alg = DividedPowerAlgebra(3)
    c = minimal_resolution(alg, PrimeField(2), 3, 4)
    for i, degs in enumerate(c.gens):
        for coords in alg.degrees_to_height(c.info["height"]):
            expected = 0
            for g in degs:
                rem = tuple(a - b for a, b in zip(coords, g))
                if all(x >= 0 for x in rem):
                    expected += len(alg.component_basis(rem))
            assert len(free_basis(degs, [coords], alg.between)) == expected


@pytest.mark.parametrize("n,char,L,H", [
    (2, 0, 4, 6), (2, 2, 5, 8), (2, 3, 4, 9), (3, 0, 4, 4), (3, 2, 4, 4),
])
def test_pivoting_strategies_agree(n, char, L, H):
    alg = DividedPowerAlgebra(n)
    field = QQ if char == 0 else PrimeField(char)
    b1 = minimal_resolution(alg, field, L, H, pivoting="first").betti()
    b2 = minimal_resolution(alg, field, L, H, pivoting="last").betti()
    assert b1 == b2


def test_differentials_compose_to_zero_exactly():
    alg = DividedPowerAlgebra(3)
    field = PrimeField(2)
    c = minimal_resolution(alg, field, 4, 4)
    for i in range(1, len(c.diffs)):
        lower = c.diffs[i - 1]
        upper = c.diffs[i]
        composite = {}
        for u, col in upper.items():
            for s, a in col.items():
                for t, b in lower.get(s, {}).items():
                    prod = multiply(alg, a, b, field)
                    acc = composite.setdefault((t, u), {})
                    for m, x in prod.items():
                        v = field.of(acc.get(m, field.zero) + x)
                        if v == field.zero:
                            acc.pop(m, None)
                        else:
                            acc[m] = v
        assert all(not e for e in composite.values())


def test_json_round_shape():
    alg = DividedPowerAlgebra(2)
    c = minimal_resolution(alg, QQ, 2, 4)
    data = c.to_json("modules", {"n": alg.n})
    assert data["n"] == 2 and data["char"] == 0
    assert data["modules"][0] == [[0]]
    assert isinstance(data["differentials"], list)


def all_kernel_cover(kernel, between, mul, field, pivoting):
    """The cover's oracle: the radical at piece p is spanned by every
    kernel vector of every earlier piece g times the basis elements from
    g to p, which needs no associativity.

    `kernel` is {piece: (vectors, basis)}, each vector a dict over
    positions in the piece's basis.
    """
    gens = []
    diff = {}
    pieces = sorted(kernel, key=lambda p: (sum(p), p))
    for i, p in enumerate(pieces):
        vecs, basis = kernel[p]
        index = {b: k for k, b in enumerate(basis)}
        rad = Echelon(field, pivoting)
        for g in pieces[:i]:
            lower_vecs, lower_basis = kernel[g]
            for x in between(g, p):
                for v in lower_vecs:
                    lifted = {}
                    for k, c in v.items():
                        t, y = lower_basis[k]
                        add_scaled(lifted, {index[(t, z)]: cz
                                            for z, cz in mul(x, y)},
                                   c, field)
                    rad.insert(lifted)
        for v in vecs:
            residual = rad.reduce(v)
            if not residual:
                continue
            rad.insert(residual)
            s = len(gens)
            gens.append(p)
            for k, c in residual.items():
                t, y = basis[k]
                diff.setdefault(s, {}).setdefault(t, {})[y] = c
    return gens, diff


def two_pass_resolve(pieces, top, between, mul, field, length, pivoting):
    """The engine's oracle, in two passes per step: cover the whole
    kernel with `all_kernel_cover`, then take the kernel of the new map
    on every piece, the new generators' own columns included."""
    gens = [[top]]
    diffs = []
    kernel = {}
    for p in pieces:
        basis = free_basis(gens[0], [p], between)
        if p != top and basis:
            kernel[p] = ([{k: field.one} for k in range(len(basis))], basis)
    for step in range(1, length + 1):
        new, diff = all_kernel_cover(kernel, between, mul, field, pivoting)
        gens.append(new)
        diffs.append(diff)
        if not new or step == length:
            break
        kernel = {}
        for p in pieces:
            src = free_basis(new, [p], between)
            if not src:
                continue
            dst = free_basis(gens[-2], [p], between)
            vecs = column_kernel(
                columns(src, dst, diff, mul), field)
            if vecs:
                kernel[p] = (vecs, src)
    return gens, diffs


def both_engines(alg, pieces, top, field, length, pivoting):
    return (resolutions.resolve(alg, pieces, top, field, length, pivoting),
            two_pass_resolve(pieces, top, alg.between, alg.product_terms,
                             field, length, pivoting))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 4]), st.sampled_from([0, 2, 3]),
       st.integers(0, 4), st.integers(0, 6), st.sampled_from(["first", "last"]))
def test_cover_matches_all_kernel_oracle_on_degrees(n, char, length, height,
                                                    pivoting):
    alg = DividedPowerAlgebra(n)
    field = field_of_characteristic(char)
    engine, oracle = both_engines(alg, alg.degrees_to_height(height),
                                  (0,) * (n - 1), field, length, pivoting)
    assert engine == oracle


def head_algebras(n, r, char):
    """The algebras `resolve_simple` runs over: the Borel algebra and the
    interval algebra that the Tor reference `interval_tor` resolves
    simples over."""
    field = field_of_characteristic(char)
    alg = DividedPowerAlgebra(n)
    return [BorelAlgebra(n, r, field, alg=alg),
            ConvexTruncation(alg, interval_points(n, r), field)]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([2, 3]), st.integers(0, 3), st.sampled_from([0, 2, 3]),
       st.sampled_from(["first", "last"]))
def test_cover_matches_all_kernel_oracle_on_heads(n, r, char, pivoting):
    for algebra in head_algebras(n, r, char):
        for lam in compositions(n, r):
            # every step raises the height of the weight
            length = max_reachable_height(lam, n, r) + 1
            engine, oracle = both_engines(
                algebra, sorted(set(algebra.heads)), lam, algebra.field,
                length, pivoting)
            assert engine == oracle


PROTOCOL = {"between", "module_basis", "product_terms", "is_unit"}


class ProtocolOnly:
    """An algebra that answers only the engine's four questions: asking it
    for any other attribute fails the test."""

    def __init__(self, alg):
        self.alg = alg

    def __getattribute__(self, name):
        if name not in PROTOCOL:
            raise AssertionError(f"the algebra was asked for {name!r}")
        return getattr(object.__getattribute__(self, "alg"), name)


def protocol_cases(char):
    """(algebra, pieces, top, length, blocks): the trivial module over the
    divided-power algebra, and each simple over the Borel algebra and
    the interval algebra, at n = 3, r = 3."""
    alg = DividedPowerAlgebra(3)
    pieces = alg.degrees_to_height(6)
    yield alg, pieces, (0, 0), 4, [[p] for p in pieces]
    for algebra in head_algebras(3, 3, char):
        heads = sorted(set(algebra.heads))
        for lam in compositions(3, 3):
            yield algebra, heads, lam, 4, [heads]


@pytest.mark.parametrize("char", [0, 2, 3])
@pytest.mark.parametrize("pivoting", ["first", "last"])
def test_engine_and_reader_ask_only_the_protocol(char, pivoting):
    """`resolve` and `ModuleComplex.verify` over an algebra that exposes
    only `between`, `module_basis`, `product_terms` and `is_unit` give
    what they give over the algebra itself, for each family; so does
    `verify` on a resolution pushed down to the Borel algebra."""
    field = field_of_characteristic(char)
    for alg, pieces, top, length, blocks in protocol_cases(char):
        proxy = ProtocolOnly(alg)
        gens, diffs = resolutions.resolve(alg, pieces, top, field, length,
                                          pivoting)
        assert resolutions.resolve(proxy, pieces, top, field, length,
                                   pivoting) == (gens, diffs)
        assert (ModuleComplex(proxy, field, gens, diffs, blocks).verify()
                == ModuleComplex(alg, field, gens, diffs, blocks).verify())
    graded = minimal_resolution(DividedPowerAlgebra(3), field, 4, 6)
    borel = BorelAlgebra(3, 3, field, alg=graded.alg)
    pushed = transport_resolution(graded, (1, 1, 1), 3, borel=borel)
    assert (ModuleComplex(ProtocolOnly(borel), field, pushed.gens,
                          pushed.diffs, pushed.blocks).verify()
            == pushed.verify())
    with pytest.raises(AssertionError, match="'n'"):
        ProtocolOnly(graded.alg).n


def assert_associative(mul, field, x, y, z):
    """(xy)z = x(yz) for basis elements, with `mul`, the engine's product
    as (basis element, scalar) pairs, extended bilinearly."""
    def prod(u, v):
        out = {}
        for a, ca in u.items():
            for b, cb in v.items():
                add_scaled(out, dict(mul(a, b)), ca * cb, field)
        return out

    one = field.one
    assert prod(prod({x: one}, {y: one}), {z: one}) == \
        prod({x: one}, prod({y: one}, {z: one}))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 4]), st.sampled_from([0, 2, 3, 5]), st.data())
def test_graded_mul_is_associative(n, char, data):
    """The engine's cover needs `mul` associative."""
    alg = DividedPowerAlgebra(n)
    field = field_of_characteristic(char)
    monos = st.sampled_from(alg.monomials_to_height(8 - n))
    assert_associative(alg.product_terms, field,
                       *(data.draw(monos) for _ in range(3)))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(2, 1), (2, 3), (2, 5), (3, 2), (3, 3), (4, 2)]),
       st.sampled_from([0, 2, 3]), st.data())
def test_based_products_are_associative(nr, char, data):
    """Composable triples z, then y based at z's head, then x based at
    y's head, in both algebras `resolve_simple` runs over."""
    for algebra in head_algebras(*nr, char):
        z = data.draw(st.integers(0, algebra.dim - 1))
        y = data.draw(st.sampled_from(algebra.based_at(algebra.head(z))))
        x = data.draw(st.sampled_from(algebra.based_at(algebra.head(y))))
        assert_associative(algebra.product_terms, algebra.field, x, y, z)


def counting_reduce(monkeypatch):
    """Patch the dict kernel's reduction to record what it reduces;
    returns the record."""
    calls = []
    reduce = Echelon._reduce

    def counted(self, vec, combo=None):
        calls.append(vec)
        return reduce(self, vec, combo)

    monkeypatch.setattr(Echelon, "_reduce", counted)
    return calls


@pytest.mark.parametrize("cols,vecs,fresh,reduced", [
    # the radical is the whole kernel: nothing is reduced
    ([{0: 1}, {1: 1}], [{0: 1}, {1: 1}], [], 0),
    # two new generators, the second at vecs[2]: vecs[3] is never reduced
    ([{0: 1}, {3: 1}], [{1: 1}, {0: 1}, {2: 1}, {3: 1}], [{1: 1}, {2: 1}], 3),
    # rank above len(vecs) (an incomplete kernel): no early stop
    ([{0: 1}, {1: 1}], [{0: 1}], [], 1),
], ids=["full-rank", "mid-list", "rank-above"])
def test_cover_stops_after_the_last_new_generator(monkeypatch, cols, vecs,
                                                  fresh, reduced):
    """The radical lies in the kernel, so len(vecs) - rank new generators
    exist and the cover reduces no kernel vector after the last one.  (A
    new generator's residual is reduced once more, as a copy, when it is
    inserted.)"""
    rad = Echelon(PrimeField(3))
    rad.eliminate(map(rad._vec, cols), kernel=False)
    calls = counting_reduce(monkeypatch)
    assert rad.cover(vecs) == fresh
    assert len([v for v in calls if any(v is w for w in vecs)]) == reduced
    assert len(calls) == reduced + len(fresh)
