import hashlib
import json
import os
import random
import tempfile
from itertools import product as iproduct
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from borelschur.combinatorics import coords_to_vector
from borelschur.divided_powers import DividedPowerAlgebra
from borelschur.fields import PrimeField, Rationals
from letter_oracle import LetterOracle, word
from oracles import WordOracle, column_factors, degree, monomial, multiply

QQ = Rationals()


def elem(pairs_to_scalars, alg, field=QQ):
    return {monomial(alg, m): field.of(c) for m, c in pairs_to_scalars}


def test_degree_examples():
    A2 = DividedPowerAlgebra(2)
    assert coords_to_vector(degree(A2, monomial(A2, {(1, 2): 3}))) == (3, -3)
    A3 = DividedPowerAlgebra(3)
    m = monomial(A3, {(2, 3): 2, (1, 3): 1, (1, 2): 1})
    assert coords_to_vector(degree(A3, m)) == (2, 1, -3)
    assert degree(A3, A3.unit) == (0, 0)


def test_canonical_word_order():
    # the written product for the example exponent matrix is e23^2 e13 e12
    A3 = DividedPowerAlgebra(3)
    m = monomial(A3, {(1, 2): 1, (1, 3): 1, (2, 3): 2})
    letters = [A3.pairs[a] for a in word(A3, m)]
    assert letters == [(2, 3), (2, 3), (1, 3), (1, 2)]


def test_multiply_examples():
    A3 = DividedPowerAlgebra(3)
    e12 = monomial(A3, {(1, 2): 1})
    e23 = monomial(A3, {(2, 3): 1})
    sq = multiply(A3, {e12: QQ.one}, {e12: QQ.one}, QQ)
    assert sq == {monomial(A3, {(1, 2): 2}): QQ.of(2)}
    assert multiply(A3, {e12: 1}, {e12: 1}, PrimeField(2)) == {}
    prod = multiply(A3, {e12: QQ.one}, {e23: QQ.one}, QQ)
    assert prod == {monomial(A3, {(1, 2): 1, (2, 3): 1}): QQ.one,
                    monomial(A3, {(1, 3): 1}): QQ.one}
    x = {monomial(A3, {(1, 3): 2, (2, 3): 1}): QQ.of(7)}
    assert multiply(A3, {A3.unit: QQ.one}, x, QQ) == x
    assert multiply(A3, x, {A3.unit: QQ.one}, QQ) == x


def test_divided_power_law_exhaustive():
    A2 = DividedPowerAlgebra(2)
    for a in range(9):
        for b in range(9 - a):
            t = A2.product_terms(monomial(A2, {(1, 2): a}),
                                 monomial(A2, {(1, 2): b}))
            assert t == (((a + b,), comb(a + b, a)),)


@pytest.mark.parametrize("char", [0, 2, 3])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_associativity_random(n, char):
    field = QQ if char == 0 else PrimeField(char)
    alg = DividedPowerAlgebra(n)
    monos = alg.monomials_to_height(6)
    rng = random.Random(100 * n + char)
    for _ in range(15):
        x = {rng.choice(monos): field.of(rng.randint(1, 4))}
        y = {rng.choice(monos): field.of(rng.randint(1, 4))}
        z = {rng.choice(monos): field.of(rng.randint(1, 4))}
        assert multiply(alg, multiply(alg, x, y, field), z, field) == \
            multiply(alg, x, multiply(alg, y, z, field), field)


def test_product_is_graded():
    alg = DividedPowerAlgebra(3)
    rng = random.Random(42)
    monos = alg.monomials_to_height(4)
    for _ in range(40):
        m1, m2 = rng.choice(monos), rng.choice(monos)
        d = tuple(a + b for a, b in zip(degree(alg, m1), degree(alg, m2)))
        for m, _c in alg.product_terms(m1, m2):
            assert degree(alg, m) == d


def test_column_factors():
    A3 = DividedPowerAlgebra(3)
    m = monomial(A3, {(2, 3): 2, (1, 3): 1, (1, 2): 1})
    factors = column_factors(A3, m)
    assert factors == [monomial(A3, {(2, 3): 2, (1, 3): 1}),
                       monomial(A3, {(1, 2): 1})]
    single = monomial(A3, {(1, 3): 2, (2, 3): 1})
    assert column_factors(A3, single) == [single, A3.unit]
    assert column_factors(A3, A3.unit) == [A3.unit, A3.unit]
    # multiplying the factors in order reproduces the monomial
    rng = random.Random(3)
    monos = A3.monomials_to_height(5)
    for _ in range(25):
        m = rng.choice(monos)
        acc = {A3.unit: QQ.one}
        for f in column_factors(A3, m):
            acc = multiply(A3, acc, {f: QQ.one}, QQ)
        assert acc == {m: QQ.one}


def test_column_factor_degrees_are_single_column():
    A4 = DividedPowerAlgebra(4)
    rng = random.Random(9)
    monos = A4.monomials_to_height(4)
    for _ in range(20):
        m = rng.choice(monos)
        for col, f in zip(range(A4.n, 1, -1), column_factors(A4, m)):
            for a, k in enumerate(f):
                if k:
                    assert A4.pairs[a][1] == col


def test_subalgebra_closure():
    # products of monomials supported on columns in {k..l} stay there
    A4 = DividedPowerAlgebra(4)
    rng = random.Random(17)
    monos = [m for m in A4.monomials_to_height(4)
             if all(k == 0 or 3 <= A4.pairs[a][1] <= 4
                    for a, k in enumerate(m))]
    for _ in range(40):
        m1, m2 = rng.choice(monos), rng.choice(monos)
        for exps, _ in A4.product_terms(m1, m2):
            assert all(k == 0 or 3 <= A4.pairs[a][1] <= 4
                       for a, k in enumerate(exps))


def test_component_basis():
    A3 = DividedPowerAlgebra(3)
    assert A3.component_basis((1, 0)) == [monomial(A3, {(1, 2): 1})]
    comp = A3.component_basis((1, 1))
    assert comp == sorted([monomial(A3, {(1, 3): 1}),
                           monomial(A3, {(1, 2): 1, (2, 3): 1})])
    assert A3.component_basis((0, 0)) == [A3.unit]


def test_integrality_on_cache_fill():
    alg = DividedPowerAlgebra(3)
    alg.fill_cache(6)
    assert alg._products
    oracle = LetterOracle(alg)  # raises IntegralityError on any failure
    for (e1, e2), terms in alg._products.items():
        assert terms == oracle.product_terms(e1, e2)


_ALGEBRAS = {n: DividedPowerAlgebra(n) for n in range(2, 7)}
_ORACLES = {n: LetterOracle(alg) for n, alg in _ALGEBRAS.items()}
_WORD_ORACLES = {n: WordOracle(alg) for n, alg in _ALGEBRAS.items()}


def _draw_exponents(draw, alg, budget):
    """An exponent vector of height <= budget, filled in a drawn order so
    that no pair is favoured by the budget."""
    exps = [0] * len(alg.pairs)
    for a in draw(st.permutations(range(len(alg.pairs)))):
        exps[a] = draw(st.integers(0, budget // alg.pair_heights[a]))
        budget -= exps[a] * alg.pair_heights[a]
    return tuple(exps)


@st.composite
def monomial_pairs(draw, height=8, top=5):
    """(algebra, m1, m2) for n in 2..top with the two heights adding up to
    at most `height`."""
    alg = _ALGEBRAS[draw(st.integers(2, top))]
    m1 = _draw_exponents(draw, alg, height)
    m2 = _draw_exponents(draw, alg, height - alg.monomial_height(m1))
    return alg, m1, m2


@st.composite
def syllable_products(draw, height=8):
    """(algebra, m, a, k) for n in 2..5: a monomial m and one syllable
    e_a^(k), k >= 1, of total height at most `height`."""
    alg = _ALGEBRAS[draw(st.integers(2, 5))]
    a = draw(st.integers(0, len(alg.pairs) - 1))
    k = draw(st.integers(1, height // alg.pair_heights[a]))
    m = _draw_exponents(draw, alg, height - k * alg.pair_heights[a])
    return alg, m, a, k


@settings(max_examples=300, deadline=None)
@given(monomial_pairs())
def test_products_equal_the_letter_oracle(case):
    """Terms, coefficients and term order all agree with the oracle."""
    alg, m1, m2 = case
    assert alg.product_terms(m1, m2) == _ORACLES[alg.n].product_terms(m1, m2)


@settings(max_examples=300, deadline=None)
@given(monomial_pairs(height=10, top=6))
def test_products_equal_the_word_rewriting(case):
    """Folding one syllable at a time gives the terms, coefficients and
    term order of rewriting the whole concatenated word."""
    alg, m1, m2 = case
    assert (alg.product_terms(m1, m2)
            == _WORD_ORACLES[alg.n].product_terms(m1, m2))


@settings(max_examples=300, deadline=None)
@given(syllable_products())
def test_times_one_syllable_equals_the_letter_oracle(case):
    """`_times(m, a, k)` is the product of m with the monomial e_a^(k)."""
    alg, m, a, k = case
    syllable = tuple(k if b == a else 0 for b in range(len(alg.pairs)))
    assert alg._times(m, a, k) == dict(
        _ORACLES[alg.n].product_terms(m, syllable))


@pytest.mark.parametrize("n,h,entries", [(3, 12, 6594), (4, 8, 11226)])
def test_product_table_equals_the_word_rewriting(n, h, entries):
    """Every entry of the filled table, terms and order, against the word
    oracle."""
    alg = DividedPowerAlgebra(n)
    alg.fill_cache(h)
    oracle = WordOracle(DividedPowerAlgebra(n))
    assert len(alg._products) == entries
    for (m1, m2), terms in alg._products.items():
        assert terms == oracle.product_terms(m1, m2)


def test_straighten_memo_stays_small_and_unchanged():
    """Rank 3 to height 16 memoizes a few thousand one-syllable products
    (whole-word memoization stored 47,936 words).  Refilling the table
    from the memo leaves every memo value as it was: no caller mutates a
    shared value."""
    alg = DividedPowerAlgebra(3)
    alg.fill_cache(16)
    assert len(alg._straighten_memo) <= 10_000
    memo = {key: dict(value) for key, value in alg._straighten_memo.items()}
    products = dict(alg._products)
    alg._products.clear()
    alg.fill_cache(16)
    assert alg._straighten_memo == memo
    assert alg._products == products


@pytest.mark.parametrize("n,h", [(3, 8), (4, 6)])
def test_product_terms_come_in_word_order(n, h):
    """The sort key, exponents read in written order, orders the terms of
    every product by their canonical letter words."""
    alg = DividedPowerAlgebra(n)
    monos = alg.monomials_to_height(h)
    for m1 in monos:
        for m2 in monos:
            if alg.monomial_height(m1) + alg.monomial_height(m2) <= h:
                words = [word(alg, m) for m, _ in alg.product_terms(m1, m2)]
                assert words == sorted(words)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_single_term_products_match_the_rewriting(n):
    """For every pair of total height <= 8, `_straighten_product` equals
    the word oracle's rewriting of the concatenated word.  A pair with no
    e_ij in m1 and e_jl in m2 is one that `_interacts` says does not
    interact; it leaves the straightening memo as it was, and its one
    term is m1 + m2 with coefficient the product of the C(p+q, p).
    Every pair that interacts has two or more terms."""
    alg = DividedPowerAlgebra(n)
    oracle = WordOracle(alg)
    monos = [(m, alg.monomial_height(m)) for m in alg.monomials_to_height(8)]
    routes = {True: 0, False: 0}
    for m1, h1 in monos:
        for m2, h2 in monos:
            if h1 + h2 > 8:
                continue
            before = len(alg._straighten_memo)
            got = alg._straighten_product(m1, m2)
            assert got == oracle.product_terms(m1, m2)
            meets = any(m1[a] and m2[b] and alg.pairs[a][1] == alg.pairs[b][0]
                        for a in range(len(m1)) for b in range(len(m2)))
            assert alg._interacts(m1, m2) == meets == (len(got) > 1)
            if not meets:
                assert len(alg._straighten_memo) == before
                total = tuple(x + y for x, y in zip(m1, m2))
                coeff = 1
                for x, y in zip(m1, m2):
                    coeff *= comb(x + y, x)
                assert got == ((total, coeff),)
            routes[not meets] += 1
    assert routes[True] and (routes[False] or n == 2)


def exponent_vectors(weights, budget):
    """Every exponent vector whose weighted sum is at most `budget`, in
    increasing order."""
    if not weights:
        return [()]
    return [(k,) + rest for k in range(budget // weights[0] + 1)
            for rest in exponent_vectors(weights[1:], budget - k * weights[0])]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_component_basis_matches_a_filter_of_all_exponents(n):
    """Every degree of height <= 6: the component is the list, in
    increasing order, of all exponent vectors of that degree."""
    alg = DividedPowerAlgebra(n)
    components = {}
    for exps in exponent_vectors(alg.pair_heights, 6):
        components.setdefault(degree(alg, exps), []).append(exps)
    degrees = alg.degrees_to_height(6)
    assert set(components) <= set(degrees)
    for coords in degrees:
        assert alg.component_basis(coords) == components.get(coords, [])


def test_component_basis_does_not_recurse_at_large_rank():
    """At n = 60, 1,711 pairs are not simple, past Python's default
    recursion limit; the enumeration still lists each component."""
    alg = DividedPowerAlgebra(60)
    assert alg.component_basis((0,) * 59) == [alg.unit]
    e12, e23, e13 = (monomial(alg, {p: 1}) for p in [(1, 2), (2, 3), (1, 3)])
    both = tuple(map(sum, zip(e12, e23)))
    assert alg.component_basis((1, 1) + (0,) * 57) == sorted([both, e13])


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4), st.data())
def test_between_is_the_component_of_the_difference(n, data):
    """`between(g, p)`, the engine's basis from piece g to piece p, is the
    increasing list of the monomials of degree p - g, and empty unless
    g <= p coordinatewise."""
    alg = DividedPowerAlgebra(n)
    pieces = st.sampled_from(alg.degrees_to_height(6))
    g, p = data.draw(pieces), data.draw(pieces)
    diff = tuple(b - a for a, b in zip(g, p))
    expected = [m for m in exponent_vectors(alg.pair_heights, 6)
                if degree(alg, m) == diff]
    assert alg.between(g, p) == expected
    if not all(a <= b for a, b in zip(g, p)):
        assert alg.between(g, p) == []


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4), st.data())
def test_module_basis_is_the_between_walk(n, data):
    """`module_basis` tests g <= p inline; it lists what asking `between`
    of every generator at every piece of the block lists, in the same
    order, with the generators in any order and many of them above some
    or all of the block."""
    alg = DividedPowerAlgebra(n)
    pieces = st.sampled_from(alg.degrees_to_height(5))
    gens = data.draw(st.lists(pieces, max_size=6))
    block = data.draw(st.lists(pieces, max_size=4, unique=True))
    assert alg.module_basis(gens, block) == [
        (t, m) for t, g in enumerate(gens) for p in block
        for m in alg.between(g, p)]


def test_deep_heisenberg_product():
    """e_12^(40) e_23^(40) = sum_t e_23^(40-t) e_13^(t) e_12^(40-t), each
    term once; a letter-by-letter straightener recurses too deep here."""
    A3 = DividedPowerAlgebra(3)
    terms = A3.product_terms(monomial(A3, {(1, 2): 40}),
                             monomial(A3, {(2, 3): 40}))
    assert terms == tuple(((40 - t, t, 40 - t), 1) for t in range(40, -1, -1))


@pytest.mark.parametrize("n,K", [(5, 10), (5, 20), (6, 8)])
def test_deep_column_product(n, K):
    """A full column j = n - 1, every e_ij^(K), times e_jl^(K) with
    l = n: one term e_ij^(K-t_i) e_il^(t_i) e_jl^(K-|t|) for each t with
    |t| <= K, C(K + j - 1, j - 1) of them, each with coefficient 1."""
    alg = DividedPowerAlgebra(n)
    j, l = n - 1, n
    column = monomial(alg, {(i, j): K for i in range(1, j)})
    terms = alg.product_terms(column, monomial(alg, {(j, l): K}))
    want = set()
    for t in iproduct(range(K + 1), repeat=j - 1):
        if sum(t) <= K:
            exps = {(i, j): K - t[i - 1] for i in range(1, j)}
            exps.update({(i, l): t[i - 1] for i in range(1, j)})
            want.add(monomial(alg, {**exps, (j, l): K - sum(t)}))
    assert len(terms) == len(want) == comb(K + j - 1, j - 1)
    assert {m for m, _ in terms} == want
    assert all(c == 1 for _, c in terms)


def test_column_product_cut_by_the_syllable_equals_the_letter_oracle():
    """e_14^(2) e_24 e_34^(2) times e_45^(3), with e_25 and e_45 already
    present: t runs over the box 3 x 2 x 3 cut to |t| <= 3, 14 terms, and
    their coefficients are binomials C(m_il + t_i, t_i)."""
    alg = DividedPowerAlgebra(5)
    m = monomial(alg, {(1, 4): 2, (2, 4): 1, (3, 4): 2, (2, 5): 1, (4, 5): 1})
    syllable = monomial(alg, {(4, 5): 3})
    terms = alg.product_terms(m, syllable)
    assert terms == LetterOracle(alg).product_terms(m, syllable)
    assert len(terms) == 14
    assert max(c for _, c in terms) > 1


@pytest.mark.parametrize("n,h,digest", [
    (3, 8, "44dde377ce332c729c5ef3b97c956d215006af4698c264537155d445984bbd68"),
    (4, 8, "73ad3260ee676c7c20dc1c4c9736399ee8b468fa6b840ace798465006ff3fb1d"),
])
def test_save_cache_bytes_are_pinned(tmp_path, n, h, digest):
    """Whole schema-4 files: stored pairs, term order, coefficients,
    digests and layout."""
    path = tmp_path / "cache.json"
    DividedPowerAlgebra(n).save_cache(path, h)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_cache_rebuild_identical():
    a1 = DividedPowerAlgebra(3)
    a1.fill_cache(5)
    a2 = DividedPowerAlgebra(3)
    a2.fill_cache(5)
    assert a1._products == a2._products


def _assert_loads_the_products(loaded, h):
    """`loaded` holds exactly the products of pair height <= h that have
    two or more terms, and answers every pair of pair height <= h as a
    fresh algebra does."""
    fresh = DividedPowerAlgebra(loaded.n)
    fresh.fill_cache(h)
    assert set(loaded._products) == {
        key for key, terms in fresh._products.items() if len(terms) > 1}
    for (m1, m2), terms in fresh._products.items():
        assert loaded.product_terms(m1, m2) == terms


def test_cache_file_round_trip(tmp_path):
    path = tmp_path / "cache.json"
    a1 = DividedPowerAlgebra(3)
    a1.save_cache(path, 4)
    a2 = DividedPowerAlgebra(3)
    assert a2.load_cache(path, 4)
    _assert_loads_the_products(a2, 4)
    # refuses a cache for the wrong rank or too small a height
    b = DividedPowerAlgebra(4)
    assert not b.load_cache(path, 4)
    a4 = DividedPowerAlgebra(3)
    assert not a4.load_cache(path, 6)


def test_load_cache_keeps_only_the_interacting_products(tmp_path):
    """A rank-3 load at height 8 holds the 399 products that need
    straightening, not all 1,190 pairs."""
    path = tmp_path / "cache.json"
    DividedPowerAlgebra(3).save_cache(path, 8)
    alg = DividedPowerAlgebra(3)
    assert alg.load_cache(path, 8)
    assert len(alg._products) == 399


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 4).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(0, 6).flatmap(
        lambda h: st.tuples(st.just(h), st.integers(0, h))))))
def test_cache_round_trip_at_any_lower_height(case):
    n, (h, lower) = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cache.json")
        DividedPowerAlgebra(n).save_cache(path, h)
        loaded = DividedPowerAlgebra(n)
        assert loaded.load_cache(path, lower)
    _assert_loads_the_products(loaded, lower)


def _signed_body(chunks, n=3, height=4):
    """A cache file whose body is the strings `chunks`, one per line,
    each signed as it stands."""
    digests = [hashlib.sha256(c.encode()).hexdigest() for c in chunks]
    header = {"schema": 4, "n": n, "height": height, "sha256": digests}
    return json.dumps(header) + "\n" + "".join(chunks)


def _signed_lines(lines, n=3, height=4):
    """A cache file whose body holds `lines`, one JSON value per line,
    with one matching digest per line."""
    return _signed_body([json.dumps(line) + "\n" for line in lines],
                        n, height)


def _pair_height(entry, n=3):
    weights = DividedPowerAlgebra(n).pair_heights
    return sum(k * w for e in entry[:2] for k, w in zip(e, weights))


def _cache_text(entries, n=3, height=4):
    """A cache file in the saved layout: each entry on the line of its
    pair height, with digests that match."""
    lines = [[] for _ in range(height + 1)]
    for entry in entries:
        lines[_pair_height(entry, n)].append(entry)
    return _signed_lines(lines, n, height)


# rank-3 entries as saved: e12 * e23 on line 2, and the first and the
# last entry of line 3, e12 * e23^(2) and e12^(2) * e23
E12_E23 = [[1, 0, 0], [0, 0, 1], [[[0, 1, 0], 1], [[1, 0, 1], 1]]]
FIRST_3 = [[1, 0, 0], [0, 0, 2], [[[0, 1, 1], 1], [[1, 0, 2], 1]]]
LAST_3 = [[2, 0, 0], [0, 0, 1], [[[1, 1, 0], 1], [[2, 0, 1], 1]]]


def _amid(bad):
    """A signed file whose line 3 holds `bad` between two good entries,
    so the entries that every load straightens again are not `bad`."""
    return _signed_lines([[], [], [E12_E23], [FIRST_3, bad, LAST_3], []])


@pytest.mark.parametrize("text", [
    "[1]",
    "null",
    _amid([[1], [0, 0, 2], [[[0, 1, 1], 1], [[1, 0, 2], 1]]]),
    _amid([[1, 0, 0], [1, 0, 1]]),
    _amid([[1, 0, 0], [1, 0, 1], [[[1, 1, 0], 1], [[2, 0, 1], 2.0]]]),
    _amid([[1, 0, 0], [1, 0, 1], [[[1, 1, 0], True], [[2, 0, 1], 2]]]),
    _amid([[3, -1, 1], [0, 0, 1], [[[0, 1, 1], 1], [[1, 0, 2], 2]]]),
    _signed_lines(["", [], [], [], []]),
    _signed_lines([[], [], [], [], []], height="9"),
    _amid([[1, 0, 0], [1, 0, 1], []]),
    _amid([[1, 0, 0], [1, 0, 1], [[[1, 1, 0], 0], [[2, 0, 1], 2]]]),
    _amid([[1, 0, 0], [1, 0, 1], [[[1, 1, 0], -1], [[2, 0, 1], 2]]]),
    # e23 * e23^(2) = 3 e23^(3) is right, but its closed form is not
    # the file's to give
    _amid([[0, 0, 1], [0, 0, 2], [[[0, 0, 3], 3]]]),
    _signed_lines([[], [], [E12_E23], [FIRST_3, LAST_3], [], []]),
    _cache_text([E12_E23, FIRST_3]).replace(
        json.dumps([FIRST_3]), json.dumps([FIRST_3, LAST_3])),
    _signed_body(["[]\n"] * 4 + ["[]"]),
    _signed_lines([[]] * 5).replace('"sha256": [', '"sha256": null, "x": ['),
    _amid([[1, 0, 0], [1.0, 0, 1], [[[1, 1, 0], 1], [[2, 0, 1], 2]]]),
    _amid([[1, 0, 0], [1, 0, 1], 2]),
    _amid([[1, 0, 0], [1, 0, 1], [[[1, 1, 0], 1, 0], [[2, 0, 1], 2]]]),
    _amid([[1, 0, 0], 3, [[[1, 1, 0], 1], [[2, 0, 1], 2]]]),
    _cache_text([E12_E23]).replace('"schema": 4', '"schema": 5'),
    _cache_text([E12_E23]).replace('"n": 3', '"n": 4'),
    _signed_lines([[], [], [E12_E23], []], height=3) + "[]\n",
], ids=["[1]", "null", "short-exponents", "not-a-triple", "float", "bool",
        "negative-exponent", "line-not-a-list", "height-not-int",
        "empty-terms", "zero-coefficient", "negative-coefficient",
        "non-interacting-entry", "digest-count", "line-digest",
        "unterminated-line", "digests-not-a-list", "float-exponent",
        "terms-not-a-list", "term-not-a-pair", "exponents-not-a-list",
        "other-schema", "other-rank", "height-below-the-job"])
def test_load_cache_rejects_malformed(tmp_path, text):
    path = tmp_path / "cache.json"
    path.write_text(text)
    alg = DividedPowerAlgebra(3)
    assert not alg.load_cache(path, 4)
    assert alg._products == {}


def test_load_cache_loads_nothing_from_a_partly_bad_file(tmp_path):
    """Line 2 is good and line 3 is not: nothing is loaded."""
    path = tmp_path / "cache.json"
    path.write_text(_cache_text([E12_E23, [[1], [0, 0, 2], []]]))
    alg = DividedPowerAlgebra(3)
    assert not alg.load_cache(path, 4)
    assert alg._products == {}
    path.write_text(_cache_text([E12_E23]))
    assert alg.load_cache(path, 4)
    assert alg._products == {((1, 0, 0), (0, 0, 1)):
                             (((0, 1, 0), 1), ((1, 0, 1), 1))}


@pytest.mark.parametrize("n,top", [(2, 8), (3, 6)])
def test_load_cache_reads_the_pairs_up_to_its_height(tmp_path, n, top):
    path = tmp_path / "cache.json"
    DividedPowerAlgebra(n).save_cache(path, top)
    for h in range(top + 1):
        loaded = DividedPowerAlgebra(n)
        assert loaded.load_cache(path, h)
        _assert_loads_the_products(loaded, h)


def _saved_lines(path, h):
    DividedPowerAlgebra(3).save_cache(path, h)
    body = path.read_bytes().split(b"\n", 1)[1]
    return [json.loads(line) for line in body.splitlines()]


@pytest.mark.parametrize("to", [2, 4])
def test_load_cache_rejects_an_entry_on_the_wrong_line(tmp_path, to):
    path = tmp_path / "cache.json"
    lines = _saved_lines(path, 4)
    assert lines[3] and all(_pair_height(e) == 3 for e in lines[3])
    lines[to].append(lines[3].pop())
    path.write_text(_signed_lines(lines))
    assert DividedPowerAlgebra(3).load_cache(path, to - 1)
    alg = DividedPowerAlgebra(3)
    assert not alg.load_cache(path, to)
    assert alg._products == {}


@pytest.mark.parametrize("change", ["drop", "add"])
def test_load_cache_rejects_a_wrong_line_count(tmp_path, change):
    """A height-4 header must list five digests, one per line."""
    path = tmp_path / "cache.json"
    lines = _saved_lines(path, 4)
    if change == "drop":
        lines.pop()
    else:
        lines.append([])
    path.write_text(_signed_lines(lines))
    for h in (0, 4):
        alg = DividedPowerAlgebra(3)
        assert not alg.load_cache(path, h)
        assert alg._products == {}


def test_save_cache_replaces_the_file_whole(tmp_path):
    path = tmp_path / "cache.json"
    path.write_text("[1]")
    DividedPowerAlgebra(3).save_cache(path, 4)
    assert [p.name for p in tmp_path.iterdir()] == ["cache.json"]
    assert DividedPowerAlgebra(3).load_cache(path, 4)
