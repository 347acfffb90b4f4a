import hashlib
import json
import random
from itertools import permutations, product as iproduct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from borelschur import combinatorics, tensor_space
from borelschur.arrows import BorelAlgebra
from borelschur.combinatorics import compositions, weight
from borelschur.divided_powers import DividedPowerAlgebra
from borelschur.fields import PrimeField, Rationals
from borelschur.tensor_space import (
    TENSOR_DIMENSION_CAP,
    TensorAction,
    check_tensor_dimension,
    upper_table_json,
    verify_isomorphism,
)
from oracles import products_json
from tensor_oracle import (
    apply,
    canonical_pair,
    combination,
    composed_product_orbits,
    elementary,
    equal,
    group_operator,
    identity,
    keyed_operator_to_orbits,
    monomial_operator,
    orbits_to_operator,
    schur_multiply,
)

QQ = Rationals()


def test_xi_examples():
    act = TensorAction(2, 2, QQ)
    x = act.xi((1, 1), (1, 2))
    assert x == {act.position[(1, 2)]: {act.position[(1, 1)]: QQ.one},
                 act.position[(2, 1)]: {act.position[(1, 1)]: QQ.one}}
    # weight idempotents decompose the identity
    total = combination(act, [(QQ.one, act.weight_projector(lam))
                              for lam in compositions(2, 2)])
    assert equal(total, identity(act))
    # xi_lam projects onto the weight space
    proj = act.weight_projector((1, 1))
    for q, idx in enumerate(act.indices):
        expected = {q: {q: QQ.one}} if weight(idx, 2) == (1, 1) else {}
        assert {k: v for k, v in proj.items() if k == q} == expected


def permutation_operator(act, perm):
    one = act.field.one
    op = {}
    for q, idx in enumerate(act.indices):
        moved = tuple(idx[p] for p in perm)
        op[q] = {act.position[moved]: one}
    return op


def test_xi_commutes_with_place_permutations():
    act = TensorAction(2, 3, QQ)
    rng = random.Random(31)
    pairs = []
    for _ in range(6):
        j = tuple(rng.randint(1, 2) for _ in range(3))
        i = tuple(rng.randint(1, x) for x in j)
        pairs.append((i, j))
    for i, j in pairs:
        x = act.xi(i, j)
        for perm in permutations(range(3)):
            p = permutation_operator(act, perm)
            assert equal(act.compose(p, x), act.compose(x, p))


def test_schur_multiply_weight_idempotents():
    act = TensorAction(2, 2, QQ)
    lams = compositions(2, 2)
    for lam in lams:
        for mu in lams:
            prod = schur_multiply(
                act, act.operator_to_orbits(act.weight_projector(lam)),
                act.operator_to_orbits(act.weight_projector(mu)))
            if lam == mu:
                assert prod == act.operator_to_orbits(act.weight_projector(lam))
            else:
                assert prod == {}


def test_schur_multiply_weight_bookkeeping():
    act = TensorAction(2, 2, QQ)
    i, j = (1, 1), (1, 2)
    x = act.operator_to_orbits(act.xi(i, j))
    for lam in compositions(2, 2):
        prod = schur_multiply(act, x, act.operator_to_orbits(act.weight_projector(lam)))
        if weight(j, 2) == lam:
            assert prod == x
        else:
            assert prod == {}


@pytest.mark.parametrize("n,r", [(2, 3), (3, 2), (2, 4)])
@pytest.mark.parametrize("char", [0, 2])
def test_held_operator_products_match_schur_multiply(n, r, char):
    """verify_isomorphism's route (project first, multiply the held images)
    equals the old one (monomial operator then projector; rebuild both
    factors from xi coordinates and multiply)."""
    field = QQ if char == 0 else PrimeField(char)
    borel = BorelAlgebra(n, r, field)
    act = TensorAction(n, r, field)
    images = []
    for m, mu in borel.arrows:
        op = act.based_operator(m, mu, borel.alg)
        old = act.compose(monomial_operator(act, m, borel.alg),
                          act.weight_projector(mu))
        assert op == old, (m, mu)
        images.append(op)
    orbits = [act.operator_to_orbits(op) for op in images]
    for a, x in zip(images, orbits):
        for b, y in zip(images, orbits):
            assert (act.operator_to_orbits(act.compose(a, b))
                    == schur_multiply(act, x, y))


def dense_matrix(act, op, field):
    size = len(act.indices)
    M = [[field.zero] * size for _ in range(size)]
    for q, col in op.items():
        for p, c in col.items():
            M[p][q] = c
    return M


def dense_compose(a, b, field):
    size = len(a)
    out = [[field.zero] * size for _ in range(size)]
    for i in range(size):
        for k in range(size):
            if a[i][k] == field.zero:
                continue
            for j in range(size):
                out[i][j] = field.of(out[i][j] + a[i][k] * b[k][j])
    return out


def test_full_multiplication_table_small():
    """6x6 table of the upper triangular part for n = r = 2, checked against
    an independent dense matrix product."""
    act = TensorAction(2, 2, QQ)
    basis = []
    for j in iproduct((1, 2), repeat=2):
        for i in iproduct(*(range(1, x + 1) for x in j)):
            key = act.orbit_key(i, j)
            if key not in [b[0] for b in basis]:
                basis.append((key, act.xi(*canonical_pair(key))))
    assert len(basis) == 6
    for _, a in basis:
        for _, b in basis:
            expected = dense_compose(dense_matrix(act, a, QQ),
                                     dense_matrix(act, b, QQ), QQ)
            got = dense_matrix(act, act.compose(a, b), QQ)
            assert expected == got
            # and the product re-expresses in the basis with triangular support
            coeffs = act.operator_to_orbits(act.compose(a, b))
            assert all(all(p <= q for p, q in key) for key in coeffs)


def test_divided_power_action_examples():
    act = TensorAction(2, 2, QQ)
    v22 = {act.position[(2, 2)]: QQ.one}
    assert apply(act, act.divided_power(1, 2, 1), v22) == {
        act.position[(1, 2)]: QQ.one, act.position[(2, 1)]: QQ.one}
    assert apply(act, act.divided_power(1, 2, 2), v22) == {
        act.position[(1, 1)]: QQ.one}
    assert act.divided_power(1, 2, 3) == {}


@pytest.mark.parametrize("char", [0, 2])
def test_divided_power_action_is_algebra_map(char):
    field = QQ if char == 0 else PrimeField(char)
    n, r = 3, 3
    act = TensorAction(n, r, field)
    alg = DividedPowerAlgebra(n)
    monos = [m for m in alg.monomials_to_height(r)]
    rng = random.Random(char + 77)
    for _ in range(25):
        m1, m2 = rng.choice(monos), rng.choice(monos)
        lhs = act.compose(monomial_operator(act, m1, alg),
                          monomial_operator(act, m2, alg))
        rhs = combination(act, [
            (field.of(c), monomial_operator(act, m, alg))
            for m, c in alg.product_terms(m1, m2)])
        assert equal(lhs, rhs), (m1, m2)


def test_group_operator_compatibility():
    # the tensor action of a unipotent generator expands into divided powers
    act = TensorAction(2, 3, QQ)
    for c in (QQ.of(1), QQ.of(2), QQ.of(-3)):
        g = [[QQ.one, c], [QQ.zero, QQ.one]]
        tau = group_operator(act, g)
        acc = combination(act, [(QQ.one, identity(act))] + [
            (c ** k, act.divided_power(1, 2, k)) for k in range(1, 4)])
        assert equal(tau, acc)
    # and a torus generator weights the idempotents
    c = QQ.of(4)
    g = [[QQ.of(QQ.one + c), QQ.zero], [QQ.zero, QQ.one]]
    tau = group_operator(act, g)
    acc = combination(act, [((QQ.one + c) ** lam[0], act.weight_projector(lam))
                            for lam in compositions(2, 3)])
    assert equal(tau, acc)


def test_operator_outside_span_is_rejected():
    act = TensorAction(2, 2, QQ)
    # a lone matrix unit is not symmetric under place permutations
    bad = elementary(act, (1, 1), (1, 2))
    with pytest.raises(ValueError):
        act.operator_to_orbits(bad)
    # an orbit sum holding a stored zero inside its orbit, or alone on an
    # orbit of one position
    for p, q in [((1, 1), (2, 1)), ((2, 2), (2, 2))]:
        bad = act.xi((1, 1), (1, 2))
        bad.setdefault(act.position[q], {})[act.position[p]] = QQ.zero
        with pytest.raises(ValueError):
            act.operator_to_orbits(bad)
    # an orbit sum without the entry at its canonical pair, whose other
    # position is still stored
    bad = act.xi((1, 1), (1, 2))
    i, j = canonical_pair(act.orbit_key((1, 1), (1, 2)))
    assert bad.pop(act.position[j]) == {act.position[i]: QQ.one}
    assert bad
    with pytest.raises(ValueError):
        act.operator_to_orbits(bad)


def test_dimension_cap():
    with pytest.raises(ValueError):
        TensorAction(8, 8, QQ)
    assert 8 ** 8 > TENSOR_DIMENSION_CAP
    # at the edges of the cap and far past them; at n = 1 the index is
    # an r-tuple, so r is held to the cap
    for n, r in [(2, 18), (547, 2), (TENSOR_DIMENSION_CAP, 1),
                 (1, TENSOR_DIMENSION_CAP)]:
        check_tensor_dimension(n, r)
    for n, r in [(2, 19), (548, 2), (TENSOR_DIMENSION_CAP + 1, 1), (2, 10 ** 9),
                 (1, TENSOR_DIMENSION_CAP + 1), (1, 10 ** 9)]:
        pytest.raises(ValueError, check_tensor_dimension, n, r)


@pytest.mark.parametrize("n,r,char", [(2, 2, 0), (3, 2, 2), (2, 3, 3), (2, 1, 5)])
def test_verify_isomorphism(n, r, char):
    field = QQ if char == 0 else PrimeField(char)
    rep = verify_isomorphism(n, r, field)
    assert rep["passed"], rep
    assert rep["dim"] == rep["rank"]


def test_verify_isomorphism_at_the_n_one_cap():
    """At n = 1 the one index is an r-tuple, held to the cap; its orbit
    is one position, sized by binomials, not by a factorial of r."""
    rep = verify_isomorphism(1, TENSOR_DIMENSION_CAP, PrimeField(2))
    assert rep["passed"] and rep["dim"] == 1


def test_verify_isomorphism_r_zero():
    rep = verify_isomorphism(3, 0, QQ)
    assert rep["passed"] and rep["dim"] == 1


def test_verify_isomorphism_detects_tampering():
    """Fault injection: corrupting one structure constant of the arrow
    algebra must surface as a structure-constant mismatch."""
    field = PrimeField(3)
    borel = BorelAlgebra(2, 2, field)
    base = verify_isomorphism(2, 2, field, borel=borel)
    assert base["passed"]
    i = next(k for k in range(borel.dim) if not borel.is_unit(k))
    unit_at_base = borel.index[(borel.alg.unit, borel.base(i))]
    good = borel.product_terms(i, unit_at_base)
    borel._ptable[(i, unit_at_base)] = {k: field.of(v + field.one)
                                        for k, v in good}
    tampered = verify_isomorphism(2, 2, field, borel=borel)
    assert not tampered["passed"]
    assert tampered["mismatch_count"] > 0


def supports_meet(x, y):
    """Whether some row of y is a column of x, i.e. x . y can be nonzero."""
    return not set().union(*y.values()).isdisjoint(x)


def test_verify_isomorphism_compares_skipped_pairs(monkeypatch):
    """Fault injection: a nonzero structure constant on a pair whose image
    supports miss (so its product is never composed) must still surface
    as a mismatch."""
    field = PrimeField(3)
    borel = BorelAlgebra(2, 3, field)
    assert verify_isomorphism(2, 3, field, borel=borel)["passed"]
    act = TensorAction(2, 3, field)
    images = [act.based_operator(m, mu, borel.alg) for m, mu in borel.arrows]
    pair = next((a, b) for a in range(borel.dim) for b in range(borel.dim)
                if not supports_meet(images[a], images[b]))
    assert dict(borel.product_terms(*pair)) == {}
    product_terms = borel.product_terms

    def tampered(a, b):
        return ((0, field.one),) if (a, b) == pair else product_terms(a, b)

    monkeypatch.setattr(borel, "product_terms", tampered)
    rep = verify_isomorphism(2, 3, field, borel=borel)
    assert rep["mismatch_count"] >= 1
    assert pair in rep["mismatches"]
    assert not rep["passed"]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_disjoint_supports_compose_to_zero(data):
    """The skip rule of `product_orbits`: when no row of b is a column of a,
    a . b has no entry at all."""
    act = TensorAction(2, 3, PrimeField(3))
    size = len(act.indices)
    split = data.draw(st.sets(st.integers(0, size - 1)))
    rest = [p for p in range(size) if p not in split]

    def operator(cols, rows):
        col = st.dictionaries(st.sampled_from(rows), st.integers(1, 2),
                              min_size=1)
        return {q: data.draw(col) for q in cols
                if rows and data.draw(st.booleans())}

    a = operator(sorted(split), range(size))
    b = operator(range(size), rest)
    assert not supports_meet(a, b)
    assert act.compose(a, b) == {}


@pytest.mark.parametrize("n,r", [(2, 3), (3, 2), (2, 4)])
@pytest.mark.parametrize("char", [0, 2, 3])
def test_product_orbits_equal_composing_every_pair(monkeypatch, n, r, char):
    """`product_orbits` keys exactly the pairs whose supports meet, in
    row-major order, agrees on every pair with composing all of them,
    and composes none."""
    field = QQ if char == 0 else PrimeField(char)
    borel = BorelAlgebra(n, r, field)
    act = TensorAction(n, r, field)
    images = [act.based_operator(m, mu, borel.alg) for m, mu in borel.arrows]
    expected = composed_product_orbits(act, images)
    composed = []
    compose = act.compose
    monkeypatch.setattr(act, "compose",
                        lambda x, y: composed.append(1) or compose(x, y))
    products = act.product_orbits(images)
    pairs = list(iproduct(range(borel.dim), repeat=2))
    assert [products.get(ab, {}) for ab in pairs] == expected
    meeting = [(a, b) for a, b in pairs if supports_meet(images[a], images[b])]
    assert list(products) == meeting
    assert len(meeting) < borel.dim ** 2
    assert composed == []


@pytest.mark.parametrize("n,r", [(2, 4), (3, 3), (4, 2)])
def test_verify_isomorphism_probes_every_pair(monkeypatch, n, r):
    """Every pair probes the drop-rule product once, in row-major order,
    and only the images are read back in xi coordinates by the span
    test; no product is."""
    field = PrimeField(3)
    borel = BorelAlgebra(n, r, field)
    probed, read = [], []
    product_terms = borel.product_terms
    monkeypatch.setattr(borel, "product_terms",
                        lambda a, b: probed.append((a, b))
                        or product_terms(a, b))
    to_orbits = TensorAction.operator_to_orbits
    monkeypatch.setattr(TensorAction, "operator_to_orbits",
                        lambda self, op: read.append(1) or to_orbits(self, op))
    assert verify_isomorphism(n, r, field, borel=borel)["passed"]
    assert probed == list(iproduct(range(borel.dim), repeat=2))
    assert len(read) == borel.dim


SPAN_CASES = [(n, r, char) for n, r in [(2, 3), (3, 2), (2, 4), (3, 3)]
              for char in (0, 2, 3)]


def scalars(field):
    """Canonical scalars of the field, zero included."""
    if field.characteristic:
        return st.integers(0, field.characteristic - 1)
    return st.fractions(-3, 3, max_denominator=2).map(field.of)


def outcome(read, act, op):
    """The coefficients read, in order, or ValueError if read refuses op."""
    try:
        return list(read(act, op).items())
    except ValueError:
        return ValueError


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_span_check_refuses_what_rebuilding_refuses(data):
    """Checking constancy on each orbit while marking it accepts and
    refuses exactly the operators that rebuilding from the coefficients
    and comparing does: orbit combinations, with one entry changed,
    deleted or added, with an explicit zero entry or an orbit of
    explicit zeros, and random sparse operators."""
    n, r, char = data.draw(st.sampled_from(SPAN_CASES))
    field = QQ if char == 0 else PrimeField(char)
    act = TensorAction(n, r, field)
    size = len(act.indices)
    position = st.tuples(st.integers(0, size - 1), st.integers(0, size - 1))
    keys = sorted({act.orbit_key(i, j)
                   for i in act.indices for j in act.indices})
    nonzero = scalars(field).filter(bool)
    kind = data.draw(st.sampled_from(
        ["combination", "changed", "deleted", "added", "zero-entry",
         "zero-orbit", "sparse"]))
    if kind == "sparse":
        op = {}
        for p, q in data.draw(st.lists(position, max_size=12)):
            op.setdefault(q, {})[p] = data.draw(scalars(field))
    else:
        op = orbits_to_operator(act, data.draw(st.dictionaries(
            st.sampled_from(keys), nonzero, max_size=4)))
    entries = [(p, q) for q, col in op.items() for p in col]
    if kind in ("changed", "deleted") and entries:
        p, q = data.draw(st.sampled_from(entries))
        if kind == "changed":
            op[q][p] = data.draw(scalars(field).filter(
                lambda c: c != op[q][p]))
        else:
            del op[q][p]
    elif kind in ("added", "zero-entry"):
        p, q = data.draw(position)
        op.setdefault(q, {})[p] = (data.draw(nonzero) if kind == "added"
                                   else field.zero)
    elif kind == "zero-orbit":
        key = data.draw(st.sampled_from(keys))
        for q, col in act.xi(*canonical_pair(key)).items():
            for p in col:
                op.setdefault(q, {})[p] = field.zero
    assert (outcome(TensorAction.operator_to_orbits, act, op)
            == outcome(keyed_operator_to_orbits, act, op))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_product_orbits_of_span_elements(data):
    """Closure beyond the images: for random xi combinations x and y,
    whose columns may span several weights, reading each product at one
    column per weight gives the coordinates of composing it, on all four
    pairs, and keys exactly the pairs whose supports meet."""
    n, r, char = data.draw(st.sampled_from(SPAN_CASES))
    field = QQ if char == 0 else PrimeField(char)
    act = TensorAction(n, r, field)
    keys = sorted({act.orbit_key(i, j)
                   for i in act.indices for j in act.indices})
    coeffs = st.dictionaries(st.sampled_from(keys),
                             scalars(field).filter(bool), max_size=4)
    ops = [orbits_to_operator(act, data.draw(coeffs)) for _ in range(2)]
    products = act.product_orbits(ops)
    pairs = list(iproduct(range(2), repeat=2))
    assert ([products.get(ab, {}) for ab in pairs]
            == composed_product_orbits(act, ops))
    assert list(products) == [(a, b) for a, b in pairs
                              if supports_meet(ops[a], ops[b])]


def test_product_orbits_refuses_a_product_not_constant_on_an_orbit():
    """y = xi meets its read column (1, 1) in the two rows (1, 2) and
    (2, 1) of one orbit; an x that scales only one of them gives x . y
    two values on that orbit there, which is refused."""
    act = TensorAction(2, 2, QQ)
    y = act.xi((1, 2), (1, 1))
    read = act.position[(1, 1)]
    rows = [act.position[(1, 2)], act.position[(2, 1)]]
    assert sorted(y[read]) == sorted(rows)
    assert len({act.orbit_key(act.indices[p], (1, 1)) for p in rows}) == 1
    x = identity(act)
    assert act.product_orbits([x, y])[0, 1] == {
        act.orbit_key((1, 2), (1, 1)): QQ.one}
    x[rows[1]] = {rows[1]: QQ.of(2)}
    with pytest.raises(ValueError):
        act.product_orbits([x, y])


@pytest.mark.parametrize("n,r", [(2, 3), (3, 2), (2, 4)])
@pytest.mark.parametrize("char", [0, 2, 3])
def test_operator_to_orbits_keys_each_orbit_once(monkeypatch, n, r, char):
    """On the images and their products, `operator_to_orbits` gives the
    coordinates of keying every entry, in the same order, one per orbit.
    `verify_isomorphism` keys each stored image entry once, besides the
    entries `product_orbits` reads, and walks no orbit: it calls neither
    `xi` nor `orbit_of_pair`."""
    field = QQ if char == 0 else PrimeField(char)
    borel = BorelAlgebra(n, r, field)
    act = TensorAction(n, r, field)
    images = [act.based_operator(m, mu, borel.alg) for m, mu in borel.arrows]
    ops = images + [act.compose(x, y) for x in images for y in images]
    ops = [op for op in ops if op]
    for op in ops:
        assert (list(act.operator_to_orbits(op).items())
                == list(keyed_operator_to_orbits(act, op).items()))
    keyed, walked = [], []
    orbit_key = TensorAction.orbit_key
    monkeypatch.setattr(TensorAction, "orbit_key", lambda self, i, j:
                        keyed.append(1) or orbit_key(self, i, j))
    monkeypatch.setattr(TensorAction, "xi",
                        lambda self, i, j: walked.append("xi"))
    for module in (combinatorics, tensor_space):
        monkeypatch.setattr(module, "orbit_of_pair",
                            lambda i, j: walked.append("orbit_of_pair"))
    act.product_orbits(images)
    read = len(keyed)
    keyed.clear()
    assert verify_isomorphism(n, r, field, borel=borel)["passed"]
    entries = sum(len(col) for op in images for col in op.values())
    assert len(keyed) == entries + read
    assert walked == []


def test_verify_isomorphism_is_repeatable():
    field = PrimeField(2)
    borel = BorelAlgebra(3, 2, field)
    first = verify_isomorphism(3, 2, field, borel=borel)
    assert first["passed"]
    assert verify_isomorphism(3, 2, field, borel=borel) == first


def test_warm_orbit_sums_still_reject_outside_span():
    """Reading a valid operator first leaves nothing behind that lets an
    operator outside the span through."""
    act = TensorAction(2, 2, QQ)
    i, j = (1, 1), (1, 2)
    key = act.orbit_key(i, j)
    assert act.operator_to_orbits(act.xi(i, j)) == {key: QQ.one}
    with pytest.raises(ValueError):
        act.operator_to_orbits(elementary(act, i, j))
    assert act.operator_to_orbits(act.xi(i, j)) == {key: QQ.one}


@pytest.mark.parametrize("n,r,char", [(2, 3, 0), (3, 2, 2)])
def test_table_export_diffs_clean(n, r, char):
    """The table of the image basis, exported in the arrow JSON schema,
    must agree with the arrow table entry for entry."""
    field = QQ if char == 0 else PrimeField(char)
    img = upper_table_json(n, r, field, basis="image")
    direct = BorelAlgebra(n, r, field)
    assert img["basis"] == direct.to_json()["basis"]
    assert img["products"] == products_json(direct)
    orb = upper_table_json(n, r, field, basis="orbit")
    assert {"n", "r", "char", "basis", "products"} <= set(orb)


# sha256 of json.dumps(upper_table_json(n, r, field, basis), sort_keys=True)
TABLE_DIGESTS = {
    (2, 3, 0, "image"): "258ad0cdb50bf6f6cae7ce44418ef78a42afdd8cfeca03220ebb3795ffd158f1",
    (2, 3, 0, "orbit"): "ba2b36e61634c5992c1cb8bce17d23f9334e83cb82654931d40184152382e6c8",
    (2, 3, 2, "image"): "09e601f8f3dc24eb0260bda26837e3107b3f98b1b1f728645d7462974ed5683b",
    (2, 3, 2, "orbit"): "61f797efe16726678b5b6c547e167e54ff51259935f4903a93e8ba2f6132c4bb",
    (3, 2, 0, "image"): "fd96144eaf96a12793f6829e0edc3a2f5ecb0b0a9401159d8a62ca15f643dde2",
    (3, 2, 0, "orbit"): "6c22b298a7254b1453978531734be08c31012a92e979f72bcf1a6c2d80983cdd",
    (3, 2, 2, "image"): "23d205ef4fcff307196f8b3c111f7a9dd19399fb75ba5fdec8626d29a2d26a86",
    (3, 2, 2, "orbit"): "47c30f7e0d6a30981fb7104359244470fd0f121f49ef968416fbe81bb9d3b009",
}


@pytest.mark.parametrize("n,r,char,basis", sorted(TABLE_DIGESTS))
def test_table_payload_is_pinned(n, r, char, basis):
    field = QQ if char == 0 else PrimeField(char)
    text = json.dumps(upper_table_json(n, r, field, basis), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        TABLE_DIGESTS[n, r, char, basis]


@pytest.mark.parametrize("replacement,message", [
    (lambda act, ops: ops[0], "linearly dependent"),
    (lambda act, ops: act.xi((2, 2), (1, 1)), "left the image span"),
])
def test_image_table_rejects_a_bad_image(monkeypatch, replacement, message):
    """One image swapped for a copy of another, or for a lower-triangular
    orbit sum whose products leave the span, must be refused."""
    based = TensorAction.based_operator
    arrows = BorelAlgebra(2, 2, QQ).arrows

    def tampered(act, m, mu, alg):
        if (m, mu) != arrows[2]:
            return based(act, m, mu, alg)
        ops = [based(act, *arrow, alg) for arrow in arrows]
        return replacement(act, ops)

    monkeypatch.setattr(TensorAction, "based_operator", tampered)
    with pytest.raises(ValueError, match=message):
        upper_table_json(2, 2, QQ, basis="image")
