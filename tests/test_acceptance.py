"""Acceptance suite: one check per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Expected values are frozen from independent oracles: stars-and-bars
enumeration, box scans, binomial arithmetic, dense matrix products and
projective-cover resolutions computed directly over the quotient.
"""

import time
from itertools import product as iproduct
from math import comb

from borelschur.arrows import BorelAlgebra, ConvexTruncation
from borelschur.combinatorics import (
    compositions,
    dominance_leq,
    interval_points,
    matrix_to_pair,
    orbit_of_pair,
    point_sub,
    positive_root_coords,
    tri_matrices_all,
)
from borelschur.divided_powers import DividedPowerAlgebra
from borelschur.fields import PrimeField, Rationals
from borelschur.idempotents import chain_report, quotient_algebra
from borelschur.resolutions import is_exact, minimal_resolution
from borelschur.tensor_space import verify_isomorphism
from borelschur.transport import transport_resolution, verification
from letter_oracle import IntegralityError, LetterOracle
from oracles import euler_ok, pair_to_matrix

QQ = Rationals()
F2 = PrimeField(2)
F3 = PrimeField(3)


def report(number, name, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {number} ({name}): {verdict} {detail}".rstrip())
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_1_dimension_law():
    cases = [(2, 2), (2, 4), (3, 2), (3, 3), (4, 2)]
    details = []
    ok = True
    for n, r in cases:
        t0 = time.time()
        formula = comb(n * (n + 1) // 2 + r - 1, r)
        route_count = len(tri_matrices_all(n, r))
        route_basis = BorelAlgebra(n, r, F2).dim
        trunc = ConvexTruncation(DividedPowerAlgebra(n),
                                 interval_points(n, r), F2)
        removed = [z for z in trunc.points if any(x < 0 for x in z)]
        route_quotient = quotient_algebra(trunc, removed).dim
        elapsed = time.time() - t0
        agree = formula == route_count == route_basis == route_quotient
        ok = ok and agree and elapsed < 10.0
        details.append(f"({n},{r})={formula} in {elapsed:.2f}s")
    report(1, "dimension law, three routes", ok, "; ".join(details))


def test_criterion_2_isomorphism():
    cases = [(2, 2, 0), (2, 3, 0), (2, 3, 2), (3, 2, 0), (3, 2, 2),
             (3, 2, 3), (3, 3, 2)]
    ok = True
    details = []
    for n, r, char in cases:
        field = QQ if char == 0 else PrimeField(char)
        t0 = time.time()
        rep = verify_isomorphism(n, r, field)
        elapsed = time.time() - t0
        good = rep["passed"] and elapsed < 60.0
        ok = ok and good
        details.append(f"({n},{r},{char}):{'ok' if good else 'BAD'}")
    report(2, "tensor-space isomorphism", ok, " ".join(details))


def test_criterion_3_dominance_is_monoid_order():
    ok = True
    for n in (1, 2, 3):
        for r in (1, 2, 3):
            box = list(iproduct(range(-r, r + 1), repeat=n))
            for z in box:
                for w in box:
                    lhs = dominance_leq(z, w)
                    rhs = positive_root_coords(point_sub(w, z)) is not None
                    if lhs != rhs:
                        ok = False
    report(3, "dominance order equals monoid order", ok,
           "exhaustive boxes n<=3, r<=3")


def test_criterion_4_orbit_bijection():
    ok = True
    checked = 0
    for n in (1, 2, 3):
        for r in (1, 2, 3, 4):
            seen = set()
            for j in iproduct(range(1, n + 1), repeat=r):
                for i in iproduct(*(range(1, x + 1) for x in j)):
                    K = pair_to_matrix(i, j, n)
                    if matrix_to_pair(K) not in orbit_of_pair(i, j):
                        ok = False
                    seen.add(K)
                    checked += 1
            if seen != set(tri_matrices_all(n, r)):
                ok = False
            for K in tri_matrices_all(n, r):
                ci, cj = matrix_to_pair(K)
                if pair_to_matrix(ci, cj, n) != K:
                    ok = False
    report(4, "orbit bijection with marginal matrices", ok,
           f"{checked} ordered pairs")


def test_criterion_5_strong_idempotent_chain():
    cases = [(3, 2, 0), (3, 2, 2), (3, 3, 2), (3, 3, 3), (4, 2, 2)]
    ok = True
    details = []
    for n, r, char in cases:
        field = QQ if char == 0 else PrimeField(char)
        sample = compositions(n, r)
        if (n, r) == (4, 2):
            sample = sample[::3]
        t0 = time.time()
        rep = chain_report(n, r, field, tor_sample=sample)
        elapsed = time.time() - t0
        dims_agree = all(s["dim_AeA"] == s["dim_tensor"] for s in rep["steps"])
        good = rep["passed"] and dims_agree
        ok = ok and good
        details.append(f"({n},{r},{char}):{len(rep['steps'])} steps "
                       f"{elapsed:.1f}s")
    report(5, "two-idempotent chain with Tor vanishing", ok,
           "; ".join(details))


def test_criterion_6_resolution_engine():
    alg = DividedPowerAlgebra(2)
    c0 = minimal_resolution(alg, QQ, 6, 8)
    char0_ok = (c0.betti()[0] == [(0,)] and c0.betti()[1] == [(1,)]
                and all(not c0.betti().get(i) for i in range(2, 7))
                and is_exact(c0.verify()) and c0.verify()["minimal"])
    # brute-force slice oracle: in each height the kernel of the
    # augmentation is one divided power; the products of lower divided
    # powers carry binomial coefficients, so a new generator appears
    # exactly where all of them vanish mod 2
    expected = [(k,) for k in range(1, 9)
                if all(comb(k, a) % 2 == 0 for a in range(1, k))]
    assert expected == [(1,), (2,), (4,), (8,)]
    c2 = minimal_resolution(alg, F2, 1, 8)
    char2_ok = c2.betti()[1] == expected
    report(6, "resolution engine", char0_ok and char2_ok,
           f"char 0 length 1; char 2 first syzygy degrees {expected}")


def test_criterion_7_transport_soundness():
    ok = True
    count = 0
    for char in (0, 2, 3):
        field = QQ if char == 0 else PrimeField(char)
        gc = minimal_resolution(DividedPowerAlgebra(2), field, 8, 4)
        for r in range(0, 5):
            borel = BorelAlgebra(2, r, field)
            for lam in compositions(2, r):
                bc = transport_resolution(gc, lam, r, borel=borel)
                rep = verification(bc)
                good = (rep["passed"] and bc.info["complete"]
                        and bc.info["terminated"] and euler_ok(bc))
                ok = ok and good
                count += 1
    for char in (0, 2):
        field = QQ if char == 0 else PrimeField(char)
        gc = minimal_resolution(DividedPowerAlgebra(3), field, 8, 4)
        borel = BorelAlgebra(3, 2, field)
        for lam in compositions(3, 2):
            bc = transport_resolution(gc, lam, 2, borel=borel)
            rep = verification(bc)
            good = (rep["passed"] and bc.info["complete"]
                    and bc.info["terminated"] and euler_ok(bc))
            ok = ok and good
            count += 1
    report(7, "transport soundness", ok, f"{count} transported resolutions")


def test_criterion_8_integrality():
    """The product table equals the letter oracle, which regroups divided
    powers by dividing by factorials over the rationals and raises
    IntegralityError on any non-integral structure constant."""
    ok = True
    pairs = 0
    for n in (2, 3, 4):
        alg = DividedPowerAlgebra(n)
        alg.fill_cache(8)
        oracle = LetterOracle(alg)
        try:
            for (e1, e2), terms in alg._products.items():
                expected = oracle.product_terms(e1, e2)
                if terms != expected:
                    ok = False
                    print("table differs from the oracle:", e1, e2)
        except IntegralityError as exc:   # pragma: no cover - tripwire
            ok = False
            print("integrality failure:", exc)
        pairs += len(alg._products)
    report(8, "structure-constant integrality", ok,
           f"{pairs} cached products equal to the letter oracle, n<=4, "
           "height<=8")


def test_criterion_9_determinism():
    ok = True
    for n, char, L, H in [(2, 0, 5, 8), (2, 2, 5, 8), (2, 3, 5, 8),
                          (3, 0, 4, 4), (3, 2, 4, 4)]:
        alg = DividedPowerAlgebra(n)
        field = QQ if char == 0 else PrimeField(char)
        first = minimal_resolution(alg, field, L, H, pivoting="first").betti()
        last = minimal_resolution(alg, field, L, H, pivoting="last").betti()
        if first != last:
            ok = False
    report(9, "minimal resolutions independent of pivoting", ok,
           "two strategies, n<=3, chars 0/2/3")
