"""Transport of graded resolutions into the composition-indexed quotient.

`push_graded` is the functor F_lam on a graded resolution of the
trivial module: a generator of degree gamma sits at the weight
lam + gamma, each summand whose weight is not a composition is deleted,
and every map entry, re-based at its target weight, is reduced by the
drop rule of the Borel algebra.  `transport_resolution` and the Tor
check of `idempotents` both go through it, and both read the result
through `resolutions.ModuleComplex.verify`, the one reader of a
complex: it checks d^2, rank-counted exactness, the corank-one top and
minimality, and reports the dimensions and ranks the Tor check needs.
`verification` adds what `transport` reports on top of it: that P_0 is
the one summand at lam, that no module follows a dead one, and whether
the cutoffs reach every composition above lam.

The maps keep the one format of `resolutions`, {s: {t: entry}}:
`push_graded` renumbers the kept generators, reduces each entry, and
hands its maps to `ModuleComplex` in the format the engine wrote them.

`resolve_simple` resolves the one-dimensional simple at lam directly
over any based algebra with the engine of `resolutions`, which it hands
the algebra itself, with head weights as pieces.  It returns the same
`ModuleComplex`, which `verification` reads as it reads a push-down.
No command runs it; it is the tests' independent route to the Ext data.
"""

import csv
import io

from .arrows import BorelAlgebra
from .combinatorics import coords_to_vector, is_composition, point_add
from .resolutions import ModuleComplex, is_exact, resolve


def verification(complex_):
    """`transport`'s report on a complex pushed down to, or resolved
    directly at, the weight `info["lam"]`: the one reader's report, with
    the top required to be the one summand at lam, the structure and the
    producer's `complete` and `terminated` flags."""
    info = complex_.info
    report = complex_.verify()
    exact = is_exact(report)
    # P_0 is the one summand at lam; d_1, if any, has corank one in it
    top = report.pop("top")
    report["top_is_simple"] = complex_.gens[0] == [info["lam"]] and top
    # once a module dies the rest must be dead
    dead = [not ws for ws in complex_.gens]
    report["structure"] = dead == sorted(dead)
    report["complete"] = info["complete"]
    report["terminated"] = info["terminated"]
    report["passed"] = (exact and report["minimal"]
                        and report["top_is_simple"] and report["structure"])
    return report


def max_reachable_height(lam, n, r):
    """Largest height of mu - lam over compositions mu dominating lam.

    (r, 0, ..., 0) dominates every composition and maximises each prefix
    sum, so the height is sum over k < n of (r - lam_1 - ... - lam_k).
    """
    return sum(r - sum(lam[:k]) for k in range(1, n))


def push_graded(borel, degrees, diffs, lam):
    """The functor F_lam on a graded resolution of the trivial module, given
    by its generator degrees and maps as `resolve` returns them.

    A generator of degree gamma is placed at the weight lam + gamma; the
    summands whose weight is not a composition of `borel.r` are deleted,
    and every entry between kept summands, each monomial re-based at the
    entry's target weight, is reduced by `borel.reduce_element`.  Returns
    the kept weights, the pushed maps over `borel`'s basis indices and
    the deleted summands as (i, degree, weight).
    """
    kept, keep, deleted = [], [], []   # keep: per module, {old s: new s}
    for i, degs in enumerate(degrees):
        ws, kp = [], {}
        for s, g in enumerate(degs):
            w = point_add(lam, coords_to_vector(g))
            if is_composition(w, borel.r):
                kp[s] = len(ws)
                ws.append(w)
            else:
                deleted.append((i, g, w))
        kept.append(ws)
        keep.append(kp)
    pushed = []
    for i, diff in enumerate(diffs):
        rows, cols, out = keep[i], keep[i + 1], {}
        for s, col in diff.items():
            for t, entry in col.items():
                if t in rows and s in cols:
                    w = kept[i][rows[t]]
                    vec = borel.reduce_element(
                        {(m, w): c for m, c in entry.items()})
                    if vec:
                        out.setdefault(cols[s], {})[rows[t]] = vec
        pushed.append(out)
    return kept, pushed, deleted


def transport_resolution(gc, lam, r, borel=None):
    """Push a graded resolution of the trivial module down to the Borel algebra.

    `push_graded` places the generators at lam + gamma and deletes those at
    non-compositions, as the strong-idempotent quotient justifies; the
    result is re-verified by `verification` rather than trusted.
    """
    lam = tuple(lam)
    n = gc.alg.n
    if not is_composition(lam, r):
        raise ValueError(f"{lam} is not a composition of {r}")
    if len(lam) != n:
        raise ValueError(f"{lam} has {len(lam)} parts, expected {n}")
    if borel is None:
        borel = BorelAlgebra(n, r, gc.field)
    elif borel.field != gc.field or borel.n != n or borel.r != r:
        raise ValueError("quotient algebra does not match the resolution")
    weights, diffs, deleted = push_graded(borel, gc.gens, gc.diffs, lam)
    length, height = gc.info["length"], gc.info["height"]
    return ModuleComplex(
        borel, gc.field, weights, diffs, [sorted(set(borel.heads))], lam=lam,
        complete=max_reachable_height(lam, n, r) <= height,
        terminated=len(weights) >= 1 and not weights[-1], deleted=deleted,
        source={"length": length, "height": height})


def resolve_simple(algebra, lam, length, pivoting="first"):
    """Minimal projective resolution of the one-dimensional simple at lam,
    computed directly over a based algebra by iterated projective covers.
    """
    lam = tuple(lam)
    pieces = sorted(set(algebra.heads))
    weights, diffs = resolve(algebra, pieces, lam, algebra.field, length,
                             pivoting)
    return ModuleComplex(algebra, algebra.field, weights, diffs, [pieces],
                         lam=lam, complete=True, terminated=not weights[-1])


def ext_table_csv(complex_):
    """CSV rows (homological degree, weight, count), sorted."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["degree", "weight", "count"])
    table = complex_.ext_dimensions()
    for (i, w), c in sorted(table.items()):
        writer.writerow([i, " ".join(str(x) for x in w), c])
    return buf.getvalue()
