"""Transport of graded resolutions into the composition-indexed quotient.

`push_graded` is the functor F_lam on a graded resolution of the
trivial module: a generator of degree gamma sits at the weight
lam + gamma, each summand whose weight is not a composition is deleted,
and every map entry, re-based at its target weight, is reduced by the
drop rule of the Borel algebra.  `transport_resolution` and the Tor
check of `idempotents` both go through it, and both read the result
through `ModuleComplex.verify`, the one reader of a pushed-down complex:
it checks d^2, rank-counted exactness, the one-dimensional top and
minimality, and reports the dimensions and ranks the Tor check needs.

`resolve_simple` resolves the one-dimensional simple at lam directly
over any based algebra with the engine of `resolutions`: the pieces are
head weights, and the algebra's own `between` (its arrows from one
weight to another) and `product_terms` (the cached (index, scalar)
pairs) are the engine's two functions.
No command runs it; it is the tests' independent route to the Ext data.
"""

import csv
import io

from .arrows import BorelAlgebra
from .fields import serialize_scalar as _ser
from .combinatorics import coords_to_vector, is_composition, point_add
from .resolutions import by_column, chain_ranks, resolve, unit_free


class ModuleComplex:
    """A complex of based projectives over a based algebra.

    `weights[i]` lists the base points of the projective summands of P_i;
    `diffs[i]` is {(t, s): vector over algebra basis indices} describing
    d_{i+1}: P_{i+1} -> P_i, the entry at (t, s) being an algebra element
    based at weights[i][t] with head weights[i+1][s], acting by right
    multiplication.
    """

    def __init__(self, algebra, lam, weights, diffs, complete=True,
                 terminated=False, deleted=(), source=None):
        self.algebra = algebra
        self.lam = tuple(lam)
        self.weights = weights
        self.diffs = diffs
        self.complete = complete
        self.terminated = terminated
        self.deleted = list(deleted)
        self.source = source

    @property
    def field(self):
        return self.algebra.field

    def verify(self):
        """Full report: d^2, exactness by rank counting, top, minimality,
        and the module dimensions and map ranks the Tor check reads."""
        bases = [[(t, a) for t, w in enumerate(ws)
                  for a in self.algebra.based_at(w)] for ws in self.weights]
        dims = [len(b) for b in bases]
        steps = len(self.diffs)
        ranks, d2 = chain_ranks(bases, [by_column(d) for d in self.diffs],
                                self.algebra.product_terms, self.field)
        report = {
            "d_squared_zero": d2,
            "minimal": unit_free(self.diffs, self.algebra.is_unit),
            "complete": self.complete,
            "terminated": self.terminated,
            "dims": dims,
            "ranks": ranks,
        }
        # P_0 is the one summand at lam; d_1, if any, has corank one in it
        report["top_is_simple"] = list(self.weights[0]) == [self.lam] and (
            not ranks or dims[0] - ranks[0] == 1)
        # once a module dies the rest must be dead
        structural = True
        seen_empty = False
        for ws in self.weights:
            if not ws:
                seen_empty = True
            elif seen_empty:
                structural = False
        report["structure"] = structural
        exact = {}
        for i in range(1, steps):
            exact[i] = (ranks[i - 1] + ranks[i] == dims[i])
        report["exact_spots"] = exact
        report["passed"] = (
            report["d_squared_zero"]
            and report["minimal"]
            and report["top_is_simple"]
            and report["structure"]
            and all(exact.values())
        )
        return report

    def ext_dimensions(self):
        """(homological degree, weight) -> number of summands.

        For a minimal complex these are the Ext dimensions from the simple
        at lam into the simples at the recorded weights.
        """
        out = {}
        for i, ws in enumerate(self.weights):
            for w in ws:
                out[(i, w)] = out.get((i, w), 0) + 1
        return out

    def to_json(self):
        return {
            "n": self.algebra.alg.n,
            "r": getattr(self.algebra, "r", None),
            "char": self.field.characteristic,
            "lambda": list(self.lam),
            "weights": [[list(w) for w in ws] for ws in self.weights],
            "differentials": [
                sorted(
                    [t, s, sorted([a, _ser(c)] for a, c in entry.items())]
                    for (t, s), entry in diff.items()
                )
                for diff in self.diffs
            ],
            "complete": self.complete,
            "terminated": self.terminated,
            "deleted": [
                {"step": i, "degree": list(g), "weight": list(w)}
                for i, g, w in self.deleted
            ],
            "source": self.source,
        }


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
        for (t, s), entry in diff.items():
            if t in rows and s in cols:
                w = kept[i][rows[t]]
                vec = borel.reduce_element(
                    {(m, w): c for m, c in entry.items()})
                if vec:
                    out[(rows[t], cols[s])] = vec
        pushed.append(out)
    return kept, pushed, deleted


def transport_resolution(gc, lam, r, borel=None):
    """Push a graded resolution of the trivial module down to the Borel algebra.

    `push_graded` places the generators at lam + gamma and deletes those at
    non-compositions, as the strong-idempotent quotient justifies; the
    result is re-verified by `ModuleComplex.verify` rather than trusted.
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
    weights, diffs, deleted = push_graded(borel, gc.degrees, gc.diffs, lam)
    complete = max_reachable_height(lam, n, r) <= gc.height
    terminated = len(weights) >= 1 and not weights[-1]
    return ModuleComplex(borel, lam, weights, diffs, complete=complete,
                         terminated=terminated, deleted=deleted,
                         source={"length": gc.length, "height": gc.height})


def resolve_simple(algebra, lam, length, pivoting="first"):
    """Minimal projective resolution of the one-dimensional simple at lam,
    computed directly over a based algebra by iterated projective covers.
    """
    lam = tuple(lam)
    weights, diffs = resolve(sorted(set(algebra.heads)), lam,
                             algebra.between, algebra.product_terms,
                             algebra.field, length, pivoting)
    return ModuleComplex(algebra, lam, weights, diffs, complete=True,
                         terminated=not weights[-1])


def ext_table_csv(complex_):
    """CSV rows (homological degree, weight, count), sorted."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["degree", "weight", "count"])
    table = complex_.ext_dimensions()
    for (i, w), c in sorted(table.items()):
        writer.writerow([i, " ".join(str(x) for x in w), c])
    return buf.getvalue()
