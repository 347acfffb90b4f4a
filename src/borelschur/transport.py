"""Transport of graded resolutions into the composition-indexed quotient.

`push_down` is the functor F_lam: on a complex of projectives with
known weights it deletes each summand whose weight is not a
composition and reduces every map entry by the drop rule of the Borel
algebra.  `push_graded` applies it to a graded resolution of the
trivial module, a generator of degree gamma sitting at the weight
lam + gamma and each differential entry re-based at its target weight;
`transport_resolution` and the Tor check of `idempotents` both go
through it.  The result is checked, never trusted: d^2, rank-counted
exactness, the one-dimensional top and minimality are all verified on
the pushed-down complex.

`resolve_simple` resolves the one-dimensional simple at lam directly
over any based algebra with the engine of `resolutions`: the pieces are
head weights, `between` is the algebra's arrows from one weight to
another and `mul` is `product_terms`, the cached (index, scalar) pairs.
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

    def module_basis(self, i):
        """Pairs (summand, algebra basis index) spanning P_i."""
        out = []
        for t, w in enumerate(self.weights[i]):
            for a in self.algebra.based_at(w):
                out.append((t, a))
        return out

    def is_minimal(self):
        return unit_free(self.diffs, self.algebra.is_unit_arrow)

    def verify(self):
        """Full report: d^2, exactness by rank counting, top, minimality."""
        bases = [self.module_basis(i) for i in range(len(self.weights))]
        dims = [len(b) for b in bases]
        steps = len(self.diffs)
        ranks, d2 = chain_ranks(bases, [by_column(d) for d in self.diffs],
                                self.algebra.product_terms, self.field)
        report = {
            "d_squared_zero": d2,
            "minimal": self.is_minimal(),
            "complete": self.complete,
            "terminated": self.terminated,
            "dims": dims,
            "ranks": ranks,
        }
        report["top_is_simple"] = (
            len(self.weights[0]) == 1
            and self.weights[0][0] == self.lam
            and (dims[0] - (ranks[0] if ranks else 0)) == 1
        )
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


def push_down(borel, weights, diffs, arrow):
    """The functor F_lam on a complex of projectives.

    `weights[i]` lists the weights of the summands of P_i and `diffs[i]`
    is d_{i+1} as {(t, s): {x: scalar}}, basis element x of the entry at
    row t read as the arrow `arrow(i, t, x)`.  Summands whose weight is
    not a composition of `borel.r` are deleted, and every entry between
    kept summands is reduced by `borel.reduce_element`.  Returns the kept
    weights, the pushed maps over `borel`'s basis indices and the deleted
    summands as pairs (i, s).
    """
    kept, keep, deleted = [], [], []   # keep: per module, {old s: new s}
    for i, ws in enumerate(weights):
        kp = {}
        for s, w in enumerate(ws):
            if is_composition(w, borel.r):
                kp[s] = len(kp)
            else:
                deleted.append((i, s))
        kept.append([ws[s] for s in kp])
        keep.append(kp)
    pushed = []
    for i, diff in enumerate(diffs):
        rows, cols, out = keep[i], keep[i + 1], {}
        for (t, s), entry in diff.items():
            if t in rows and s in cols:
                vec = borel.reduce_element(
                    {arrow(i, t, x): c for x, c in entry.items()})
                if vec:
                    out[(rows[t], cols[s])] = vec
        pushed.append(out)
    return kept, pushed, deleted


def push_graded(borel, gc, lam):
    """F_lam on a graded resolution `gc` of the trivial module: `push_down`
    of its generators placed at lam + degree, the deleted ones returned
    as (i, degree, weight)."""
    full = [[point_add(lam, coords_to_vector(g)) for g in degs]
            for degs in gc.degrees]
    weights, pushed, dropped = push_down(
        borel, full, gc.diffs, lambda i, t, m: (m, full[i][t]))
    return weights, pushed, [(i, gc.degrees[i][s], full[i][s])
                             for i, s in dropped]


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
    weights, diffs, deleted = push_graded(borel, gc, lam)
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
