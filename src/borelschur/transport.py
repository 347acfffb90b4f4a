"""Transport of graded resolutions into the composition-indexed quotient.

A graded resolution of the trivial module turns into a complex of
projectives over the Borel algebra: a generator of degree gamma becomes
the projective at the weight lam + gamma when that weight is a
composition and is deleted otherwise, and each differential entry is
re-based at the target weight and pushed through the quotient.  The
result is checked, never trusted: d^2, rank-counted exactness, the
one-dimensional top and minimality are all verified on the transported
complex.

The same complex container also hosts minimal resolutions of the
one-dimensional simples computed directly over any based algebra
(`resolve_simple`), which gives an independent route to the same Betti
data.
"""

import csv
import io

from .arrows import BorelAlgebra
from .fields import serialize_scalar as _ser
from .combinatorics import (
    compositions,
    coords_to_vector,
    height,
    is_composition,
    point_add,
    point_sub,
    positive_root_coords,
)
from .linalg import Echelon, column_kernel, matrix_rank


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

    def dims(self):
        return [len(self.module_basis(i)) for i in range(len(self.weights))]

    def _matrix_columns(self, i):
        """Scalar columns of d_i (1-indexed) over the basis of P_{i-1}."""
        algebra = self.algebra
        field = self.field
        src = self.module_basis(i)
        dst = self.module_basis(i - 1)
        dst_index = {b: k for k, b in enumerate(dst)}
        diff = self.diffs[i - 1]
        by_col = {}
        for (t, s), entry in diff.items():
            by_col.setdefault(s, []).append((t, entry))
        cols = []
        for s, a in src:
            col = {}
            for t, entry in by_col.get(s, ()):
                prod = algebra.product({a: field.one}, entry)
                for b, c in prod.items():
                    k = dst_index[(t, b)]
                    v = field.add(col.get(k, field.zero), c)
                    if v == field.zero:
                        col.pop(k, None)
                    else:
                        col[k] = v
            cols.append(col)
        return cols

    def d_squared_is_zero(self):
        algebra = self.algebra
        for i in range(1, len(self.diffs)):
            lower = self.diffs[i - 1]   # d_i
            upper = self.diffs[i]       # d_{i+1}
            composite = {}
            for (s, u), a in upper.items():
                for (t, s2), b in lower.items():
                    if s2 != s:
                        continue
                    prod = algebra.product(a, b)
                    if prod:
                        acc = composite.setdefault((t, u), {})
                        for k, c in prod.items():
                            v = self.field.add(acc.get(k, self.field.zero), c)
                            if v == self.field.zero:
                                acc.pop(k, None)
                            else:
                                acc[k] = v
            if any(entry for entry in composite.values()):
                return False
        return True

    def is_minimal(self):
        for diff in self.diffs:
            for entry in diff.values():
                for a in entry:
                    if self.algebra.is_unit_arrow(a):
                        return False
        return True

    def verify(self):
        """Full report: d^2, exactness by rank counting, top, minimality."""
        field = self.field
        dims = self.dims()
        steps = len(self.diffs)
        ranks = [matrix_rank(self._matrix_columns(i), field)
                 for i in range(1, steps + 1)]
        report = {
            "d_squared_zero": self.d_squared_is_zero(),
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

    def euler_characteristics(self):
        """Per head-weight alternating sums of slice dimensions."""
        algebra = self.algebra
        out = {}
        for mu in sorted(set(algebra.heads)):
            total = 0
            sign = 1
            for i in range(len(self.weights)):
                s = sum(len(algebra.between(w, mu)) for w in self.weights[i])
                total += sign * s
                sign = -sign
            out[mu] = total
        return out

    def euler_ok(self):
        """Alternating sums must see exactly the one-dimensional module at lam."""
        return all(c == (1 if mu == self.lam else 0)
                   for mu, c in self.euler_characteristics().items())

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
    """Largest height of mu - lam over compositions mu dominating lam."""
    best = 0
    for mu in compositions(n, r):
        d = positive_root_coords(point_sub(mu, lam))
        if d is not None:
            best = max(best, height(d))
    return best


def transport_resolution(gc, lam, r, borel=None):
    """Push a graded resolution of the trivial module down to the Borel algebra.

    Generators survive at composition weights lam + degree and are deleted
    otherwise; differential entries are re-based at the target weight and
    reduced by the quotient's drop rule.  Deleting rows and columns is
    justified by the strong-idempotent quotient, and is re-verified by
    `ModuleComplex.verify` rather than trusted.
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
    weights = []
    keep = []   # per module: {old index: new index}
    deleted = []
    for i, degs in enumerate(gc.degrees):
        ws = []
        kp = {}
        for s, g in enumerate(degs):
            w = point_add(lam, coords_to_vector(g))
            if is_composition(w, r):
                kp[s] = len(ws)
                ws.append(w)
            else:
                deleted.append((i, g, w))
        weights.append(ws)
        keep.append(kp)
    diffs = []
    for i, diff in enumerate(gc.diffs):
        out = {}
        for (t, s), entry in diff.items():
            if t not in keep[i] or s not in keep[i + 1]:
                continue
            base = weights[i][keep[i][t]]
            elem = {(m, base): c for m, c in entry.items()}
            vec = borel.reduce_element(elem)
            if vec:
                out[(keep[i][t], keep[i + 1][s])] = vec
        diffs.append(out)
    complete = max_reachable_height(lam, n, r) <= gc.height
    terminated = len(weights) >= 1 and not weights[-1]
    return ModuleComplex(borel, lam, weights, diffs, complete=complete,
                         terminated=terminated, deleted=deleted,
                         source={"length": gc.length, "height": gc.height})


def resolve_simple(algebra, lam, length, pivoting="first"):
    """Minimal projective resolution of the one-dimensional simple at lam,
    computed directly over a based algebra by iterated projective covers.

    The radical is spanned by the positive-degree arrows, so the cover of
    a head-graded submodule takes, head by head, the vectors independent
    of the radical multiples coming from other heads.
    """
    lam = tuple(lam)
    field = algebra.field
    weights = [[lam]]
    diffs = []

    # kernel of the augmentation: radical of P_0, split by head
    kernel = {}
    for a in algebra.based_at(lam):
        if algebra.is_unit_arrow(a):
            continue
        kernel.setdefault(algebra.head(a), []).append({(0, a): field.one})

    for _step in range(1, length + 1):
        gens, diff = _cover_based(algebra, kernel, pivoting)
        weights.append([w for w in gens])
        diffs.append(diff)
        if not gens:
            break
        kernel = _kernel_based(algebra, weights[-1], weights[-2], diff, pivoting)

    terminated = not weights[-1]
    return ModuleComplex(algebra, lam, weights, diffs, complete=True,
                         terminated=terminated)


def _cover_based(algebra, kernel, pivoting):
    """Minimal generators of a head-graded submodule and their lift matrix."""
    field = algebra.field
    gens = []
    diff = {}
    all_vecs = [(w, v) for w in sorted(kernel) for v in kernel[w]]
    for w in sorted(kernel):
        rad = Echelon(field, pivoting)
        for w2, v in all_vecs:
            # radical multiples: positive arrows from w2 to w
            for b in algebra.between(w2, w):
                if algebra.is_unit_arrow(b):
                    continue
                lifted = {}
                for (t, a), c in v.items():
                    for k, ck in algebra.product_indices(b, a).items():
                        key = (t, k)
                        x = field.add(lifted.get(key, field.zero),
                                      field.mul(c, ck))
                        if x == field.zero:
                            lifted.pop(key, None)
                        else:
                            lifted[key] = x
                if lifted:
                    rad.insert(lifted)
        for v in kernel[w]:
            residual = rad.reduce(v)
            if not residual:
                continue
            rad.insert(residual)
            s = len(gens)
            gens.append(w)
            for (t, a), c in residual.items():
                entry = diff.setdefault((t, s), {})
                entry[a] = field.add(entry.get(a, field.zero), c)
    return gens, diff


def _kernel_based(algebra, src_weights, dst_weights, diff, pivoting):
    """Head-graded nullspace of the freshly built differential."""
    field = algebra.field
    by_col = {}
    for (t, s), entry in diff.items():
        by_col.setdefault(s, []).append((t, entry))
    kernel = {}
    for w in sorted(set(algebra.heads)):
        src = [(s, a) for s, ws in enumerate(src_weights)
               for a in algebra.between(ws, w)]
        if not src:
            continue
        dst = [(t, a) for t, wt in enumerate(dst_weights)
               for a in algebra.between(wt, w)]
        dst_index = {b: k for k, b in enumerate(dst)}
        cols = []
        for s, a in src:
            col = {}
            for t, entry in by_col.get(s, ()):
                for b, cb in algebra.product({a: field.one}, entry).items():
                    k = dst_index[(t, b)]
                    v = field.add(col.get(k, field.zero), cb)
                    if v == field.zero:
                        col.pop(k, None)
                    else:
                        col[k] = v
            cols.append(col)
        vecs = column_kernel(cols, field, pivoting)
        if vecs:
            kernel[w] = [
                {src[c]: x for c, x in v.items()} for v in vecs
            ]
    return kernel


def ext_table_csv(complex_):
    """CSV rows (homological degree, weight, count), sorted."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["degree", "weight", "count"])
    table = complex_.ext_dimensions()
    for (i, w), c in sorted(table.items()):
        writer.writerow([i, " ".join(str(x) for x in w), c])
    return buf.getvalue()
