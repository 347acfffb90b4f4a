"""Minimal graded projective resolutions of the trivial module.

Everything is computed slice by slice: a free module is a list of
generator degrees, a degree slice of it is the finite set of pairs
(generator, monomial) landing in that degree, and kernels are exact
nullspaces of the slice matrices.  Minimal generators of a kernel are a
basis of the kernel modulo its radical multiples, picked in a fixed
slice order with deterministic pivoting, so two runs produce identical
generator degree data.

Cutoffs: `length` bounds the homological degree, `height` bounds the
degree slices.  Within the height window every slice of every kernel is
complete, because radical products only ever raise height.
"""

from .fields import serialize_scalar as _ser
from .linalg import Echelon, column_kernel, matrix_rank


def _sub_coords(a, b):
    out = tuple(x - y for x, y in zip(a, b))
    if any(x < 0 for x in out):
        return None
    return out


class GradedComplex:
    """P_0 <- P_1 <- ... with generator degrees and homogeneous differentials.

    `degrees[i]` lists the generator degrees of P_i (coefficient vectors
    over the simple positive vectors).  `diffs[i]` is the matrix of
    d_{i+1}: P_{i+1} -> P_i as {(t, s): element}; entry (t, s) is an
    algebra element of degree degrees[i+1][s] - degrees[i][t] acting by
    right multiplication on generator coordinates.
    """

    def __init__(self, alg, field, length, height_cut, degrees, diffs, warnings):
        self.alg = alg
        self.field = field
        self.length = length
        self.height = height_cut
        self.degrees = degrees
        self.diffs = diffs
        self.warnings = warnings

    @property
    def n(self):
        return self.alg.n

    def betti(self):
        """Homological index -> sorted list of generator degrees."""
        return {i: sorted(degs) for i, degs in enumerate(self.degrees)}

    def slice_basis(self, i, coords):
        """Pairs (generator, monomial) spanning the degree slice of P_i."""
        out = []
        for t, g in enumerate(self.degrees[i]):
            rem = _sub_coords(coords, g)
            if rem is None:
                continue
            for m in self.alg.component_basis(rem):
                out.append((t, m))
        return out

    def _slice_matrix(self, i, coords):
        """Columns of d_i restricted to one degree slice (i >= 1)."""
        src = self.slice_basis(i, coords)
        dst = self.slice_basis(i - 1, coords)
        dst_index = {b: k for k, b in enumerate(dst)}
        diff = self.diffs[i - 1]
        cols = []
        for s, m in src:
            col = {}
            x = {m: self.field.one}
            for (t, s2), entry in diff.items():
                if s2 != s:
                    continue
                prod = self.alg.multiply(x, entry, self.field)
                for m2, c in prod.items():
                    k = dst_index[(t, m2)]
                    v = self.field.add(col.get(k, self.field.zero), c)
                    if v == self.field.zero:
                        col.pop(k, None)
                    else:
                        col[k] = v
            cols.append(col)
        return cols, src, dst

    def verify_exactness(self):
        """Rank counting on every slice within the height window.

        Checks ker(augmentation) = im(d_1) and exactness at the interior
        homological spots; the last spot has no incoming map to compare.
        """
        steps = len(self.diffs)
        for coords in self.alg.degrees_to_height(self.height):
            dims = [len(self.slice_basis(i, coords)) for i in range(len(self.degrees))]
            ranks = []
            for i in range(1, steps + 1):
                cols, _, _ = self._slice_matrix(i, coords)
                ranks.append(matrix_rank(cols, self.field))
            aug_ker = dims[0] if any(coords) else 0
            if steps >= 1 and ranks[0] != aug_ker:
                return False
            for i in range(1, steps):
                if ranks[i - 1] + ranks[i] != dims[i]:
                    return False
        return True

    def verify_minimality(self):
        """Every differential entry must avoid the unit degree."""
        unit = self.alg.unit
        for diff in self.diffs:
            for entry in diff.values():
                if unit in entry and entry[unit] != self.field.zero:
                    return False
        return True

    def to_json(self):
        return {
            "n": self.alg.n,
            "char": self.field.characteristic,
            "length": self.length,
            "height": self.height,
            "modules": [[list(g) for g in degs] for degs in self.degrees],
            "differentials": [
                sorted(
                    [t, s, sorted([list(m.exps), _ser(c)] for m, c in entry.items())]
                    for (t, s), entry in diff.items()
                )
                for diff in self.diffs
            ],
            "warnings": list(self.warnings),
        }


def minimal_resolution(alg, field, length, height_cut, pivoting="first"):
    """Resolve the one-dimensional trivial module out to the given cutoffs.

    Step 0 is the free rank-one module in degree zero with the
    augmentation; each further step covers the previous kernel by new
    generators chosen minimally (independent modulo radical multiples of
    the kernel).
    """
    degrees_all = alg.degrees_to_height(height_cut)
    degrees = [[(0,) * (alg.n - 1)]]
    diffs = []
    warnings = []

    # kernel of the augmentation: every positive-degree slice of P_0
    kernel = {}
    for coords in degrees_all:
        if not any(coords):
            continue
        basis = [(0, m) for m in alg.component_basis(coords)]
        kernel[coords] = [{k: field.one} for k in range(len(basis))], basis

    for step in range(1, length + 1):
        gens, diff = _cover(alg, field, kernel, pivoting)
        if not gens:
            if any(vecs for vecs, _ in kernel.values()):
                warnings.append(
                    f"step {step}: kernel is nonzero but no generators fit "
                    f"within height {height_cut}")
            degrees.append([])
            diffs.append({})
            break
        degrees.append(gens)
        diffs.append(diff)
        if step == length:
            break
        kernel = _kernel_slices(alg, field, degrees, diffs, degrees_all, pivoting)

    complex_ = GradedComplex(alg, field, length, height_cut, degrees, diffs, warnings)
    return complex_


def _module_slice(alg, gen_degrees, coords):
    out = []
    for t, g in enumerate(gen_degrees):
        rem = _sub_coords(coords, g)
        if rem is None:
            continue
        for m in alg.component_basis(rem):
            out.append((t, m))
    return out


def _kernel_slices(alg, field, degrees, diffs, degrees_all, pivoting):
    """Slicewise nullspaces of the last differential."""
    src_degs = degrees[-1]
    dst_degs = degrees[-2]
    diff = diffs[-1]
    by_col = {}
    for (t, s), entry in diff.items():
        by_col.setdefault(s, []).append((t, entry))
    kernel = {}
    for coords in degrees_all:
        src = _module_slice(alg, src_degs, coords)
        if not src:
            continue
        dst = _module_slice(alg, dst_degs, coords)
        dst_index = {b: k for k, b in enumerate(dst)}
        cols = []
        for s, m in src:
            col = {}
            x = {m: field.one}
            for t, entry in by_col.get(s, ()):
                prod = alg.multiply(x, entry, field)
                for m2, c in prod.items():
                    k = dst_index[(t, m2)]
                    v = field.add(col.get(k, field.zero), c)
                    if v == field.zero:
                        col.pop(k, None)
                    else:
                        col[k] = v
            cols.append(col)
        vecs = column_kernel(cols, field, pivoting)
        if vecs:
            kernel[coords] = (vecs, src)
    return kernel


def _cover(alg, field, kernel, pivoting):
    """Minimal homogeneous generators of a graded kernel and their lifts.

    Processes slices in (height, lex) order; inside a slice the radical
    span is generated by lower kernel slices multiplied up by positive
    monomials, so new generators are exactly the kernel vectors that stay
    independent of it.
    """
    gens = []
    diff = {}
    slices = sorted(kernel, key=lambda c: (sum(c), c))
    for coords in slices:
        vecs, basis = kernel[coords]
        basis_index = {b: k for k, b in enumerate(basis)}
        rad = Echelon(field, pivoting)
        for lower in slices:
            if lower == coords:
                continue
            d = _sub_coords(coords, lower)
            if d is None or not any(d):
                continue
            lower_vecs, lower_basis = kernel[lower]
            for m0 in alg.component_basis(d):
                x0 = {m0: field.one}
                for v in lower_vecs:
                    lifted = {}
                    for col, c in v.items():
                        t, m = lower_basis[col]
                        prod = alg.multiply(x0, {m: c}, field)
                        for m2, c2 in prod.items():
                            k = basis_index[(t, m2)]
                            w = field.add(lifted.get(k, field.zero), c2)
                            if w == field.zero:
                                lifted.pop(k, None)
                            else:
                                lifted[k] = w
                    rad.insert(lifted)
        for v in vecs:
            residual = rad.reduce(v)
            if not residual:
                continue
            rad.insert(residual)
            s = len(gens)
            gens.append(coords)
            for col, c in residual.items():
                t, m = basis[col]
                entry = diff.setdefault((t, s), {})
                entry[m] = field.add(entry.get(m, field.zero), c)
    return gens, diff

