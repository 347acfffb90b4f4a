"""One engine for minimal resolutions by iterated covers of graded kernels.

The algebra is split into pieces: a basis element runs from one piece to
another, and products compose head to tail.  The engine sees the algebra
only through two functions its caller supplies:

- `between(g, p)`: the basis elements from piece g to piece p, empty
  when there are none; `between(p, p)` is the unit at p alone;
- `mul(x, y)`: the product of two basis elements as (basis element,
  scalar) pairs.  A scalar may be any int, such as an integer structure
  constant read straight from a product table, or a canonical field
  scalar: the engine multiplies and accumulates natively and reduces
  each entry once with `field.of`.  It must be associative: the images
  of the generators found at earlier pieces alone span the radical at a
  piece.

Pieces are int tuples, covered in (coordinate sum, lex) order; that
order fixes the numbering of new generators and so the payloads, and
`between(g, p)` must be empty when g comes after p in it.  A free
module is a list of generator pieces; its piece p has the basis
of pairs (generator t, element of `between(gens[t], p)`).  A map between
free modules is {(t, s): {basis element: scalar}}, sending the pair
(s, x) to the sum over t of (t, x * d[t, s]).  Kernels are exact
nullspaces piece by piece, and minimal generators are a basis of the
kernel modulo its radical multiples, with deterministic pivoting, so two
runs produce identical generators.

Each step of `resolve` is one walk over the pieces, with one
elimination per piece.  At piece p the columns of the new map on the
generators found before p are computed once and put into one reduced
echelon form: they span the radical of the kernel at p, which the cover
reduces modulo, and the same pass reads off the next step's kernel at
p.  A new generator's own column is its residual, independent of the
others, so it adds no kernel vector and is never computed.

Both algebra families supply the two functions themselves, as their
`between` and `product_terms`, and `is_unit` for the minimality check.
Over the divided-power algebra the pieces are degree coordinates over
the simple positive vectors, covered in (height, lex) order, and the
basis from g to p is the monomials of degree p - g: this resolves the
trivial module, for `minimal_resolution` to a height and for the Tor
check of `idempotents` over the degrees that reach its interval.
`transport.resolve_simple` runs the same engine over a based algebra
with head weights as pieces.

Cutoffs: `length` bounds the homological degree, `height` bounds the
degree slices.  Within the height window every slice of every kernel is
complete, because radical products only ever raise height.

`chain_ranks` is the one checker of a complex: it tests d_i d_{i+1} = 0
and counts ranks between given bases.  It is behind `resolve`'s `exact`
verdict, slice by slice, and, on whole modules, behind
`transport.ModuleComplex.verify`, which `transport`'s verification and
the Tor check of `idempotents` both read.
"""

from .fields import serialize_scalar as _ser
from .linalg import Echelon, add_scaled, matrix_rank


def free_basis(gens, piece, between):
    """Pairs (generator, basis element) spanning one piece of a free module."""
    return [(t, x) for t, g in enumerate(gens) for x in between(g, piece)]


def by_column(diff):
    """A map {(t, s): entry} grouped by source generator: {s: {t: entry}}."""
    out = {}
    for (t, s), entry in diff.items():
        out.setdefault(s, {})[t] = entry
    return out


def columns(src, dst, by_col, mul, field):
    """Columns of a map, given `by_column`, on the pairs `src`, over
    positions in `dst`.

    Every product must land in `dst`.
    """
    index = {b: k for k, b in enumerate(dst)}
    of = field.of
    cols = []
    for s, x in src:
        col = {}
        for t, entry in by_col.get(s, {}).items():
            for y, c in entry.items():
                for z, cz in mul(x, y):
                    k = index[t, z]
                    col[k] = col.get(k, 0) + c * cz
        cols.append({k: w for k, v in col.items() if (w := of(v))})
    return cols


def chain_ranks(bases, maps, mul, field):
    """Ranks of d_1, d_2, ... (`maps`, each `by_column`) between the bases
    of P_0, P_1, ..., and whether every composite d_i d_{i+1} vanishes on
    them."""
    cols = [columns(bases[i + 1], bases[i], by_col, mul, field)
            for i, by_col in enumerate(maps)]

    def vanishes(lower, col):
        composite = {}
        for k, c in col.items():
            add_scaled(composite, lower[k], c, field)
        return not composite

    d2 = all(vanishes(lower, col)
             for lower, upper in zip(cols, cols[1:]) for col in upper)
    return [matrix_rank(c, field) for c in cols], d2


def unit_free(diffs, is_unit):
    """Minimality: no entry of any map holds a unit basis element."""
    return not any(is_unit(x) for diff in diffs for entry in diff.values()
                   for x in entry)


def _cover(vecs, rad):
    """New generators at one kernel piece with basis `vecs`, whose radical
    the echelon `rad` spans: each vector independent of `rad` and of the
    ones before it, reduced modulo them, inserted into `rad`.

    The radical lies in the kernel (`mul` is associative, so d^2 = 0),
    so exactly len(vecs) - rank new generators exist, and the walk stops
    once it has them.  A rank above len(vecs) never stops it early.
    """
    need = len(vecs) - rad.rank
    fresh = []
    for v in vecs:
        if len(fresh) == need:
            break
        residual = rad.reduce(v)
        if residual:
            rad.insert(residual)
            fresh.append(residual)
    return fresh


def resolve(pieces, top, between, mul, field, length, pivoting):
    """Minimal free resolution of the one-dimensional module at piece `top`.

    P_0 is free on one generator at `top`; the kernel of the augmentation
    is every other piece of P_0.  Each step walks the pieces once: at
    piece p the columns of the new map go into one echelon, which gives,
    except on the last step, the kernel of the new map at p, and modulo
    which the kernel at p is covered by new generators.  The new module's
    basis at p is the pairs those columns run over, then the generators
    found at p (later ones have nothing to p).
    Returns the generator pieces of P_0, P_1, ... and the maps d_1, d_2, ...
    """
    pieces = sorted(pieces, key=lambda p: (sum(p), p))
    gens = [[top]]
    diffs = []
    basis = {p: free_basis([top], p, between) for p in pieces}
    kernel = {p: [{k: field.one} for k in range(len(basis[p]))]
              for p in pieces if p != top}
    for step in range(1, length + 1):
        last = step == length
        new, by_col, next_kernel, next_basis = [], {}, {}, {}
        for p in pieces:
            vecs = kernel.get(p, [])
            src = next_basis[p] = free_basis(new, p, between)
            if not vecs and (not src or last):
                continue
            dst = basis[p]
            rad = Echelon(field, pivoting)
            next_kernel[p] = rad.insert_columns(
                columns(src, dst, by_col, mul, field), kernel=not last)
            for residual in _cover(vecs, rad):
                column = by_col[len(new)] = {}
                for k, c in residual.items():
                    t, y = dst[k]
                    column.setdefault(t, {})[y] = c
                src += [(len(new), x) for x in between(p, p)]
                new.append(p)
        gens.append(new)
        diffs.append({(t, s): entry for s, column in by_col.items()
                      for t, entry in column.items()})
        if not new or last:
            break
        kernel, basis = next_kernel, next_basis
    return gens, diffs


class GradedComplex:
    """P_0 <- P_1 <- ... with generator degrees and homogeneous differentials.

    `degrees[i]` lists the generator degrees of P_i (coefficient vectors
    over the simple positive vectors).  `diffs[i]` is the matrix of
    d_{i+1}: P_{i+1} -> P_i as {(t, s): element}; entry (t, s) is an
    algebra element of degree degrees[i+1][s] - degrees[i][t] acting by
    right multiplication on generator coordinates.  The checks ask `alg`
    what the engine asks: `between`, `product_terms` and `is_unit`.
    """

    def __init__(self, alg, field, length, height_cut, degrees, diffs):
        self.alg = alg
        self.field = field
        self.length = length
        self.height = height_cut
        self.degrees = degrees
        self.diffs = diffs

    def betti(self):
        """Homological index -> sorted list of generator degrees."""
        return {i: sorted(degs) for i, degs in enumerate(self.degrees)}

    def verify_exactness(self):
        """d_i d_{i+1} = 0 and rank counting on every slice within the
        height window.

        Checks ker(augmentation) = im(d_1) and exactness at the interior
        homological spots; the last spot has no incoming map to compare.
        """
        steps = len(self.diffs)
        maps = [by_column(diff) for diff in self.diffs]
        for coords in self.alg.degrees_to_height(self.height):
            bases = [free_basis(degs, coords, self.alg.between)
                     for degs in self.degrees]
            ranks, d2 = chain_ranks(bases, maps, self.alg.product_terms,
                                    self.field)
            if not d2:
                return False
            aug_ker = len(bases[0]) if any(coords) else 0
            if steps >= 1 and ranks[0] != aug_ker:
                return False
            for i in range(1, steps):
                if ranks[i - 1] + ranks[i] != len(bases[i]):
                    return False
        return True

    def verify_minimality(self):
        """Every differential entry must avoid the unit degree."""
        return unit_free(self.diffs, self.alg.is_unit)

    def to_json(self):
        return {
            "n": self.alg.n,
            "char": self.field.characteristic,
            "length": self.length,
            "height": self.height,
            "modules": [[list(g) for g in degs] for degs in self.degrees],
            "differentials": [
                sorted(
                    [t, s, sorted([list(m), _ser(c)] for m, c in entry.items())]
                    for (t, s), entry in diff.items()
                )
                for diff in self.diffs
            ],
            "warnings": [],
        }


def minimal_resolution(alg, field, length, height_cut, pivoting="first"):
    """Resolve the one-dimensional trivial module out to the given cutoffs.

    Step 0 is the free rank-one module in degree zero with the
    augmentation; each further step covers the previous kernel by new
    generators chosen minimally (independent modulo radical multiples of
    the kernel).
    """
    return GradedComplex(alg, field, length, height_cut, *resolve(
        alg.degrees_to_height(height_cut), (0,) * (alg.n - 1),
        alg.between, alg.product_terms, field, length, pivoting))
