"""One engine for minimal resolutions by iterated covers of graded kernels.

The algebra is split into pieces: a basis element runs from one piece to
another, and products compose head to tail.  The engine and the reader
of its complexes ask the algebra, of either family, four things:

- `between(g, p)`: the basis elements from piece g to piece p, empty
  when there are none; `between(p, p)` is the unit at p alone;
- `module_basis(gens, block)`: the basis on the pieces `block` of the
  free module on generators at the pieces `gens`, as the pairs
  (generator t, element of `between(gens[t], p)`) for p in `block`,
  generator by generator;
- `product_terms(x, y)`: the product of two basis elements as (basis
  element, scalar) pairs.  A scalar may be any int, such as an integer
  structure constant read straight from a product table, or a canonical
  field scalar: the echelon that eliminates a map builds its columns
  from these products, accumulating natively, and reduces each entry
  once.  It must be associative: the images of the generators found at
  earlier pieces alone span the radical at a piece;
- `is_unit(x)`: whether a basis element is a unit, for minimality.

Pieces are int tuples, covered in (coordinate sum, lex) order; that
order fixes the numbering of new generators and so the payloads, and
`between(g, p)` must be empty when g comes after p in it.  A free
module is a list of generator pieces.  This module fixes the one
format of a map between free modules, from the engine through the
push-down of `transport` to `ModuleComplex`: d = {s: {t: entry}},
grouped by source generator s, with entry = {basis element: scalar}
nonzero, sending the pair (s, x) to the sum over t of (t, x * entry).
Kernels are exact nullspaces piece by piece, and minimal generators are
a basis of the kernel modulo its radical multiples, with deterministic
pivoting, so two runs produce identical generators.

Each step of `resolve` is one walk over the pieces, with one
elimination per piece.  At piece p the columns of the new map on the
generators found before p are built once, by the echelon that
eliminates them and in its own vector form (`Echelon.columns`), and
put into one echelon form: they span the radical of the kernel at p,
which the cover (`Echelon.cover`) reduces modulo, and the same pass
reads off the next step's kernel at p.  The kernel vectors stay in the
echelon's form from one step to the next, so this module never reads
them; only a new generator's residual comes back as a dict, and its
entries become the generator's map entries.  A new generator's own
column is its residual, independent of the others, so it adds no
kernel vector and is never computed.

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

`ModuleComplex` holds a complex of free modules over either family,
the engine's output or a push-down of it, and the blocks of pieces it
splits into.  Its one reader, `verify`, reads the maps in the format
the engine writes them, builds each module's basis once per block with
`module_basis`, and builds each map's columns there in the echelon's
own form, as the engine does.  It tests d_i d_{i+1} = 0 on the
generators' own columns only, read off the maps' entries, since the
composite is a module map.  Once
d^2 has held on every generator, rank d_{i+1} <= dim P_i - rank d_i on
each block, so it eliminates each map's columns newest first and stops
at that bound; where d^2 fails it eliminates every map in full, so the
ranks it reports are always the true ones.  `resolve`'s `exact` and
`minimal`, `transport`'s verification and the Tor check of
`idempotents` all read its report.  The graded resolution is checked
one degree slice per block; a complex over a based algebra in one
block of all its head weights.
"""

from collections import Counter
from operator import add

from .fields import serialize_scalar as _ser
from .linalg import Echelon


def composite(col, lower, mul, field):
    """d_i applied to one column of d_{i+1}, given as {t: entry} (a
    generator's own column is its entries): the composite's nonzero
    scalars {(u, basis element): scalar}."""
    out = {}
    for t, entry in col.items():
        for u, then in lower.get(t, {}).items():
            for y, c in entry.items():
                for z, e in then.items():
                    for w, k in mul(y, z):
                        out[u, w] = out.get((u, w), 0) + c * e * k
    return {key: w for key, c in out.items() if (w := field.of(c))}


def unit_free(diffs, is_unit):
    """Minimality: no entry of any map holds a unit basis element."""
    return not any(is_unit(x) for diff in diffs for col in diff.values()
                   for entry in col.values() for x in entry)


def resolve(alg, pieces, top, field, length, pivoting):
    """Minimal free resolution over `alg` of the one-dimensional module at
    piece `top`.

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
    basis = {p: alg.module_basis([top], [p]) for p in pieces}
    form = Echelon(field)
    kernel = {p: form.units(len(basis[p])) for p in pieces if p != top}
    for step in range(1, length + 1):
        last = step == length
        new, diff, next_kernel, next_basis = [], {}, {}, {}
        for p in pieces:
            vecs = kernel.get(p, [])
            src = next_basis[p] = alg.module_basis(new, [p])
            if not vecs and (not src or last):
                continue
            dst = basis[p]
            rad = Echelon(field, pivoting)
            next_kernel[p] = rad.eliminate(
                rad.columns(src, dst, diff, alg.product_terms),
                kernel=not last)
            for residual in rad.cover(vecs):
                column = diff[len(new)] = {}
                for k, c in residual.items():
                    t, y = dst[k]
                    column.setdefault(t, {})[y] = c
                src += [(len(new), x) for x in alg.between(p, p)]
                new.append(p)
        gens.append(new)
        diffs.append(diff)
        if not new or last:
            break
        kernel, basis = next_kernel, next_basis
    return gens, diffs


class ModuleComplex:
    """P_0 <- P_1 <- ...: free modules over `alg` and the maps between them.

    `gens[i]` lists the generator pieces of P_i and `diffs[i]` is the
    map d_{i+1}: P_{i+1} -> P_i in the module's one format,
    {s: {t: entry}}.  The reader asks `alg` what the engine asks.  Maps
    keep pieces, so the complex splits over `blocks`, lists of pieces
    that `verify` checks one at a time.  `info` keeps what the producer
    knows: the cutoffs, or the weight the complex was pushed down to or
    resolved at.
    """

    def __init__(self, alg, field, gens, diffs, blocks, **info):
        self.alg = alg
        self.field = field
        self.gens = gens
        self.diffs = diffs
        self.blocks = blocks
        self.info = info

    def betti(self):
        """Homological index -> sorted list of generator pieces."""
        return {i: sorted(gens) for i, gens in enumerate(self.gens)}

    def ext_dimensions(self):
        """(homological degree, piece) -> number of generators.

        For a minimal resolution of a simple these are the Ext dimensions
        from it into the simples at those pieces.
        """
        return Counter((i, g) for i, gens in enumerate(self.gens)
                       for g in gens)

    def verify(self):
        """The one report: whether every d_i d_{i+1} vanishes, the module
        dimensions and map ranks summed over the blocks, minimality, the
        corank-one top and rank-counted exactness at each interior spot.

        d_i d_{i+1} is a module map, so it vanishes once it vanishes on
        the generators of P_{i+1}, and only their own columns are composed.
        Where d^2 = 0, rank d_i + rank d_{i+1} <= dim P_i on each block,
        so the sums reach dim P_i only if every block's do; and the image
        of d_1 holds the unit only if it is all of P_0.  So the summed
        verdicts are the blockwise ones.  The same bound lets each map's
        elimination stop at dim P_i - rank d_i once d^2 has held on every
        generator, and still find the true rank.  Its columns go in newest
        first: on a degree slice the own columns of the generators there
        come last and are independent, so the rank climbs fastest that
        way.  Where d^2 fails, every map is eliminated in full.  Each
        module's basis on a block is `alg.module_basis`; dimensions and
        ranks do not depend on its order.  An entry holding a basis
        element that does not run between its two generators raises
        `ValueError`.
        """
        alg, maps = self.alg, self.diffs
        for i, diff in enumerate(maps):
            for s, col in diff.items():
                for t, entry in col.items():
                    if entry.keys() - alg.between(self.gens[i][t],
                                                  self.gens[i + 1][s]):
                        raise ValueError(f"entry ({t}, {s}) of d_{i + 1} "
                                         "is not homogeneous")
        mul, field = alg.product_terms, self.field
        d2 = not any(composite(col, lower, mul, field)
                     for lower, upper in zip(maps, maps[1:])
                     for col in upper.values())
        dims = [0] * len(self.gens)
        ranks = [0] * len(self.diffs)
        for block in map(set, self.blocks):
            bases = [alg.module_basis(gens, block) for gens in self.gens]
            rank = 0
            for i, diff in enumerate(maps):
                ech = Echelon(field)
                cols = ech.columns(bases[i + 1], bases[i], diff, mul)
                ech.eliminate(reversed(cols), kernel=False,
                              cap=len(bases[i]) - rank if d2 else None)
                rank = ech.rank
                ranks[i] += rank
            dims = list(map(add, dims, map(len, bases)))
        return {
            "d_squared_zero": d2,
            "dims": dims,
            "ranks": ranks,
            "minimal": unit_free(self.diffs, alg.is_unit),
            # d_1, if any, has corank one in P_0
            "top": not ranks or dims[0] - ranks[0] == 1,
            "exact_spots": {i: ranks[i - 1] + ranks[i] == dims[i]
                            for i in range(1, len(ranks))},
        }

    def to_json(self, modules, head):
        """The payload: `head`, the characteristic, the generator pieces
        under the key `modules` and the maps, each entry's pairs sorted (a
        basis element that is a tuple is written as a JSON list)."""
        return {
            **head,
            "char": self.field.characteristic,
            modules: [[list(g) for g in gens] for gens in self.gens],
            "differentials": [
                sorted([t, s, sorted([x, _ser(c)] for x, c in entry.items())]
                       for s, col in diff.items() for t, entry in col.items())
                for diff in self.diffs
            ],
        }


def is_exact(report):
    """`resolve`'s verdict on `verify`'s report: d^2 = 0, the corank-one
    top and every interior spot exact."""
    return (report["d_squared_zero"] and report["top"]
            and all(report["exact_spots"].values()))


def minimal_resolution(alg, field, length, height_cut, pivoting="first"):
    """Resolve the one-dimensional trivial module out to the given cutoffs.

    Step 0 is the free rank-one module in degree zero with the
    augmentation; each further step covers the previous kernel by new
    generators chosen minimally (independent modulo radical multiples of
    the kernel).
    """
    slices = alg.degrees_to_height(height_cut)
    gens, diffs = resolve(alg, slices, (0,) * (alg.n - 1), field, length,
                          pivoting)
    return ModuleComplex(alg, field, gens, diffs, [[p] for p in slices],
                         length=length, height=height_cut)
