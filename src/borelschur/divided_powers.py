"""The divided-power enveloping algebra of strictly upper-triangular matrices.

Basis monomials are products of divided powers e_ij^(k) = e_ij^k / k! of
the elementary matrices e_ij (i < j), written in a fixed canonical order:
columns from the right, and within a column the row index descending.
A monomial is its exponent tuple: the exponent k of each e_ij, over the
pairs (i, j), i < j, in row-major order; the unit is the zero tuple.
These monomials span Kostant's Z-form, so products are computed over the
integers by three rewriting rules on syllables e_ij^(k):

    e_ij^(p) e_ij^(q) = C(p+q, p) e_ij^(p+q),
    e_ij^(p) e_kl^(q) = e_kl^(q) e_ij^(p)          when j != k and l != i,
    e_ij^(p) e_jl^(q) = sum_{t=0}^{min(p,q)} e_jl^(q-t) e_il^(t) e_ij^(p-t).

A product m1 m2 is built one syllable at a time: the syllables of m2
are multiplied onto m1 in written order, and each step m e_jl^(k) is a
memoized closed form that these rules give (see `_times`).  No
factorials and no rationals are involved, and every structure constant
is a non-negative integer by construction.  Structure constants are
cached once over the integers, so all characteristics share a single
table.
"""

import hashlib
import json
import os
from math import comb, prod
from operator import add, gt, mul, sub

from .combinatorics import compositions


def _pairs(n):
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


class DividedPowerAlgebra:
    """Multiplication, grading and column structure for one rank n.

    Like a based algebra, it answers what the resolution engine and its
    checkers ask: `between`, `module_basis`, `product_terms` and `is_unit`.

    The only mutable state is three compute-once/read-many tables: the
    product table, the straightening memo and the graded components.
    Entries are written at most once and never change, so concurrent
    readers are safe.
    """

    def __init__(self, n):
        if n < 1:
            raise ValueError("rank must be >= 1")
        self.n = n
        self.pairs = _pairs(n)
        self.pair_index = {p: a for a, p in enumerate(self.pairs)}
        self.pair_heights = [j - i for i, j in self.pairs]
        # canonical written order: leftmost factor has the largest (j, i)
        self.written_order = sorted(range(len(self.pairs)), reverse=True,
                                    key=lambda a: self.pairs[a][::-1])
        # for e_a = e_jl, the (e_ij, e_il), i < j, by increasing i: e_ij is
        # the one letter that e_jl, moving left into place, does not pass
        index = self.pair_index
        self._heisenberg = [[(index[i, j], index[i, l]) for i in range(1, j)]
                            for j, l in self.pairs]
        self._meets = [(b, a) for a, rows in enumerate(self._heisenberg)
                       for b, _ in rows]
        self._products = {}
        self._straighten_memo = {}
        self._components = {}

    # -- construction -------------------------------------------------

    @property
    def unit(self):
        return (0,) * len(self.pairs)

    def is_unit(self, m):
        return not any(m)

    # -- grading ------------------------------------------------------

    def monomial_height(self, m):
        return _exps_height(m, self.pair_heights)

    # -- straightening ------------------------------------------------

    def _times(self, m, a, k):
        """m e_a^(k) for a canonical monomial m, as {canonical exponent
        vector: integer coefficient}, in closed form; memoized by (m, a, k).

        For e_a = e_jl, with m_xy the exponent of e_xy in m,

            m e_jl^(k) = sum_t prod_{i<j} C(m_il + t_i, t_i)
                         * C(m_jl + k - |t|, k - |t|) * m_t

        over t = (t_1, ..., t_{j-1}) with 0 <= t_i <= m_ij and |t| <= k,
        where m_t is m with m_ij - t_i, m_il + t_i and m_jl + k - |t|.
        This follows from the rules of the module docstring: e_jl^(k)
        commutes left past every syllable outside column j.  Column j
        stands right of e_jl's place, rows j-1, ..., 1 left to right;
        e_jl meets each e_ij^(p) there by the Heisenberg rule, with
        coefficient 1 for each t_i.  Each new e_il^(t_i) commutes with all
        it passes into column l, where it, and e_jl^(k-|t|), merge with
        m's syllable at a binomial.  Memo values are shared; callers must
        not mutate them.
        """
        memo = self._straighten_memo
        hit = memo.get((m, a, k))
        if hit is not None:
            return hit
        terms = [(list(m), 1, k)]  # (exponents, coefficient, k - |t|)
        for b, c in self._heisenberg[a]:
            p = m[b]
            if p:
                nxt = []
                for exps, x, r in terms:
                    for t in range(min(p, r) + 1):
                        e = exps.copy()
                        e[b], e[c] = p - t, e[c] + t
                        nxt.append((e, x * comb(e[c], t), r - t))
                terms = nxt
        result = {}
        for exps, x, r in terms:
            exps[a] += r
            result[tuple(exps)] = x * comb(exps[a], r)
        memo[m, a, k] = result
        return result

    # -- multiplication ------------------------------------------------

    def product_terms(self, m1, m2):
        """Integer structure constants of a monomial product.

        Returns a tuple of (monomial, integer coefficient), sorted by the
        canonical word of the monomial; cached.
        """
        hit = self._products.get((m1, m2))
        if hit is None:
            hit = self._products[m1, m2] = self._straighten_product(m1, m2)
        return hit

    def _interacts(self, e1, e2):
        """Whether some e_ij of e1 meets an e_jl of e2.

        Straightening e1 e2 moves letters of e2 left past letters of e1;
        such a meeting is the only crossing that is not a swap or a merge.
        """
        return any(e1[a] and e2[b] for a, b in self._meets)

    def _straighten_product(self, e1, e2):
        """The terms of product_terms, straightened without the table.

        The terms of a product share one degree, so sorting their exponents
        read in written order sorts their canonical words: where two first
        differ, at e_kl, the one with fewer e_kl has more of some e_jl with
        j < k (the degrees agree at v_{l-1} - v_l), and that letter comes
        next in its word and is less than e_kl.

        When the factors do not interact the product is the single term
        e1 + e2 with coefficient the product of the binomials C(p+q, p),
        and nothing is rewritten.  Otherwise e1 is multiplied by each
        syllable of e2 in written order, one `_times` step per term.
        """
        if not self._interacts(e1, e2):
            exps = tuple(map(add, e1, e2))
            return ((exps, prod(map(comb, exps, e1))),)
        terms = {e1: 1}
        for a in self.written_order:
            k = e2[a]
            if not k:
                continue
            out = {}
            for m, c in terms.items():
                for e, x in self._times(m, a, k).items():
                    out[e] = out.get(e, 0) + c * x
            terms = out
        order = self.written_order
        return tuple(sorted(terms.items(),
                            key=lambda t: [t[0][a] for a in order]))

    # -- graded components ----------------------------------------------

    def component_basis(self, coords):
        """All monomials of degree exactly coords, in increasing order.

        `place` sets the exponents of the pairs (i, j) with j > i + 1; the
        rest of the degree then fixes the exponent of each simple e_l,l+1,
        so every placement is one monomial.
        """
        coords = tuple(coords)
        hit = self._components.get(coords)
        if hit is not None:
            return hit
        if len(coords) != self.n - 1:
            raise ValueError("degree coordinate length mismatch")
        if any(c < 0 for c in coords):
            return []
        pairs = self.pairs
        free = [a for a, (i, j) in enumerate(pairs) if j > i + 1]
        simple = [self.pair_index[(l, l + 1)] for l in range(1, self.n)]
        out = []
        exps = [0] * len(pairs)

        def place(t, rem):
            if t == len(free):
                for a, k in zip(simple, rem):
                    exps[a] = k
                out.append(tuple(exps))
                return
            i, j = pairs[free[t]]
            span = range(i - 1, j - 1)
            for k in range(min(rem[l] for l in span) + 1):
                exps[free[t]] = k
                nxt = list(rem)
                for l in span:
                    nxt[l] -= k
                place(t + 1, nxt)

        place(0, list(coords))
        out.sort()
        self._components[coords] = out
        return out

    def between(self, g, p):
        """The monomials of degree p - g, empty unless g <= p coordinatewise:
        the basis from piece g to piece p of the resolution engine."""
        if any(map(gt, g, p)):
            return []
        return self.component_basis(tuple(map(sub, p, g)))

    def module_basis(self, gens, block):
        """The basis on the set of pieces `block` of the free module on
        generators at the pieces `gens`: the pairs (t, m), m a monomial
        from gens[t] to a piece of `block`, piece by piece.  As `between`,
        with the test that g <= p made inline, since most generators lie
        above most pieces."""
        component = self.component_basis
        return [(t, m) for t, g in enumerate(gens) for p in block
                if not any(map(gt, g, p))
                for m in component(tuple(map(sub, p, g)))]

    def degrees_to_height(self, h):
        """All degree coordinate vectors of height <= h, sorted by (height, lex)."""
        if self.n == 1:
            return [()]
        return [c for s in range(h + 1) for c in compositions(self.n - 1, s)]

    def monomials_to_height(self, h):
        out = []
        for coords in self.degrees_to_height(h):
            out.extend(self.component_basis(coords))
        return out

    def fill_cache(self, h):
        """Precompute the products of all monomial pairs of total height
        <= h, closed-form ones included; save_cache stores only the ones
        whose factors interact."""
        monos = [(m, self.monomial_height(m))
                 for m in self.monomials_to_height(h)]
        for m1, h1 in monos:
            for m2, h2 in monos:
                if h1 + h2 <= h:
                    self.product_terms(m1, m2)

    # -- cache persistence ----------------------------------------------

    CACHE_SCHEMA = 4

    def save_cache(self, path, h):
        """Write the products that need straightening, up to pair height h.

        Only pairs whose factors interact are stored; every other product
        is the closed form that product_terms computes on demand.  The
        file is a one-line JSON header {schema, n, height, sha256}, then
        h + 1 lines: line k is the JSON list of the stored entries whose
        two factors' heights add up to k, sorted by key, and sha256[k] is
        the digest of line k.  The file is written whole to a temporary
        file and then moved into place.
        """
        self.fill_cache(h)
        table, weights = self._products, self.pair_heights
        by_height = [[] for _ in range(h + 1)]
        for e1, e2 in sorted(table):
            k = _exps_height(e1, weights) + _exps_height(e2, weights)
            if k <= h and self._interacts(e1, e2):
                by_height[k].append((e1, e2))
        lines = [("[" + ",".join(
            json.dumps([e1, e2, table[e1, e2]], separators=(",", ":"))
            for e1, e2 in keys) + "]\n").encode() for keys in by_height]
        header = {"schema": self.CACHE_SCHEMA, "n": self.n, "height": h,
                  "sha256": [hashlib.sha256(line).hexdigest()
                             for line in lines]}
        path = os.fspath(path)
        tmp = f"{path}.{os.getpid()}.tmp"
        try:
            with open(tmp, "wb") as fh:
                fh.write(_header_line(header))
                fh.writelines(lines)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):  # only when writing or replacing failed
                os.remove(tmp)

    def load_cache(self, path, h):
        """Load the stored products of pair height <= h from a cache file.

        Returns False if the file does not cover (n, h) or fails any check,
        and then nothing is loaded.  The header must list one digest per
        line up to its height.  Only lines 0..h are read, line by line,
        and nothing after them is hashed or parsed: each must end in a
        newline and hash to its digest before it is parsed.  Every entry there must be a triple
        (exponents, exponents, terms) with exponent vectors of length
        n(n-1)/2 whose heights add up to its line number, factors that
        interact, and a non-empty term list with integer coefficients
        >= 1, as every structure constant is.  Higher lines are checked by
        the load that needs them.  A digest only catches accidental edits,
        so the first and the last entry of every line read are also
        straightened again and must equal their stored terms.
        """
        try:
            with open(path, "rb") as fh:
                header = json.loads(fh.readline())
                lines = [fh.readline() for _ in range(h + 1)]
        except (OSError, ValueError):
            return False
        if (type(header) is not dict
                or header.get("schema") != self.CACHE_SCHEMA
                or header.get("n") != self.n
                or type(header.get("height")) is not int
                or header["height"] < h
                or type(header.get("sha256")) is not list
                or len(header["sha256"]) != header["height"] + 1):
            return False
        table = {}
        for k, line in enumerate(lines):
            if (not line.endswith(b"\n")
                    or header["sha256"][k] != hashlib.sha256(line).hexdigest()):
                return False
            try:
                entries = json.loads(line)
            except ValueError:
                return False
            if not _parse_entries(entries, self.pair_heights, k,
                                  self._interacts, table):
                return False
            for e1, e2, _ in entries[:1] + entries[1:][-1:]:
                pair = (tuple(e1), tuple(e2))
                if table[pair] != self._straighten_product(*pair):
                    return False
        self._products.update(table)
        return True


def _header_line(header):
    text = json.dumps(header, sort_keys=True, separators=(",", ":"))
    return text.encode() + b"\n"


def _exps_height(exps, weights):
    """Height of the monomial with these exponents; e_ij has height j - i."""
    return sum(map(mul, exps, weights))


def _exps(value, length):
    """A non-negative integer exponent vector of the given length, or None."""
    if type(value) is not list or len(value) != length:
        return None
    for k in value:
        if type(k) is not int or k < 0:
            return None
    return tuple(value)


def _parse_entries(entries, weights, k, interacts, table):
    """Add the cache entries of pair height k to table; False if any is
    malformed, of another pair height or a product that does not
    interact."""
    if type(entries) is not list:
        return False
    length = len(weights)
    for entry in entries:
        if type(entry) is not list or len(entry) != 3:
            return False
        e1, e2, terms = entry
        e1, e2 = _exps(e1, length), _exps(e2, length)
        if (e1 is None or e2 is None or type(terms) is not list
                or _exps_height(e1, weights) + _exps_height(e2, weights) != k
                or not interacts(e1, e2)):
            return False
        out = []
        for term in terms:
            if type(term) is not list or len(term) != 2:
                return False
            e, c = term
            e = _exps(e, length)
            if e is None or type(c) is not int or c < 1:
                return False
            out.append((e, c))
        if not out:
            return False
        table[(e1, e2)] = tuple(out)
    return True
