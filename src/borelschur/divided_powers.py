"""The divided-power enveloping algebra of strictly upper-triangular matrices.

Basis monomials are products of divided powers e_ij^(k) = e_ij^k / k! of
the elementary matrices e_ij (i < j), written in a fixed canonical order:
columns from the right, and within a column the row index descending.
Products are computed over the rationals by expanding divided powers,
straightening with the commutator rule

    e_ij e_kl = e_kl e_ij + delta_jk e_il - delta_li e_kj,

regrouping into divided powers, and asserting that every structure
constant is an integer before reducing into the coefficient field.
Structure constants are cached once over the integers, so all
characteristics share a single table.
"""

import hashlib
import json
import os
from fractions import Fraction
from math import factorial
from operator import mul

from .linalg import add_scaled


class IntegralityError(ArithmeticError):
    """A structure constant failed to be an integer: an implementation bug."""


class Monomial:
    """Exponent vector over the pairs (i, j), i < j, in row-major order."""

    __slots__ = ("n", "exps")

    def __init__(self, n, exps):
        self.n = n
        self.exps = tuple(exps)

    def __eq__(self, other):
        return self.n == other.n and self.exps == other.exps

    def __hash__(self):
        return hash((self.n, self.exps))

    def __lt__(self, other):
        return self.exps < other.exps

    def is_unit(self):
        return not any(self.exps)

    def __repr__(self):
        return f"Monomial({self.n}, {self.exps})"


def _pairs(n):
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


class DividedPowerAlgebra:
    """Multiplication, grading and column structure for one rank n.

    The product table is the only mutable state and follows a
    compute-once/read-many contract: entries are written at most once and
    never change, so concurrent readers are safe.
    """

    def __init__(self, n):
        if n < 1:
            raise ValueError("rank must be >= 1")
        self.n = n
        self.pairs = _pairs(n)
        self.pair_index = {p: a for a, p in enumerate(self.pairs)}
        self.pair_heights = [j - i for i, j in self.pairs]
        # canonical written position: leftmost factor has the largest (j, i)
        by_written = sorted(range(len(self.pairs)),
                            key=lambda a: (self.pairs[a][1], self.pairs[a][0]),
                            reverse=True)
        self.written_rank = [0] * len(self.pairs)
        for pos, a in enumerate(by_written):
            self.written_rank[a] = pos
        self.written_order = by_written
        self._products = {}
        self._straighten_memo = {}
        self._components = {}

    # -- construction -------------------------------------------------

    def monomial(self, exps_by_pair):
        exps = [0] * len(self.pairs)
        for (i, j), k in exps_by_pair.items():
            if k < 0:
                raise ValueError("negative exponent")
            exps[self.pair_index[(i, j)]] = k
        return Monomial(self.n, exps)

    @property
    def unit(self):
        return Monomial(self.n, (0,) * len(self.pairs))

    def generator(self, i, j, k=1):
        return self.monomial({(i, j): k})

    # -- grading ------------------------------------------------------

    def degree(self, m):
        """Coefficients over the simple positive vectors v_l - v_{l+1}."""
        c = [0] * (self.n - 1)
        for a, k in enumerate(m.exps):
            if k:
                i, j = self.pairs[a]
                for l in range(i - 1, j - 1):
                    c[l] += k
        return tuple(c)

    def monomial_height(self, m):
        return _exps_height(m.exps, self.pair_heights)

    # -- canonical word and straightening ------------------------------

    def word(self, m):
        letters = []
        for a in self.written_order:
            letters.extend([a] * m.exps[a])
        return tuple(letters)

    def _commutator(self, a, b):
        """[e_A, e_B] as a list of (pair index, sign)."""
        i, j = self.pairs[a]
        k, l = self.pairs[b]
        out = []
        if j == k:
            out.append((self.pair_index[(i, l)], 1))
        if l == i:
            out.append((self.pair_index[(k, j)], -1))
        return out

    def _straighten(self, word):
        """Rewrite a word in the e_ij into canonically ordered words.

        Returns {sorted word: integer coefficient}.  Terminates because a
        swap removes one inversion and a bracket shortens the word.
        """
        memo = self._straighten_memo
        hit = memo.get(word)
        if hit is not None:
            return hit
        rank = self.written_rank
        spot = -1
        for l in range(len(word) - 1):
            if rank[word[l]] > rank[word[l + 1]]:
                spot = l
                break
        if spot < 0:
            result = {word: 1}
        else:
            result = {}
            a, b = word[spot], word[spot + 1]
            swapped = word[:spot] + (b, a) + word[spot + 2:]
            for w, c in self._straighten(swapped).items():
                result[w] = result.get(w, 0) + c
            for p, sign in self._commutator(a, b):
                shorter = word[:spot] + (p,) + word[spot + 2:]
                for w, c in self._straighten(shorter).items():
                    result[w] = result.get(w, 0) + sign * c
            result = {w: c for w, c in result.items() if c}
        memo[word] = result
        return result

    def _word_exps(self, word):
        exps = [0] * len(self.pairs)
        for a in word:
            exps[a] += 1
        return tuple(exps)

    # -- multiplication ------------------------------------------------

    def multiply_monomials(self, m1, m2):
        """Integer structure constants of a monomial product.

        Returns a tuple of (exponent vector, integer coefficient); cached.
        """
        key = (m1.exps, m2.exps)
        hit = self._products.get(key)
        if hit is not None:
            return hit
        den = 1
        for k in m1.exps:
            den *= factorial(k)
        for k in m2.exps:
            den *= factorial(k)
        word = self.word(m1) + self.word(m2)
        out = []
        for w, c in sorted(self._straighten(word).items()):
            exps = self._word_exps(w)
            num = c
            for k in exps:
                num *= factorial(k)
            coeff = Fraction(num, den)
            if coeff.denominator != 1:
                raise IntegralityError(
                    f"non-integral structure constant {coeff} in "
                    f"{m1.exps} * {m2.exps}")
            if coeff:
                out.append((exps, int(coeff)))
        out = tuple(out)
        self._products[key] = out
        return out

    def monomial_product(self, m1, m2, field):
        """Product of two monomials as {Monomial: nonzero scalar} in field."""
        zero = field.zero
        out = {}
        for exps, k in self.multiply_monomials(m1, m2):
            c = field.of(k)
            if c != zero:
                out[Monomial(self.n, exps)] = c
        return out

    def multiply(self, x, y, field):
        """Bilinear product of elements (dicts Monomial -> scalar)."""
        out = {}
        for m1, c1 in x.items():
            for m2, c2 in y.items():
                add_scaled(out, self.monomial_product(m1, m2, field),
                           field.mul(c1, c2), field)
        return out

    # -- column structure ----------------------------------------------

    def column_factors(self, m):
        """Single-column factors for columns n, n-1, ..., 2.

        Concatenating the factors in this order reproduces m.
        """
        out = []
        for j in range(self.n, 1, -1):
            exps = [0] * len(self.pairs)
            for i in range(1, j):
                a = self.pair_index[(i, j)]
                exps[a] = m.exps[a]
            out.append(Monomial(self.n, exps))
        return out

    # -- graded components ----------------------------------------------

    def component_basis(self, coords):
        """All monomials of degree exactly coords, sorted by exponent vector."""
        coords = tuple(coords)
        if len(coords) != self.n - 1:
            raise ValueError("degree coordinate length mismatch")
        if any(c < 0 for c in coords):
            return []
        hit = self._components.get(coords)
        if hit is not None:
            return hit
        pairs = self.pairs
        out = []
        exps = [0] * len(pairs)

        def place(a, rem):
            if a == len(pairs):
                if all(c == 0 for c in rem):
                    out.append(Monomial(self.n, exps))
                return
            i, j = pairs[a]
            cap = min(rem[l] for l in range(i - 1, j - 1))
            for k in range(cap + 1):
                exps[a] = k
                nxt = list(rem)
                for l in range(i - 1, j - 1):
                    nxt[l] -= k
                place(a + 1, nxt)
            exps[a] = 0

        place(0, list(coords))
        out = sorted(out)
        self._components[coords] = out
        return out

    def degrees_to_height(self, h):
        """All degree coordinate vectors of height <= h, sorted by (height, lex)."""
        out = []

        def rec(prefix, rem):
            if len(prefix) == self.n - 1:
                out.append(tuple(prefix))
                return
            for c in range(rem + 1):
                rec(prefix + [c], rem - c)

        rec([], h)
        return sorted(out, key=lambda c: (sum(c), c))

    def monomials_to_height(self, h):
        out = []
        for coords in self.degrees_to_height(h):
            out.extend(self.component_basis(coords))
        return out

    def fill_cache(self, h):
        """Precompute products of all monomial pairs of total height <= h."""
        monos = [(m, self.monomial_height(m))
                 for m in self.monomials_to_height(h)]
        for m1, h1 in monos:
            for m2, h2 in monos:
                if h1 + h2 <= h:
                    self.multiply_monomials(m1, m2)

    # -- cache persistence ----------------------------------------------

    CACHE_SCHEMA = 3

    def save_cache(self, path, h):
        """Write the full product table up to pair height h.

        The file is a one-line JSON header {schema, n, height, sha256},
        then h + 1 lines: line k is the JSON list of the entries whose two
        factors' heights add up to k.  sha256 is the digest of those lines.
        """
        self.fill_cache(h)
        by_height = [[] for _ in range(h + 1)]
        weights = self.pair_heights
        for key, terms in sorted(self._products.items()):
            k = _exps_height(key[0], weights) + _exps_height(key[1], weights)
            if k <= h:
                by_height[k].append((key, terms))
        header = {"schema": self.CACHE_SCHEMA, "n": self.n, "height": h,
                  "sha256": "0" * 64}
        digest = hashlib.sha256()
        path = os.fspath(path)
        tmp = f"{path}.{os.getpid()}.tmp"
        try:
            with open(tmp, "wb") as fh:
                fh.write(_header_line(header))
                for entries in by_height:
                    line = ("[" + ",".join(
                        json.dumps([e1, e2, terms], separators=(",", ":"))
                        for (e1, e2), terms in entries) + "]\n").encode()
                    digest.update(line)
                    fh.write(line)
                # a hex digest has a fixed length, so the header keeps its
                # size and is rewritten in place
                header["sha256"] = digest.hexdigest()
                fh.seek(0)
                fh.write(_header_line(header))
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):  # only when writing or replacing failed
                os.remove(tmp)

    def load_cache(self, path, h):
        """Load the entries of pair height <= h from a cache file.

        Returns False if the file does not cover (n, h), fails its digest
        or is malformed, and then nothing is loaded.  The body's bytes must
        hash to the header's sha256 and hold one line per pair height up
        to the header's height.  Only lines 0..h are parsed: every entry
        there must be a triple (exponents, exponents, terms) with exponent
        vectors of length n(n-1)/2 whose heights add up to its line number,
        and integer coefficients.  Higher lines are checked by the load
        that needs them.
        """
        try:
            with open(path, "rb") as fh:
                header = json.loads(fh.readline())
                body = fh.read()
        except (OSError, ValueError):
            return False
        if (type(header) is not dict
                or header.get("schema") != self.CACHE_SCHEMA
                or header.get("n") != self.n
                or type(header.get("height")) is not int
                or header["height"] < h
                or header.get("sha256") != hashlib.sha256(body).hexdigest()):
            return False
        lines = body.split(b"\n")
        if len(lines) != header["height"] + 2 or lines[-1]:
            return False
        table = {}
        for k in range(h + 1):
            try:
                entries = json.loads(lines[k])
            except ValueError:
                return False
            if not _parse_entries(entries, self.pair_heights, k, table):
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


def _parse_entries(entries, weights, k, table):
    """Add the cache entries of pair height k to table; False if any is
    malformed or of another pair height."""
    if type(entries) is not list:
        return False
    length = len(weights)
    for entry in entries:
        if type(entry) is not list or len(entry) != 3:
            return False
        e1, e2, terms = entry
        e1, e2 = _exps(e1, length), _exps(e2, length)
        if (e1 is None or e2 is None or type(terms) is not list
                or _exps_height(e1, weights) + _exps_height(e2, weights) != k):
            return False
        out = []
        for term in terms:
            if type(term) is not list or len(term) != 2:
                return False
            e, c = term
            e = _exps(e, length)
            if e is None or type(c) is not int:
                return False
            out.append((e, c))
        table[(e1, e2)] = tuple(out)
    return True
