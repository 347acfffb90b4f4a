"""Test oracle: divided-power products by straightening single letters.

Each e_ij^(k) is expanded into k letters e_ij, the word is straightened
one adjacent swap at a time with the commutator rule

    e_ij e_kl = e_kl e_ij + delta_jk e_il - delta_li e_kj,

and the result is regrouped into divided powers by dividing by factorials
over the rationals.  Every structure constant must come out an integer;
`IntegralityError` is raised otherwise.  The recursion is one level per
swap, so this is only meant for small heights.
"""

from fractions import Fraction
from math import factorial


class IntegralityError(ArithmeticError):
    """A structure constant failed to be an integer."""


def written_rank(alg):
    """Position of each pair index in the canonical written order."""
    rank = [0] * len(alg.pairs)
    for pos, a in enumerate(alg.written_order):
        rank[a] = pos
    return rank


def word(alg, m):
    """The canonical letter word of a monomial: each pair index repeated
    by its exponent, pairs in written order."""
    letters = []
    for a in alg.written_order:
        letters.extend([a] * m[a])
    return tuple(letters)


class LetterOracle:
    """Products of DividedPowerAlgebra monomials, straightened letter by letter."""

    def __init__(self, alg):
        self.alg = alg
        self.rank = written_rank(alg)
        self.memo = {}

    def _commutator(self, a, b):
        """[e_A, e_B] as a list of (pair index, sign)."""
        pairs, index = self.alg.pairs, self.alg.pair_index
        i, j = pairs[a]
        k, l = pairs[b]
        out = []
        if j == k:
            out.append((index[(i, l)], 1))
        if l == i:
            out.append((index[(k, j)], -1))
        return out

    def straighten(self, word):
        """{canonically ordered letter word: integer coefficient}."""
        hit = self.memo.get(word)
        if hit is not None:
            return hit
        rank = self.rank
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
            for w, c in self.straighten(swapped).items():
                result[w] = result.get(w, 0) + c
            for p, sign in self._commutator(a, b):
                shorter = word[:spot] + (p,) + word[spot + 2:]
                for w, c in self.straighten(shorter).items():
                    result[w] = result.get(w, 0) + sign * c
            result = {w: c for w, c in result.items() if c}
        self.memo[word] = result
        return result

    def product_terms(self, m1, m2):
        """Same contract as DividedPowerAlgebra.product_terms: a tuple
        of (exponent vector, integer coefficient) sorted by letter word."""
        alg = self.alg
        den = 1
        for k in m1 + m2:
            den *= factorial(k)
        out = []
        for w, c in sorted(self.straighten(word(alg, m1) + word(alg, m2)).items()):
            exps = [0] * len(alg.pairs)
            for a in w:
                exps[a] += 1
            num = c
            for k in exps:
                num *= factorial(k)
            coeff = Fraction(num, den)
            if coeff.denominator != 1:
                raise IntegralityError(
                    f"non-integral structure constant {coeff} in "
                    f"{m1} * {m2}")
            if coeff:
                out.append((tuple(exps), int(coeff)))
        return tuple(out)
