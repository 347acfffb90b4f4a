"""Exact coefficient fields: the rationals and prime fields.

All arithmetic in this package is exact.  In characteristic 0 a scalar
is a plain int when it is integral and a `fractions.Fraction` otherwise,
never an integral `Fraction`, so the integer structure constants of the
Z-form run at int speed; in characteristic p it is a plain int in
[0, p).  Arithmetic is Python's own `+ - *` on those scalars: a loop
multiplies and accumulates natively, integer structure constants
included, and the consumer of an accumulated entry (`add_scaled`, or
an `Echelon` as it reads a vector) reduces it once with `field.of`,
which maps any int or `Fraction` to its canonical scalar.  A field
object holds only what that rule cannot: `of`, `inv`, `zero`, `one`
and `characteristic`.
"""

from fractions import Fraction
from math import isqrt

# prime fields are refused at or above this characteristic, so the
# primality test (trial division) stays fast
CHARACTERISTIC_CAP = 2**31


def _canonical(c):
    """A `Fraction` as an int when integral, else unchanged."""
    return c.numerator if c.denominator == 1 else c


class Rationals:
    """Arbitrary-precision rational arithmetic on canonical scalars."""

    characteristic = 0
    zero = 0
    one = 1

    def of(self, a):
        if type(a) is int:
            return a
        return _canonical(a if type(a) is Fraction else Fraction(a))

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return _canonical(1 / Fraction(a))

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash(("field", 0))


class PrimeField:
    """Integers modulo a prime, elements stored as ints in [0, p)."""

    def __init__(self, p):
        if p >= CHARACTERISTIC_CAP:
            raise ValueError(
                f"characteristic must be below {CHARACTERISTIC_CAP}")
        if p < 2 or any(p % d == 0 for d in range(2, isqrt(p) + 1)):
            raise ValueError(f"characteristic must be prime, got {p}")
        self.p = self.characteristic = p
        self.zero = 0
        self.one = 1

    def of(self, a):
        return a % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("field", self.p))


def field_of_characteristic(char):
    """Field selector used by the CLI: 0 gives the rationals, p a prime field."""
    if char == 0:
        return Rationals()
    return PrimeField(char)


def serialize_scalar(c):
    """Scalar -> JSON-stable value: int when integral, 'p/q' string otherwise."""
    if hasattr(c, "denominator") and c.denominator != 1:
        return str(c)
    return int(c)
