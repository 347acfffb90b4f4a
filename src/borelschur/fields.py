"""Exact coefficient fields: the rationals and prime fields.

All arithmetic in this package is exact.  In characteristic 0 a scalar
is a plain int when it is integral and a `fractions.Fraction` otherwise,
never an integral `Fraction`, so the integer structure constants of the
Z-form run at int speed; in characteristic p it is a plain int in
[0, p).  A field object bundles the operations so that the linear
algebra routines can stay generic.
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
        return a if type(a) is int else _canonical(Fraction(a))

    def add(self, a, b):
        c = a + b
        return c if type(c) is int else _canonical(c)

    def sub(self, a, b):
        c = a - b
        return c if type(c) is int else _canonical(c)

    def mul(self, a, b):
        c = a * b
        return c if type(c) is int else _canonical(c)

    def neg(self, a):
        return -a

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

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

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
