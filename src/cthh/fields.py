"""Exact coefficient fields: the rationals and prime fields GF(p).

Field elements are plain Python values.  A rational is an `int`, or a
`fractions.Fraction` only after an inexact division; GF(p) elements are
`int` in the range [0, p).  All arithmetic is exact, on Python integers, and
GF(p) takes primes below 2**31 only.  An algebra's multiplication table holds
integers over every field, and its readers reduce mod p (`cthh.algebra`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Characteristic 0 means the rationals; a prime p means GF(p)."""

    characteristic: int = 0

    def __post_init__(self):
        p = self.characteristic
        if p == 0:
            return
        if not is_prime(p):
            raise ValueError(f"characteristic must be 0 or prime, got {p}")
        if p >= 1 << 31:
            raise ValueError(f"prime too large for exact word arithmetic: {p}")

    def element(self, n):
        """Coerce an integer (or Fraction, over the rationals) into the field.

        Over the rationals an integral value comes back as an `int`."""
        if self.characteristic == 0:
            if type(n) is int:
                return n
            n = Fraction(n)
            return n.numerator if n.denominator == 1 else n
        if isinstance(n, Fraction):
            if n.denominator % self.characteristic == 0:
                raise ZeroDivisionError(f"denominator of {n} vanishes mod {self.characteristic}")
            return n.numerator * pow(n.denominator, -1, self.characteristic) % self.characteristic
        return n % self.characteristic

    def __str__(self):
        return "QQ" if self.characteristic == 0 else f"GF({self.characteristic})"


QQ = FieldSpec(0)
GF2 = FieldSpec(2)
GF3 = FieldSpec(3)
GF5 = FieldSpec(5)
GF7 = FieldSpec(7)
