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


_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(m: int) -> bool:
    """Miller-Rabin with the prime bases up to 37, exact for m < 3.1 * 10^23:
    the least composite that passes them all is 318665857834031151167461."""
    if m < 2:
        return False
    for q in _MILLER_RABIN_BASES:
        if m % q == 0:
            return m == q
    d, s = m - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for q in _MILLER_RABIN_BASES:
        x = pow(q, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
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
        """Coerce an integer or a Fraction into the field.

        Over the rationals an integral value comes back as an `int`.  Over
        GF(p) a Fraction is its numerator times the inverse of its denominator,
        and a denominator that p divides raises ZeroDivisionError."""
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
