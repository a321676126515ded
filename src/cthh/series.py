"""Closed-form cohomology series h = sum of building blocks f_n.

f_n(z) = z/(1-z) - z^2 (1 + eps_n (z + z^2) + z^3) / (1 - z^{2n}),
with eps_n = 0 exactly when the field characteristic divides n - 1.
Coefficients are 0/1 and periodic of period 2n from degree 1 on, so the
closed form is stored (as the multiset of cycle orders n) and coefficients
are produced on demand to any order; nothing is ever truncated.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass

from .errors import NonIntegralNError
from .fields import FieldSpec


def epsilon(n: int, field: FieldSpec) -> int:
    """0 when the characteristic divides n-1, else 1."""
    if n < 3:
        raise ValueError(f"cycle order must be >= 3, got {n}")
    p = field.characteristic
    return 0 if p and (n - 1) % p == 0 else 1


def f_coeff(n: int, i: int, field: FieldSpec) -> int:
    """Coefficient of z^i in f_n over the given field; always 0 or 1."""
    if n < 3:
        raise ValueError(f"cycle order must be >= 3, got {n}")
    if i == 0:
        return 0
    r = i % (2 * n)
    if r in (2, 5):
        return 0
    if r in (3, 4):
        return 1 - epsilon(n, field)
    return 1


@dataclass(frozen=True)
class HSeries:
    """h = sum of f_n over the multiset cycle_orders; empty means h = 0."""

    cycle_orders: tuple  # sorted descending

    @staticmethod
    def of(*orders) -> "HSeries":
        orders = tuple(sorted((int(n) for n in orders), reverse=True))
        if any(n < 3 for n in orders):
            raise ValueError("every cycle order must be >= 3")
        return HSeries(orders)

    def __str__(self):
        return format_h(self)


def hh_dim(h: HSeries, i: int, field: FieldSpec) -> int:
    """dim HH^i for the series; degree 0 is always 1."""
    if i == 0:
        return 1
    return sum(f_coeff(n, i, field) for n in h.cycle_orders)


def format_h(h: HSeries) -> str:
    """Canonical display: "0", "f_3", "f_4 + 2 f_3", descending n."""
    if not h.cycle_orders:
        return "0"
    counts = Counter(h.cycle_orders)
    parts = []
    for n in sorted(counts, reverse=True):
        m = counts[n]
        parts.append(f"f_{n}" if m == 1 else f"{m} f_{n}")
    return " + ".join(parts)


_TERM_RE = re.compile(r"^(?:(\d+)\s*)?f_(\d+)$")


def parse_h(text: str) -> HSeries:
    """Inverse of format_h."""
    text = text.strip()
    if text == "0":
        return HSeries.of()
    orders = []
    for part in text.split("+"):
        m = _TERM_RE.match(part.strip())
        if not m:
            raise ValueError(f"bad h-descriptor term: {part.strip()!r}")
        mult = int(m.group(1) or 1)
        n = int(m.group(2))
        orders.extend([n] * mult)
    return HSeries.of(*orders)


def series_from_invariants(hh1: int, cartan_det: int) -> HSeries:
    """h from dim HH^1 and det C via t = hh1 - 1, n = 1 + det / 2^t."""
    if hh1 < 0 or cartan_det <= 0:
        raise NonIntegralNError(f"invalid inputs hh1={hh1}, det={cartan_det}")
    if hh1 == 0:
        if cartan_det != 1:
            raise NonIntegralNError(
                f"vanishing HH^1 needs Cartan determinant 1, got {cartan_det}"
            )
        return HSeries.of()
    t = hh1 - 1
    if cartan_det % (1 << t):
        raise NonIntegralNError(f"2^{t} does not divide det C = {cartan_det}")
    n = 1 + (cartan_det >> t)
    if n < 3:
        raise NonIntegralNError(f"derived cycle order n = {n} < 3")
    return HSeries.of(n, *([3] * t))
