"""Closed-form Hochschild series from the quiver, by Dynkin family.

Type A reads the answer straight off the oriented 3-cycle count.  Type D
reads it off Vatne's four types (Comm. Algebra 38, 2010) by one formula:
t f_3 for a fork, else f_{m+a} plus f_3 terms from the central m-cycle and
its triangle spikes (`classify_D`); a quiver with neither a fork nor a
central cycle raises UnclassifiedDError.  Type E looks the associated
polynomial up in the embedded 35-row table.  `hh_closed_form` checks the
typed series of every family against the universal route from
(dim HH^1, det C); a disagreement raises ClosedFormMismatchError instead of
being patched over.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from itertools import combinations

from .algebra import CartanData
from .errors import ClosedFormMismatchError, NotInTableError, UnclassifiedDError
from .quiver import Quiver, chordless_cycles, neighbours, oriented_triangle_count
from .series import HSeries, parse_h, series_from_invariants


# ---------------------------------------------------------------------------
# Type A
# ---------------------------------------------------------------------------

def hh_type_A(q: Quiver) -> HSeries:
    """t oriented 3-cycles give h = t * f_3."""
    return HSeries.of(*([3] * oriented_triangle_count(q)))


# ---------------------------------------------------------------------------
# Type D: Vatne's four types, one formula
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DTypeParams:
    """Vatne's type of a type-D quiver (I, II, III, IVa or IVb) and its
    series h = f_n + t f_3, where n = 0 stands for no f_n term (type I)."""

    subtype: str
    n: int
    t: int

    def series(self) -> HSeries:
        return HSeries.of(*([self.n] if self.n else []), *([3] * self.t))


def _has_fork(q: Quiver) -> bool:
    """Two pendant vertices on one neighbour."""
    adj = neighbours(q)
    ends = [next(iter(adj[v])) for v in adj if len(adj[v]) == 1]
    return len(ends) != len(set(ends))


def classify_D(q: Quiver) -> DTypeParams:
    """The type and series of a quiver in a type-D mutation class.

    With t oriented triangles: a fork (two pendant vertices on one
    neighbour) is type I, h = t f_3.  Otherwise the central cycle is the
    oriented cycle of length >= 4, or else the triangle in every pair of
    triangles that share an arrow.  If it has length m, k triangle spikes
    share an arrow with it, and a of its spiked arrows are followed by a
    spiked arrow, then h = f_{m+a} + (t - k - [m = 3]) f_3.  The type is IVa
    when the central cycle runs through every vertex, III when k = 0, II when
    (m, k) = (3, 1), and IVb otherwise.  A quiver with neither a fork nor a
    central cycle raises UnclassifiedDError.
    """
    cycles = [c for c in chordless_cycles(q) if c.oriented]
    triangles = [c for c in cycles if c.length == 3]
    t = len(triangles)
    if _has_fork(q):
        return DTypeParams("I", 0, t)
    arrows = {c: set(c.arrow_list()) for c in cycles}
    central = next((c for c in cycles if c.length >= 4), None)
    if central is None:
        glued = [pair for pair in combinations(triangles, 2) if arrows[pair[0]] & arrows[pair[1]]]
        central = next((c for c in triangles if glued and all(c in pair for pair in glued)), None)
    if central is None:
        raise UnclassifiedDError(f"no fork and no central cycle in {q}")
    ring = central.arrow_list()
    m = len(ring)
    spikes = [c for c in triangles if c != central and arrows[c] & arrows[central]]
    spiked = {p for p, arrow in enumerate(ring) if any(arrow in arrows[c] for c in spikes)}
    a = sum(1 for p in spiked if (p + 1) % m in spiked)
    k = len(spikes)
    if m == q.vertex_count:
        subtype = "IVa"
    elif k == 0:
        subtype = "III"
    elif (m, k) == (3, 1):
        subtype = "II"
    else:
        subtype = "IVb"
    return DTypeParams(subtype, m + a, t - k - (m == 3))


# ---------------------------------------------------------------------------
# Type E table
# ---------------------------------------------------------------------------

def _load_e_table():
    text = resources.files("cthh").joinpath("data/e_table.txt").read_text()
    table = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        _, coeffs_s, h_s = line.split(";")  # the rank is the polynomial's degree
        table[tuple(int(c) for c in reversed(coeffs_s.split(",")))] = parse_h(h_s)
    return table


_E_TABLE = _load_e_table()


def lookup_E(assoc_poly) -> HSeries:
    """Series for a type-E algebra from its associated polynomial
    (ascending integer coefficients)."""
    key = tuple(assoc_poly)
    try:
        return _E_TABLE[key]
    except KeyError:
        raise NotInTableError(f"polynomial {key} not among the 35 type-E rows") from None


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

def hh_closed_form(q: Quiver, family: str, hh1: int, cd: CartanData):
    """The series of q's algebra, given its Dynkin family, dim HH^1 and
    Cartan data: the typed series (3-cycle count for A, `classify_D` for D,
    the table for E), checked against the universal route from (hh1, det C).
    The universal series is computed first, so its error wins when both
    routes fail.

    Returns (series, subtype): the subtype is the type-D quiver's Vatne type
    (`DTypeParams.subtype`), and "" for types A and E.  A typed series that
    disagrees with the universal one raises ClosedFormMismatchError.
    """
    universal = series_from_invariants(hh1, cd.det)
    subtype = ""
    if family == "A":
        typed = hh_type_A(q)
    elif family == "D":
        params = classify_D(q)
        typed, subtype = params.series(), params.subtype
    elif family == "E":
        typed = lookup_E(cd.assoc_poly)
    else:
        raise ValueError(f"unknown family {family!r}")
    if typed != universal:
        raise ClosedFormMismatchError(
            f"type-{family} series {typed} but the universal route gave {universal} for {q}"
        )
    return typed, subtype
