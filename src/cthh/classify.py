"""Closed-form Hochschild series from the quiver, by Dynkin family.

Type A reads the answer straight off the oriented 3-cycle count.  Type D
is matched against structural patterns (fork, glued-triangle cores,
central cycles with triangle spikes); the pattern-derived series must
always agree with the universal route from (dim HH^1, det C), and any
disagreement raises instead of being patched over.  Type E looks the
associated polynomial up in the embedded 35-row table.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

from .algebra import CartanData
from .errors import NotInTableError, UnclassifiedDError
from .quiver import Quiver, chordless_cycles, components, neighbours, oriented_triangle_count
from .series import HSeries, parse_h, series_from_invariants


# ---------------------------------------------------------------------------
# Type A
# ---------------------------------------------------------------------------

def hh_type_A(q: Quiver) -> HSeries:
    """t oriented 3-cycles give h = t * f_3."""
    return HSeries.of(*([3] * oriented_triangle_count(q)))


# ---------------------------------------------------------------------------
# Type D pattern matching
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DTypeParams:
    """Structural description of a type-D quiver.

    subtype I: fork with pendant pair, params (s, t) = (size of the attached
    part, its 3-cycle count).  II/III: glued-triangle or 4-cycle core with
    two arms (s1, t1, s2, t2).  IVa: a plain oriented n-cycle.  IVb: central
    cycle with triangle spikes; spikes carries (d_j, s_j, t_j) triples where
    d_j is the cyclic arrow-gap to the next spike, and the derived cycle
    order is n = sum d_j + #{d_j = 1}.
    """

    subtype: str
    params: tuple

    def series(self) -> HSeries:
        if self.subtype == "I":
            _, t = self.params
            return HSeries.of(*([3] * t))
        if self.subtype == "II":
            _, t1, _, t2 = self.params
            return HSeries.of(*([3] * (1 + t1 + t2)))
        if self.subtype == "III":
            _, t1, _, t2 = self.params
            return HSeries.of(4, *([3] * (t1 + t2)))
        if self.subtype == "IVa":
            (n,) = self.params
            return HSeries.of(n)
        # IVb
        spikes = self.params
        n = sum(d for d, _, _ in spikes) + sum(1 for d, _, _ in spikes if d == 1)
        t = sum(tj for _, _, tj in spikes)
        return HSeries.of(n, *([3] * t))


def _fork_pair(q: Quiver):
    adj = neighbours(q)
    pendants = [v for v in adj if len(adj[v]) == 1]
    for i in range(len(pendants)):
        for j in range(i + 1, len(pendants)):
            u, v = pendants[i], pendants[j]
            if adj[u] == adj[v]:
                return u, v
    return None


def _arm_components(q: Quiver, core_vertices):
    """Connected components of the quiver minus the core, with the triangles
    counted inside each component plus its attachment vertices."""
    outside = [v for v in range(1, q.vertex_count + 1) if v not in core_vertices]
    comps = components(neighbours(q), outside)
    triangles = [c for c in chordless_cycles(q) if c.oriented and c.length == 3]
    out = []
    for comp in comps:
        tcount = sum(1 for c in triangles if set(c.vertices) - core_vertices <= comp and set(c.vertices) & comp)
        out.append((len(comp), tcount))
    return out


def classify_D(q: Quiver) -> DTypeParams:
    cycles = [c for c in chordless_cycles(q) if c.oriented]
    triangles = [c for c in cycles if c.length == 3]
    arrow_sets = [set(c.arrow_list()) for c in cycles]
    shares = {}
    for i in range(len(cycles)):
        for j in range(i + 1, len(cycles)):
            common = len(arrow_sets[i] & arrow_sets[j])
            if common:
                shares[(i, j)] = common

    fork = _fork_pair(q)
    if fork is not None:
        if shares or any(c.length > 3 for c in cycles):
            raise UnclassifiedDError(f"fork together with non-free cycles in {q}")
        s = q.vertex_count - 2
        return DTypeParams("I", (s, len(triangles)))

    if not cycles:
        raise UnclassifiedDError(f"no fork and no oriented cycle in {q}")

    # single oriented cycle through everything: plain cycle algebra
    if len(cycles) == 1 and len(q.arrows) == q.vertex_count and cycles[0].length == q.vertex_count:
        return DTypeParams("IVa", (q.vertex_count,))

    if any(v >= 2 for v in shares.values()):
        raise UnclassifiedDError(f"cycles sharing more than one arrow in {q}")

    # central cycle: the common member of all sharing pairs, or the unique
    # long cycle when nothing is glued
    long_cycles = [i for i, c in enumerate(cycles) if c.length >= 4]
    if shares:
        candidates = set.intersection(*(set(pair) for pair in shares))
        candidates = {i for i in candidates if all(i in pair for pair in shares)}
        if long_cycles:
            candidates &= set(long_cycles)
        if not candidates:
            raise UnclassifiedDError(f"no star center among glued cycles in {q}")
        central = min(candidates)
    else:
        if len(long_cycles) != 1:
            raise UnclassifiedDError(f"no glued cycles and no unique long cycle in {q}")
        central = long_cycles[0]

    spikes = sorted({i for pair in shares for i in pair} - {central})
    if any(cycles[i].length != 3 for i in spikes):
        raise UnclassifiedDError(f"non-triangle spike in {q}")
    m = cycles[central].length
    central_arrows = cycles[central].arrow_list()
    positions = []
    for i in spikes:
        shared = arrow_sets[central] & arrow_sets[i]
        positions.append(central_arrows.index(next(iter(shared))))
    positions.sort()

    core_vertices = set(cycles[central].vertices)
    for i in spikes:
        core_vertices |= set(cycles[i].vertices)
    arm_triangle_ids = [
        i for i, c in enumerate(cycles)
        if i != central and i not in spikes
    ]
    if any(cycles[i].length != 3 for i in arm_triangle_ids):
        raise UnclassifiedDError(f"stray long cycle outside the core in {q}")
    arms = _arm_components(q, core_vertices)
    arm_t_total = len(arm_triangle_ids)
    if sum(t for _, t in arms) != arm_t_total:
        raise UnclassifiedDError(f"could not attribute arm triangles in {q}")

    k = len(positions)
    if k == 0:
        if m != 4:
            raise UnclassifiedDError(f"bare central {m}-cycle with arms in {q}")
        arms = sorted(arms, reverse=True) + [(0, 0), (0, 0)]
        (s1, t1), (s2, t2) = arms[0], arms[1]
        return DTypeParams("III", (s1, t1, s2, t2))
    if m == 3 and k == 1:
        arms = sorted(arms, reverse=True) + [(0, 0), (0, 0)]
        (s1, t1), (s2, t2) = arms[0], arms[1]
        return DTypeParams("II", (s1, t1, s2, t2))

    # type IVb: gaps between consecutive spiked arrows around the central cycle
    gaps = []
    for idx, p in enumerate(positions):
        nxt = positions[(idx + 1) % k]
        gaps.append((nxt - p) % m if k > 1 else m)
    arms_sorted = sorted(arms, reverse=True)
    triples = []
    for idx, d in enumerate(gaps):
        s_j, t_j = arms_sorted[idx] if idx < len(arms_sorted) else (0, 0)
        triples.append((d, s_j, t_j))
    leftover = sum(t for _, t in arms_sorted[len(gaps):])
    if leftover:
        d0, s0, t0 = triples[0]
        triples[0] = (d0, s0, t0 + leftover)
    return DTypeParams("IVb", tuple(triples))


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
    """Dispatch on the Dynkin family, given dim HH^1 and the Cartan data of
    the algebra of q.  Types D and E are checked against the universal route
    from (hh1, det C); type A needs neither value.

    Returns (series, subtype): the subtype is the matched type-D pattern
    (`DTypeParams.subtype`), "unclassified" for a type-D quiver no pattern
    matches, and "" for types A and E.
    """
    if family == "A":
        return hh_type_A(q), ""
    universal = series_from_invariants(hh1, cd.det)
    if family == "D":
        try:
            params = classify_D(q)
        except UnclassifiedDError:
            return universal, "unclassified"
        typed = params.series()
        if typed != universal:
            raise UnclassifiedDError(
                f"type-D pattern gave {typed} but the universal route gave {universal} for {q}"
            )
        return typed, params.subtype
    if family == "E":
        h = lookup_E(cd.assoc_poly)
        if h != universal:
            raise NotInTableError(
                f"table row {h} disagrees with universal {universal} for {q}"
            )
        return h, ""
    raise ValueError(f"unknown family {family!r}")
