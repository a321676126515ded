"""Defining relations of a cluster-tilted algebra from its quiver.

The relation ideal is generated by cyclic derivatives of the potential
W = sum of all chordless oriented cycles: for each arrow lying on such a
cycle, the relation is the sum of the complementary paths (from the
arrow's target back around to its source), all with coefficient +1.
Arrows on one cycle give zero relations, arrows on two cycles give
two-term commutativity relations; three or more cycles through one arrow
never happen in finite type and are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ArrowOnThreeCyclesError, NonOrientedCycleError
from .quiver import Quiver, chordless_cycles, validate


@dataclass(frozen=True)
class Path:
    """A nonempty composable run of arrows, stored as its vertex sequence.

    With no parallel arrows the vertex sequence determines the arrows, so
    (v0, v1, ..., vk) is the path v0 -> v1 -> ... -> vk of length k.
    """

    vertices: tuple

    def __post_init__(self):
        if len(self.vertices) < 2:
            raise ValueError("a Path has length >= 1; trivial paths are not Paths")

    @property
    def source(self):
        return self.vertices[0]

    @property
    def target(self):
        return self.vertices[-1]

    @property
    def length(self):
        return len(self.vertices) - 1

    def __str__(self):
        return "->".join(str(v) for v in self.vertices)


@dataclass(frozen=True)
class Relation:
    """Sum of same-(source, target) paths with nonzero integer coefficients."""

    terms: tuple  # tuple of (coefficient, Path)

    def __post_init__(self):
        if not self.terms:
            raise ValueError("a relation needs at least one term")
        src = {p.source for _, p in self.terms}
        tgt = {p.target for _, p in self.terms}
        if len(src) != 1 or len(tgt) != 1:
            raise ValueError("relation terms must share source and target")
        if any(c == 0 for c, _ in self.terms):
            raise ValueError("zero coefficient in relation")

    @property
    def is_zero_relation(self):
        return len(self.terms) == 1

    def __str__(self):
        parts = []
        for c, p in self.terms:
            prefix = "" if c == 1 else ("-" if c == -1 else f"{c} ")
            parts.append(f"{prefix}{p}")
        return " + ".join(parts)


def generate_relations(q: Quiver) -> tuple:
    """The relations as a tuple of (arrow, Relation), sorted by arrow: one per
    arrow on a chordless oriented cycle."""
    validate(q)
    cycles = chordless_cycles(q)
    for c in cycles:
        if not c.oriented:
            raise NonOrientedCycleError(
                f"chordless non-oriented cycle on vertices {c.vertices}"
            )
    by_arrow = {}
    for c in cycles:
        vs = c.vertices
        k = len(vs)
        for i in range(k):
            arrow = (vs[i], vs[(i + 1) % k])
            # complementary path: target(arrow) around the cycle to source(arrow)
            comp = tuple(vs[(i + 1 + j) % k] for j in range(k))
            by_arrow.setdefault(arrow, []).append(Path(comp))
    out = []
    for arrow in sorted(by_arrow):
        paths = by_arrow[arrow]
        if len(paths) > 2:
            raise ArrowOnThreeCyclesError(
                f"arrow {arrow} lies on {len(paths)} chordless oriented cycles"
            )
        terms = tuple((1, p) for p in sorted(paths, key=lambda p: (p.length, p.vertices)))
        out.append((arrow, Relation(terms)))
    return tuple(out)
