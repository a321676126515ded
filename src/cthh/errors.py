"""Exception types shared across the toolkit.

Each class names the violated invariant or failure mode.  The CLI exits 2
on every CthhError it catches; it exits 1 only for a verify report that
fails, where each quiver whose check raised is a FAIL record.
"""


class CthhError(Exception):
    pass


# --- quiver invariants ------------------------------------------------------

class QuiverError(CthhError):
    pass


class LoopError(QuiverError):
    pass


class ParallelArrowError(QuiverError):
    pass


class TwoCycleError(QuiverError):
    pass


class DisconnectedError(QuiverError):
    pass


class MultipleArrowError(QuiverError):
    """Mutation produced an arrow of multiplicity > 1: the input is outside
    the simply-laced finite-type world handled here."""


class CapExceededError(QuiverError):
    def __init__(self, cap):
        super().__init__(f"mutation class exceeds cap of {cap} isomorphism classes")
        self.cap = cap


class NotDynkinError(QuiverError):
    pass


# --- relations and algebras -------------------------------------------------

class RelationError(CthhError):
    pass


class NonOrientedCycleError(RelationError):
    """A chordless non-oriented cycle was found; the quiver is not the quiver
    of a cluster-tilted algebra of finite representation type."""


class ArrowOnThreeCyclesError(RelationError):
    pass


class AlgebraError(CthhError):
    pass


class NotFiniteDimensionalError(AlgebraError):
    pass


class InvalidRelationsError(AlgebraError):
    pass


# --- classification ---------------------------------------------------------

class ClassifyError(CthhError):
    pass


class NonIntegralNError(ClassifyError):
    """The Cartan determinant and first-cohomology dimension are inconsistent
    with det C = 2^t (n-1)."""


class NotInTableError(ClassifyError):
    pass


class UnclassifiedDError(ClassifyError):
    pass


class ClosedFormMismatchError(ClassifyError):
    """The typed series of a quiver (3-cycle count, type-D formula or type-E
    table) disagrees with the universal series from (dim HH^1, det C)."""


# --- oracle -------------------------------------------------------------------

class InvariantError(CthhError):
    """A self-check of the resolution, the cohomology or the Cartan data failed."""


class ResolutionBudgetError(CthhError):
    def __init__(self, total, budget):
        super().__init__(f"resolution size {total} exceeds budget {budget}")
        self.total = total
        self.budget = budget


# --- cli ---------------------------------------------------------------------

class InputSyntaxError(CthhError):
    pass
