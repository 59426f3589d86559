"""Exception types shared across the toolkit."""


class DdaeKitError(Exception):
    """Base class for all toolkit errors."""


class DimensionMismatch(DdaeKitError):
    """Matrices or vectors do not have compatible shapes."""


class SingularPencil(DdaeKitError):
    """The pencil (E, A) failed the regularity test; .verdict is the evidence."""

    def __init__(self, verdict):
        self.verdict = verdict
        super().__init__("the pencil (E, A) is singular")


class DecompositionFailure(DdaeKitError):
    """The quasi-Weierstrass decomposition could not be completed reliably.

    Usually indicates a rank misjudgement; tightening the rank policy
    (smaller rel_tol) or rescaling the data may help.
    """


class OutOfDomain(DdaeKitError):
    """Evaluation point lies outside the domain of a piecewise function."""


class NotAdmissible(DdaeKitError):
    """The history function is not admissible for the initial value problem."""

    def __init__(self, residual, message=None):
        self.residual = residual
        super().__init__(message or f"history not admissible (residual {residual:.3e})")


class InconsistentRestart(DdaeKitError):
    """A segment restart value violates the consistency condition.

    This is the de-smoothing failure mode: the previous segment's end
    value cannot serve as an initial value for the next segment.
    """

    def __init__(self, segment_index, residual, jump=None):
        self.segment_index = segment_index
        self.residual = residual
        self.jump = jump
        super().__init__(
            f"inconsistent restart at segment {segment_index} "
            f"(residual {residual:.3e})"
        )


class CollocationSingular(DdaeKitError):
    """The collocation system for the slow subsystem is singular."""


class NotSmoothingType(DdaeKitError):
    """Hidden-delay expansion requires a smoothing-type system."""


class MalformedProblem(DdaeKitError):
    """A problem file violates the input schema."""
