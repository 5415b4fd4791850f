"""Exception hierarchy shared by all energia modules."""


class EnergiaError(Exception):
    """Base class for all library errors."""


class EmptySetError(EnergiaError):
    """An operation required a non-empty set."""


class ZeroArityError(EnergiaError):
    """m = n = 0 passed to an iterated sumset/product set."""


class DivisionByZeroElementError(EnergiaError):
    """Quotient set requested for a set containing 0."""


class BadParamsError(EnergiaError):
    """Parameters outside an operation's precondition domain."""


class BadArityError(EnergiaError):
    """Wrong tuple arity (odd list length, odd s where even required, ...)."""


class OverflowGuardError(EnergiaError):
    """A per-value multiplicity could exceed the 64-bit counter width."""


class TooLargeError(EnergiaError):
    """Work bound exceeded (oracle tuple guard, sumset size cap)."""


class ZeroElementError(EnergiaError):
    """Multiplicative check invoked on a set containing 0."""


class NotDisjointError(EnergiaError):
    """Union bound invoked on overlapping parts."""


class EmptyGraphError(EnergiaError):
    """BSG extraction invoked on a graph with no edges."""


class StageCollapseError(EnergiaError):
    """A pipeline stage emptied out under the active thresholds."""

    def __init__(self, stage, message=""):
        self.stage = stage
        super().__init__(message or f"pipeline stage {stage!r} collapsed")


class WrongBranchError(EnergiaError):
    """Verification requested for a result of the other branch."""


class ExtractorFailedError(EnergiaError):
    """No extraction candidate passed its energy threshold."""

    def __init__(self, iteration, message=""):
        self.iteration = iteration
        super().__init__(message or f"extractor failed at iteration {iteration}")


class BadAdversaryError(EnergiaError):
    """Simulated deletion step below the guaranteed minimum."""


class ParameterTooLargeError(EnergiaError):
    """Configured exponent is representable but not executable."""


class InvariantError(EnergiaError):
    """An internal consistency check failed: a defect, not a bad input."""


class PrecisionError(EnergiaError):
    """Comparison margin below the certified precision bound."""
