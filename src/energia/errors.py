"""Exception hierarchy shared by all energia modules; each class declares its exit ``code`` (see ``cli``)."""


class EnergiaError(Exception):
    """Base class for all library errors."""
    code = 1


class EmptySetError(EnergiaError):
    """An operation required a non-empty set."""
    code = 2


class ZeroArityError(EnergiaError):
    """m = n = 0 passed to an iterated sumset/product set."""
    code = 2


class DivisionByZeroElementError(EnergiaError):
    """Quotient set requested for a set containing 0."""
    code = 2


class BadParamsError(EnergiaError):
    """Parameters outside an operation's precondition domain."""
    code = 2


class BadArityError(EnergiaError):
    """Wrong tuple arity (odd list length, odd s where even required, ...)."""
    code = 2


class OverflowGuardError(EnergiaError):
    """A per-value multiplicity could exceed the 64-bit counter width."""
    code = 3


class TooLargeError(EnergiaError):
    """Work bound exceeded (oracle tuple guard, sumset size cap)."""
    code = 3


class ZeroElementError(EnergiaError):
    """Multiplicative check invoked on a set containing 0."""
    code = 2


class NotDisjointError(EnergiaError):
    """Union bound invoked on overlapping parts."""
    code = 2


class EmptyGraphError(EnergiaError):
    """BSG extraction invoked on a graph with no edges."""
    code = 2


class StageCollapseError(EnergiaError):
    """A pipeline stage emptied out under the active thresholds."""
    code = 1

    def __init__(self, stage, message=""):
        self.stage = stage
        super().__init__(message or f"pipeline stage {stage!r} collapsed")


class WrongBranchError(EnergiaError):
    """Verification requested for a result of the other branch."""
    code = 2


class ExtractorFailedError(EnergiaError):
    """No extraction candidate passed its energy threshold."""
    code = 1

    def __init__(self, iteration, message=""):
        self.iteration = iteration
        super().__init__(message or f"extractor failed at iteration {iteration}")


class BadAdversaryError(EnergiaError):
    """Simulated deletion step below the guaranteed minimum."""
    code = 2


class ParameterTooLargeError(EnergiaError):
    """Configured exponent is representable but not executable."""
    code = 2


class InvariantError(EnergiaError):
    """An internal consistency check failed: a defect, not a bad input."""
    code = 1


class PrecisionError(EnergiaError):
    """Comparison margin below the certified precision bound."""
    code = 3
