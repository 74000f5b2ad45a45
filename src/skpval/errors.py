"""Exception hierarchy shared by all skpval modules."""

# the most characters of an input that a message echoes
ECHO_LIMIT = 24


def shorten(text):
    """``text`` cut to ``ECHO_LIMIT`` characters, "..." marking a cut, so a
    message that echoes input does not grow with it."""
    return text if len(text) <= ECHO_LIMIT else text[:ECHO_LIMIT - 3] + "..."


class SkpvalError(Exception):
    """Base class for all library errors."""


class DimensionMismatchError(SkpvalError):
    """Group values of different dimensions were combined or compared."""


class NotInGroupError(SkpvalError):
    """A multiple of the target value does not lie in the generated group."""


class ZeroPolyError(SkpvalError):
    """Operation undefined on the zero polynomial."""


class NotMonicError(SkpvalError):
    """Divisor is not monic in the requested variable."""


class InvalidTableError(SkpvalError):
    """A value table failed validation; carries the full report."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class ThetaZeroError(SkpvalError):
    """A scale factor theta must be a nonzero field element."""


class NoCutoffError(SkpvalError):
    """Limit unrolling requires a truncation cutoff."""


class NonStabilizingError(SkpvalError):
    """Tail summand orders failed to exceed the cutoff within the depth."""


class IterationCapError(SkpvalError):
    """Rewrite loop exceeded its iteration budget (diagnostic guard)."""


class HypothesisViolatedError(SkpvalError):
    """Input violates a standing hypothesis: the classifier's on the first
    value, or verification's that every generator relation is nonnegative."""


class VerificationFailedError(SkpvalError):
    """Brute-force realization check found a counterexample."""

    def __init__(self, message, offending=None):
        super().__init__(message)
        self.offending = offending


class SchemaError(SkpvalError):
    """Malformed problem file (bad JSON shape, unknown kind, bad literal)."""


class PolyParseError(SchemaError):
    """Polynomial text did not parse."""
