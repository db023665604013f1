"""Exception types shared across the package."""


class PksvdError(Exception):
    """Base class for all package-specific errors."""


class BadShape(PksvdError, ValueError):
    """Input dimensions are inconsistent or not representable."""


class RankDeficient(PksvdError, ValueError):
    """Matrix does not have full row rank where a frame is required."""


class UniqueDual(PksvdError, ValueError):
    """A square frame has exactly one dual; no alternative exists."""


class NearSingularSylvester(PksvdError, ArithmeticError):
    """Sylvester operator is numerically singular (overlapping spectra)."""


class SingularCoefficientGram(PksvdError, ArithmeticError):
    """A Gram matrix that determines codes is singular: the code Gram even
    after regularization, or the Gram of a code column's support atoms."""


class SingularMetric(PksvdError, ArithmeticError):
    """The metric M of a symmetric-definite pencil (M, G) is numerically singular."""


class SolverDidNotConverge(PksvdError, RuntimeError):
    """A solver exhausted its step budget or missed its constraint."""


class TooLarge(PksvdError, ValueError):
    """Problem exceeds the size limit of an exhaustive routine."""


class NotGeneralPosition(PksvdError, ValueError):
    """Columns are not in general position (spark < n + 1)."""


class NoViolationFound(PksvdError, RuntimeError):
    """Counterexample search exhausted its trials without success."""


class EmptyBlockMask(PksvdError, ValueError):
    """A block mask observes zero pixels; recovery is impossible."""


class MalformedFile(PksvdError, ValueError):
    """A file does not conform to its declared format.

    ``offset`` is the byte position at which parsing failed, when known.
    """

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class ConfigError(PksvdError, ValueError):
    """Run configuration is missing keys or contains unknown ones."""
