"""Exception hierarchy.

Input problems (bad files, bad options, bad dimensions) and numerical
failures live on separate branches so the command line tool can map them
to distinct exit codes (2 and 3, respectively).
"""


class FaqrError(Exception):
    """Base class for every error raised by this package."""


class InputError(FaqrError):
    """Invalid user input: malformed files, bad dimensions, bad options."""


class DimensionError(InputError):
    """Array shapes are inconsistent or outside the supported range."""


class ParseError(InputError):
    """A cell of an input file could not be parsed as a finite number."""

    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column


class MissingValue(InputError):
    """An input cell is empty or non-finite; no imputation is performed."""

    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column


class WindowTooLarge(InputError):
    """Rolling window does not leave any observations to predict."""


class NumericalError(FaqrError):
    """A computation failed for numerical reasons."""


class RankDeficient(NumericalError):
    """Requested factor space is not identified by the data spectrum."""


class DegenerateSpectrum(NumericalError):
    """An eigenvalue ratio is undefined because the denominator is ~0."""


class NonFinite(NumericalError):
    """An intermediate quantity overflowed or is not a number."""


class InnerLoopStall(NumericalError):
    """Curvature escalation never produced a sufficient decrease of the objective."""


class Singular(NumericalError):
    """A matrix that must be inverted is singular or ill-conditioned."""
