"""Exception types shared across the package."""

from __future__ import annotations


class PcScreenError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(PcScreenError):
    """Inputs whose observation counts differ, or matrices of the wrong arity."""


class InputTooLarge(PcScreenError):
    """A sample past the range of the exact univariate counts, n <= 46340.

    Up to that n every per-slice term of the exact sums fits int64.
    """


class UnknownFeature(PcScreenError):
    """A feature index outside the 0..p-1 range of the ranking at hand."""


class MultivariateResponseUnsupported(PcScreenError):
    """Raised by the Pearson baseline, which handles univariate responses only."""


class DegenerateColumn(PcScreenError):
    """A column with zero variance where standardization is required.

    ``column`` identifies it: its index in the array that was checked, or
    its name in a CSV header.
    """

    def __init__(self, message, column):
        super().__init__(message)
        self.column = column

    def __reduce__(self):
        # the default rebuilds from args alone, which lacks the column
        return type(self), (str(self), self.column)


class SolverFailure(PcScreenError):
    """The h-vector solver found no feasible iterate within its budget."""


class InfeasibleH(PcScreenError):
    """An h vector whose implied joint covariance is not positive semidefinite."""


class InvalidAlpha(PcScreenError, ValueError):
    """A target FDR level outside (0, 1]; also a ``ValueError``."""


class InvalidSplit(PcScreenError):
    """A sample split leaving fewer than two observations on either side."""


class UnknownModel(PcScreenError):
    """A simulation model identifier outside the supported set."""


class ParseError(PcScreenError):
    """A malformed input file (missing header, ragged row, empty file...)."""


class MissingColumn(ParseError):
    """A requested column name absent from the CSV header."""


class NonNumericCell(ParseError):
    """A CSV cell that does not parse as a finite number."""
