"""Exception hierarchy shared by every module.

Each class carries a stable machine-readable ``code`` so CLI users and
tests can match on failure kinds without parsing messages.
"""

from __future__ import annotations


class AnalysisError(Exception):
    """Base class for all errors raised by this package."""

    code = "ERROR"


class NonpositiveValueError(AnalysisError):
    """A dataset entry is zero, negative, or not a finite number."""

    code = "NONPOSITIVE_VALUE"


class ValueSpreadError(AnalysisError):
    """A float value, or the span of a float column, exceeds what doubles can hold."""

    code = "VALUE_SPREAD"


class DuplicateNameError(AnalysisError):
    """Two units share a name."""

    code = "DUPLICATE_NAME"


class EmptyDatasetError(AnalysisError):
    """No units, no input dimensions, or no output dimensions."""

    code = "EMPTY_DATASET"


class RaggedRowsError(AnalysisError):
    """Rows disagree on the number of inputs or outputs."""

    code = "RAGGED_ROWS"


class IndexOutOfRangeError(AnalysisError):
    """A unit index or name does not refer to a unit of the dataset."""

    code = "INDEX_OUT_OF_RANGE"


class DimensionMismatchError(AnalysisError):
    """A point's input or output arity differs from the dataset's."""

    code = "DIMENSION_MISMATCH"


class InefficientUnitError(AnalysisError):
    """The operation is defined for efficient units only."""

    code = "INEFFICIENT_UNIT"


class OutOfDomainError(AnalysisError):
    """A response function was queried below its domain."""

    code = "OUT_OF_DOMAIN"


class ParseError(AnalysisError):
    """Malformed CSV input."""

    code = "PARSE_ERROR"


class NoInputColumnsError(ParseError):
    """The CSV header declares no ``in_`` columns."""

    code = "NO_INPUT_COLUMNS"


class NoOutputColumnsError(ParseError):
    """The CSV header declares no ``out_`` columns."""

    code = "NO_OUTPUT_COLUMNS"


class ReportWriteError(AnalysisError):
    """A report or CSV destination could not be written."""

    code = "IO_ERROR"
