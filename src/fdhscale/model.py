"""Validated production datasets and per-unit ratio tables.

Everything downstream reduces to two vectors per reference unit: for each
row j, the worst input ratio ``alpha[j]`` (how much every input of the
reference must be inflated before the row unit's inputs fit inside) and the
worst output ratio ``beta[j]`` (how far every output of the reference can be
inflated while staying below its outputs); the table names each row's unit.
This module owns the dataset container, the scaling-regime and tolerance
types, and the ratio table.

Arithmetic is duck-typed. Datasets may hold floats (the default) or
``fractions.Fraction`` entries (exact mode); every operation in the
package runs unchanged on either, so exact cross-checks exercise the same
code as the fast path.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Sequence
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from operator import itemgetter, truediv

from .errors import (
    DuplicateNameError,
    EmptyDatasetError,
    IndexOutOfRangeError,
    NonpositiveValueError,
    RaggedRowsError,
    ValueSpreadError,
)

Numeric = int | float | Fraction


class Delta(Enum):
    """Scaling regime: which multiples of an observed unit the technology admits."""

    VRS = "vrs"  # scaling factor fixed at 1
    CRS = "crs"  # any nonnegative factor
    NIRS = "nirs"  # factor in [0, 1]
    NDRS = "ndrs"  # factor >= 1

    @property
    def bounds(self) -> tuple[int, int | None]:
        """Closed feasible interval for the scaling factor, ``None`` = unbounded."""
        return _DELTA_BOUNDS[self]


_DELTA_BOUNDS: dict[Delta, tuple[int, int | None]] = {
    Delta.VRS: (1, 1),
    Delta.CRS: (0, None),
    Delta.NIRS: (0, 1),
    Delta.NDRS: (1, None),
}


class Orientation(Enum):
    """Direction of a radial efficiency measurement."""

    INPUT = "input"
    OUTPUT = "output"


class Tolerance(namedtuple("Tolerance", "eps")):
    """Epsilon used by classification thresholds.

    Geometry (membership, dominance, scores) is computed with exact
    comparisons; only classification layers (scale ratios, returns-to-scale
    classes, score-equality tests) consult this value.
    """

    __slots__ = ()

    def __new__(cls, eps: float = 1e-9) -> Tolerance:
        if not 0.0 < eps < 1e-3:
            raise ValueError(f"eps must lie in (0, 1e-3), got {eps!r}")
        return super().__new__(cls, eps)

    @classmethod
    def _make(cls, fields) -> Tolerance:  # so that _replace checks too
        return cls(*fields)


class Dataset(namedtuple("Dataset", "names inputs outputs")):
    """Immutable table of named units with positive inputs and outputs: a tuple of
    names, one of input rows and one of output rows.

    Construct through :func:`validate_dataset`; the raw constructor performs
    no checking. No ``__slots__``: ``columns`` is cached in the instance dict.
    """

    @property
    def n(self) -> int:
        return len(self.names)

    @property
    def m(self) -> int:
        return len(self.inputs[0])

    @property
    def s(self) -> int:
        return len(self.outputs[0])

    @cached_property
    def columns(self) -> tuple[tuple[Numeric, ...], ...]:
        """The m input columns, then the s output columns, built once from the rows."""
        rows = (self.inputs, self.outputs)  # a transpose by zip makes an iterator per row
        return tuple(tuple(map(itemgetter(k), r)) for r in rows for k in range(len(r[0])))

    def unit(self, o: int) -> tuple[tuple[Numeric, ...], tuple[Numeric, ...]]:
        """Input and output vectors of unit ``o``."""
        check_index(self, o)
        return self.inputs[o], self.outputs[o]

    def index_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise IndexOutOfRangeError(f"no unit named {name!r}") from None

    def as_exact(self) -> "Dataset":
        """Copy with every entry converted to a Fraction; exact data is shared."""
        if all(type(v) is Fraction for row in self.inputs + self.outputs for v in row):
            return self
        return Dataset(
            self.names,
            tuple(tuple(Fraction(v) for v in row) for row in self.inputs),
            tuple(tuple(Fraction(v) for v in row) for row in self.outputs),
        )

    def as_float(self) -> "Dataset":
        """Copy with every entry converted to a double, validated like parsed data.

        Raises:
            ValueSpreadError: a column's ratios leave the double range.
        """
        return validate_dataset(
            self.names,
            [[float(v) for v in row] for row in self.inputs],
            [[float(v) for v in row] for row in self.outputs],
        )


def check_index(d: Dataset, o: int) -> None:
    if not isinstance(o, int) or not 0 <= o < d.n:
        raise IndexOutOfRangeError(f"unit index {o!r} outside 0..{d.n - 1}")


def _positive_finite(v: Numeric) -> bool:
    if isinstance(v, float) and not math.isfinite(v):
        return False
    try:
        return v > 0
    except TypeError:
        return False


def _valid_columns(cols: Sequence[Sequence[Numeric]]) -> bool:
    """True when each column is all floats (finite sum) or all Fractions, with a
    positive minimum; else the row loop judges."""
    for col in cols:
        kinds = set(map(type, col))
        finite = kinds == {Fraction} or (kinds == {float} and math.isfinite(sum(col)))
        if not (finite and min(col) > 0):
            return False
    return True


# Every quantity the analysis computes is a ratio of two entries of one
# column, or a product or quotient of two such ratios. A column whose largest
# entry is at most 2**511 times its smallest keeps all of them within the
# normal double range.
_FLOAT_SPREAD = 2**511


def validate_dataset(
    names: Sequence[str],
    inputs: Sequence[Sequence[Numeric]],
    outputs: Sequence[Sequence[Numeric]],
    columns: Sequence[str] | None = None,
) -> Dataset:
    """Check and freeze a parsed table.

    ``columns`` gives one name per input then output column, for error
    messages (default ``in_1, ..., out_1, ...``).

    Raises:
        EmptyDatasetError: no rows, or a unit with no inputs or no outputs.
        RaggedRowsError: row counts or row lengths disagree.
        DuplicateNameError: repeated unit name.
        NonpositiveValueError: an entry is not a positive finite number.
        ValueSpreadError: a column that is not all exact rationals has
            entries more than 2**511 apart in ratio.
    """
    names = tuple(map(str, names))
    rows_x = tuple(map(tuple, inputs))
    rows_y = tuple(map(tuple, outputs))
    if len(names) == 0:
        raise EmptyDatasetError("dataset has no units")
    if len(rows_x) != len(names) or len(rows_y) != len(names):
        raise RaggedRowsError(
            f"{len(names)} names but {len(rows_x)} input rows and {len(rows_y)} output rows"
        )
    m, s = len(rows_x[0]), len(rows_y[0])
    if m == 0:
        raise EmptyDatasetError("units must consume at least one input")
    if s == 0:
        raise EmptyDatasetError("units must produce at least one output")
    d = Dataset(names, rows_x, rows_y)
    even = set(map(len, rows_x)) == {m} and set(map(len, rows_y)) == {s}
    if not (even and _valid_columns(d.columns)):
        for k, (rx, ry) in enumerate(zip(rows_x, rows_y)):
            if len(rx) != m or len(ry) != s:
                raise RaggedRowsError(f"row {k} ({names[k]!r}) has inconsistent arity")
            for v in (*rx, *ry):
                if not _positive_finite(v):
                    raise NonpositiveValueError(
                        f"unit {names[k]!r} has non-positive entry {v!r}"
                    )
    if columns is None:
        columns = [f"in_{k + 1}" for k in range(m)] + [f"out_{k + 1}" for k in range(s)]
    if len(columns) != m + s:
        raise ValueError(f"{len(columns)} column names for {m + s} columns")
    for label, col in zip(columns, d.columns):
        if all(isinstance(v, Fraction) for v in col):
            continue  # exact arithmetic cannot overflow
        lo, hi = min(col), max(col)
        if Fraction(hi) > _FLOAT_SPREAD * Fraction(lo):
            raise ValueSpreadError(
                f"column {label!r} spans {lo!r} to {hi!r}; its ratios leave the "
                "double range (largest/smallest must be at most 2**511)"
            )
    if len(set(names)) < len(names):  # then name the first repeat
        seen: set[str] = set()
        for name in names:
            if name in seen:
                raise DuplicateNameError(f"duplicate unit name {name!r}")
            seen.add(name)
    return d


class RatioTable(namedtuple("RatioTable", "reference units alpha beta")):
    """Worst input and output ratios of some units against one reference.

    Row j is unit ``units[j]``, in ascending order: every unit for
    :func:`ratio_table`. ``alpha[j]`` is the max over input dimensions of
    ``x[u]/x[o]``, ``beta[j]`` the min over output dimensions of ``y[u]/y[o]``,
    for ``u = units[j]``. Both are 1 at the reference itself.
    """

    __slots__ = ()


def ratio_table(d: Dataset, o: int) -> RatioTable:
    """Ratio table of dataset ``d`` against reference unit ``o``, over every unit."""
    return _table(o, range(d.n), d.columns[: d.m], d.columns[d.m :], *d.unit(o))


def _table(o: int, units: Sequence[int], in_cols, out_cols, xo, yo) -> RatioTable:
    """Table over ``units`` of the columns ``in_cols``/``out_cols`` against ``xo``/``yo``.

    The quotients of the first column, then each later column's quotients
    folded in row by row: one replaces the row's worst only when strictly
    worse, so a tie keeps the earlier column's, as ``max`` and ``min`` do.
    """
    ins, outs = zip(in_cols, xo), zip(out_cols, yo)
    c, r = next(ins)
    alpha = list(map(truediv, c, repeat(r)))
    for c, r in ins:
        alpha = [a if a >= b else b for a, b in zip(alpha, map(truediv, c, repeat(r)))]
    c, r = next(outs)
    beta = list(map(truediv, c, repeat(r)))
    for c, r in outs:
        beta = [a if a <= b else b for a, b in zip(beta, map(truediv, c, repeat(r)))]
    return RatioTable(o, units, tuple(alpha), tuple(beta))
