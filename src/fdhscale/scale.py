"""Incremental and decremental productivity ratios for efficient units.

``scale_ratios`` gives both ratios of one unit with their witnesses. The
maximum incremental ratio is the best marginal gain from growing past the
observed scale: the largest (output step - 1)/(input step - 1) over peers
with an input ratio above 1 + eps, clamped at 0 (with no witness then).
The minimum decremental ratio is the mirror under shrinking, over peers
below 1 - eps, and the symbolic UNBOUNDED with none. Both are extremal
secant slopes of the response function through (1, 1), as
docs/derivations.md argues, and the oracle checks both on that curve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .errors import InefficientUnitError
from .model import Dataset, Numeric, RatioTable, Tolerance, ratio_table
from .technology import dominating_peer


class UnboundedRatio:
    """Symbolic positive infinity for ratios with no candidates.

    Supports ordering against real numbers so classification code can
    compare uniformly, but deliberately supports no arithmetic; it must
    never flow into a computation.
    """

    _instance: "UnboundedRatio | None" = None

    def __new__(cls) -> "UnboundedRatio":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "inf"

    def __eq__(self, other: object) -> bool:
        return other is self

    def __hash__(self) -> int:
        return hash("UnboundedRatio")

    def __gt__(self, other: object) -> bool:
        return other is not self

    def __ge__(self, other: object) -> bool:
        return True

    def __lt__(self, other: object) -> bool:
        return False

    def __le__(self, other: object) -> bool:
        return other is self


UNBOUNDED = UnboundedRatio()

RatioValue = Union[Numeric, UnboundedRatio]


def _sigma_plus(rt: RatioTable, tol: Tolerance) -> tuple[RatioValue, int | None]:
    floor = 1 + tol.eps
    rows = [j for j, a in enumerate(rt.alpha) if a > floor]
    slopes = [(rt.beta[j] - 1) / (rt.alpha[j] - 1) for j in rows]
    best = max(slopes, default=0)  # the first largest, at the lowest index
    return (best, rows[slopes.index(best)]) if best > 0 else (0, None)


def _sigma_minus(rt: RatioTable, tol: Tolerance) -> tuple[RatioValue, int | None]:
    ceiling = 1 - tol.eps
    rows = [j for j, a in enumerate(rt.alpha) if a < ceiling]
    slopes = [(rt.beta[j] - 1) / (rt.alpha[j] - 1) for j in rows]
    best = min(slopes, default=UNBOUNDED)  # the first smallest, likewise
    return (best, rows[slopes.index(best)]) if rows else (UNBOUNDED, None)


@dataclass(frozen=True)
class ScaleRatios:
    """Both scale ratios of one efficient unit with their witnesses."""

    reference: int
    sigma_plus: RatioValue
    sigma_minus: RatioValue
    plus_witness: int | None
    minus_witness: int | None


def scale_ratios(d: Dataset, o: int, tol: Tolerance = Tolerance()) -> ScaleRatios:
    """Both scale ratios of unit ``o``.

    Raises:
        InefficientUnitError: some unit dominates ``o``.
    """
    rt = ratio_table(d, o)
    return _efficient_ratios(d, rt, dominating_peer(d, rt), tol)


def _efficient_ratios(
    d: Dataset, rt: RatioTable, w: int | None, tol: Tolerance
) -> ScaleRatios:
    """Both ratios off the table ``rt``, whichever units its rows are. ``w`` is the
    unit dominating the table's reference, or None; if it is a unit, the ratios
    are undefined and :class:`InefficientUnitError` is raised."""
    if w is not None:
        raise InefficientUnitError(
            f"unit {d.names[rt.reference]!r} is dominated by {d.names[w]!r}; "
            "scale ratios are defined for efficient units"
        )
    return _scale_ratios(rt, tol)


def _scale_ratios(rt: RatioTable, tol: Tolerance) -> ScaleRatios:
    """Both ratios, with witnesses as units: row j of the table is ``rt.units[j]``."""
    (plus, i), (minus, j) = _sigma_plus(rt, tol), _sigma_minus(rt, tol)
    witnesses = [None if r is None else rt.units[r] for r in (i, j)]
    return ScaleRatios(rt.reference, plus, minus, *witnesses)
