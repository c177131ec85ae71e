"""Incremental and decremental productivity ratios for efficient units.

``scale_ratios`` gives both ratios of one unit with their witnesses. The
maximum incremental ratio is the best marginal gain from growing past the
observed scale: the largest (output step - 1)/(input step - 1) over peers
with an input ratio above 1 + eps, clamped at 0 (with no witness then).
The minimum decremental ratio is the mirror under shrinking, over peers
with an input ratio below 1 - eps, and the symbolic UNBOUNDED with none.
Both equal the extremal slopes of secants of the response function
through (1, 1); docs/derivations.md carries the argument, and the oracle
module confirms both at the response curve's own thresholds.
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
    pairs, floor = enumerate(zip(rt.alpha, rt.beta)), 1 + tol.eps
    best = max(
        (((b - 1) / (a - 1), -j) for j, (a, b) in pairs if a > floor),
        default=None,
    )
    if best is None or best[0] <= 0:
        return 0, None
    return best[0], -best[1]


def _sigma_minus(rt: RatioTable, tol: Tolerance) -> tuple[RatioValue, int | None]:
    pairs, ceiling = enumerate(zip(rt.alpha, rt.beta)), 1 - tol.eps
    best = min(
        (((b - 1) / (a - 1), j) for j, (a, b) in pairs if a < ceiling),
        default=None,
    )
    if best is None:
        return UNBOUNDED, None
    return best


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
    w = dominating_peer(d, rt)
    if w is not None:
        raise InefficientUnitError(
            f"unit {d.names[o]!r} is dominated by {d.names[w]!r}; "
            "scale ratios are defined for efficient units"
        )
    return _scale_ratios(rt, tol)


def _scale_ratios(rt: RatioTable, tol: Tolerance) -> ScaleRatios:
    plus, plus_witness = _sigma_plus(rt, tol)
    minus, minus_witness = _sigma_minus(rt, tol)
    return ScaleRatios(rt.reference, plus, minus, plus_witness, minus_witness)
