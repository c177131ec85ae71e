"""Incremental and decremental productivity ratios for efficient units.

``sigma_plus`` is the best marginal gain available from growing past the
observed scale: the largest value of (output step - 1)/(input step - 1)
over peers that require strictly more input. ``sigma_minus`` is the mirror
under shrinking: the smallest such ratio over peers using strictly less
input. Both equal the extremal slopes of secants of the response function
through the point (1, 1); docs/derivations.md carries the argument, and
the oracle module confirms both against direct sweeps of the response
curve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Union

from .model import Dataset, Numeric, RatioTable, Tolerance
from .technology import efficient_table


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


class SigmaResult(NamedTuple):
    value: RatioValue
    witness: int | None


_SUBJECT = "scale ratios"


def sigma_plus(d: Dataset, o: int, tol: Tolerance = Tolerance()) -> SigmaResult:
    """Maximum incremental ratio of efficient unit ``o``, clamped at 0.

    Peers enter only with an input ratio strictly above 1 + eps. With no
    such peer, or none improving on staying put, the value is 0 and the
    witness is ``None``.
    """
    return _sigma_plus(efficient_table(d, o, _SUBJECT), tol)


def _sigma_plus(rt: RatioTable, tol: Tolerance) -> SigmaResult:
    pairs, floor = enumerate(zip(rt.alpha, rt.beta)), 1 + tol.eps
    best = max(
        (((b - 1) / (a - 1), -j) for j, (a, b) in pairs if a > floor),
        default=None,
    )
    if best is None or best[0] <= 0:
        return SigmaResult(0, None)
    return SigmaResult(best[0], -best[1])


def sigma_minus(d: Dataset, o: int, tol: Tolerance = Tolerance()) -> SigmaResult:
    """Minimum decremental ratio of efficient unit ``o``.

    Peers enter only with an input ratio strictly below 1 - eps. With no
    such peer the reference is the smallest scale in sight and the value
    is the symbolic :data:`UNBOUNDED`.
    """
    return _sigma_minus(efficient_table(d, o, _SUBJECT), tol)


def _sigma_minus(rt: RatioTable, tol: Tolerance) -> SigmaResult:
    pairs, ceiling = enumerate(zip(rt.alpha, rt.beta)), 1 - tol.eps
    best = min(
        (((b - 1) / (a - 1), j) for j, (a, b) in pairs if a < ceiling),
        default=None,
    )
    if best is None:
        return SigmaResult(UNBOUNDED, None)
    return SigmaResult(*best)


@dataclass(frozen=True)
class ScaleRatios:
    """Both scale ratios of one efficient unit with their witnesses."""

    reference: int
    sigma_plus: RatioValue
    sigma_minus: RatioValue
    plus_witness: int | None
    minus_witness: int | None


def scale_ratios(d: Dataset, o: int, tol: Tolerance = Tolerance()) -> ScaleRatios:
    return _scale_ratios(efficient_table(d, o, _SUBJECT), tol)


def _scale_ratios(rt: RatioTable, tol: Tolerance) -> ScaleRatios:
    up = _sigma_plus(rt, tol)
    down = _sigma_minus(rt, tol)
    return ScaleRatios(
        reference=rt.reference,
        sigma_plus=up.value,
        sigma_minus=down.value,
        plus_witness=up.witness,
        minus_witness=down.witness,
    )
