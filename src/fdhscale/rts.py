"""One-sided and global returns-to-scale classification.

Right and left classes describe the frontier immediately above and below
the observed scale of an efficient unit; each is read off its scale ratio
by one rule: above 1 + eps, below 1 - eps, or in between. The global class
compares the constant-returns score with the two one-sided-regime scores.
``check_consistency`` applies the same rule to a report's stored ratios
and checks the implications the global class imposes, so a report can be
audited without recomputing it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Union

from .efficiency import EfficiencyScores, Score, _at_mpss, _scores, _theta
from .errors import UnclassifiableError
from .model import Dataset, Delta, Numeric, Tolerance, ratio_table
from .scale import RatioValue, ScaleRatios, _scale_ratios, _sigma_minus, _sigma_plus
from .technology import dominating_peer, efficient_table


class RightRts(Enum):
    """Frontier behaviour just above the observed scale."""

    IRS = "Right-IRS"
    DRS = "Right-DRS"
    CRS = "Right-CRS"


class LeftRts(Enum):
    """Frontier behaviour just below the observed scale."""

    IRS = "Left-IRS"
    DRS = "Left-DRS"
    CRS = "Left-CRS"


class GrsClass(Enum):
    """Global returns-to-scale class from score comparisons."""

    CRS = "G-CRS"
    SCRS = "G-SCRS"
    IRS = "G-IRS"
    DRS = "G-DRS"


@dataclass(frozen=True)
class OneSidedRts:
    right: RightRts
    left: LeftRts


_SUBJECT = "returns-to-scale classes"


def right_rts(d: Dataset, o: int, tol: Tolerance = Tolerance()) -> RightRts:
    """Classify the frontier immediately above unit ``o``'s scale.

    Increasing when the maximum incremental ratio exceeds 1 + eps,
    decreasing when it is below 1 - eps, constant in between.
    """
    return _right_class(_sigma_plus(efficient_table(d, o, _SUBJECT), tol).value, tol)


def _right_class(sigma_plus: RatioValue, tol: Tolerance) -> RightRts:
    if sigma_plus > 1 + tol.eps:
        return RightRts.IRS
    if sigma_plus < 1 - tol.eps:
        return RightRts.DRS
    return RightRts.CRS


def left_rts(d: Dataset, o: int, tol: Tolerance = Tolerance()) -> LeftRts:
    """Classify the frontier immediately below unit ``o``'s scale.

    Increasing when the minimum decremental ratio exceeds 1 + eps or is
    unbounded (no smaller peer), decreasing when it is below 1 - eps,
    constant in between.
    """
    return _left_class(_sigma_minus(efficient_table(d, o, _SUBJECT), tol).value, tol)


def _left_class(sigma_minus: RatioValue, tol: Tolerance) -> LeftRts:
    if sigma_minus > 1 + tol.eps:  # UNBOUNDED compares above every number
        return LeftRts.IRS
    if sigma_minus < 1 - tol.eps:
        return LeftRts.DRS
    return LeftRts.CRS


def _close(a: Numeric, b: Numeric, eps: float) -> bool:
    scale = max(1, abs(a), abs(b))
    return abs(a - b) <= eps * scale


def grs(d: Dataset, o: int, tol: Tolerance = Tolerance()) -> GrsClass:
    """Global class of efficient unit ``o`` from contraction scores.

    Raises:
        UnclassifiableError: scores match no pattern; cannot happen with
            exact arithmetic, and signals numerical trouble with floats.
    """
    rt = efficient_table(d, o, _SUBJECT)
    regimes = (Delta.CRS, Delta.NIRS, Delta.NDRS)
    return _grs({reg: _theta(rt, reg) for reg in regimes}, tol)


def _grs(theta: Mapping[Delta, Score], tol: Tolerance) -> GrsClass:
    tc = theta[Delta.CRS].value
    tni = theta[Delta.NIRS].value
    tnd = theta[Delta.NDRS].value
    eps = tol.eps
    eq_ni = _close(tc, tni, eps)
    eq_nd = _close(tc, tnd, eps)
    if eq_ni and eq_nd:
        return GrsClass.CRS if _close(tc, 1, eps) else GrsClass.SCRS
    if eq_ni and tnd > tc:
        return GrsClass.IRS
    if eq_nd and tni > tc:
        return GrsClass.DRS
    raise UnclassifiableError(
        f"scores crs={tc!r} nirs={tni!r} ndrs={tnd!r} fit no global pattern"
    )


@dataclass(frozen=True)
class RtsReport:
    """Full classification of one efficient unit."""

    reference: int
    one_sided: OneSidedRts
    grs: GrsClass
    sigma: ScaleRatios
    mpss: bool
    scores: EfficiencyScores


@dataclass(frozen=True)
class InefficientUnit:
    """Marker for a dominated unit: its scores and a dominating unit."""

    reference: int
    theta_vrs: Numeric
    witness: int
    scores: EfficiencyScores
    mpss: bool


def classify_unit(
    d: Dataset, o: int, tol: Tolerance = Tolerance()
) -> Union[RtsReport, InefficientUnit]:
    """Every quantity of unit ``o`` from one ratio table.

    Scores and the scale-size flag are computed for every unit. An
    efficient unit also gets its scale ratios and its one-sided and global
    classes; a dominated unit gets a marker naming the lowest-index unit
    that dominates it.
    """
    rt = ratio_table(d, o)
    scores = _scores(rt)
    mpss = _at_mpss(scores.theta[Delta.CRS], tol)
    w = dominating_peer(d, rt)
    if w is not None:
        return InefficientUnit(o, scores.theta[Delta.VRS].value, w, scores, mpss)
    sigma = _scale_ratios(rt, tol)
    return RtsReport(
        reference=o,
        one_sided=OneSidedRts(
            _right_class(sigma.sigma_plus, tol), _left_class(sigma.sigma_minus, tol)
        ),
        grs=_grs(scores.theta, tol),
        sigma=sigma,
        mpss=mpss,
        scores=scores,
    )


def classify_all(
    d: Dataset, tol: Tolerance = Tolerance()
) -> list[Union[RtsReport, InefficientUnit]]:
    """Classify every unit, in dataset order, with :func:`classify_unit`."""
    return [classify_unit(d, o, tol) for o in range(d.n)]


def check_consistency(report: RtsReport, tol: Tolerance = Tolerance()) -> list[str]:
    """Relations every sound report satisfies; returns violations, [] if none.

    The one-sided classes must sit where the scale ratios point (above 1,
    below 1, or at 1), a globally increasing unit must be right-increasing,
    a globally decreasing unit left-decreasing, and the two constant-like
    global classes bound both ratios.
    """
    eps = tol.eps
    sp = report.sigma.sigma_plus
    sm = report.sigma.sigma_minus
    right = report.one_sided.right
    left = report.one_sided.left
    out: list[str] = []

    if right is not _right_class(sp, tol):
        out.append(
            f"right class {right.value} disagrees with incremental ratio {sp!r}"
        )
    if left is not _left_class(sm, tol):
        out.append(
            f"left class {left.value} disagrees with decremental ratio {sm!r}"
        )

    if report.grs is GrsClass.IRS and right is not RightRts.IRS:
        out.append("globally increasing unit is not right-increasing")
    if report.grs is GrsClass.DRS and left is not LeftRts.DRS:
        out.append("globally decreasing unit is not left-decreasing")
    if report.grs is GrsClass.CRS and not (sp <= 1 + eps and sm >= 1 - eps):
        out.append(
            f"globally constant unit has ratios {sp!r}/{sm!r} off the unit point"
        )
    if report.grs is GrsClass.SCRS and not (sp > 1 + eps and sm < 1 - eps):
        out.append(
            f"globally sub-constant unit has ratios {sp!r}/{sm!r} not straddling 1"
        )
    return out
