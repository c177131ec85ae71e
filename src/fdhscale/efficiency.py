"""Radial efficiency scores under the four scaling regimes.

The scores come from closed forms over the ratio table rather than from a
solver: with one active unit the inner problem is one-dimensional in the
scaling factor, whose optimum sits at an interval endpoint. The oracle
module re-derives every score by brute-force interval enumeration, and the
test suite holds the two paths equal. docs/derivations.md spells out the
algebra behind each branch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .errors import AnalysisError
from .model import (
    Dataset,
    Delta,
    Numeric,
    Orientation,
    RatioTable,
    Tolerance,
    ratio_table,
)


@dataclass(frozen=True)
class Score:
    """A radial score with the peer and scaling factor attaining it."""

    value: Numeric
    witness: int
    delta: Numeric


def theta(d: Dataset, delta: Delta, o: int) -> Score:
    """Smallest uniform input contraction keeping unit ``o`` feasible.

    Always in (0, 1]; the unit itself guarantees feasibility.
    """
    return _theta(ratio_table(d, o), delta)


def _theta(rt: RatioTable, delta: Delta) -> Score:
    best: Score | None = None
    for j, (a, b) in enumerate(zip(rt.alpha, rt.beta)):
        if delta is Delta.VRS:
            if b < 1:
                continue
            cand, scale = a, 1
        elif delta is Delta.CRS:
            cand, scale = a / b, 1 / b
        elif delta is Delta.NIRS:
            if b < 1:
                continue
            cand, scale = a / b, 1 / b
        else:  # NDRS
            if b >= 1:
                cand, scale = a, 1
            else:
                cand, scale = a / b, 1 / b
        if best is None or cand < best.value:
            best = Score(cand, j, scale)
    if best is None:  # pragma: no cover - the reference row always qualifies
        raise AnalysisError("no feasible contraction found")
    return best


def phi(d: Dataset, delta: Delta, o: int) -> Score:
    """Largest uniform output expansion keeping unit ``o`` feasible.

    Always finite and >= 1.
    """
    return _phi(ratio_table(d, o), delta)


def _phi(rt: RatioTable, delta: Delta) -> Score:
    best: Score | None = None
    for j, (a, b) in enumerate(zip(rt.alpha, rt.beta)):
        if delta is Delta.VRS:
            if a > 1:
                continue
            cand, scale = b, 1
        elif delta is Delta.CRS:
            cand, scale = b / a, 1 / a
        elif delta is Delta.NIRS:
            if a <= 1:
                cand, scale = b, 1
            else:
                cand, scale = b / a, 1 / a
        else:  # NDRS
            if a > 1:
                continue
            cand, scale = b / a, 1 / a
        if best is None or cand > best.value:
            best = Score(cand, j, scale)
    if best is None:  # pragma: no cover - the reference row always qualifies
        raise AnalysisError("no feasible expansion found")
    return best


def radial(d: Dataset, delta: Delta, orientation: Orientation, o: int) -> Score:
    """Dispatch to :func:`theta` or :func:`phi` by orientation."""
    if orientation is Orientation.INPUT:
        return theta(d, delta, o)
    return phi(d, delta, o)


@dataclass(frozen=True)
class EfficiencyScores:
    """Both orientations under all four regimes for one unit."""

    reference: int
    theta: Mapping[Delta, Score]
    phi: Mapping[Delta, Score]


def compute_scores(d: Dataset, o: int) -> EfficiencyScores:
    return _scores(ratio_table(d, o))


def _scores(rt: RatioTable) -> EfficiencyScores:
    return EfficiencyScores(
        reference=rt.reference,
        theta={reg: _theta(rt, reg) for reg in Delta},
        phi={reg: _phi(rt, reg) for reg in Delta},
    )


def is_mpss(d: Dataset, o: int, tol: Tolerance = Tolerance()) -> bool:
    """Whether ``o`` attains most productive scale size.

    True when the constant-returns contraction score is 1 within ``tol``.
    """
    return _at_mpss(theta(d, Delta.CRS, o), tol)


def _at_mpss(theta_crs: Score, tol: Tolerance) -> bool:
    return abs(theta_crs.value - 1) <= tol.eps
