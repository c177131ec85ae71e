"""Radial efficiency scores under the four scaling regimes.

The scores come from closed forms over the ratio table rather than from a
solver: with one active unit the inner problem is one-dimensional in the
scaling factor, whose optimum sits at an interval endpoint. The oracle
module re-derives every score by brute-force interval enumeration, and the
test suite holds the two paths equal. docs/derivations.md spells out the
algebra behind each candidate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

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
    # Per peer, the smallest admitted scaling t = max(lo, 1/beta_j), which must
    # not pass hi; the reference row always qualifies, so the min has an item.
    lo, hi = delta.bounds
    value, j = min(
        (a if lo == 1 and b >= 1 else a / b, j)
        for j, (a, b) in enumerate(zip(rt.alpha, rt.beta))
        if hi is None or b >= 1
    )
    b = rt.beta[j]
    return Score(value, j, 1 if lo == 1 and b >= 1 else 1 / b)


def phi(d: Dataset, delta: Delta, o: int) -> Score:
    """Largest uniform output expansion keeping unit ``o`` feasible.

    Always finite and >= 1.
    """
    return _phi(ratio_table(d, o), delta)


def _phi(rt: RatioTable, delta: Delta) -> Score:
    # Per peer, the largest admitted scaling t = min(hi, 1/alpha_j), which must
    # not fall below lo; -j makes the lowest index win ties, as in _theta.
    lo, hi = delta.bounds
    value, neg_j = max(
        (b if hi == 1 and a <= 1 else b / a, -j)
        for j, (a, b) in enumerate(zip(rt.alpha, rt.beta))
        if lo != 1 or a <= 1
    )
    a = rt.alpha[-neg_j]
    return Score(value, -neg_j, 1 if hi == 1 and a <= 1 else 1 / a)


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
