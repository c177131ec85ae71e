"""Radial efficiency scores under the four scaling regimes.

The scores come from closed forms over the ratio table rather than from a
solver: with one active unit the inner problem is one-dimensional in the
scaling factor, whose optimum sits at an interval endpoint. Per
orientation, one pass over the table gives all four regimes, joining the
combined ones inline, with witnesses as dataset indices. The oracle module
re-derives every score by brute-force interval enumeration, and the test
suite holds the two paths equal (docs/derivations.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, repeat
from operator import ge, le, not_, truediv
from typing import Mapping

from .model import Dataset, Delta, Numeric, Orientation, RatioTable, ratio_table


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
    return _thetas(ratio_table(d, o))[delta]


def _thetas(rt: RatioTable) -> dict[Delta, Score]:
    vrs, nirs, ndrs, crs = _side(min, rt.alpha, rt.beta, ge, rt.units)
    return {Delta.VRS: vrs, Delta.CRS: crs, Delta.NIRS: nirs, Delta.NDRS: ndrs}


def phi(d: Dataset, delta: Delta, o: int) -> Score:
    """Largest uniform output expansion keeping unit ``o`` feasible.

    Always finite and >= 1.
    """
    return _phis(ratio_table(d, o))[delta]


def _phis(rt: RatioTable) -> dict[Delta, Score]:
    vrs, ndrs, nirs, crs = _side(max, rt.beta, rt.alpha, le, rt.units)
    return {Delta.VRS: vrs, Delta.CRS: crs, Delta.NIRS: nirs, Delta.NDRS: ndrs}


def radial(d: Dataset, delta: Delta, orientation: Orientation, o: int) -> Score:
    """Dispatch to :func:`theta` or :func:`phi` by orientation."""
    return (theta if orientation is Orientation.INPUT else phi)(d, delta, o)


@dataclass(frozen=True)
class EfficiencyScores:
    """Both orientations under all four regimes for one unit, in ``Delta`` order."""

    reference: int
    theta: Mapping[Delta, Score]
    phi: Mapping[Delta, Score]


def _side(pick, own, scale, fits, units) -> tuple[Score, Score, Score, Score]:
    """Scores at factor 1, scaled, combined and at any factor; row j is ``units[j]``.

    Row j's candidates are ``own[j]`` at factor 1 and ``own[j] / scale[j]``
    at the factor where it just fits; it fits at 1 when ``fits(scale[j], 1)``.
    Each score is the first extreme of its candidates: the lowest row on a tie.
    """
    ratio = list(map(truediv, own, scale))
    inside = list(map(fits, scale, repeat(1)))
    rows = list(compress(range(len(inside)), inside))
    kept = list(compress(own, inside))
    f = rows[kept.index(pick(kept))]
    kept = list(compress(ratio, inside))
    j = rows[kept.index(pick(kept))]
    k = ratio.index(pick(ratio))
    combined = fixed = Score(own[f], units[f], 1)
    if len(rows) < len(inside):
        v = pick(compress(ratio, map(not_, inside)))
        m = ratio.index(v)
        while inside[m]:  # an earlier row that fits may share the value
            m = ratio.index(v, m + 1)
        if pick(own[f], v) != own[f] or v == own[f] and m < f:
            combined = Score(v, units[m], 1 / scale[m])
    scaled = Score(ratio[j], units[j], 1 / scale[j])
    return fixed, scaled, combined, Score(ratio[k], units[k], 1 / scale[k])
