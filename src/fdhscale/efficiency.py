"""Radial efficiency scores under the four scaling regimes.

The scores come from closed forms over the ratio table rather than from a
solver: with one active unit the inner problem is one-dimensional in the
scaling factor, whose optimum sits at an interval endpoint. Per
orientation, three reductions over the table give all four regimes. The
oracle module re-derives every score by brute-force interval enumeration,
and the test suite holds the two paths equal (docs/derivations.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, repeat
from operator import attrgetter, ge, le, not_, truediv
from typing import Mapping

from .model import (
    Dataset,
    Delta,
    Numeric,
    Orientation,
    RatioTable,
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
    return _thetas(ratio_table(d, o))[delta]


def _thetas(rt: RatioTable) -> dict[Delta, Score]:
    vrs, nirs, ndrs, crs = _side(min, rt.alpha, rt.beta, ge)
    return {Delta.VRS: vrs, Delta.CRS: crs, Delta.NIRS: nirs, Delta.NDRS: ndrs}


def phi(d: Dataset, delta: Delta, o: int) -> Score:
    """Largest uniform output expansion keeping unit ``o`` feasible.

    Always finite and >= 1.
    """
    return _phis(ratio_table(d, o))[delta]


def _phis(rt: RatioTable) -> dict[Delta, Score]:
    vrs, ndrs, nirs, crs = _side(max, rt.beta, rt.alpha, le)
    return {Delta.VRS: vrs, Delta.CRS: crs, Delta.NIRS: nirs, Delta.NDRS: ndrs}


def radial(d: Dataset, delta: Delta, orientation: Orientation, o: int) -> Score:
    """Dispatch to :func:`theta` or :func:`phi` by orientation."""
    return (theta if orientation is Orientation.INPUT else phi)(d, delta, o)


@dataclass(frozen=True)
class EfficiencyScores:
    """Both orientations under all four regimes for one unit."""

    reference: int
    theta: Mapping[Delta, Score]
    phi: Mapping[Delta, Score]


def _side(pick, own, scale, fits) -> tuple[Score, Score, Score, Score]:
    """Scores at factor 1, scaled, and each joined with the peers that miss at 1.

    Peer j's candidates are ``own[j]`` at factor 1 and ``own[j] / scale[j]``
    at the factor where it just fits; it fits at 1 when ``fits(scale[j], 1)``.
    """
    ratio = list(map(truediv, own, scale))
    inside = list(map(fits, scale, repeat(1)))
    fixed, scaled = _best(pick, own, inside), _best(pick, ratio, inside, scale)
    outside = _best(pick, ratio, list(map(not_, inside)), scale)
    return fixed, scaled, _join(pick, fixed, outside), _join(pick, scaled, outside)


def _best(pick, values, rows: list[bool], scale=None) -> Score | None:
    """The first extreme over ``rows``: the lowest index on a tie; None if no rows."""
    kept = list(compress(values, rows))
    if not kept:
        return None
    j = list(compress(range(len(rows)), rows))[kept.index(pick(kept))]
    return Score(values[j], j, 1 if scale is None else 1 / scale[j])


def _join(pick, inner: Score, outer: Score | None) -> Score:
    """The better score, a missing one skipped; a tie goes to the lower witness."""
    pair = sorted(filter(None, (inner, outer)), key=attrgetter("witness"))
    return pick(pair, key=attrgetter("value"))

