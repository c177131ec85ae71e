"""Membership and dominance efficiency.

A point belongs to the technology when some observed unit, scaled by a
factor admitted by the regime, fits under the point's inputs and over its
outputs. Because exactly one unit is active at a time, every question
here reduces to intersecting a closed scaling interval per unit with the
regime's interval; who dominates whom at fixed scale comes from one sort
per column. All comparisons are exact; tolerances play no role in geometry.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import Iterator

from .errors import DimensionMismatchError
from .model import Dataset, Delta, Numeric, RatioTable, check_index


@dataclass(frozen=True)
class Point:
    """An input/output bundle to test against the technology."""

    x: tuple[Numeric, ...]
    y: tuple[Numeric, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", tuple(self.x))
        object.__setattr__(self, "y", tuple(self.y))


def _check_point(d: Dataset, p: Point) -> None:
    if len(p.x) != d.m or len(p.y) != d.s:
        raise DimensionMismatchError(
            f"point has arity ({len(p.x)},{len(p.y)}), dataset expects ({d.m},{d.s})"
        )


def _scale_interval(
    xj: tuple[Numeric, ...],
    yj: tuple[Numeric, ...],
    x_cap: tuple[Numeric, ...],
    y_floor: tuple[Numeric, ...],
    delta: Delta,
) -> tuple[Numeric, Numeric]:
    """Factors t admitted by ``delta`` with t*xj <= x_cap and t*yj >= y_floor.

    Returned as [lo, hi]; the interval is empty when lo > hi.
    """
    rlo, rhi = delta.bounds
    lo = max(rlo, max(yv / yu for yv, yu in zip(y_floor, yj)))
    hi = min(xv / xu for xv, xu in zip(x_cap, xj))
    return lo, hi if rhi is None else min(hi, rhi)


def member(d: Dataset, delta: Delta, p: Point) -> bool:
    """Whether ``p`` lies in the technology induced by ``d`` under ``delta``."""
    _check_point(d, p)
    if any(v < 0 for v in p.y):
        return False
    for xj, yj in zip(d.inputs, d.outputs):
        lo, hi = _scale_interval(xj, yj, p.x, p.y, delta)
        if lo <= hi:
            return True
    return False


def find_dominating(d: Dataset, delta: Delta, o: int) -> int | None:
    """Index of a unit witnessing that ``o`` is dominated, or ``None``.

    Unit j witnesses dominance when some admitted scaling of j weakly
    improves on ``o`` and the scaled point differs from ``o``'s data. A
    unit whose data coincides with ``o`` (a duplicate) is no witness.
    """
    check_index(d, o)
    xo, yo = d.inputs[o], d.outputs[o]
    for j, (xj, yj) in enumerate(zip(d.inputs, d.outputs)):
        lo, hi = _scale_interval(xj, yj, xo, yo, delta)
        if lo > hi:
            continue
        if lo < hi:
            # interval of scalings, at most one of which reproduces o exactly
            return j
        if any(lo * v != w for v, w in zip(xj + yj, xo + yo)):
            return j
    return None


def dominating_peer(d: Dataset, rt: RatioTable) -> int | None:
    """Lowest-index unit of the table dominating its reference at fixed scale.

    Reads variable-returns dominance off the ratio table: the unit of row j
    fits under the reference's inputs and over its outputs exactly when
    ``alpha[j] <= 1 <= beta[j]``, also in floats (docs/derivations.md,
    "One pass per unit"). As in :func:`find_dominating`, a unit whose data
    coincides with the reference's is no witness; on a table over every
    unit the two agree on every dataset.
    """
    o = rt.reference
    xo, yo = d.inputs[o], d.outputs[o]
    for u, a, b in zip(rt.units, rt.alpha, rt.beta):
        if a <= 1 <= b and u != o and (d.inputs[u] != xo or d.outputs[u] != yo):
            return u
    return None


def _dominator_sets(d: Dataset) -> list[int]:
    """Bit j of entry o is set when unit j dominates unit o at fixed scale: the
    AND over the columns of the units at least as good as o there (an input
    no larger, an output no smaller), less the AND of those equal to it there,
    its identical copies (docs/derivations.md, "Frontier first")."""
    better, same = [-1] * d.n, [-1] * d.n
    for i, col in enumerate(d.columns):
        order, seen = sorted(range(d.n), key=col.__getitem__, reverse=i >= d.m), 0
        for _, run in groupby(order, col.__getitem__):
            group = sum(1 << j for j in run)
            seen |= group
            for j in _units(group):
                better[j] &= seen
                same[j] &= group
    for j, e in enumerate(same):
        better[j] &= ~e
    return better


def _units(bits: int) -> Iterator[int]:
    while bits:  # the units of the bitset, lowest index first
        yield (bits & -bits).bit_length() - 1
        bits &= bits - 1
