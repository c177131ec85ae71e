"""Membership and dominance efficiency.

A point belongs to the technology when some observed unit, scaled by a
factor admitted by the regime, fits under the point's inputs and over its
outputs. Because exactly one unit is active at a time, every question
here reduces to intersecting a closed scaling interval per unit with the
regime's interval. All comparisons are exact; tolerances play no role in
geometry.
"""

from __future__ import annotations

from dataclasses import dataclass

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
) -> tuple[Numeric, Numeric]:
    """Scaling factors t with t*xj <= x_cap and t*yj >= y_floor, as [lo, hi]."""
    lo = max(yv / yu for yv, yu in zip(y_floor, yj))
    lo = lo if lo > 0 else 0
    hi = min(xv / xu for xv, xu in zip(x_cap, xj))
    return lo, hi


def member(d: Dataset, delta: Delta, p: Point) -> bool:
    """Whether ``p`` lies in the technology induced by ``d`` under ``delta``."""
    _check_point(d, p)
    if any(v < 0 for v in p.y):
        return False
    rlo, rhi = delta.bounds
    for j in range(d.n):
        lo, hi = _scale_interval(d.inputs[j], d.outputs[j], p.x, p.y)
        lo = max(lo, rlo)
        if rhi is not None and hi > rhi:
            hi = rhi
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
    rlo, rhi = delta.bounds
    for j in range(d.n):
        xj, yj = d.inputs[j], d.outputs[j]
        lo, hi = _scale_interval(xj, yj, xo, yo)
        lo = max(lo, rlo)
        if rhi is not None and hi > rhi:
            hi = rhi
        if lo > hi:
            continue
        if lo < hi:
            # interval of scalings, at most one of which reproduces o exactly
            return j
        t = lo
        if any(t * v != w for v, w in zip(xj, xo)) or any(
            t * v != w for v, w in zip(yj, yo)
        ):
            return j
    return None


def dominating_peer(d: Dataset, rt: RatioTable) -> int | None:
    """Lowest-index unit dominating the table's reference at fixed scale.

    Reads variable-returns dominance off the ratio table: unit j fits
    under the reference's inputs and over its outputs exactly when
    ``alpha[j] <= 1 <= beta[j]``, also in floats (docs/derivations.md,
    "One pass per unit"). As in :func:`find_dominating`, a unit whose data
    coincides with the reference's is no witness; the two agree on every
    dataset.
    """
    o = rt.reference
    xo, yo = d.inputs[o], d.outputs[o]
    for j, (a, b) in enumerate(zip(rt.alpha, rt.beta)):
        if a <= 1 <= b and (d.inputs[j] != xo or d.outputs[j] != yo):
            return j
    return None

