"""One-sided and global returns-to-scale classification.

``classify_unit`` reads every quantity of one unit off its ratio table:
scores, the scale-size flag and, for an efficient unit, both scale ratios
and the classes; ``classify_all`` does so for every unit, deciding who
dominates whom once, from each unit's dominator set, and reading each unit
off a table over the frontier pool, which ``classified`` yields too. Right
and left classes describe the frontier just above and below the observed
scale, each read off its scale ratio by one rule: above 1 + eps, below
1 - eps, or between. The global class compares the constant-returns score
with the one-sided regimes' scores. ``check_consistency`` checks a report's
stored ratios and the implications of its global class by the same rule,
without recomputing.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator, Mapping
from enum import Enum
from functools import cmp_to_key
from itertools import compress, repeat
from operator import eq

from .efficiency import EfficiencyScores, Score, _phis, _thetas
from .model import Dataset, Delta, Numeric, RatioTable, Tolerance, _table, ratio_table
from .scale import RatioValue, _scale_ratios
from .technology import _dominator_sets, _units, dominating_peer


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


class OneSidedRts(namedtuple("OneSidedRts", "right left")):
    """A unit's right and left class."""

    __slots__ = ()


def _side_class(kind: type[Enum], ratio: RatioValue, tol: Tolerance) -> Enum:
    """A side's class of ``kind``: IRS above 1 + eps, DRS below 1 - eps, else CRS."""
    if ratio > 1 + tol.eps:  # UNBOUNDED compares above every number
        return kind.IRS
    if ratio < 1 - tol.eps:
        return kind.DRS
    return kind.CRS


def _grs(theta: Mapping[Delta, Score], mpss: bool, tol: Tolerance) -> GrsClass:
    """G-IRS when the ndrs score exceeds the crs score by more than eps, G-DRS when
    the nirs score does; else G-CRS at the most productive scale size ``mpss``, or
    G-SCRS. The crs score is the lesser of the other two (docs/derivations.md,
    "Global classes"), so at most one gap is nonzero."""
    tc, tni, tnd = (theta[reg].value for reg in (Delta.CRS, Delta.NIRS, Delta.NDRS))
    if tnd - tc > tol.eps:
        return GrsClass.IRS
    if tni - tc > tol.eps:
        return GrsClass.DRS
    return GrsClass.CRS if mpss else GrsClass.SCRS


class RtsReport(namedtuple("RtsReport", "reference one_sided grs sigma mpss scores")):
    """Full classification of one efficient unit."""

    __slots__ = ()


class InefficientUnit(
    namedtuple("InefficientUnit", "reference theta_vrs witness scores mpss")
):
    """Marker for a dominated unit: its scores and a dominating unit."""

    __slots__ = ()


Item = RtsReport | InefficientUnit  # a unit's report, or its marker if dominated


def classify_unit(d: Dataset, o: int, tol: Tolerance = Tolerance()) -> Item:
    """Every quantity of unit ``o`` from one ratio table.

    Scores and the scale-size flag are computed for every unit. An
    efficient unit also gets its scale ratios and its one-sided and global
    classes; a dominated unit gets a marker naming the lowest-index unit
    that dominates it.
    """
    rt = ratio_table(d, o)
    return _classify(rt, dominating_peer(d, rt), tol)


def _classify(rt: RatioTable, w: int | None, tol: Tolerance) -> Item:
    """The marker of a unit that ``w`` dominates, or, if ``w`` is None, its report."""
    o = rt.reference
    scores = EfficiencyScores(o, _thetas(rt), _phis(rt))
    mpss = abs(scores.theta[Delta.CRS].value - 1) <= tol.eps
    if w is not None:
        return InefficientUnit(o, scores.theta[Delta.VRS].value, w, scores, mpss)
    sigma = _scale_ratios(rt, tol)
    return RtsReport(
        reference=o,
        one_sided=OneSidedRts(
            _side_class(RightRts, sigma.sigma_plus, tol),
            _side_class(LeftRts, sigma.sigma_minus, tol),
        ),
        grs=_grs(scores.theta, mpss, tol),
        sigma=sigma,
        mpss=mpss,
        scores=scores,
    )


def classify_all(d: Dataset, tol: Tolerance = Tolerance()) -> list[Item]:
    """Classify every unit, in dataset order, exactly as :func:`classify_unit` does,
    each off its table over the pool (:func:`classified`)."""
    return [item for item, _ in classified(d, tol)]


def classified(
    d: Dataset, tol: Tolerance = Tolerance()
) -> Iterator[tuple[Item, RatioTable]]:
    """Per unit, in dataset order: its item of :func:`classify_all` and the table it
    was read off (:func:`_pooled`), which holds every efficient unit's row."""
    for rt, w in _pooled(d, tol):
        yield _classify(rt, w, tol), rt


def _pooled(d: Dataset, tol: Tolerance) -> Iterator[tuple[RatioTable, int | None]]:
    """Per unit, in dataset order: its table and its lowest-index dominator (None
    for an efficient unit).

    Frontier first (docs/derivations.md): the table reads only the pool. An
    efficient unit's table reads every unit instead when a pool row could hide
    a scale ratio's candidate or tie: an input ratio in (1, 1 + eps], or both
    ratios below ``_LOW``.
    """
    dom = _dominator_sets(d)
    pool = tuple(_pool(d, dom))  # a tuple keeps each table hashable
    lowest = [next(_units(above), None) for above in dom]  # each unit's witness
    del dom  # the sets take n bits per unit; only the witnesses are needed now
    cols = [[col[j] for j in pool] for col in d.columns]  # the pool's columns
    ins, outs, floor = cols[: d.m], cols[d.m :], 1 + tol.eps
    xs, ys = d.inputs.columns, d.outputs.columns
    for o, w in enumerate(lowest):
        rt = _table(o, pool, ins, outs, [c[o] for c in xs], [c[o] for c in ys])
        if w is None:  # one comparison per float bound: an exact entry converts it
            above = [a for a in rt.alpha if a > 1]
            low = min(rt.alpha) < _LOW and min(map(max, rt.alpha, rt.beta)) < _LOW
            if above and min(above) <= floor or low:
                rt = ratio_table(d, o)
        yield rt, w


def _project(d: Dataset, rt: RatioTable, grow: Numeric) -> tuple[RatioTable, int | None]:
    """The table's dominated unit with its outputs grown by its exact variable-returns
    output score phi*, which ``grow`` rounds: the table to classify it by and None
    if no unit dominates the grown point, else ``rt`` and the first unit of the
    table that does. The table is over every unit, the one a copy of the dataset
    with the grown row would give (docs/derivations.md, "One pass per unit").

    A unit dominates the grown point when it fits (alpha <= 1), attains phi* and
    differs from it. Rounding is monotone, so each row attaining phi* holds
    ``grow``; only those rows are compared, exactly. A table over the pool decides
    as one over every unit (docs/derivations.md, "Projection decided on the pool").
    """
    o = rt.reference
    ins, outs = d.inputs.columns, d.outputs.columns
    tied = compress(range(len(rt.beta)), map(eq, rt.beta, repeat(grow)))
    rows = [rt.units[j] for j in tied if rt.alpha[j] <= 1]
    ratios = [[_quotient(c[u], c[o]) for c in outs] for u in rows]  # each row's, exactly
    low = list(map(min, ratios))  # each row's exact beta
    top = max(low)  # phi*
    for u, b, r in zip(rows, low, ratios):
        if b == top and (any(c[u] != c[o] for c in ins) or max(r) != top):
            return rt, u
    u = rows[low.index(top)]
    grown = [col[:o] + (col[u],) + col[o + 1 :] for col in outs]
    return _table(o, range(d.n), ins, grown, [c[o] for c in ins], [c[u] for c in outs]), None


# An exact quotient as an int pair (numerator, denominator), compared by cross-multiplying
_Quotient = cmp_to_key(lambda p, q: p[0] * q[1] - q[0] * p[1])


def _quotient(v: Numeric, w: Numeric):
    (a, b), (c, e) = v.as_integer_ratio(), w.as_integer_ratio()
    return _Quotient((a * e, b * c))


# A dominated peer ties a unit dominating it, on a score or a scale ratio, only
# with an input or an output within a relative 2**-50 of that unit's. On
# sigma_minus it can also tie it when both of that unit's ratios against the
# reference are below _LOW (docs/derivations.md, "Frontier first").
_TIE_SLACK = 2**40
_LOW = 2**-9


def _pool(d: Dataset, dom: list[int]) -> list[int]:
    """The efficient units and the dominated units that may tie them, in index order."""
    eff, pool = sum(1 << o for o, above in enumerate(dom) if not above), []
    for k, above in enumerate(dom):
        if all(k < e and _near(d, e, k) for e in _units(above & eff)):
            pool.append(k)
    return pool


def _near(d: Dataset, e: int, k: int) -> bool:
    ins, outs = d.inputs.columns, d.outputs.columns
    return any(c[k] - c[e] <= c[e] / _TIE_SLACK for c in ins) or any(
        c[e] - c[k] <= c[k] / _TIE_SLACK for c in outs
    )


def check_consistency(report: RtsReport, tol: Tolerance = Tolerance()) -> list[str]:
    """Relations every sound report satisfies; returns violations, [] if none.

    The one-sided classes must sit where the scale ratios point (above 1,
    below 1, or at 1), a globally increasing unit must be right-increasing,
    a globally decreasing unit left-decreasing, and the two constant-like
    global classes bound both ratios.
    """
    sp, sm = report.sigma.sigma_plus, report.sigma.sigma_minus
    right, left = report.one_sided.right, report.one_sided.left
    # each side's class as the ratio reads, by the rule of the one-sided classes
    by_plus, by_minus = _side_class(RightRts, sp, tol), _side_class(LeftRts, sm, tol)
    out: list[str] = []

    if right is not by_plus:
        out.append(
            f"right class {right.value} disagrees with incremental ratio {sp!r}"
        )
    if left is not by_minus:
        out.append(
            f"left class {left.value} disagrees with decremental ratio {sm!r}"
        )

    if report.grs is GrsClass.IRS and right is not RightRts.IRS:
        out.append("globally increasing unit is not right-increasing")
    if report.grs is GrsClass.DRS and left is not LeftRts.DRS:
        out.append("globally decreasing unit is not left-decreasing")
    if report.grs is GrsClass.CRS and (
        by_plus is RightRts.IRS or by_minus is LeftRts.DRS
    ):
        out.append(
            f"globally constant unit has ratios {sp!r}/{sm!r} off the unit point"
        )
    if report.grs is GrsClass.SCRS and not (
        by_plus is RightRts.IRS and by_minus is LeftRts.DRS
    ):
        out.append(
            f"globally sub-constant unit has ratios {sp!r}/{sm!r} not straddling 1"
        )
    return out
