"""Brute-force cross-checks in exact rational arithmetic.

Nothing here reuses the closed forms of the fast path. Each exact value
of a unit is read off the oracle's own list of pairs: every peer's worst
input and output ratio against the unit. Scores come from enumerating, per
peer, the interval of scaling factors the pair admits, and evaluating the
objective at its endpoints. Scale ratios are the extreme secant slopes
through (1, 1) of the response curve, read at the pairs' own thresholds,
where both extremes sit (docs/derivations.md). The response check compares
the curves at the union of both threshold sets: each curve is a
right-continuous step function, constant between consecutive points of
that union, so equal values there and an equal domain start mean equal
curves. Feasibility of the strict and weak scaling systems is decided
from exact interval endpoints, never by sampling.

The curve is evaluated by merging the ascending points against the peers
sorted by input ratio, O(n log n) instead of a rescan of all n peers per
point; the fast path's dict and bisection share no code with it.
``verify_dataset`` builds each unit's pairs once, reads every oracle value
of the unit off them, sorted by input ratio once the dominator is read, and
drops them before the next unit's, so its memory grows with n, not n².

Results are exact relative to the stored values. Each entry is held as
its ``(numerator, denominator)`` ints and each ratio as an unreduced pair
of ints; every ``max``, ``min`` and comparison is decided by
cross-multiplication, with no gcd. A ``Fraction`` is formed only for a
value that is compared with the fast path or printed
(docs/derivations.md, "Exact values in integers").
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cmp_to_key
from itertools import chain
from typing import Callable, Iterable, Iterator

from . import response, rts
from .errors import InefficientUnitError, OutOfDomainError
from .model import Dataset, Delta, Numeric, RatioTable, Tolerance, check_index
from .model import validate_dataset
from .scale import UNBOUNDED, RatioValue


@dataclass(frozen=True)
class OracleConfig:
    """Oracle settings, accepted, not read.

    ``grid_steps`` once set a grid of points per unit for the curve walk.
    The walk now visits only the breakpoints of both curves, so nothing
    reads it; it is still validated, and ``perfbench/checker.py`` passes one.
    """

    grid_steps: int = 10_000

    def __post_init__(self) -> None:
        if self.grid_steps < 100:
            raise ValueError(f"grid_steps must be >= 100, got {self.grid_steps}")


class ScalingSystem(Enum):
    """Existence questions about scaled peers near the reference.

    RIGHT_* ask for a peer scaling above 1 that improves on the reference
    strictly in every coordinate (STRICT) or weakly (WEAK); LEFT_* ask the
    same below 1.
    """

    RIGHT_STRICT = "right-strict"
    RIGHT_WEAK = "right-weak"
    LEFT_WEAK = "left-weak"
    LEFT_STRICT = "left-strict"


_Q = tuple[int, int]  # a positive rational (numerator, denominator), unreduced
_Pair = tuple[_Q, _Q]
_Pairs = list[_Pair]
_Columns = tuple[list[list[_Q]], list[list[_Q]]]

# Exact order of unreduced ratios, and of pairs by their input ratio: every
# denominator is positive, so the sign of the cross product decides.
_BY_VALUE = cmp_to_key(lambda p, q: p[0] * q[1] - q[0] * p[1])
_BY_INPUT = cmp_to_key(lambda p, q: p[0][0] * q[0][1] - q[0][0] * p[0][1])


def _columns(d: Dataset) -> _Columns:
    """Every entry as its exact ``(numerator, denominator)``, a column at a time:
    the input columns, then the output columns."""
    cols = [[v.as_integer_ratio() for v in col] for col in d.columns]
    return cols[: d.m], cols[d.m :]


def _exact_pairs(cols: _Columns, o: int) -> _Pairs:
    """Each peer's exact worst input and output ratio against unit ``o``.

    Peer j's ratio in one column, ``(n_j / d_j) / (n_o / d_o)``, is the
    unreduced pair ``(n_j * d_o, d_j * n_o)``; the worst across the columns
    is picked by cross-multiplication.
    """
    ins, outs = cols
    return list(zip(_worst(ins, o, True), _worst(outs, o, False)))


def _worst(cols: list[list[_Q]], o: int, largest: bool) -> list[_Q]:
    """Per row, the largest (or smallest) ratio to row ``o`` over the columns."""
    worst: list[_Q] = []
    for col in cols:
        no, do = col[o]
        ratios = [(n * do, d * no) for n, d in col]
        if worst:
            picks = zip(ratios, worst)
            ratios = [r if (r[0] * w[1] > w[0] * r[1]) == largest else w for r, w in picks]
        worst = ratios
    return worst


def _unit_pairs(d: Dataset, o: int) -> _Pairs:
    """Unit ``o``'s pairs, for the entry points that take one unit."""
    check_index(d, o)
    return _exact_pairs(_columns(d), o)


def _dominator(d: Dataset, pairs: _Pairs, o: int) -> int | None:
    """The lowest j of ``o``'s pairs, in dataset order, with alpha_j <= 1 <= beta_j
    whose data differs from ``o``'s (``o`` itself and its copies do not), or None."""
    row = d.inputs[o], d.outputs[o]
    for j, ((an, ad), (bn, bd)) in enumerate(pairs):
        if an <= ad and bn >= bd and (d.inputs[j], d.outputs[j]) != row:
            return j
    return None


def _swept(d: Dataset, o: int) -> tuple[Fraction, RatioValue]:
    """Both scale ratios of unit ``o``, which no unit may dominate."""
    pairs = _unit_pairs(d, o)
    w = _dominator(d, pairs, o)
    if w is not None:
        raise InefficientUnitError(f"unit {d.names[o]!r} is dominated by {d.names[w]!r}")
    return _ratios(pairs)


def _theta_of(pairs: _Pairs, delta: Delta) -> Fraction:
    """Smallest input contraction: peer j scaled by t >= 1/beta_j uses t * alpha_j."""
    rlo, rhi = delta.bounds
    best: _Q | None = None
    for (an, ad), (bn, bd) in pairs:
        # max(1 / beta_j, rlo)
        lo = (bd, bn) if bd >= rlo * bn else (rlo, 1)
        if rhi is not None and lo[0] > rhi * lo[1]:
            continue
        for tn, td in (lo,) if rhi is None else (lo, (rhi, 1)):
            vn, vd = tn * an, td * ad
            if best is None or vn * best[1] < best[0] * vd:
                best = vn, vd
    assert best is not None  # the reference itself is always a candidate
    return Fraction(*best)


def _phi_of(pairs: _Pairs, delta: Delta) -> Fraction:
    """Largest output expansion: peer j scaled by t <= 1/alpha_j makes t * beta_j."""
    rlo, rhi = delta.bounds
    best: _Q | None = None
    for (an, ad), (bn, bd) in pairs:
        # min(1 / alpha_j, rhi)
        hi = (ad, an) if rhi is None or ad <= rhi * an else (rhi, 1)
        if hi[0] < rlo * hi[1]:
            continue
        for tn, td in (hi, (rlo, 1)):
            vn, vd = tn * bn, td * bd
            if best is None or vn * best[1] > best[0] * vd:
                best = vn, vd
    assert best is not None
    return Fraction(*best)


def oracle_theta(d: Dataset, delta: Delta, o: int) -> Fraction:
    """Smallest input contraction, by exact interval enumeration."""
    return _theta_of(_unit_pairs(d, o), delta)


def oracle_phi(d: Dataset, delta: Delta, o: int) -> Fraction:
    """Largest output expansion, by exact interval enumeration."""
    return _phi_of(_unit_pairs(d, o), delta)


def oracle_response_value(d: Dataset, o: int, alpha: Numeric) -> Fraction:
    """Largest feasible output share at input share ``alpha``, by fresh scan."""
    alpha = Fraction(alpha)
    pn, pd = alpha.as_integer_ratio()
    fits = [b for (an, ad), b in _unit_pairs(d, o) if an * pd <= pn * ad]
    if not fits:
        raise OutOfDomainError(f"no unit fits within {alpha!r} times the inputs")
    return Fraction(*max(fits, key=_BY_VALUE))


def _curve_runs(pairs: _Pairs, *runs: Iterable[_Q]) -> Iterator[tuple[_Q, _Q]]:
    """Yield ``(p, max(b for a, b in pairs if a <= p))`` for the points of all runs.

    A running maximum over the pairs sorted by ``a``: linear while the
    points ascend; a point below a threshold already passed restarts the
    merge. A point below every ``a`` raises ``ValueError``, as ``max()`` would.
    """
    ordered = sorted(pairs, key=_BY_INPUT)  # linear on pairs sorted already
    k, best = 0, None
    for p in chain.from_iterable(runs):
        pn, pd = p
        if k and ordered[k - 1][0][0] * pd > pn * ordered[k - 1][0][1]:
            k, best = 0, None
        while k < len(ordered) and ordered[k][0][0] * pd <= pn * ordered[k][0][1]:
            b = ordered[k][1]
            if best is None or b[0] * best[1] > best[0] * b[1]:
                best = b
            k += 1
        if best is None:
            raise ValueError(f"no pair has a <= {Fraction(pn, pd)!r}")
        yield p, best


def _ratios(pairs: _Pairs) -> tuple[Fraction, RatioValue]:
    """Both scale ratios of an efficient unit, read at its pairs' own thresholds.

    sigma_plus is the largest secant slope ``(v - 1)/(p - 1)`` through
    (1, 1) over the thresholds p > 1, clamped at 0; sigma_minus is the
    smallest over p < 1, ``UNBOUNDED`` with none. The unit must be
    efficient: only then does its curve stay under 1 below 1, so that each
    step's extreme slope sits at the step's left end, a threshold, and no
    other point of the curve can move a ratio (docs/derivations.md).
    A threshold met twice gives the same slope twice.
    """
    plus: _Q = (0, 1)
    minus: _Q | None = None
    thresholds = sorted((a for a, _ in pairs), key=_BY_VALUE)
    for (pn, pd), (vn, vd) in _curve_runs(pairs, thresholds):
        # (v - 1)/(p - 1) with a positive denominator, by the sign of p - 1
        if pn > pd:
            sn, sd = (vn - vd) * pd, vd * (pn - pd)
            if sn * plus[1] > plus[0] * sd:
                plus = sn, sd
        elif pn < pd:
            sn, sd = (vd - vn) * pd, vd * (pd - pn)
            if minus is None or sn * minus[1] < minus[0] * sd:
                minus = sn, sd
    return Fraction(*plus), UNBOUNDED if minus is None else Fraction(*minus)


def _walk(
    pairs: _Pairs, steps: list[Fraction], evaluate: Callable[[Fraction], Numeric]
) -> tuple[Fraction | None, int]:
    """Compare ``evaluate`` with the exact response curve, up to the first miss.

    The walk visits the ascending union of ``steps`` and the pairs' own
    distinct thresholds: the breakpoints of both curves. Between two
    consecutive points of that union neither curve changes, so no other
    point can differ first. Returns the first point where ``evaluate``
    differs from the curve (or ``None``) and the points compared up to it.
    """
    points = sorted(
        [*(t.as_integer_ratio() for t in steps), *(a for a, _ in pairs)], key=_BY_VALUE
    )
    count, last = 0, None
    for (pn, pd), (vn, vd) in _curve_runs(pairs, points):
        if last is not None and pn * last[1] == last[0] * pd:
            continue  # the same point again
        count, last = count + 1, (pn, pd)
        p = Fraction(pn, pd)
        gn, gd = evaluate(p).as_integer_ratio()
        if gn * vd != vn * gd:
            return p, count
    return None, count


def oracle_sigma_plus(
    d: Dataset, o: int, cfg: OracleConfig = OracleConfig()
) -> Fraction:
    """Supremum of secant slopes above the observed scale (0 when flat above 1).

    ``cfg`` is unused: no grid is walked, but ``perfbench/checker.py`` passes one.
    """
    return _swept(d, o)[0]


def oracle_sigma_minus(
    d: Dataset, o: int, cfg: OracleConfig = OracleConfig()
) -> RatioValue:
    """Infimum of secant slopes below the observed scale (``UNBOUNDED`` with none).

    ``cfg`` is unused: no grid is walked, but ``perfbench/checker.py`` passes one.
    """
    return _swept(d, o)[1]


def _feasible(pairs: _Pairs, system: ScalingSystem) -> bool:
    if system is ScalingSystem.RIGHT_STRICT:  # max(a, 1) < b
        return any(an * bd < bn * ad and bd < bn for (an, ad), (bn, bd) in pairs)
    if system is ScalingSystem.RIGHT_WEAK:  # b > 1 and b >= a
        return any(bn > bd and bn * ad >= an * bd for (an, ad), (bn, bd) in pairs)
    if system is ScalingSystem.LEFT_WEAK:  # a < 1 and a <= b
        return any(an < ad and an * bd <= bn * ad for (an, ad), (bn, bd) in pairs)
    # a < 1 and a < b
    return any(an < ad and an * bd < bn * ad for (an, ad), (bn, bd) in pairs)


def oracle_system_feasible(d: Dataset, o: int, system: ScalingSystem) -> bool:
    """Decide a scaling-system question from exact interval endpoints."""
    return _feasible(_unit_pairs(d, o), system)


def random_dataset(seed: int, n: int, m: int, s: int) -> Dataset:
    """Reproducible dataset of small positive rationals.

    Same arguments, same dataset, on any platform. Entries are ``p/q`` with
    ``p <= 12`` and ``q <= 6``, so exact ties are common. ``verify_random``
    draws n up to 8; CI verifies n = 150 and n = 200 in full.
    """
    rng = random.Random(f"{seed}:{n}:{m}:{s}")

    def value() -> Fraction:
        return Fraction(rng.randint(1, 12), rng.randint(1, 6))

    names = tuple(f"U{k + 1}" for k in range(n))
    inputs = [[value() for _ in range(m)] for _ in range(n)]
    outputs = [[value() for _ in range(s)] for _ in range(n)]
    return validate_dataset(names, inputs, outputs)


@dataclass
class CheckResult:
    """Outcome of one verification check, possibly over many datasets."""

    name: str
    passed: bool
    detail: str

    def merge(self, other: "CheckResult") -> "CheckResult":
        if not self.passed:
            return self
        if not other.passed:
            return other
        return CheckResult(self.name, True, other.detail)


def merge_checks(batches: Iterable[Iterable[CheckResult]]) -> list[CheckResult]:
    """Merge results by check name, in first-seen order; a failure wins."""
    merged: dict[str, CheckResult] = {}
    for batch in batches:
        for res in batch:
            prior = merged.get(res.name)
            merged[res.name] = res if prior is None else prior.merge(res)
    return list(merged.values())


def _class(kind: type[Enum], above: bool, below: bool) -> Enum:
    """``kind``'s IRS where the frontier rises above 1, DRS below it, else CRS."""
    return kind.IRS if above else kind.DRS if below else kind.CRS


def _system_classes(pairs: _Pairs) -> tuple[Enum, Enum]:
    """Right and left classes from the scaling systems, with no eps.

    A feasible strict system decides a side; an infeasible weak one decides
    it the other way; a feasible weak system alone means constant returns.
    The weak system is asked only when the strict one is infeasible.
    """

    right_up = _feasible(pairs, ScalingSystem.RIGHT_STRICT)
    right_down = not right_up and not _feasible(pairs, ScalingSystem.RIGHT_WEAK)
    left_down = _feasible(pairs, ScalingSystem.LEFT_STRICT)
    left_up = not left_down and not _feasible(pairs, ScalingSystem.LEFT_WEAK)
    return (
        _class(rts.RightRts, right_up, right_down),
        _class(rts.LeftRts, left_up, left_down),
    )


def _fits(
    cols: _Columns, j: int, o: int, f: Numeric, shrink: Numeric, grow: Numeric
) -> bool:
    """Whether unit ``j`` scaled by ``f`` uses at most ``shrink`` times unit ``o``'s
    inputs and makes at least ``grow`` times its outputs, by cross-multiplication."""
    (fn, fd), (sn, sd), (gn, gd) = (v.as_integer_ratio() for v in (f, shrink, grow))
    ins, outs = cols
    # f * v <= shrink * w is fn * sd * vn * wd <= sn * fd * wn * vd, and so on
    return all(
        fn * sd * vn * wd <= sn * fd * wn * vd
        for (vn, vd), (wn, wd) in ((col[j], col[o]) for col in ins)
    ) and all(
        fn * gd * vn * wd >= gn * fd * wn * vd
        for (vn, vd), (wn, wd) in ((col[j], col[o]) for col in outs)
    )


def _score_failures(
    d: Dataset, cols: _Columns, item: rts.Item, lowest: int | None
) -> Iterator[str]:
    """Bounds, regime nesting and witness feasibility of one unit's scores, and
    a dominated unit's witness against ``lowest``, the oracle's lowest-index one."""
    o, sc = item.reference, item.scores
    t = {reg: sc.theta[reg].value for reg in Delta}
    p = {reg: sc.phi[reg].value for reg in Delta}
    if not all(0 < t[reg] <= 1 and p[reg] >= 1 for reg in Delta):
        yield f"score bounds violated at {d.names[o]}"
    if not (
        t[Delta.CRS] <= t[Delta.NIRS] <= t[Delta.VRS]
        and t[Delta.CRS] <= t[Delta.NDRS] <= t[Delta.VRS]
        and p[Delta.VRS] <= p[Delta.NIRS] <= p[Delta.CRS]
        and p[Delta.VRS] <= p[Delta.NDRS] <= p[Delta.CRS]
    ):
        yield f"regime nesting violated at {d.names[o]}"
    for reg in Delta:
        rlo, rhi = reg.bounds
        # the witness, scaled by f, uses at most shrink * inputs and makes at
        # least grow * outputs: theta shrinks the inputs, phi grows the outputs
        for score, shrink, grow in (
            (sc.theta[reg], t[reg], 1),
            (sc.phi[reg], 1, p[reg]),
        ):
            check_index(d, score.witness)
            f = score.delta
            if not (
                f >= rlo
                and (rhi is None or f <= rhi)
                and _fits(cols, score.witness, o, f, shrink, grow)
            ):
                yield f"witness infeasible for {d.names[o]} under {reg.value}"
    if isinstance(item, rts.InefficientUnit) and lowest not in (None, item.witness):
        yield f"{d.names[o]} is dominated by {d.names[lowest]}, not {d.names[item.witness]}"


def _curve_check(d: Dataset, rt: RatioTable, pairs: _Pairs) -> tuple[str | None, int]:
    """The response check of the table's unit, on the steps read off the table,
    against its pairs sorted by input ratio.

    Returns the first disagreement or ``None``, and the number of points
    compared up to it.
    """
    o, r = rt.reference, response.response_from_table(rt)
    thresholds = [t for t, _ in r.steps]
    values = [v for _, v in r.steps]
    start = Fraction(*pairs[0][0])
    if thresholds != sorted(set(thresholds)) or values != sorted(set(values)):
        return f"non-canonical steps at {d.names[o]}", 0
    if r.alpha_min != start:
        return f"domain of {d.names[o]} starts at {r.alpha_min!r}, not {start!r}", 0
    miss, count = _walk(pairs, thresholds, r.evaluate)
    bad = None if miss is None else f"curve mismatch at {d.names[o]}, alpha={miss!r}"
    return bad, count


def _implication_failures(
    d: Dataset, item: rts.RtsReport, pairs: _Pairs, tol: Tolerance
) -> Iterator[str]:
    """A report's first self-consistency violation, then the growth facts of G-IRS."""
    name = d.names[item.reference]
    for bad in rts.check_consistency(item, tol)[:1]:
        yield f"{name}: {bad}"
    if item.grs is rts.GrsClass.IRS:
        if not any(an > ad for (an, ad), _ in pairs):
            yield f"{name}: globally increasing with no larger peer"
        if any(bn > bd and an <= ad for (an, ad), (bn, bd) in pairs):
            yield f"{name}: output-rich peer not larger"


def verify_dataset(
    d: Dataset, tol: Tolerance = Tolerance(), cfg: OracleConfig = OracleConfig()
) -> list[CheckResult]:
    """Run the full cross-check battery on one dataset, in exact arithmetic.

    The fast side is what a report prints, streamed one unit at a time by
    :func:`rts.classified` (scores, scale-size flags, ratios, classes,
    dominance and its witnesses), plus each unit's response function, read
    off the same table over the pool. Per unit, the oracle reads every value
    off the unit's own pairs: the lowest dominator, the scores per regime, one
    curve walk, both ratios at the pairs' own thresholds, the scaling systems
    and the implication facts. The checks then compare with zero tolerance.
    Returns one result per named check. ``cfg`` is accepted, not read.
    """
    d = d.as_exact()
    cols = _columns(d)
    scores, bounds, flags, curves, marked, plus, minus, systems, thresholds, implied = (
        [] for _ in range(10)
    )
    points = efficient = 0
    for o, (item, rt) in enumerate(rts.classified(d, tol)):  # one table, one pairs list
        name, pairs = d.names[o], _exact_pairs(cols, o)
        w = _dominator(d, pairs, o)
        efficient += w is None
        pairs.sort(key=_BY_INPUT)
        theta = {reg: _theta_of(pairs, reg) for reg in Delta}
        phi = {reg: _phi_of(pairs, reg) for reg in Delta}
        for reg in Delta:
            for key, fast, slow in (
                ("theta", item.scores.theta[reg].value, theta[reg]),
                ("phi", item.scores.phi[reg].value, phi[reg]),
            ):
                if fast != slow:
                    scores.append(f"{key}[{reg.value}] of {name}: {fast!r} != {slow!r}")
        bounds += _score_failures(d, cols, item, w)
        if item.mpss != (theta[Delta.CRS] == 1):
            flags.append(f"scale-size flag mismatch at {name}")
        bad, count = _curve_check(d, rt, pairs)
        points += count
        if bad:
            curves.append(bad)
        reported = isinstance(item, rts.RtsReport)
        if (w is None) != reported:  # the split into efficient and dominated units
            marked.append(
                f"{name} is efficient but the fast path marks it dominated"
                if w is None
                else f"{name} is dominated but the fast path reports it efficient"
            )
        if reported:
            implied += _implication_failures(d, item, pairs, tol)
        if not reported or w is not None:
            continue
        swept = _ratios(pairs)
        for key, fails, slow in zip(("sigma_plus", "sigma_minus"), (plus, minus), swept):
            fast = getattr(item.sigma, key)
            if fast != slow:
                fails.append(f"{key} of {name}: {fast!r} != {slow!r}")
        # per side: the fast class, the systems' class, and the swept ratio's class
        for side, kind, fast, by_system, ratio in zip(
            ("right", "left"),
            (rts.RightRts, rts.LeftRts),
            (item.one_sided.right, item.one_sided.left),
            _system_classes(pairs),
            swept,
        ):
            if fast is not by_system:
                systems.append(f"{side} class of {name}: {fast} vs {by_system}")
            if fast is not _class(kind, ratio > 1, ratio < 1):
                thresholds.append(f"{side} class of {name} off ratio {ratio!r}")

    results: list[CheckResult] = []
    for check, failures, count in (
        ("radial-scores-match-enumeration", scores, 2 * len(Delta) * d.n),
        ("radial-score-bounds-and-witnesses", bounds, (1 + 2 * len(Delta)) * d.n),
        ("scale-size-detection-matches-enumeration", flags, d.n),
        ("response-curve-matches-sweep", curves, points),
        # a unit the fast path marks dominated has no ratios: the first check says so
        ("max-incremental-ratio-matches-sweep", marked + plus, efficient),
        ("min-decremental-ratio-matches-sweep", minus, efficient),
        ("one-sided-classes-match-interval-feasibility", systems, 2 * efficient),
        ("one-sided-classes-match-ratio-thresholds", thresholds, 2 * efficient),
        ("global-class-implications", implied, efficient),
    ):
        detail = failures[0] if failures else f"{count} comparisons"
        results.append(CheckResult(check, not failures, detail))
    return results


def verify_random(
    trials: int,
    seed: int = 42,
    tol: Tolerance = Tolerance(),
    cfg: OracleConfig = OracleConfig(),
) -> list[CheckResult]:
    """Run :func:`verify_dataset` over ``trials`` random datasets and merge.

    ``cfg`` is accepted, not read.
    """

    def trial(t: int) -> Dataset:
        rng = random.Random(f"trial:{seed}:{t}")
        return random_dataset(
            seed * 100_003 + t,
            rng.randint(1, 8),
            rng.randint(1, 3),
            rng.randint(1, 3),
        )

    out = merge_checks(verify_dataset(trial(t), tol) for t in range(trials))
    for res in out:
        if res.passed:
            res.detail = f"{trials} datasets, last: {res.detail}"
    return out
