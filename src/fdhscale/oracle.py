"""Brute-force cross-checks in exact rational arithmetic.

Nothing here reuses the closed forms of the fast path. Scores come from
enumerating, per candidate peer, the exact interval of admissible scaling
factors and evaluating the objective at its endpoints. Scale ratios come
from sweeping secant slopes of the response curve over structural points
(every step threshold, midpoints between them) plus a dense grid, so the
grid corroborates while the structural points pin the exact extremum.
Feasibility of the strict and weak scaling systems is decided from exact
interval endpoints, never by sampling.

Each sweep evaluates the curve by merging its ascending runs of points
against the peers sorted by input ratio, O(n log n + G) for G points
instead of a rescan of all n peers per point; the fast path's dict and
bisection share no code with it. ``verify_dataset`` runs each ratio sweep
once per efficient unit.

Every function converts the dataset to ``fractions.Fraction`` first, so
results are exact relative to the stored values.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import chain
from typing import Iterable, Iterator

from .errors import InefficientUnitError, OutOfDomainError
from .model import Dataset, Delta, Numeric, Tolerance, check_index, validate_dataset
from .scale import UNBOUNDED, RatioValue
from .technology import find_dominating


@dataclass(frozen=True)
class OracleConfig:
    """Knobs for the sweep-based checks.

    ``alpha_max`` caps sweep domains (default 10x the largest input ratio
    of the reference); ``grid_steps`` points are spread across each sweep.
    """

    grid_steps: int = 10_000
    alpha_max: Numeric | None = None

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


def _rows(d: Dataset) -> tuple[list, list]:
    xs = [[Fraction(v) for v in row] for row in d.inputs]
    ys = [[Fraction(v) for v in row] for row in d.outputs]
    return xs, ys


def _require_efficient(d: Dataset, o: int) -> None:
    w = find_dominating(d, Delta.VRS, o)
    if w is not None:
        raise InefficientUnitError(
            f"unit {d.names[o]!r} is dominated by {d.names[w]!r}"
        )


def oracle_theta(d: Dataset, delta: Delta, o: int) -> Fraction:
    """Smallest input contraction, by exact interval enumeration."""
    check_index(d, o)
    xs, ys = _rows(d)
    xo, yo = xs[o], ys[o]
    rlo, rhi = delta.bounds
    best: Fraction | None = None
    for j in range(d.n):
        scale_floor = max(w / v for w, v in zip(yo, ys[j]))
        lo = max(scale_floor, Fraction(rlo))
        candidates = [lo]
        if rhi is not None:
            if lo > rhi:
                continue
            candidates.append(Fraction(rhi))
        for t in candidates:
            val = max(t * v / w for v, w in zip(xs[j], xo))
            if best is None or val < best:
                best = val
    assert best is not None  # the reference itself is always a candidate
    return best


def oracle_phi(d: Dataset, delta: Delta, o: int) -> Fraction:
    """Largest output expansion, by exact interval enumeration."""
    check_index(d, o)
    xs, ys = _rows(d)
    xo, yo = xs[o], ys[o]
    rlo, rhi = delta.bounds
    best: Fraction | None = None
    for j in range(d.n):
        scale_cap = min(w / v for w, v in zip(xo, xs[j]))
        hi = scale_cap if rhi is None else min(scale_cap, Fraction(rhi))
        lo = Fraction(rlo)
        if hi < lo:
            continue
        for t in (hi, lo):
            val = min(t * v / w for v, w in zip(ys[j], yo))
            if best is None or val > best:
                best = val
    assert best is not None
    return best


def _exact_pairs(d: Dataset, o: int) -> list[tuple[Fraction, Fraction]]:
    xs, ys = _rows(d)
    xo, yo = xs[o], ys[o]
    return [
        (
            max(v / w for v, w in zip(xs[j], xo)),
            min(v / w for v, w in zip(ys[j], yo)),
        )
        for j in range(d.n)
    ]


def oracle_response_value(d: Dataset, o: int, alpha: Numeric) -> Fraction:
    """Largest feasible output share at input share ``alpha``, by fresh scan."""
    check_index(d, o)
    alpha = Fraction(alpha)
    xs, ys = _rows(d)
    xo, yo = xs[o], ys[o]
    best: Fraction | None = None
    for j in range(d.n):
        if all(v <= alpha * w for v, w in zip(xs[j], xo)):
            val = min(v / w for v, w in zip(ys[j], yo))
            if best is None or val > best:
                best = val
    if best is None:
        raise OutOfDomainError(f"no unit fits within {alpha!r} times the inputs")
    return best


def _sweep_domain(
    pairs: list[tuple[Fraction, Fraction]], cfg: OracleConfig
) -> Fraction:
    top = max(a for a, _ in pairs)
    amax = Fraction(cfg.alpha_max) if cfg.alpha_max is not None else 10 * top
    return max(amax, Fraction(2))


def _curve_runs(
    pairs: list[tuple[Fraction, Fraction]], *runs: Iterable[Fraction]
) -> Iterator[tuple[Fraction, Fraction]]:
    """Yield ``(p, max(b for a, b in pairs if a <= p))`` for the points of all runs.

    A running maximum over the pairs sorted by ``a``: linear while the
    points ascend; a point below a threshold already passed restarts the
    merge. A point below every ``a`` raises ``ValueError``, as ``max()`` would.
    """
    ordered = sorted(pairs, key=lambda ab: ab[0])
    k, best = 0, None
    for p in chain.from_iterable(runs):
        if k and ordered[k - 1][0] > p:
            k, best = 0, None
        while k < len(ordered) and ordered[k][0] <= p:
            if best is None or ordered[k][1] > best:
                best = ordered[k][1]
            k += 1
        if best is None:
            raise ValueError(f"no pair has a <= {p!r}")
        yield p, best


def oracle_sigma_plus(
    d: Dataset, o: int, cfg: OracleConfig = OracleConfig()
) -> Fraction:
    """Supremum of secant slopes above the observed scale.

    Candidates: one slope per peer needing strictly more input, the slope
    at every step threshold above 1, at midpoints bracketing the first
    step, and across a dense grid. Returns their maximum (0 when the curve
    is flat above 1).
    """
    _require_efficient(d, o)
    pairs = _exact_pairs(d, o)
    amax = _sweep_domain(pairs, cfg)
    above = sorted({a for a, _ in pairs if 1 < a <= amax})
    step = (amax - 1) / cfg.grid_steps
    curve = _curve_runs(
        pairs,
        [(1 + a) / 2 for a in above[:1]],
        above,
        ((u + v) / 2 for u, v in zip(above, above[1:])),
        (1 + k * step for k in range(1, cfg.grid_steps + 1)),
    )
    pair_slopes = ((b - 1) / (a - 1) for a, b in pairs if a > 1)
    peak = max(chain(pair_slopes, ((v - 1) / (p - 1) for p, v in curve)))
    return peak if peak > 0 else Fraction(0)


def oracle_sigma_minus(
    d: Dataset, o: int, cfg: OracleConfig = OracleConfig()
) -> RatioValue:
    """Infimum of secant slopes below the observed scale.

    Sweeps step thresholds below 1 plus a dense grid over the curve's
    domain; symbolic infinity when the domain has nothing below 1.
    """
    _require_efficient(d, o)
    pairs = _exact_pairs(d, o)
    amin = min(a for a, _ in pairs)
    if amin >= 1:
        return UNBOUNDED

    step = (1 - amin) / cfg.grid_steps
    curve = _curve_runs(
        pairs,
        sorted({a for a, _ in pairs if a < 1}),
        (amin + k * step for k in range(cfg.grid_steps)),
    )
    return min((v - 1) / (p - 1) for p, v in curve)


def oracle_system_feasible(
    d: Dataset, o: int, system: ScalingSystem, cfg: OracleConfig = OracleConfig()
) -> bool:
    """Decide a scaling-system question from exact interval endpoints."""
    check_index(d, o)
    pairs = _exact_pairs(d, o)
    if system is ScalingSystem.RIGHT_STRICT:
        return any(max(a, 1) < b for a, b in pairs)
    if system is ScalingSystem.RIGHT_WEAK:
        return any(b > 1 and b >= a for a, b in pairs)
    if system is ScalingSystem.LEFT_WEAK:
        return any(a < 1 and a <= b for a, b in pairs)
    return any(a < 1 and a < b for a, b in pairs)


def random_dataset(seed: int, n: int, m: int, s: int) -> Dataset:
    """Reproducible dataset of small positive rationals.

    Same arguments, same dataset, on any platform. Intended for desk-scale
    exact verification (n up to around 12, m and s up to 4).
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


def verify_dataset(
    d: Dataset, tol: Tolerance = Tolerance(), cfg: OracleConfig = OracleConfig()
) -> list[CheckResult]:
    """Run the full cross-check battery on one dataset, in exact arithmetic.

    The fast side is what a report prints: one :func:`classify_all` (scores,
    scale-size flags, ratios and classes) plus each unit's response function.
    Every value is recomputed the slow way and compared with zero tolerance.
    Returns one result per named check.
    """
    from . import response as resp
    from . import rts as rts_mod

    d = d.as_exact()
    results: list[CheckResult] = []
    efficient = [o for o in range(d.n) if find_dominating(d, Delta.VRS, o) is None]
    items = rts_mod.classify_all(d, tol)
    reports = [o for o in efficient if isinstance(items[o], rts_mod.RtsReport)]

    def run(name: str, failures: list[str], count: int) -> None:
        detail = failures[0] if failures else f"{count} comparisons"
        results.append(CheckResult(name, not failures, detail))

    # closed-form scores vs interval enumeration
    fails: list[str] = []
    count = 0
    for o in range(d.n):
        sc = items[o].scores
        for reg in Delta:
            count += 2
            fast_t = sc.theta[reg].value
            slow_t = oracle_theta(d, reg, o)
            if fast_t != slow_t:
                fails.append(
                    f"theta[{reg.value}] of {d.names[o]}: {fast_t!r} != {slow_t!r}"
                )
            fast_p = sc.phi[reg].value
            slow_p = oracle_phi(d, reg, o)
            if fast_p != slow_p:
                fails.append(
                    f"phi[{reg.value}] of {d.names[o]}: {fast_p!r} != {slow_p!r}"
                )
    run("radial-scores-match-enumeration", fails, count)

    # score bounds, regime nesting, witness feasibility
    fails = []
    count = 0
    for o in range(d.n):
        xo, yo = d.unit(o)
        sc = items[o].scores
        t = {reg: sc.theta[reg].value for reg in Delta}
        p = {reg: sc.phi[reg].value for reg in Delta}
        count += 1
        if not all(0 < t[reg] <= 1 for reg in Delta) or not all(
            p[reg] >= 1 for reg in Delta
        ):
            fails.append(f"score bounds violated at {d.names[o]}")
        if not (
            t[Delta.CRS] <= t[Delta.NIRS] <= t[Delta.VRS]
            and t[Delta.CRS] <= t[Delta.NDRS] <= t[Delta.VRS]
            and p[Delta.VRS] <= p[Delta.NIRS] <= p[Delta.CRS]
            and p[Delta.VRS] <= p[Delta.NDRS] <= p[Delta.CRS]
        ):
            fails.append(f"regime nesting violated at {d.names[o]}")
        for reg in Delta:
            for score, oriented_in in ((sc.theta[reg], True), (sc.phi[reg], False)):
                count += 1
                xj, yj = d.unit(score.witness)
                f = score.delta
                rlo, rhi = reg.bounds
                ok = f >= rlo and (rhi is None or f <= rhi)
                if oriented_in:
                    ok = ok and all(
                        f * v <= score.value * w for v, w in zip(xj, xo)
                    ) and all(f * v >= w for v, w in zip(yj, yo))
                else:
                    ok = ok and all(f * v <= w for v, w in zip(xj, xo)) and all(
                        f * v >= score.value * w for v, w in zip(yj, yo)
                    )
                if not ok:
                    fails.append(
                        f"witness infeasible for {d.names[o]} under {reg.value}"
                    )
    run("radial-score-bounds-and-witnesses", fails, count)

    # most productive scale size agrees with the enumerated score
    fails = []
    for o in range(d.n):
        flag = items[o].mpss
        exact_flag = oracle_theta(d, Delta.CRS, o) == 1
        if flag != exact_flag:
            fails.append(f"scale-size flag mismatch at {d.names[o]}")
    run("scale-size-detection-matches-enumeration", fails, d.n)

    # step function vs fresh sweep
    fails = []
    count = 0
    for o in range(d.n):
        r = resp.build_response(d, o)
        thresholds = [t_ for t_, _ in r.steps]
        if thresholds != sorted(set(thresholds)) or [
            v for _, v in r.steps
        ] != sorted({v for _, v in r.steps}):
            fails.append(f"non-canonical steps at {d.names[o]}")
            continue
        pairs = _exact_pairs(d, o)
        amax = _sweep_domain(pairs, cfg)
        lo = thresholds[0]
        step = (amax - lo) / cfg.grid_steps
        curve = _curve_runs(
            pairs,
            thresholds,
            ((u + v) / 2 for u, v in zip(thresholds, thresholds[1:])),
            (lo + k * step for k in range(cfg.grid_steps + 1)),
        )
        for alpha, want in curve:
            count += 1
            if r.evaluate(alpha) != want:
                fails.append(f"curve mismatch at {d.names[o]}, alpha={alpha!r}")
                break
    run("response-curve-matches-sweep", fails, count)

    # scale ratios vs secant sweeps, one sweep per unit and side
    swept = {
        o: (oracle_sigma_plus(d, o, cfg), oracle_sigma_minus(d, o, cfg))
        for o in efficient
    }
    fails = [
        f"{d.names[o]} is efficient but the fast path marks it dominated"
        for o in efficient
        if o not in reports
    ]
    for o in reports:
        fast = items[o].sigma.sigma_plus
        slow = swept[o][0]
        if fast != slow:
            fails.append(f"sigma_plus of {d.names[o]}: {fast!r} != {slow!r}")
    run("max-incremental-ratio-matches-sweep", fails, len(efficient))
    fails = []
    for o in reports:
        fast = items[o].sigma.sigma_minus
        slow = swept[o][1]
        if fast != slow:
            fails.append(f"sigma_minus of {d.names[o]}: {fast!r} != {slow!r}")
    run("min-decremental-ratio-matches-sweep", fails, len(efficient))

    # one-sided classes vs scaling-system feasibility
    fails = []
    for o in reports:
        right = items[o].one_sided.right
        if oracle_system_feasible(d, o, ScalingSystem.RIGHT_STRICT):
            expect = rts_mod.RightRts.IRS
        elif not oracle_system_feasible(d, o, ScalingSystem.RIGHT_WEAK):
            expect = rts_mod.RightRts.DRS
        else:
            expect = rts_mod.RightRts.CRS
        if right is not expect:
            fails.append(f"right class of {d.names[o]}: {right} vs {expect}")
        left = items[o].one_sided.left
        if oracle_system_feasible(d, o, ScalingSystem.LEFT_STRICT):
            expect_l = rts_mod.LeftRts.DRS
        elif not oracle_system_feasible(d, o, ScalingSystem.LEFT_WEAK):
            expect_l = rts_mod.LeftRts.IRS
        else:
            expect_l = rts_mod.LeftRts.CRS
        if left is not expect_l:
            fails.append(f"left class of {d.names[o]}: {left} vs {expect_l}")
    run("one-sided-classes-match-interval-feasibility", fails, 2 * len(efficient))

    # one-sided classes vs ratio thresholds
    fails = []
    for o in reports:
        sp, sm = swept[o]
        right = items[o].one_sided.right
        expect = (
            rts_mod.RightRts.IRS
            if sp > 1
            else rts_mod.RightRts.DRS
            if sp < 1
            else rts_mod.RightRts.CRS
        )
        if right is not expect:
            fails.append(f"right class of {d.names[o]} off ratio {sp!r}")
        left = items[o].one_sided.left
        expect_l = (
            rts_mod.LeftRts.IRS
            if sm is UNBOUNDED or sm > 1
            else rts_mod.LeftRts.DRS
            if sm < 1
            else rts_mod.LeftRts.CRS
        )
        if left is not expect_l:
            fails.append(f"left class of {d.names[o]} off ratio {sm!r}")
    run("one-sided-classes-match-ratio-thresholds", fails, 2 * len(efficient))

    # global class implications and report self-consistency
    fails = []
    for item in items:
        if isinstance(item, rts_mod.InefficientUnit):
            continue
        o = item.reference
        bad = rts_mod.check_consistency(item, tol)
        if bad:
            fails.append(f"{d.names[o]}: {bad[0]}")
        if item.grs is rts_mod.GrsClass.IRS:
            pairs = _exact_pairs(d, o)
            growth = {j for j, (a, _) in enumerate(pairs) if a > 1}
            winners = {j for j, (_, b) in enumerate(pairs) if b > 1}
            if not growth:
                fails.append(f"{d.names[o]}: globally increasing with no larger peer")
            if not winners <= growth:
                fails.append(f"{d.names[o]}: output-rich peer not larger")
    run("global-class-implications", fails, len(efficient))

    return results


def verify_random(
    trials: int,
    seed: int = 42,
    tol: Tolerance = Tolerance(),
    cfg: OracleConfig = OracleConfig(),
) -> list[CheckResult]:
    """Run :func:`verify_dataset` over ``trials`` random datasets and merge."""

    def trial(t: int) -> Dataset:
        rng = random.Random(f"trial:{seed}:{t}")
        return random_dataset(
            seed * 100_003 + t,
            rng.randint(1, 8),
            rng.randint(1, 3),
            rng.randint(1, 3),
        )

    out = merge_checks(verify_dataset(trial(t), tol, cfg) for t in range(trials))
    for res in out:
        if res.passed:
            res.detail = f"{trials} datasets, last: {res.detail}"
    return out
