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
``verify_dataset`` builds each unit's pairs once and reads every oracle
value off them before its checks.

Every function converts the dataset to ``fractions.Fraction`` first, so
results are exact relative to the stored values.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import chain
from typing import Callable, Iterable, Iterator

from . import response, rts
from .errors import InefficientUnitError, OutOfDomainError
from .model import Dataset, Delta, Numeric, Tolerance, validate_dataset
from .scale import UNBOUNDED, RatioValue
from .technology import find_dominating


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


_Pair = tuple[Fraction, Fraction]
_Pairs = list[_Pair]


def _require_efficient(d: Dataset, o: int) -> None:
    w = find_dominating(d, Delta.VRS, o)
    if w is not None:
        raise InefficientUnitError(
            f"unit {d.names[o]!r} is dominated by {d.names[w]!r}"
        )


def _exact_pairs(d: Dataset, o: int) -> _Pairs:
    """Each peer's exact worst input and output ratio against unit ``o``."""
    d = d.as_exact()
    xo, yo = d.unit(o)
    return [
        (
            max(v / w for v, w in zip(xj, xo)),
            min(v / w for v, w in zip(yj, yo)),
        )
        for xj, yj in zip(d.inputs, d.outputs)
    ]


def _theta_of(pairs: _Pairs, delta: Delta) -> Fraction:
    """Smallest input contraction: peer j scaled by t >= 1/beta_j uses t * alpha_j."""
    rlo, rhi = delta.bounds
    best: Fraction | None = None
    for a, b in pairs:
        lo = max(1 / b, rlo)
        if rhi is not None and lo > rhi:
            continue
        for t in (lo,) if rhi is None else (lo, rhi):
            best = t * a if best is None else min(best, t * a)
    assert best is not None  # the reference itself is always a candidate
    return best


def _phi_of(pairs: _Pairs, delta: Delta) -> Fraction:
    """Largest output expansion: peer j scaled by t <= 1/alpha_j makes t * beta_j."""
    rlo, rhi = delta.bounds
    best: Fraction | None = None
    for a, b in pairs:
        hi = 1 / a if rhi is None else min(1 / a, rhi)
        if hi < rlo:
            continue
        for t in (hi, rlo):
            best = t * b if best is None else max(best, t * b)
    assert best is not None
    return best


def oracle_theta(d: Dataset, delta: Delta, o: int) -> Fraction:
    """Smallest input contraction, by exact interval enumeration."""
    return _theta_of(_exact_pairs(d, o), delta)


def oracle_phi(d: Dataset, delta: Delta, o: int) -> Fraction:
    """Largest output expansion, by exact interval enumeration."""
    return _phi_of(_exact_pairs(d, o), delta)


def oracle_response_value(d: Dataset, o: int, alpha: Numeric) -> Fraction:
    """Largest feasible output share at input share ``alpha``, by fresh scan."""
    alpha = Fraction(alpha)
    fits = [b for a, b in _exact_pairs(d, o) if a <= alpha]
    if not fits:
        raise OutOfDomainError(f"no unit fits within {alpha!r} times the inputs")
    return max(fits)


def _curve_runs(pairs: _Pairs, *runs: Iterable[Fraction]) -> Iterator[_Pair]:
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


def _ratios(pairs: _Pairs) -> tuple[Fraction, RatioValue]:
    """Both scale ratios of an efficient unit, read at its pairs' own thresholds.

    sigma_plus is the largest secant slope ``(v - 1)/(p - 1)`` through
    (1, 1) over the thresholds p > 1, clamped at 0; sigma_minus is the
    smallest over p < 1, ``UNBOUNDED`` with none. The unit must be
    efficient: only then does its curve stay under 1 below 1, so that each
    step's extreme slope sits at the step's left end, a threshold, and no
    other point of the curve can move a ratio (docs/derivations.md).
    """
    at_own = list(_curve_runs(pairs, sorted({a for a, _ in pairs})))
    plus = max(chain([Fraction(0)], ((v - 1) / (p - 1) for p, v in at_own if p > 1)))
    minus = min(((v - 1) / (p - 1) for p, v in at_own if p < 1), default=UNBOUNDED)
    return plus, minus


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
    count = 0
    for p, v in _curve_runs(pairs, sorted({*steps, *(a for a, _ in pairs)})):
        count += 1
        if evaluate(p) != v:
            return p, count
    return None, count


def oracle_sigma_plus(
    d: Dataset, o: int, cfg: OracleConfig = OracleConfig()
) -> Fraction:
    """Supremum of secant slopes above the observed scale (0 when flat above 1).

    ``cfg`` is unused: no grid is walked, but ``perfbench/checker.py`` passes one.
    """
    _require_efficient(d, o)
    return _ratios(_exact_pairs(d, o))[0]


def oracle_sigma_minus(
    d: Dataset, o: int, cfg: OracleConfig = OracleConfig()
) -> RatioValue:
    """Infimum of secant slopes below the observed scale (``UNBOUNDED`` with none).

    ``cfg`` is unused: no grid is walked, but ``perfbench/checker.py`` passes one.
    """
    _require_efficient(d, o)
    return _ratios(_exact_pairs(d, o))[1]


def _feasible(pairs: _Pairs, system: ScalingSystem) -> bool:
    if system is ScalingSystem.RIGHT_STRICT:
        return any(max(a, 1) < b for a, b in pairs)
    if system is ScalingSystem.RIGHT_WEAK:
        return any(b > 1 and b >= a for a, b in pairs)
    if system is ScalingSystem.LEFT_WEAK:
        return any(a < 1 and a <= b for a, b in pairs)
    return any(a < 1 and a < b for a, b in pairs)


def oracle_system_feasible(d: Dataset, o: int, system: ScalingSystem) -> bool:
    """Decide a scaling-system question from exact interval endpoints."""
    return _feasible(_exact_pairs(d, o), system)


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


def _score_failures(
    d: Dataset, item: rts.RtsReport | rts.InefficientUnit
) -> Iterator[str]:
    """Bounds, regime nesting and witness feasibility of one unit's scores."""
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
    xo, yo = d.unit(o)
    for reg in Delta:
        rlo, rhi = reg.bounds
        # the witness, scaled by f, uses at most shrink * inputs and makes at
        # least grow * outputs: theta shrinks the inputs, phi grows the outputs
        for score, shrink, grow in (
            (sc.theta[reg], t[reg], 1),
            (sc.phi[reg], 1, p[reg]),
        ):
            xj, yj = d.unit(score.witness)
            f = score.delta
            if not (
                f >= rlo
                and (rhi is None or f <= rhi)
                and all(f * v <= shrink * w for v, w in zip(xj, xo))
                and all(f * v >= grow * w for v, w in zip(yj, yo))
            ):
                yield f"witness infeasible for {d.names[o]} under {reg.value}"


def _curve_check(d: Dataset, o: int, pairs: _Pairs) -> tuple[str | None, int]:
    """Unit ``o``'s response check.

    Returns the first disagreement or ``None``, and the number of points
    compared up to it.
    """
    r = response.build_response(d, o)
    thresholds = [t for t, _ in r.steps]
    values = [v for _, v in r.steps]
    start = min(pairs)[0]
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
        if not any(a > 1 for a, _ in pairs):
            yield f"{name}: globally increasing with no larger peer"
        if any(b > 1 and not a > 1 for a, b in pairs):
            yield f"{name}: output-rich peer not larger"


def verify_dataset(
    d: Dataset, tol: Tolerance = Tolerance(), cfg: OracleConfig = OracleConfig()
) -> list[CheckResult]:
    """Run the full cross-check battery on one dataset, in exact arithmetic.

    The fast side is what a report prints: one :func:`classify_all` (scores,
    scale-size flags, ratios and classes) plus each unit's response function.
    Each oracle value is read once per unit off the unit's pairs: the scores
    per regime, one curve walk for the response check, both ratios at the
    pairs' own thresholds, the scaling systems.
    The checks then compare with zero tolerance. Returns one result per named check.
    ``cfg`` is accepted, not read.
    """
    d = d.as_exact()
    efficient = [o for o in range(d.n) if find_dominating(d, Delta.VRS, o) is None]
    items = rts.classify_all(d, tol)
    reports = [o for o in efficient if isinstance(items[o], rts.RtsReport)]
    pairs = [_exact_pairs(d, o) for o in range(d.n)]
    theta = [{reg: _theta_of(pairs[o], reg) for reg in Delta} for o in range(d.n)]
    phi = [{reg: _phi_of(pairs[o], reg) for reg in Delta} for o in range(d.n)]
    walks = [_curve_check(d, o, pairs[o]) for o in range(d.n)]
    swept = {o: _ratios(pairs[o]) for o in efficient}
    results: list[CheckResult] = []

    def run(name: str, failures: list[str], count: int) -> None:
        detail = failures[0] if failures else f"{count} comparisons"
        results.append(CheckResult(name, not failures, detail))

    run(
        "radial-scores-match-enumeration",
        [
            f"{key}[{reg.value}] of {d.names[o]}: {fast!r} != {slow!r}"
            for o, item in enumerate(items)
            for reg in Delta
            for key, fast, slow in (
                ("theta", item.scores.theta[reg].value, theta[o][reg]),
                ("phi", item.scores.phi[reg].value, phi[o][reg]),
            )
            if fast != slow
        ],
        2 * len(Delta) * d.n,
    )
    run(
        "radial-score-bounds-and-witnesses",
        [bad for item in items for bad in _score_failures(d, item)],
        (1 + 2 * len(Delta)) * d.n,
    )
    run(
        "scale-size-detection-matches-enumeration",
        [
            f"scale-size flag mismatch at {d.names[o]}"
            for o, item in enumerate(items)
            if item.mpss != (theta[o][Delta.CRS] == 1)
        ],
        d.n,
    )
    run(
        "response-curve-matches-sweep",
        [bad for bad, _ in walks if bad],
        sum(count for _, count in walks),
    )

    marked = [
        f"{d.names[o]} is efficient but the fast path marks it dominated"
        for o in efficient
        if o not in reports
    ]
    for side, check, key in (
        (0, "max-incremental-ratio-matches-sweep", "sigma_plus"),
        (1, "min-decremental-ratio-matches-sweep", "sigma_minus"),
    ):
        fails = [
            f"{key} of {d.names[o]}: {fast!r} != {slow!r}"
            for o in reports
            for fast, slow in [(getattr(items[o].sigma, key), swept[o][side])]
            if fast != slow
        ]
        # a unit the fast path marks dominated has no ratios: the first check says so
        run(check, (marked if side == 0 else []) + fails, len(efficient))

    # per unit and side: the fast class, the systems' class, the swept ratio
    # and the class it points to
    classes = [
        (o, side, fast, by_system, ratio, _class(kind, ratio > 1, ratio < 1))
        for o in reports
        for side, kind, fast, by_system, ratio in zip(
            ("right", "left"),
            (rts.RightRts, rts.LeftRts),
            (items[o].one_sided.right, items[o].one_sided.left),
            _system_classes(pairs[o]),
            swept[o],
        )
    ]
    run(
        "one-sided-classes-match-interval-feasibility",
        [
            f"{side} class of {d.names[o]}: {fast} vs {want}"
            for o, side, fast, want, _, _ in classes
            if fast is not want
        ],
        2 * len(efficient),
    )
    run(
        "one-sided-classes-match-ratio-thresholds",
        [
            f"{side} class of {d.names[o]} off ratio {ratio!r}"
            for o, side, fast, _, ratio, want in classes
            if fast is not want
        ],
        2 * len(efficient),
    )
    run(
        "global-class-implications",
        [
            bad
            for item in items
            if isinstance(item, rts.RtsReport)
            for bad in _implication_failures(d, item, pairs[item.reference], tol)
        ],
        len(efficient),
    )
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
