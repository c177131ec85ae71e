"""Release acceptance gate.

Each test covers one release criterion and writes one PASS/FAIL line
straight to the terminal (bypassing capture), so a plain pytest run shows
the checklist. Exact-arithmetic comparisons use zero tolerance; float
paths use the documented default epsilon.
"""

import sys
import time
from fractions import Fraction as F

import pytest

import fdhscale as f
from fdhscale import Delta, GrsClass, LeftRts, RightRts, RtsReport, StepDerivative, UNBOUNDED

from conftest import make_staircase


@pytest.fixture
def announce(capsys):
    def _announce(k: int, ok: bool, detail: str) -> None:
        with capsys.disabled():
            sys.stdout.write(f"ACCEPTANCE {k} {'PASS' if ok else 'FAIL'}: {detail}\n")
            sys.stdout.flush()
        assert ok, f"criterion {k}: {detail}"

    return _announce


def best_time(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


@pytest.fixture(scope="module")
def classified_batch(random_batch):
    return [(d, f.classify_all(d)) for d in random_batch]


def test_criterion_1_response_steps_and_derivatives(announce):
    d = make_staircase()
    o = d.index_of("B")

    def work():
        r = f.build_response(d, o)
        return r, f.one_sided_step_derivatives(r)

    r, (right, left) = work()
    ok = (
        r.steps[:3] == ((F(1, 3), F(1, 2)), (F(1), F(1)), (F(5, 3), F(5, 4)))
        and r.evaluate(F(1, 2)) == F(1, 2)
        and r.evaluate(F(99, 100)) == F(1, 2)
        and r.evaluate(F(1)) == F(1)
        and r.evaluate(F(164, 100)) == F(1)
        and right is StepDerivative.ZERO
        and left is StepDerivative.INFINITE
    )
    elapsed = best_time(work, repeats=25)
    ok = ok and elapsed < 1e-3
    announce(1, ok, f"steps, values, slopes exact; {elapsed * 1e6:.0f} us < 1 ms")


def test_criterion_2_global_class_and_growth_proportions(announce):
    d = make_staircase()
    a = d.index_of("A")
    rt = f.ratio_table(d, a)
    ok = (
        f.classify_unit(d, a).grs is GrsClass.IRS
        and rt.alpha[d.index_of("B")] == 3
        and rt.beta[d.index_of("B")] == 2
    )
    announce(2, ok, "smallest unit globally increasing; move to next unit "
                    "needs 3x input for 2x output, exact")


def test_criterion_3_full_exact_report(announce):
    d = make_staircase()

    def work():
        return f.classify_all(d)

    items = work()
    theta_crs = tuple(it.scores.theta[Delta.CRS].value for it in items)
    sp = tuple(it.sigma.sigma_plus for it in items)
    sm = tuple(it.sigma.sigma_minus for it in items)
    classes = tuple((it.one_sided.right, it.one_sided.left, it.grs) for it in items)
    mpss = tuple(it.mpss for it in items)
    ok = (
        theta_crs == (F(12, 13), F(8, 13), F(6, 13), F(1))
        and sp == (F(11, 10), F(9, 4), F(8), 0)
        and sm == (UNBOUNDED, F(3, 4), F(1, 2), F(66, 65))
        and classes
        == (
            (RightRts.IRS, LeftRts.IRS, GrsClass.IRS),
            (RightRts.IRS, LeftRts.DRS, GrsClass.IRS),
            (RightRts.IRS, LeftRts.DRS, GrsClass.IRS),
            (RightRts.DRS, LeftRts.IRS, GrsClass.CRS),
        )
        and mpss == (False, False, False, True)
    )
    elapsed = best_time(work, repeats=5)
    ok = ok and elapsed < 1e-2
    announce(3, ok, f"scores, ratios, classes, best-scale flags exact; "
                    f"{elapsed * 1e3:.2f} ms < 10 ms")


def test_criterion_4_scores_equal_enumeration_on_random_batch(random_batch, announce):
    t0 = time.perf_counter()
    mismatches = 0
    comparisons = 0
    for d in random_batch:
        for o in range(d.n):
            for delta in Delta:
                comparisons += 2
                if f.theta(d, delta, o).value != f.oracle_theta(d, delta, o):
                    mismatches += 1
                if f.phi(d, delta, o).value != f.oracle_phi(d, delta, o):
                    mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 30.0
    announce(4, ok, f"{comparisons} score comparisons over {len(random_batch)} "
                    f"datasets, {mismatches} mismatches; {elapsed:.1f} s < 30 s")


def test_criterion_5_three_way_one_sided_agreement(classified_batch, announce):
    checked = 0
    mismatches = 0
    for d, items in classified_batch:
        for item in items:
            if not isinstance(item, RtsReport):
                continue
            o = item.reference
            checked += 1
            right = item.one_sided.right
            left = item.one_sided.left

            sp = item.sigma.sigma_plus
            from_sp = (
                RightRts.IRS if sp > 1 else RightRts.DRS if sp < 1 else RightRts.CRS
            )
            sm = item.sigma.sigma_minus
            from_sm = (
                LeftRts.IRS
                if sm is UNBOUNDED or sm > 1
                else LeftRts.DRS
                if sm < 1
                else LeftRts.CRS
            )

            if f.oracle_system_feasible(d, o, f.ScalingSystem.RIGHT_STRICT):
                from_sys_r = RightRts.IRS
            elif not f.oracle_system_feasible(d, o, f.ScalingSystem.RIGHT_WEAK):
                from_sys_r = RightRts.DRS
            else:
                from_sys_r = RightRts.CRS
            if f.oracle_system_feasible(d, o, f.ScalingSystem.LEFT_STRICT):
                from_sys_l = LeftRts.DRS
            elif not f.oracle_system_feasible(d, o, f.ScalingSystem.LEFT_WEAK):
                from_sys_l = LeftRts.IRS
            else:
                from_sys_l = LeftRts.CRS

            if not (right is from_sp is from_sys_r and left is from_sm is from_sys_l):
                mismatches += 1
    ok = mismatches == 0 and checked > 0
    announce(5, ok, f"ratio-scan, ratio-threshold and feasibility classes agree "
                    f"on {checked} efficient units, {mismatches} mismatches")


def test_criterion_6_consistency_relations_hold(classified_batch, announce):
    sub_constant = f.validate_dataset(
        ["o", "small", "big"],
        [[F(2)], [F(1)], [F(3)]],
        [[F(2)], [F(3, 2)], [F(9, 2)]],
    )
    batch = list(classified_batch) + [(sub_constant, f.classify_all(sub_constant))]
    violations = 0
    scrs_units = 0
    scrs_bad = 0
    checked = 0
    for d, items in batch:
        for item in items:
            if not isinstance(item, RtsReport):
                continue
            checked += 1
            if f.check_consistency(item):
                violations += 1
            if item.grs is GrsClass.SCRS:
                scrs_units += 1
                if not (item.sigma.sigma_plus > 1 and item.sigma.sigma_minus < 1):
                    scrs_bad += 1
    ok = violations == 0 and scrs_bad == 0 and scrs_units >= 1 and checked > 0
    announce(6, ok, f"{checked} reports self-consistent, {violations} violations; "
                    f"{scrs_units} sub-constant units all straddle 1")


def test_criterion_7_increasing_units_match_the_growth_sweep(classified_batch, announce):
    cfg = f.OracleConfig(grid_steps=100)
    irs_units = 0
    bad = 0
    for d, items in classified_batch:
        for item in items:
            if not isinstance(item, RtsReport) or item.grs is not GrsClass.IRS:
                continue
            o = item.reference
            irs_units += 1
            rt = f.ratio_table(d, o)
            growth = {j for j, a in enumerate(rt.alpha) if a > 1}
            winners = {j for j, b in enumerate(rt.beta) if b > 1}
            if not growth:
                bad += 1
                continue
            if not winners <= growth:
                bad += 1
                continue
            if item.sigma.sigma_plus != f.oracle_sigma_plus(d, o, cfg):
                bad += 1
    ok = bad == 0 and irs_units > 0
    announce(7, ok, f"{irs_units} globally increasing units: growth set nonempty, "
                    f"output-rich peers inside it, ratio equals sweep exactly")


def test_criterion_8_degenerate_suites(announce):
    problems = []

    # single unit
    solo = f.random_dataset(17, 1, 2, 2)
    (item,) = f.classify_all(solo)
    if not (
        item.one_sided.right is RightRts.DRS
        and item.one_sided.left is LeftRts.IRS
        and item.grs is GrsClass.CRS
        and item.sigma.sigma_plus == 0
        and item.sigma.sigma_minus is UNBOUNDED
        and item.mpss
        and f.check_consistency(item) == []
    ):
        problems.append("single-unit dataset misclassified")

    # exact rays: every unit proportional to the same base
    for base_x, base_y in (((F(1),), (F(1),)), ((F(2), F(3)), (F(4),))):
        names = [f"R{k}" for k in range(1, 6)]
        inputs = [[k * v for v in base_x] for k in range(1, 6)]
        outputs = [[k * v for v in base_y] for k in range(1, 6)]
        ray = f.validate_dataset(names, inputs, outputs)
        items = f.classify_all(ray)
        if not all(isinstance(it, RtsReport) for it in items):
            problems.append("ray unit marked dominated")
            continue
        if not all(it.mpss and it.grs is GrsClass.CRS for it in items):
            problems.append("ray units not all at best scale")
        for k, it in enumerate(items):
            want_right = RightRts.DRS if k == len(items) - 1 else RightRts.CRS
            want_left = LeftRts.IRS if k == 0 else LeftRts.CRS
            if it.one_sided.right is not want_right or it.one_sided.left is not want_left:
                problems.append(f"ray unit {k} one-sided classes wrong")
            if f.check_consistency(it):
                problems.append(f"ray unit {k} inconsistent")

    # duplicated rows: twins classify exactly like their originals
    stair = make_staircase()
    names = list(stair.names) + [name + "2" for name in stair.names]
    inputs = [list(r) for r in stair.inputs] * 2
    outputs = [list(r) for r in stair.outputs] * 2
    doubled = f.validate_dataset(names, inputs, outputs)
    items = f.classify_all(doubled)
    if not all(isinstance(it, RtsReport) for it in items):
        problems.append("duplicate unit marked dominated")
    else:
        for k in range(stair.n):
            a, b = items[k], items[k + stair.n]
            same = (
                a.one_sided == b.one_sided
                and a.grs is b.grs
                and a.sigma.sigma_plus == b.sigma.sigma_plus
                and a.sigma.sigma_minus == b.sigma.sigma_minus
                and a.mpss == b.mpss
            )
            if not same:
                problems.append(f"twin of unit {k} classified differently")
            if f.check_consistency(a) or f.check_consistency(b):
                problems.append(f"duplicate pair {k} inconsistent")

    announce(8, not problems,
             problems[0] if problems else
             "single-unit, exact-ray and duplicated-row datasets all classify "
             "cleanly with the expected boundary classes")
