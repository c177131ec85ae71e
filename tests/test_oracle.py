import dataclasses
import hashlib
from fractions import Fraction as F

import pytest

import fdhscale as f
from fdhscale import Delta, OracleConfig, ScalingSystem, UNBOUNDED
from fdhscale import efficiency, oracle, response, rts, scale

from conftest import fraction_pairs, make_staircase, with_dominated


FAST_CFG = OracleConfig(grid_steps=100)


class TestScoreOracle:
    def test_matches_closed_forms_on_staircase(self, stair):
        for o in range(stair.n):
            for delta in Delta:
                assert f.oracle_theta(stair, delta, o) == f.theta(stair, delta, o).value
                assert f.oracle_phi(stair, delta, o) == f.phi(stair, delta, o).value

    def test_matches_closed_forms_on_dominated_data(self):
        d = with_dominated("E", x=(4,), y=(4,))
        for o in range(d.n):
            for delta in Delta:
                assert f.oracle_theta(d, delta, o) == f.theta(d, delta, o).value
                assert f.oracle_phi(d, delta, o) == f.phi(d, delta, o).value

    def test_returns_exact_fractions_from_float_data(self, stair_float):
        v = f.oracle_theta(stair_float, Delta.CRS, 1)
        assert isinstance(v, F) and v == F(8, 13)

    def test_matches_closed_forms_on_random_data(self):
        for seed in range(30):
            d = f.random_dataset(seed, 6, 2, 2)
            for o in range(d.n):
                for delta in Delta:
                    assert (
                        f.oracle_theta(d, delta, o) == f.theta(d, delta, o).value
                    ), (seed, o, delta)
                    assert (
                        f.oracle_phi(d, delta, o) == f.phi(d, delta, o).value
                    ), (seed, o, delta)


class TestResponseOracle:
    def test_fresh_scan_values(self, stair):
        assert f.oracle_response_value(stair, 1, F(1, 3)) == F(1, 2)
        assert f.oracle_response_value(stair, 1, F(1)) == F(1)
        assert f.oracle_response_value(stair, 1, F(7)) == F(13, 4)

    def test_below_domain_raises(self, stair):
        with pytest.raises(f.OutOfDomainError):
            f.oracle_response_value(stair, 1, F(1, 4))


class TestRatioOracle:
    def test_incremental_staircase_values(self, stair):
        want = [F(11, 10), F(9, 4), F(8), F(0)]
        got = [f.oracle_sigma_plus(stair, o, FAST_CFG) for o in range(stair.n)]
        assert got == want

    def test_decremental_staircase_values(self, stair):
        want = [UNBOUNDED, F(3, 4), F(1, 2), F(66, 65)]
        got = [f.oracle_sigma_minus(stair, o, FAST_CFG) for o in range(stair.n)]
        assert got == want

    def test_agrees_with_pair_formula_on_random_data(self):
        for seed in range(25):
            d = f.random_dataset(1000 + seed, 5, 2, 2)
            for o in range(d.n):
                if f.find_dominating(d, Delta.VRS, o) is not None:
                    continue
                ratios = f.scale_ratios(d, o)
                assert ratios.sigma_plus == f.oracle_sigma_plus(d, o, FAST_CFG)
                assert ratios.sigma_minus == f.oracle_sigma_minus(d, o, FAST_CFG)

    def test_walk_ratios_ignore_the_step_list_and_the_compared_values(self, stair):
        # D's smallest slope below 1 sits at its first threshold, 1/6; A's
        # largest above 1 sits at 6: both are read at the pairs' thresholds
        d_pairs, a_pairs = oracle._unit_pairs(stair, 3), oracle._unit_pairs(stair, 0)
        assert oracle._ratios(d_pairs) == (F(0), F(66, 65))
        assert oracle._ratios(a_pairs) == (F(11, 10), UNBOUNDED)
        # a wrong curve to compare with is reported at its first point
        steps = [F(1, 6), F(1, 2), F(5, 6), F(1)]
        assert oracle._walk(d_pairs, steps, lambda p: F(1)) == (F(1, 6), 1)

    def test_grid_starts_at_the_smallest_input_ratio(self, stair):
        # a step list that starts at 1 still has D's curve compared from 1/6
        # on: the walk visits the pairs' own thresholds, and 1/6 comes first
        curve = response.build_response(stair, 3).evaluate
        got = oracle._walk(
            oracle._unit_pairs(stair, 3),
            [F(1)],
            lambda p: curve(p) if p >= F(1, 2) else F(0),
        )
        assert got == (F(1, 6), 1)

    def test_no_point_of_the_curve_check_moves_a_ratio(self):
        # the slope at any point of the curve ties or loses to the threshold
        # ratios; this test keeps its own denser points (fast steps, their
        # midpoints, a 100-step grid) as a stronger check than the walk needs
        above = below = 0
        for seed in range(40):
            d = f.random_dataset(2000 + seed, 5 + seed % 4, 2, 2)
            for o in range(d.n):
                if f.find_dominating(d, Delta.VRS, o) is not None:
                    continue
                pairs = oracle._unit_pairs(d, o)
                plus, minus = oracle._ratios(pairs)
                steps = [t for t, _ in response.build_response(d, o).steps]
                exact = fraction_pairs(pairs)
                lo, hi = min(exact)[0], max(10 * max(exact)[0], F(2))
                grid = [lo + (hi - lo) * k / 100 for k in range(101)]
                mids = [(u + v) / 2 for u, v in zip(steps, steps[1:])]
                runs = ([q.as_integer_ratio() for q in run] for run in (steps, mids, grid))
                for p, v in fraction_pairs(oracle._curve_runs(pairs, *runs)):
                    if p > 1:
                        above += 1
                        assert (v - 1) / (p - 1) <= plus, (seed, o, p)
                    elif p < 1:
                        below += 1
                        assert (v - 1) / (p - 1) >= minus, (seed, o, p)
        assert above and below

    def test_dominated_unit_rejected(self):
        d = with_dominated("E", x=(4,), y=(4,))
        with pytest.raises(f.InefficientUnitError):
            f.oracle_sigma_plus(d, 4, FAST_CFG)
        with pytest.raises(f.InefficientUnitError):
            f.oracle_sigma_minus(d, 4, FAST_CFG)


class TestSystemOracle:
    def test_staircase_feasibility_table(self, stair):
        def row(o):
            return tuple(
                f.oracle_system_feasible(stair, o, system) for system in ScalingSystem
            )

        # columns: right-strict, right-weak, left-weak, left-strict
        assert row(0) == (True, True, False, False)  # A
        assert row(1) == (True, True, True, True)  # B
        assert row(3) == (False, False, False, False)  # D

    def test_ray_has_weak_but_not_strict(self):
        d = f.validate_dataset(["lo", "hi"], [[1], [2]], [[1], [2]])
        assert not f.oracle_system_feasible(d, 0, ScalingSystem.RIGHT_STRICT)
        assert f.oracle_system_feasible(d, 0, ScalingSystem.RIGHT_WEAK)
        assert not f.oracle_system_feasible(d, 1, ScalingSystem.LEFT_STRICT)
        assert f.oracle_system_feasible(d, 1, ScalingSystem.LEFT_WEAK)


class TestRandomDataset:
    def test_reproducible(self):
        a = f.random_dataset(5, 4, 2, 2)
        b = f.random_dataset(5, 4, 2, 2)
        assert a == b

    def test_different_seeds_differ(self):
        assert f.random_dataset(5, 4, 2, 2) != f.random_dataset(6, 4, 2, 2)

    def test_shapes_names_and_positivity(self):
        d = f.random_dataset(0, 7, 3, 2)
        assert d.n == 7 and d.m == 3 and d.s == 2
        assert d.names == tuple(f"U{k}" for k in range(1, 8))
        assert all(isinstance(v, F) and v > 0 for row in d.inputs for v in row)
        assert all(isinstance(v, F) and v > 0 for row in d.outputs for v in row)

    def test_known_draws_are_stable(self):
        # pins the generator output so seeds stay portable across releases
        d = f.random_dataset(0, 1, 1, 1)
        assert d.inputs == ((F(3, 5),),) and d.outputs == ((F(12),),)
        d2 = f.random_dataset(3, 2, 2, 1)
        assert d2.inputs == ((F(11, 6), F(11, 3)), (F(1, 3), F(9)))
        assert d2.outputs == ((F(4, 3),), (F(9, 5),))


class TestVerification:
    def test_staircase_passes_every_check(self, stair):
        results = f.verify_dataset(stair, cfg=FAST_CFG)
        assert [r.passed for r in results] == [True] * len(results)
        assert {r.name for r in results} == {
            "radial-scores-match-enumeration",
            "radial-score-bounds-and-witnesses",
            "scale-size-detection-matches-enumeration",
            "response-curve-matches-sweep",
            "max-incremental-ratio-matches-sweep",
            "min-decremental-ratio-matches-sweep",
            "one-sided-classes-match-interval-feasibility",
            "one-sided-classes-match-ratio-thresholds",
            "global-class-implications",
        }

    def test_constant_returns_on_a_ray_pass(self):
        # on an exact ray the lower unit is Right-CRS and the upper Left-CRS,
        # the classes that need the weak systems and a ratio of exactly 1
        d = f.validate_dataset(["lo", "hi"], [[1], [2]], [[1], [2]])
        assert rts.classify_unit(d, 0).one_sided.right is rts.RightRts.CRS
        assert rts.classify_unit(d, 1).one_sided.left is rts.LeftRts.CRS
        assert all(r.passed for r in f.verify_dataset(d, cfg=FAST_CFG))

    def test_dominated_data_passes(self):
        d = with_dominated("E", x=(4,), y=(4,))
        assert all(r.passed for r in f.verify_dataset(d, cfg=FAST_CFG))

    def test_float_input_is_verified_in_exact_mode(self, stair_float):
        assert all(r.passed for r in f.verify_dataset(stair_float, cfg=FAST_CFG))

    @pytest.mark.parametrize("d", [make_staircase(), with_dominated()])
    def test_builds_each_units_pairs_once(self, monkeypatch, d):
        right, calls = oracle._exact_pairs, []
        monkeypatch.setattr(
            oracle, "_exact_pairs", lambda d, o: calls.append(o) or right(d, o)
        )
        f.verify_dataset(d, cfg=FAST_CFG)
        assert sorted(calls) == list(range(d.n))

    def test_random_batch_passes(self):
        results = f.verify_random(4, seed=7, cfg=FAST_CFG)
        assert all(r.passed for r in results)
        assert all("datasets" in r.detail for r in results)

    def test_scores_out_of_regime_order_fail_the_nesting_check(self, stair):
        # B's crs score raised to 1, above its nirs score 8/13; a larger input
        # bound keeps every witness feasible and every score in bounds
        report = f.classify_all(stair)[1]
        theta = dict(report.scores.theta)
        theta[Delta.CRS] = dataclasses.replace(theta[Delta.CRS], value=F(1))
        broken = dataclasses.replace(
            report, scores=dataclasses.replace(report.scores, theta=theta)
        )
        cols = oracle._columns(stair)
        assert list(oracle._score_failures(stair, cols, report, None)) == []
        assert list(oracle._score_failures(stair, cols, broken, None)) == [
            "regime nesting violated at B"
        ]

    def test_output_rich_peer_that_is_no_larger_fails_an_increasing_unit(self):
        # A's sound G-IRS report read against E's pairs, where B uses less
        # input (3 against 4) and makes more output (4 against 3)
        d = with_dominated("E", x=(4,), y=(3,))
        report = f.classify_all(d)[0]
        assert report.grs is f.GrsClass.IRS and f.check_consistency(report) == []
        broken = dataclasses.replace(report, reference=4)
        pairs = oracle._unit_pairs(d, 4)
        assert list(oracle._implication_failures(d, broken, pairs, f.Tolerance())) == [
            "E: output-rich peer not larger"
        ]

    def test_merge_keeps_first_failure(self):
        good = f.CheckResult("x", True, "ok")
        bad = f.CheckResult("x", False, "boom")
        assert good.merge(bad) is bad
        assert bad.merge(good) is bad
        assert good.merge(f.CheckResult("x", True, "ok2")).detail == "ok2"


TINY = F(1, 10**9)


def _nudge_sigma(r):
    value, witness = r
    return r if value is UNBOUNDED else (value + TINY, witness)


def _nudge_last_step(r):
    t, v = r.steps[-1]
    return dataclasses.replace(r, steps=r.steps[:-1] + ((t, v + TINY),))


def _d_steps(change):
    """Change the step list of D, whose steps below 1 sit at 1/6, 1/2 and 5/6."""

    def faulty(r):
        return r if r.reference != 3 else dataclasses.replace(r, steps=change(r.steps))

    return faulty


def _nudge_score(sc):
    return dataclasses.replace(sc, value=sc.value + TINY)


def _nudge_side(side_pick):
    """+TINY on every score of the orientation ``_side`` reduces with ``side_pick``."""

    def plant(right):
        def faulty(pick, *args):
            scores = right(pick, *args)
            return tuple(map(_nudge_score, scores)) if pick is side_pick else scores

        return faulty

    return plant


def _drop_outside(right):
    """The combined regimes keep the inner term: the peers that miss at 1 drop out.

    ``_side`` returns the scores at factor 1, scaled, combined and at any
    factor; the last two become the first two.
    """

    def faulty(*args):
        fixed, scaled, _, _ = right(*args)
        return fixed, scaled, fixed, scaled

    return faulty


def _nudge_d_alpha_of_a(rt):
    if rt.reference != 0:
        return rt
    alpha = rt.alpha[:3] + (rt.alpha[3] + TINY,) + rt.alpha[4:]
    return dataclasses.replace(rt, alpha=alpha)


def _nudge_d_beta_of_a(pairs):
    """D's beta in unit A's pairs, the one list whose first pair, A's own, is (1, 1).

    Each ratio is an unreduced ``(numerator, denominator)`` pair of ints.
    """
    if fraction_pairs(pairs[:1]) != [(1, 1)]:
        return pairs
    a, (bn, bd) = pairs[3]
    tn, td = TINY.as_integer_ratio()
    return pairs[:3] + [(a, (bn * td + tn * bd, bd * td))] + pairs[4:]


def _replace_fields(unit, **changes):
    """Wrap ``rts.classified`` to change the named fields of ``unit``'s record."""

    def plant(monkeypatch):
        right = rts.classified

        def faulty(d, tol):
            for item, rt in right(d, tol):
                if item.reference == unit:
                    new = {key: fix(getattr(item, key)) for key, fix in changes.items()}
                    item = dataclasses.replace(item, **new)
                yield item, rt

        monkeypatch.setattr(rts, "classified", faulty)

    return plant


def _flip_right(sided):
    return dataclasses.replace(sided, right=rts.RightRts.DRS)


def _right_irs(sided):
    return dataclasses.replace(sided, right=rts.RightRts.IRS)


def _flip_left(sided):
    return dataclasses.replace(sided, left=rts.LeftRts.DRS)


def _theta_vrs_witness_at_d(scores):
    theta = dict(scores.theta)
    theta[Delta.VRS] = dataclasses.replace(theta[Delta.VRS], witness=3)
    return dataclasses.replace(scores, theta=theta)


def _phi_crs_witness_at_self(scores):
    # unscaled, the unit itself meets its inputs but not phi_crs = 13/12 times
    # its outputs, so only the score factor on the outputs makes this infeasible
    phi = dict(scores.phi)
    phi[Delta.CRS] = dataclasses.replace(phi[Delta.CRS], witness=0, delta=1)
    return dataclasses.replace(scores, phi=phi)


# sha256 of verify stdout and the exit code under each planted fault, on the
# staircase CSV: the FAIL lines keep their bytes too.
FAULT_DIGESTS = {
    "_sigma_plus": (3, "486a6e74f534f6c8974ab7887745b54ee6649045a17f7d2f0c62540d0e0eb9b1"),
    "_sigma_minus": (3, "2ab1a6a2a00e648e9189d15ffaf42e37304c4876f9d6c7d0c6b0d80073761c2f"),
    "build_response": (3, "47eaea49d835a894be8f3a985545dc5cd9e3a57bb6445c32cf8777f200be79f8"),
    "_theta": (3, "ae8c706f96fd287a3501eaf1835c2d398e6ccc895f7c3c6a456c6532c6a12940"),
    "dominated-marker": (3, "9b986b731b977d06eb81d2ea8a332ec4fde03af8987dd8af119ba4a6d77609d2"),
    "mpss": (3, "6c20be7c0c016625ac3224239c9d6817fa72e743bf75ce27a4fad03cfae8c6b9"),
    "right": (3, "a384f7ec45ad6c5aa46eaa2612bb9d92cf10a992ebb6251523e23b63b21f2afe"),
    "left": (3, "1a99d65e0dc98b3fbd449c5a4d13cfdc51eac6e24db01fc11147690d0e31b166"),
    "grs": (3, "e5382907b60ba55a156096b5d644c4b517490e2a5ec31a6dfe9eb2d93ade989e"),
    "witness": (3, "cefa06b95d0e80978e47cecd9a128c47b50224d91e55f7186959f0976f8ce733"),
    "_phi": (3, "ba6a032bf076554a29b95e45e37fa8e2b416dd4b1fbe3f18a9ebc13a6008d358"),
    "dropped-outside-term": (3, "856aef2e9189a38aea47939aea96fcce8c9cc03571ae8f33dec46de306815422"),
    "grs-growth": (3, "af2a1457b607d6c9a7effc4a2a813b7ea7cd42f5d91c7860606690a332afec31"),
    "phi-witness": (3, "b25d6b96cc676db5859f65b0aec97e2352b44d169d49bc65de088469b7a19bff"),
    "dropped-step": (3, "fef549052817729bea296111f294940e326451401f4a7f6779069c35b95e68a6"),
    "repeated-step": (3, "e330eb43fbe6ded1be9da3c41cdb6f1828cfee319107d00f55304b926576e7f2"),
    "dropped-first-step": (3, "9dd12aeb57b5dad38924a6637f689ad0cf3ca3c5325982ad44cdd08f0d289c7b"),
    "step-below-domain": (3, "84346ed4a11d2ee56e6d2f26bcdd931dcc22dc151dc4cf219b32d166d4554eba"),
    "changed-step-value": (3, "c30144fc5cb55691c408822cc170fe536b8d946c9b9b74d6455e4b0e6d6c93c4"),
    "_table": (3, "bbbed23662409660c6e9a22bc5b329114d96db12fa3a025e8eb37d98b9737670"),
    "_exact_pairs": (3, "8eb0de639105ebd7939b94a9df43f45b6383a1be45a83a6cfe4e3fab95f94789"),
    # on the CSV of with_dominated() instead
    "dominated-reported-efficient": (
        3,
        "3b40954d2c0a2ba1a4f7b87de06ee27b917522b55334f9302e3fbbcac1fe6dbb",
    ),
    "self-witness": (3, "cb8a6f11b6bb1dcbf9620ffc99e42dd66e613343ea85f23652390c842d20113e"),
    # on the CSV of with_dominated() plus F, a copy of B
    "copy-dominates": (3, "270da78e68752cb2e58ac386bc6c8caf720294fd44f875f1cacdea46d250dd83"),
}


def _verify_csv(capsys, path):
    code = f.main(["verify", "--input", str(path), "--trials", "0", "--grid-steps", "100"])
    out = capsys.readouterr().out
    status = {line.split()[0]: line.split(maxsplit=2)[1:] for line in out.splitlines()}
    return code, out, status


def _digest(code, out):
    return code, hashlib.sha256(out.encode("utf-8")).hexdigest()


class TestPlantedFaults:
    """Each fast-path quantity verify compares, made slightly wrong, must fail its check.

    The faults sit in the closed forms that ``classify_unit`` calls, so they
    reach verify through the same values a report prints. This guards the
    oracle side of every comparison: a check that compared a value with
    itself would keep passing here. Record faults change fields of one
    ``rts.classified`` record, for the checks no closed-form nudge reaches.
    """

    @pytest.mark.parametrize(
        "fault,module,attr,nudge,check",
        [
            (attr, module, attr, nudge, check)
            for module, attr, nudge, check in (
                (scale, "_sigma_plus", _nudge_sigma, "max-incremental-ratio-matches-sweep"),
                (scale, "_sigma_minus", _nudge_sigma, "min-decremental-ratio-matches-sweep"),
                # one fault on each side of the per-unit ratio table
                (rts, "_table", _nudge_d_alpha_of_a, "radial-scores-match-enumeration"),
                (oracle, "_exact_pairs", _nudge_d_beta_of_a, "radial-scores-match-enumeration"),
            )
        ]
        # keyed by build_response, whose steps, as verify's, the nudge reaches
        + [
            (
                "build_response",
                response,
                "response_from_table",
                _nudge_last_step,
                "response-curve-matches-sweep",
            )
        ],
    )
    def test_check_fails_and_cli_exits_3(
        self, capsys, monkeypatch, stair_csv, fault, module, attr, nudge, check
    ):
        right = getattr(module, attr)
        monkeypatch.setattr(module, attr, lambda *args: nudge(right(*args)))
        code, out, status = _verify_csv(capsys, stair_csv)
        assert status[check][0] == "FAIL"
        assert status["overall"] == ["FAIL"] and code == 3
        assert _digest(code, out) == FAULT_DIGESTS[fault]

    @pytest.mark.parametrize(
        "fault,attr,plant",
        [
            # every theta score, or every phi score, off by TINY
            pytest.param("_theta", "_side", _nudge_side(min), id="_theta"),
            pytest.param("_phi", "_side", _nudge_side(max), id="_phi"),
            # theta_ndrs = theta_vrs, theta_crs = theta_nirs, and phi mirrored
            pytest.param(
                "dropped-outside-term", "_side", _drop_outside, id="dropped-outside-term"
            ),
        ],
    )
    def test_score_fault_fails_the_enumeration_check(
        self, capsys, monkeypatch, stair_csv, fault, attr, plant
    ):
        monkeypatch.setattr(efficiency, attr, plant(getattr(efficiency, attr)))
        code, out, status = _verify_csv(capsys, stair_csv)
        assert status["radial-scores-match-enumeration"][0] == "FAIL"
        assert status["overall"] == ["FAIL"] and code == 3
        assert _digest(code, out) == FAULT_DIGESTS[fault]

    def test_efficient_unit_marked_dominated_fails_the_ratio_check(
        self, capsys, monkeypatch, stair_csv
    ):
        right = rts._classify
        monkeypatch.setattr(
            rts,
            "_classify",
            lambda rt, w, tol: right(rt, 0 if rt.reference == 3 else w, tol),
        )
        code, out, status = _verify_csv(capsys, stair_csv)
        assert status["max-incremental-ratio-matches-sweep"] == [
            "FAIL",
            "D is efficient but the fast path marks it dominated",
        ]
        assert status["overall"] == ["FAIL"] and code == 3
        assert _digest(code, out) == FAULT_DIGESTS["dominated-marker"]

    @pytest.mark.parametrize(
        "fault,witness,check,detail",
        [
            pytest.param(
                "dominated-reported-efficient",
                None,
                "max-incremental-ratio-matches-sweep",
                "E is dominated but the fast path reports it efficient",
                id="dominated-reported-efficient",
            ),
            pytest.param(
                "self-witness",
                4,
                "radial-score-bounds-and-witnesses",
                "E is dominated by B, not E",
                id="self-witness",
            ),
        ],
    )
    def test_dominated_unit_reported_efficient_or_self_dominated_fails(
        self, capsys, monkeypatch, tmp_path, fault, witness, check, detail
    ):
        # E (4, 4) is dominated by B (3, 4) alone; the fault calls it efficient,
        # or names E itself as the unit dominating it
        path = tmp_path / "dominated.csv"
        f.write_csv(with_dominated(), path)
        right = rts._classify
        monkeypatch.setattr(
            rts,
            "_classify",
            lambda rt, w, tol: right(rt, witness if rt.reference == 4 else w, tol),
        )
        code, out, status = _verify_csv(capsys, path)
        assert [name for name, (word, *_) in status.items() if word == "FAIL"] == [
            check,
            "overall",
        ]
        assert status[check] == ["FAIL", detail] and code == 3
        assert _digest(code, out) == FAULT_DIGESTS[fault]

    def test_oracle_counting_a_copy_as_dominator_fails_the_ratio_check(
        self, capsys, monkeypatch, tmp_path
    ):
        # F copies B, so neither dominates the other and both are efficient; the
        # fault passes over only the unit itself, and B's copy then dominates B
        d = with_dominated()
        d = f.validate_dataset(
            [*d.names, "F"], [*d.inputs, d.inputs[1]], [*d.outputs, d.outputs[1]]
        )
        path = tmp_path / "copied.csv"
        f.write_csv(d, path)
        assert _verify_csv(capsys, path)[0] == 0

        def copy_dominates(d, pairs, o):
            for j, ((an, ad), (bn, bd)) in enumerate(pairs):
                if an <= ad and bn >= bd and j != o:
                    return j
            return None

        monkeypatch.setattr(oracle, "_dominator", copy_dominates)
        code, out, status = _verify_csv(capsys, path)
        assert status["max-incremental-ratio-matches-sweep"] == [
            "FAIL",
            "B is dominated but the fast path reports it efficient",
        ]
        assert status["overall"] == ["FAIL"] and code == 3
        assert _digest(code, out) == FAULT_DIGESTS["copy-dominates"]

    @pytest.mark.parametrize(
        "fault,change",
        [
            ("dropped-step", lambda steps: steps[:1] + steps[2:]),
            ("repeated-step", lambda steps: steps[:1] + steps),
            # the domain then starts too late, or below every peer's input ratio
            ("dropped-first-step", lambda steps: steps[1:]),
            ("step-below-domain", lambda steps: ((F(1, 12), F(1, 13)),) + steps),
            # every threshold kept and the list still canonical: 5/13 -> 9/26
            # at 5/6, still between 4/13 and 1
            (
                "changed-step-value",
                lambda steps: steps[:2] + ((steps[2][0], F(9, 26)),) + steps[3:],
            ),
        ],
    )
    def test_wrong_steps_fail_the_curve_and_leave_the_ratios_exact(
        self, capsys, monkeypatch, stair_csv, fault, change
    ):
        # the ratio checks read their oracle values at the pairs' own
        # thresholds, so a wrong step list must not move them
        right = response.response_from_table
        monkeypatch.setattr(
            response, "response_from_table", lambda rt: _d_steps(change)(right(rt))
        )
        code, out, status = _verify_csv(capsys, stair_csv)
        assert status["response-curve-matches-sweep"][0] == "FAIL"
        assert status["max-incremental-ratio-matches-sweep"][0] == "PASS"
        assert status["min-decremental-ratio-matches-sweep"][0] == "PASS"
        assert status["overall"] == ["FAIL"] and code == 3
        assert _digest(code, out) == FAULT_DIGESTS[fault]

    @pytest.mark.parametrize(
        "fault,plant,checks",
        [
            pytest.param(
                "mpss",
                _replace_fields(0, mpss=lambda flag: not flag),
                ["scale-size-detection-matches-enumeration"],
                id="mpss",
            ),
            pytest.param(
                "right",
                _replace_fields(0, one_sided=_flip_right),
                [
                    "one-sided-classes-match-interval-feasibility",
                    "one-sided-classes-match-ratio-thresholds",
                ],
                id="right",
            ),
            pytest.param(
                "left",
                _replace_fields(0, one_sided=_flip_left),
                [
                    "one-sided-classes-match-interval-feasibility",
                    "one-sided-classes-match-ratio-thresholds",
                ],
                id="left",
            ),
            pytest.param(
                "grs",
                _replace_fields(3, grs=lambda _: rts.GrsClass.IRS),
                ["global-class-implications"],
                id="grs",
            ),
            pytest.param(
                "grs-growth",
                # consistent with its own ratio and classes, so only the growth
                # facts of a globally increasing unit can catch it
                _replace_fields(
                    3,
                    grs=lambda _: rts.GrsClass.IRS,
                    one_sided=_right_irs,
                    sigma=lambda sigma: dataclasses.replace(sigma, sigma_plus=F(2)),
                ),
                ["global-class-implications"],
                id="grs-growth",
            ),
            pytest.param(
                "witness",
                _replace_fields(0, scores=_theta_vrs_witness_at_d),
                ["radial-score-bounds-and-witnesses"],
                id="witness",
            ),
            pytest.param(
                "phi-witness",
                _replace_fields(0, scores=_phi_crs_witness_at_self),
                ["radial-score-bounds-and-witnesses"],
                id="phi-witness",
            ),
        ],
    )
    def test_record_fault_fails_its_checks(
        self, capsys, monkeypatch, stair_csv, fault, plant, checks
    ):
        plant(monkeypatch)
        code, out, status = _verify_csv(capsys, stair_csv)
        assert [name for name in checks if status[name][0] == "FAIL"] == checks
        assert status["overall"] == ["FAIL"] and code == 3
        assert _digest(code, out) == FAULT_DIGESTS[fault]


class TestConfig:
    def test_grid_steps_floor(self):
        with pytest.raises(ValueError):
            OracleConfig(grid_steps=99)
        assert OracleConfig(grid_steps=100).grid_steps == 100


def test_helper_fixture_alignment(stair):
    assert make_staircase() == stair
