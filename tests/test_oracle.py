import dataclasses
from fractions import Fraction as F

import pytest

import fdhscale as f
from fdhscale import Delta, OracleConfig, ScalingSystem, UNBOUNDED
from fdhscale import efficiency, response, rts, scale

from conftest import make_staircase, with_dominated


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
                assert f.sigma_plus(d, o).value == f.oracle_sigma_plus(d, o, FAST_CFG)
                assert f.sigma_minus(d, o).value == f.oracle_sigma_minus(d, o, FAST_CFG)

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

    def test_dominated_data_passes(self):
        d = with_dominated("E", x=(4,), y=(4,))
        assert all(r.passed for r in f.verify_dataset(d, cfg=FAST_CFG))

    def test_float_input_is_verified_in_exact_mode(self, stair_float):
        assert all(r.passed for r in f.verify_dataset(stair_float, cfg=FAST_CFG))

    def test_random_batch_passes(self):
        results = f.verify_random(4, seed=7, cfg=FAST_CFG)
        assert all(r.passed for r in results)
        assert all("datasets" in r.detail for r in results)

    def test_merge_keeps_first_failure(self):
        good = f.CheckResult("x", True, "ok")
        bad = f.CheckResult("x", False, "boom")
        assert good.merge(bad) is bad
        assert bad.merge(good) is bad
        assert good.merge(f.CheckResult("x", True, "ok2")).detail == "ok2"


TINY = F(1, 10**9)


def _nudge_sigma(r):
    return r if r.value is UNBOUNDED else r._replace(value=r.value + TINY)


def _nudge_last_step(r):
    t, v = r.steps[-1]
    return dataclasses.replace(r, steps=r.steps[:-1] + ((t, v + TINY),))


def _nudge_score(sc):
    return dataclasses.replace(sc, value=sc.value + TINY)


class TestPlantedFaults:
    """Each fast-path quantity verify compares, made slightly wrong, must fail its check.

    The faults sit in the closed forms that ``classify_unit`` calls, so they
    reach verify through the same values a report prints. This guards the
    oracle side of every comparison: a check that compared a value with
    itself would keep passing here.
    """

    @pytest.mark.parametrize(
        "module,attr,nudge,check",
        [
            (scale, "_sigma_plus", _nudge_sigma, "max-incremental-ratio-matches-sweep"),
            (scale, "_sigma_minus", _nudge_sigma, "min-decremental-ratio-matches-sweep"),
            (response, "build_response", _nudge_last_step, "response-curve-matches-sweep"),
            (efficiency, "_theta", _nudge_score, "radial-scores-match-enumeration"),
        ],
    )
    def test_check_fails_and_cli_exits_3(
        self, capsys, monkeypatch, stair_csv, module, attr, nudge, check
    ):
        right = getattr(module, attr)
        monkeypatch.setattr(module, attr, lambda *args: nudge(right(*args)))
        code = f.main(
            ["verify", "--input", str(stair_csv), "--trials", "0", "--grid-steps", "100"]
        )
        lines = capsys.readouterr().out.splitlines()
        status = {line.split()[0]: line.split()[1] for line in lines}
        assert status[check] == "FAIL"
        assert status["overall"] == "FAIL" and code == 3


    def test_efficient_unit_marked_dominated_fails_the_ratio_check(
        self, capsys, monkeypatch, stair_csv
    ):
        right = rts.dominating_peer
        monkeypatch.setattr(
            rts, "dominating_peer", lambda d, rt: 0 if rt.reference == 3 else right(d, rt)
        )
        code = f.main(
            ["verify", "--input", str(stair_csv), "--trials", "0", "--grid-steps", "100"]
        )
        lines = capsys.readouterr().out.splitlines()
        status = {line.split()[0]: line.split(maxsplit=2)[1:] for line in lines}
        assert status["max-incremental-ratio-matches-sweep"] == [
            "FAIL",
            "D is efficient but the fast path marks it dominated",
        ]
        assert status["overall"] == ["FAIL"] and code == 3


class TestConfig:
    def test_grid_steps_floor(self):
        with pytest.raises(ValueError):
            OracleConfig(grid_steps=99)
        assert OracleConfig(grid_steps=100).grid_steps == 100

    def test_alpha_max_extends_the_sweep(self, stair):
        wide = OracleConfig(grid_steps=100, alpha_max=50)
        assert f.oracle_sigma_plus(stair, 0, wide) == F(11, 10)


def test_helper_fixture_alignment(stair):
    assert make_staircase() == stair
