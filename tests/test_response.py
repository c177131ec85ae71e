from fractions import Fraction as F

import pytest

import fdhscale as f
from fdhscale import StepDerivative

from conftest import with_dominated


B_STEPS = ((F(1, 3), F(1, 2)), (F(1), F(1)), (F(5, 3), F(5, 4)), (F(2), F(13, 4)))


class TestBuild:
    def test_staircase_second_unit_steps(self, stair):
        r = f.build_response(stair, 1)
        assert r.reference == 1
        assert r.alpha_min == F(1, 3)
        assert r.steps == B_STEPS

    def test_smallest_unit_domain_starts_at_one(self, stair):
        r = f.build_response(stair, 0)
        assert r.alpha_min == 1
        assert r.steps == ((F(1), F(1)), (F(3), F(2)), (F(5), F(5, 2)), (F(6), F(13, 2)))

    def test_largest_unit_steps(self, stair):
        r = f.build_response(stair, 3)
        assert r.steps == (
            (F(1, 6), F(2, 13)),
            (F(1, 2), F(4, 13)),
            (F(5, 6), F(5, 13)),
            (F(1), F(1)),
        )

    def test_equal_thresholds_keep_best_value(self):
        d = f.validate_dataset(
            ["o", "p", "q"], [[2], [4], [4]], [[2], [3], [5]]
        )
        r = f.build_response(d, 0)
        assert r.steps == ((F(1), F(1)), (F(2), F(5, 2)))

    def test_value_dominated_steps_are_dropped(self):
        # a bigger peer producing less than an earlier step adds no step
        d = f.validate_dataset(["o", "p", "q"], [[2], [3], [4]], [[2], [1], [6]])
        r = f.build_response(d, 0)
        assert r.steps == ((F(1), F(1)), (F(2), F(3)))

    def test_steps_are_canonical_for_every_reference(self, stair):
        for o in range(stair.n):
            r = f.build_response(stair, o)
            ts = [t for t, _ in r.steps]
            vs = [v for _, v in r.steps]
            assert ts == sorted(set(ts)) and vs == sorted(set(vs))

    def test_dominated_unit_still_has_a_response(self):
        d = with_dominated("E", x=(4,), y=(3,))
        r = f.build_response(d, 4)
        assert r.steps == (
            (F(1, 4), F(2, 3)),
            (F(3, 4), F(4, 3)),
            (F(5, 4), F(5, 3)),
            (F(3, 2), F(13, 3)),
        )


class TestEvaluate:
    @pytest.mark.parametrize(
        "alpha,expected",
        [
            (F(1, 3), F(1, 2)),
            (F(2, 5), F(1, 2)),
            (F(99, 100), F(1, 2)),
            (F(1), F(1)),
            (F(6, 5), F(1)),
            (F(5, 3), F(5, 4)),
            (F(19, 10), F(5, 4)),
            (F(2), F(13, 4)),
            (F(50), F(13, 4)),
        ],
    )
    def test_second_unit_values(self, stair, alpha, expected):
        r = f.build_response(stair, 1)
        assert r.evaluate(alpha) == expected

    def test_below_domain_raises(self, stair):
        r = f.build_response(stair, 1)
        with pytest.raises(f.OutOfDomainError):
            r.evaluate(F(1, 4))
        with pytest.raises(f.OutOfDomainError):
            r.evaluate(0)

    def test_domain_starts_at_the_first_threshold_of_any_step_list(self):
        steps = ((F(1, 2), F(4, 13)), (F(1), F(1)), (F(2), F(3)))
        r = f.ResponseFunction(0, steps)
        assert r.alpha_min == F(1, 2)
        with pytest.raises(f.OutOfDomainError):
            r.evaluate(F(1, 4))
        assert r.evaluate(F(1, 2)) == F(4, 13)

    def test_call_alias(self, stair):
        r = f.build_response(stair, 1)
        assert r(F(2)) == r.evaluate(F(2)) == F(13, 4)

    def test_float_queries_work_on_exact_steps(self, stair):
        r = f.build_response(stair, 1)
        assert r.evaluate(0.4) == F(1, 2)
        assert r.evaluate(1.9) == F(5, 4)

    def test_right_continuity_at_thresholds(self, stair):
        r = f.build_response(stair, 1)
        assert r.evaluate(F(5, 3)) == F(5, 4)
        assert r.evaluate(F(5, 3) - F(1, 1000)) == F(1)

    def test_monotone_on_grid(self, stair):
        for o in range(stair.n):
            r = f.build_response(stair, o)
            grid = [r.alpha_min + F(k, 7) for k in range(60)]
            vals = [r.evaluate(a) for a in grid]
            assert all(u <= v for u, v in zip(vals, vals[1:]))

    def test_agrees_with_fresh_scan(self, stair):
        for o in range(stair.n):
            r = f.build_response(stair, o)
            for k in range(80):
                alpha = r.alpha_min + F(k, 9)
                assert r.evaluate(alpha) == f.oracle_response_value(stair, o, alpha)


class TestDerivatives:
    def test_interior_unit_jumps_from_below(self, stair):
        r = f.build_response(stair, 1)
        right, left = f.one_sided_step_derivatives(r)
        assert right is StepDerivative.ZERO
        assert left is StepDerivative.INFINITE

    def test_largest_unit_jumps_from_below(self, stair):
        right, left = f.one_sided_step_derivatives(f.build_response(stair, 3))
        assert (right, left) == (StepDerivative.ZERO, StepDerivative.INFINITE)

    def test_smallest_unit_left_side_undefined(self, stair):
        right, left = f.one_sided_step_derivatives(f.build_response(stair, 0))
        assert (right, left) == (StepDerivative.ZERO, StepDerivative.UNDEFINED)

    def test_input_slack_is_invisible_to_the_output_curve(self):
        # E wastes input but meets its output level, so its curve passes the
        # value gate and is flat on both sides of 1
        d = with_dominated("E", x=(4,), y=(4,))
        right, left = f.one_sided_step_derivatives(f.build_response(d, 4))
        assert (right, left) == (StepDerivative.ZERO, StepDerivative.ZERO)

    def test_output_dominated_unit_is_rejected(self):
        d = with_dominated("E", x=(4,), y=(3,))
        with pytest.raises(f.InefficientUnitError):
            f.one_sided_step_derivatives(f.build_response(d, 4))

    def test_single_unit_is_flat_right_and_undefined_left(self):
        d = f.validate_dataset(["solo"], [[3]], [[7]])
        right, left = f.one_sided_step_derivatives(f.build_response(d, 0))
        assert (right, left) == (StepDerivative.ZERO, StepDerivative.UNDEFINED)
