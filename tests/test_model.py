import math
import random
from fractions import Fraction as F

import pytest

import fdhscale as f
from fdhscale import model

from conftest import make_staircase


class TestValidation:
    def test_staircase_is_accepted(self, stair):
        assert stair.n == 4 and stair.m == 1 and stair.s == 1
        assert stair.names == ("A", "B", "C", "D")
        assert stair.unit(3) == ((F(6),), (F(13),))

    def test_single_unit_is_accepted(self):
        d = f.validate_dataset(["solo"], [[2, 3]], [[5]])
        assert d.n == 1 and d.m == 2 and d.s == 1

    def test_empty_dataset_rejected(self):
        with pytest.raises(f.EmptyDatasetError) as exc:
            f.validate_dataset([], [], [])
        assert exc.value.code == "EMPTY_DATASET"

    def test_row_count_mismatch_rejected(self):
        with pytest.raises(f.RaggedRowsError):
            f.validate_dataset(["A", "B"], [[1]], [[1], [2]])

    def test_ragged_input_rows_rejected(self):
        with pytest.raises(f.RaggedRowsError):
            f.validate_dataset(["A", "B"], [[1, 2], [1]], [[1], [2]])

    def test_ragged_output_rows_rejected(self):
        with pytest.raises(f.RaggedRowsError):
            f.validate_dataset(["A", "B"], [[1], [2]], [[1], [2, 3]])

    def test_zero_width_rows_rejected(self):
        with pytest.raises(f.EmptyDatasetError):
            f.validate_dataset(["A"], [[]], [[1]])
        with pytest.raises(f.EmptyDatasetError):
            f.validate_dataset(["A"], [[1]], [[]])

    def test_duplicate_names_rejected(self):
        with pytest.raises(f.DuplicateNameError) as exc:
            f.validate_dataset(["A", "A"], [[1], [2]], [[1], [2]])
        assert "A" in str(exc.value)

    def test_the_first_repeated_name_is_named(self):
        with pytest.raises(f.DuplicateNameError, match="^duplicate unit name 'B'$"):
            f.validate_dataset(["A", "B", "B", "A"], [[1], [2], [3], [4]], [[1]] * 4)

    @pytest.mark.parametrize("bad", [0, -1, F(-3, 7), float("nan"), float("inf")])
    def test_nonpositive_or_nonfinite_values_rejected(self, bad):
        with pytest.raises(f.NonpositiveValueError):
            f.validate_dataset(["A"], [[bad]], [[1]])
        with pytest.raises(f.NonpositiveValueError):
            f.validate_dataset(["A"], [[1]], [[bad]])

    def test_error_names_offending_unit(self):
        with pytest.raises(f.NonpositiveValueError) as exc:
            f.validate_dataset(["A", "B"], [[1], [0]], [[1], [2]])
        assert "B" in str(exc.value)

    def test_float_column_spread_is_bounded(self):
        edge = 2.0**-255, 2.0**256
        assert f.validate_dataset(["A", "B"], [[v] for v in edge], [[1], [1]])
        with pytest.raises(f.ValueSpreadError) as exc:
            f.validate_dataset(["A", "B"], [[1], [1]], [[2.0**-255], [2.0**257]])
        assert "'out_1'" in str(exc.value)
        with pytest.raises(f.ValueSpreadError) as exc:
            f.validate_dataset(["A", "B"], [[1], [10**160]], [[1], [1]], ["x", "y"])
        assert "'x'" in str(exc.value)
        with pytest.raises(ValueError):
            f.validate_dataset(["A"], [[1]], [[1]], ["x"])

    def test_exact_columns_have_no_spread_limit(self):
        wide = [[F(1, 10**200)], [F(10**200)]]
        d = f.validate_dataset(["A", "B"], wide, wide[::-1])
        assert f.ratio_table(d, 0).alpha == (1, F(10**400))


class TestDataset:
    def test_index_of(self, stair):
        assert stair.index_of("C") == 2
        with pytest.raises(f.IndexOutOfRangeError):
            stair.index_of("Z")

    def test_check_index_bounds(self, stair):
        from fdhscale.model import check_index

        check_index(stair, 0)
        check_index(stair, 3)
        for bad in (-1, 4):
            with pytest.raises(f.IndexOutOfRangeError):
                check_index(stair, bad)

    def test_as_float_and_as_exact_round_trip(self, stair):
        df = stair.as_float()
        assert all(isinstance(v, float) for row in df.inputs for v in row)
        de = df.as_exact()
        assert de.inputs == stair.inputs and de.outputs == stair.outputs
        assert de.as_exact() is de and stair.as_exact() is stair

    def test_as_float_validates_the_copy(self, stair):
        plain = tuple(tuple(float(v) for v in row) for row in stair.outputs)
        assert stair.as_float() == f.Dataset(
            stair.names, tuple(tuple(float(v) for v in row) for row in stair.inputs), plain
        )
        wide = [[F(1, 10**200)], [F(10**200)]]
        d = f.validate_dataset(["A", "B"], wide, wide[::-1])
        with pytest.raises(f.ValueSpreadError) as exc:
            d.as_float()
        assert "'in_1'" in str(exc.value)

    def test_dataset_is_immutable(self, stair):
        with pytest.raises(AttributeError):
            stair.names = ("X",)


class TestRatioTable:
    def test_reference_row_is_unity(self, stair):
        for o in range(stair.n):
            t = f.ratio_table(stair, o)
            assert t.alpha[o] == 1 and t.beta[o] == 1

    def test_staircase_ratios_for_second_unit(self, stair):
        t = f.ratio_table(stair, 1)
        assert t.alpha == (F(1, 3), F(1), F(5, 3), F(2))
        assert t.beta == (F(1, 2), F(1), F(5, 4), F(13, 4))

    def test_staircase_ratios_for_largest_unit(self, stair):
        t = f.ratio_table(stair, 3)
        assert t.alpha == (F(1, 6), F(1, 2), F(5, 6), F(1))
        assert t.beta == (F(2, 13), F(4, 13), F(5, 13), F(1))

    def test_multidimensional_ratios_take_worst_coordinate(self):
        d = f.validate_dataset(
            ["P", "Q"],
            [[F(2), F(8)], [F(4), F(4)]],
            [[F(6), F(3)], [F(3), F(6)]],
        )
        t = f.ratio_table(d, 0)
        # alpha_Q = max(4/2, 4/8), beta_Q = min(3/6, 6/3)
        assert t.alpha[1] == F(2) and t.beta[1] == F(1, 2)

    def test_input_rescaling_leaves_alpha_unchanged(self, stair):
        scaled = f.validate_dataset(
            stair.names,
            [[x * F(7, 3) for x in row] for row in stair.inputs],
            stair.outputs,
        )
        for o in range(stair.n):
            assert f.ratio_table(scaled, o).alpha == f.ratio_table(stair, o).alpha

    def test_float_table_matches_exact_table(self, stair, stair_float):
        for o in range(stair.n):
            te = f.ratio_table(stair, o)
            tf = f.ratio_table(stair_float, o)
            for a, b in zip(te.alpha, tf.alpha):
                assert math.isclose(float(a), b, rel_tol=0, abs_tol=1e-12)
            for a, b in zip(te.beta, tf.beta):
                assert math.isclose(float(a), b, rel_tol=0, abs_tol=1e-12)

    def test_index_is_checked(self, stair):
        with pytest.raises(f.IndexOutOfRangeError):
            f.ratio_table(stair, 4)

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("m, s", [(1, 1), (1, 3), (3, 1), (2, 2)])
    def test_column_wise_table_equals_row_wise_definition(self, m, s, exact):
        # one column has no second list to compare across, so it takes its own path
        rng = random.Random(f"columns:{m}:{s}")
        n = 12
        d = f.validate_dataset(
            [f"U{k}" for k in range(n)],
            [[rng.uniform(0.1, 10) for _ in range(m)] for _ in range(n)],
            [[rng.choice([1.0, 2.0, rng.uniform(0.1, 10)]) for _ in range(s)] for _ in range(n)],
        )
        d = d.as_exact() if exact else d
        for o in range(n):
            xo, yo = d.inputs[o], d.outputs[o]
            t = f.ratio_table(d, o)
            assert t.alpha == tuple(max(a / b for a, b in zip(row, xo)) for row in d.inputs)
            assert t.beta == tuple(min(a / b for a, b in zip(row, yo)) for row in d.outputs)
            assert {type(v) for v in t.alpha + t.beta} == {F if exact else float}


    @pytest.mark.parametrize("kind", ["float", "exact", "mixed"])
    def test_folded_table_equals_a_per_row_max_and_min(self, kind):
        # entries from a few values, so that two columns often give a row equal
        # quotients; in the mixed table float and exact columns alternate, and
        # the type of each entry shows which column's quotient a tie kept
        rng = random.Random(f"fold:{kind}")
        values = [F(1), F(2), F(3), F(1, 2), F(3, 2)]

        def column(k, n):
            exact = kind == "exact" or kind == "mixed" and k % 2
            return tuple(v if exact else float(v) for v in rng.choices(values, k=n))

        for m in range(1, 5):
            for s in range(1, 5):
                n = 12
                cols = [column(k, n) for k in range(m + s)]
                xo, yo = rng.choices([1, 2], k=m), rng.choices([1, 2], k=s)
                t = model._table(0, range(n), cols[:m], cols[m:], xo, yo)
                alpha = [max(c[j] / r for c, r in zip(cols[:m], xo)) for j in range(n)]
                beta = [min(c[j] / r for c, r in zip(cols[m:], yo)) for j in range(n)]
                assert [(type(v), v) for v in t.alpha] == [(type(v), v) for v in alpha]
                assert [(type(v), v) for v in t.beta] == [(type(v), v) for v in beta]


class TestEnumsAndTolerance:
    def test_delta_bounds(self):
        assert f.Delta.VRS.bounds == (1, 1)
        assert f.Delta.CRS.bounds == (0, None)
        assert f.Delta.NIRS.bounds == (0, 1)
        assert f.Delta.NDRS.bounds == (1, None)

    def test_delta_values_are_stable(self):
        assert [d.value for d in f.Delta] == ["vrs", "crs", "nirs", "ndrs"]

    def test_tolerance_default_and_validation(self):
        assert f.Tolerance().eps == 1e-9
        f.Tolerance(1e-12)
        for bad in (0.0, -1e-9, 1e-3, 0.5):
            with pytest.raises(ValueError):
                f.Tolerance(bad)

    def test_orientation_values(self):
        assert f.Orientation.INPUT.value == "input"
        assert f.Orientation.OUTPUT.value == "output"


def test_dominance_shows_up_in_ratio_table():
    # alpha <= 1 and beta >= 1 for a distinct unit means the reference is dominated
    d = f.validate_dataset(["big", "lean"], [[4], [3]], [[4], [4]])
    t = f.ratio_table(d, 0)
    assert t.alpha[1] <= 1 <= t.beta[1]
    assert f.find_dominating(d, f.Delta.VRS, 0) == 1


def test_make_staircase_helper_matches_fixture(stair):
    assert make_staircase() == stair
