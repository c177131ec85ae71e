import copy
import pickle
from fractions import Fraction as F

import pytest

import fdhscale as f
from fdhscale import UNBOUNDED, Tolerance, UnboundedRatio

from conftest import with_dominated


# unit -> (sigma_plus, plus witness, sigma_minus, minus witness)
EXPECTED = {
    "A": (F(11, 10), "D", UNBOUNDED, None),
    "B": (F(9, 4), "D", F(3, 4), "A"),
    "C": (F(8), "D", F(1, 2), "B"),
    "D": (F(0), None, F(66, 65), "A"),
}


class TestStaircaseRatios:
    def test_incremental_values_and_witnesses(self, stair):
        for o, name in enumerate(stair.names):
            up = f.sigma_plus(stair, o)
            want_v, want_w, _, _ = EXPECTED[name]
            assert up.value == want_v, name
            assert (None if up.witness is None else stair.names[up.witness]) == want_w

    def test_decremental_values_and_witnesses(self, stair):
        for o, name in enumerate(stair.names):
            down = f.sigma_minus(stair, o)
            _, _, want_v, want_w = EXPECTED[name]
            assert down.value == want_v, name
            assert (
                None if down.witness is None else stair.names[down.witness]
            ) == want_w

    def test_bundle_matches_parts(self, stair):
        for o in range(stair.n):
            bundle = f.scale_ratios(stair, o)
            assert bundle.reference == o
            assert bundle.sigma_plus == f.sigma_plus(stair, o).value
            assert bundle.sigma_minus == f.sigma_minus(stair, o).value
            assert bundle.plus_witness == f.sigma_plus(stair, o).witness
            assert bundle.minus_witness == f.sigma_minus(stair, o).witness

    def test_result_tuple_fields(self, stair):
        res = f.sigma_plus(stair, 1)
        assert res == (F(9, 4), 3)
        assert res.value == F(9, 4) and res.witness == 3


class TestEdgeCases:
    def test_no_growth_candidates_clamp_to_zero(self):
        # the only larger peer matches output exactly: secant slope 0
        d = f.validate_dataset(["o", "p"], [[1], [2]], [[1], [1]])
        assert f.sigma_plus(d, 0) == (0, None)

    def test_negative_slopes_clamp_to_zero(self):
        # the larger peer produces less, so every slope above 1 is negative
        d = f.validate_dataset(["o", "p"], [[1], [2]], [[1], [F(1, 2)]])
        assert f.sigma_plus(d, 0) == (0, None)

    def test_smallest_unit_has_unbounded_decrement(self):
        d = f.validate_dataset(["o", "p"], [[1], [2]], [[1], [3]])
        assert f.sigma_minus(d, 0) == (UNBOUNDED, None)

    def test_single_unit(self):
        d = f.validate_dataset(["solo"], [[4]], [[9]])
        assert f.sigma_plus(d, 0) == (0, None)
        assert f.sigma_minus(d, 0) == (UNBOUNDED, None)

    def test_duplicate_peer_joins_neither_side(self, stair):
        d = f.validate_dataset(
            list(stair.names) + ["B2"],
            [list(r) for r in stair.inputs] + [[F(3)]],
            [list(r) for r in stair.outputs] + [[F(4)]],
        )
        o = d.index_of("B")
        assert f.sigma_plus(d, o).value == F(9, 4)
        assert f.sigma_minus(d, o).value == F(3, 4)
        twin = d.index_of("B2")
        assert f.sigma_plus(d, twin).value == F(9, 4)
        assert f.sigma_minus(d, twin).value == F(3, 4)

    def test_dominated_unit_rejected(self):
        d = with_dominated("E", x=(4,), y=(4,))
        with pytest.raises(f.InefficientUnitError):
            f.sigma_plus(d, 4)
        with pytest.raises(f.InefficientUnitError):
            f.sigma_minus(d, 4)
        with pytest.raises(f.InefficientUnitError):
            f.scale_ratios(d, 4)

    def test_equal_ratios_go_to_the_lowest_index(self):
        # P1 and P2 both give sigma_plus 2; Q1 and Q2 both give sigma_minus 3/2
        d = f.validate_dataset(
            ["O", "P1", "P2", "Q1", "Q2"],
            [[1], [2], [3], [F(1, 2)], [F(3, 5)]],
            [[1], [3], [5], [F(1, 4)], [F(2, 5)]],
        )
        assert f.sigma_plus(d, 0) == (2, d.index_of("P1"))
        assert f.sigma_minus(d, 0) == (F(3, 2), d.index_of("Q1"))

    def test_tolerance_widens_the_exclusion_band(self):
        # a peer 1.00005 times bigger counts by default but not at eps=1e-4
        d = f.validate_dataset(["o", "p"], [[1.0], [1.00005]], [[1.0], [2.0]])
        assert f.sigma_plus(d, 0).value == pytest.approx(20000.0)
        assert f.sigma_plus(d, 0, Tolerance(1e-4)) == (0, None)


class TestUnboundedSymbol:
    def test_singleton_survives_construction_copy_and_pickle(self):
        assert UnboundedRatio() is UNBOUNDED
        assert copy.copy(UNBOUNDED) is UNBOUNDED
        assert copy.deepcopy(UNBOUNDED) is UNBOUNDED
        assert pickle.loads(pickle.dumps(UNBOUNDED)) is UNBOUNDED

    def test_repr(self):
        assert repr(UNBOUNDED) == "inf"

    def test_ordering_against_numbers(self):
        for x in (0, 1, 10**9, F(3, 2), 2.5):
            assert UNBOUNDED > x
            assert UNBOUNDED >= x
            assert not UNBOUNDED < x
            assert not UNBOUNDED <= x
            assert UNBOUNDED != x

    def test_ordering_against_itself(self):
        assert UNBOUNDED == UNBOUNDED
        assert UNBOUNDED >= UNBOUNDED
        assert UNBOUNDED <= UNBOUNDED
        assert not UNBOUNDED > UNBOUNDED
        assert not UNBOUNDED < UNBOUNDED

    def test_no_arithmetic(self):
        with pytest.raises(TypeError):
            UNBOUNDED + 1
        with pytest.raises(TypeError):
            1 / UNBOUNDED

    def test_hashable(self):
        assert len({UNBOUNDED, UnboundedRatio()}) == 1
