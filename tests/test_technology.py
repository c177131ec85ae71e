from fractions import Fraction as F

import pytest

import fdhscale as f
from fdhscale import Delta, Point

from conftest import with_dominated


class TestMembership:
    def test_observed_units_are_members_under_every_regime(self, stair):
        for o in range(stair.n):
            p = Point(*stair.unit(o))
            for delta in Delta:
                assert f.member(stair, delta, p)

    def test_disposal_point_is_member(self, stair):
        assert f.member(stair, Delta.VRS, Point((4,), (4,)))

    def test_point_above_fixed_scale_frontier_is_not_member(self, stair):
        assert not f.member(stair, Delta.VRS, Point((2,), (4,)))

    def test_doubled_small_unit_covers_point_exactly(self, stair):
        # (2, 4) is twice unit A, so every scaling regime reaches it
        p = Point((2,), (4,))
        for delta in (Delta.CRS, Delta.NIRS, Delta.NDRS):
            assert f.member(stair, delta, p)

    def test_shrinking_can_recover_membership(self, stair):
        # (2, 13/3) is the largest unit shrunk by 1/3; only contraction reaches it
        p = Point((2,), (F(13, 3),))
        assert not f.member(stair, Delta.VRS, p)
        assert f.member(stair, Delta.NIRS, p)
        assert f.member(stair, Delta.CRS, p)
        assert not f.member(stair, Delta.NDRS, p)

    def test_expansion_can_recover_membership(self, stair):
        # (7, 14) needs an enlarged unit, so contraction-only regimes miss it
        p = Point((7,), (14,))
        assert not f.member(stair, Delta.VRS, p)
        assert not f.member(stair, Delta.NIRS, p)
        assert f.member(stair, Delta.NDRS, p)
        assert f.member(stair, Delta.CRS, p)

    def test_zero_output_is_member_by_disposal(self, stair):
        assert f.member(stair, Delta.VRS, Point((1,), (0,)))

    def test_negative_output_rejected(self, stair):
        assert not f.member(stair, Delta.VRS, Point((1,), (-1,)))

    def test_dimension_mismatch_raises(self, stair):
        with pytest.raises(f.DimensionMismatchError):
            f.member(stair, Delta.VRS, Point((1, 1), (1,)))
        with pytest.raises(f.DimensionMismatchError):
            f.member(stair, Delta.VRS, Point((1,), (1, 1)))

    def test_membership_nesting_on_grid(self, stair):
        # fixed-scale hull inside each one-sided hull inside the fully scaled hull
        pts = [
            Point((F(k, 2),), (F(j, 2),)) for k in range(1, 17) for j in range(0, 29)
        ]
        for p in pts:
            vrs = f.member(stair, Delta.VRS, p)
            nirs = f.member(stair, Delta.NIRS, p)
            ndrs = f.member(stair, Delta.NDRS, p)
            crs = f.member(stair, Delta.CRS, p)
            assert not vrs or (nirs and ndrs)
            assert not (nirs or ndrs) or crs


class TestEfficiency:
    def test_staircase_units_are_all_efficient(self, stair):
        for o in range(stair.n):
            assert f.find_dominating(stair, Delta.VRS, o) is None
            assert isinstance(f.classify_unit(stair, o), f.RtsReport)

    def test_added_unit_is_dominated(self):
        d = with_dominated("E", x=(4,), y=(4,))
        assert f.find_dominating(d, Delta.VRS, 4) is not None
        assert d.names[f.find_dominating(d, Delta.VRS, 4)] == "B"
        # the original four stay efficient
        for o in range(4):
            assert f.find_dominating(d, Delta.VRS, o) is None

    def test_duplicate_unit_does_not_dominate_its_twin(self, stair):
        d = f.validate_dataset(
            list(stair.names) + ["B2"],
            [list(r) for r in stair.inputs] + [[F(3)]],
            [list(r) for r in stair.outputs] + [[F(4)]],
        )
        assert f.find_dominating(d, Delta.VRS, 1) is None
        assert f.find_dominating(d, Delta.VRS, 4) is None

    def test_proportional_twin_under_scaling_does_not_dominate(self):
        # under full scaling a ray twin collapses onto the same point exactly
        d = f.validate_dataset(["P", "Q"], [[2], [4]], [[3], [6]])
        assert f.find_dominating(d, Delta.CRS, 0) is None
        assert f.find_dominating(d, Delta.CRS, 1) is None

    def test_scaling_regimes_expose_scale_inefficiency(self, stair):
        # A is efficient at fixed scale but shrunk copies of D overtake it
        assert f.find_dominating(stair, Delta.VRS, 0) is None
        assert f.find_dominating(stair, Delta.CRS, 0) is not None
        assert stair.names[f.find_dominating(stair, Delta.CRS, 0)] == "D"

    def test_find_dominating_respects_regime_interval(self):
        # the peer helps only when enlarged (its scaling interval sits above 1),
        # so contraction-only regimes cannot use it
        d = f.validate_dataset(["o", "peer"], [[10], [6]], [[15], [13]])
        assert f.find_dominating(d, Delta.VRS, 0) is None
        assert f.find_dominating(d, Delta.NIRS, 0) is None
        assert f.find_dominating(d, Delta.NDRS, 0) == 1
        assert f.find_dominating(d, Delta.CRS, 0) == 1

    def test_index_checked(self, stair):
        with pytest.raises(f.IndexOutOfRangeError):
            f.find_dominating(stair, Delta.VRS, 9)


def test_dominated_units_are_members_of_their_own_hull(stair):
    for delta in Delta:
        for o in range(stair.n):
            j = f.find_dominating(stair, delta, o)
            if j is None:
                continue
            assert f.member(stair, delta, Point(*stair.unit(o)))
