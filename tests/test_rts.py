from fractions import Fraction as F

import pytest

import fdhscale as f
from fdhscale import (
    UNBOUNDED,
    Delta,
    GrsClass,
    InefficientUnit,
    LeftRts,
    OneSidedRts,
    RightRts,
    RtsReport,
    Tolerance,
)
from fdhscale import rts
from fdhscale.technology import _dominator_sets

from conftest import with_dominated


EXPECTED_CLASSES = {
    "A": (RightRts.IRS, LeftRts.IRS, GrsClass.IRS, False),
    "B": (RightRts.IRS, LeftRts.DRS, GrsClass.IRS, False),
    "C": (RightRts.IRS, LeftRts.DRS, GrsClass.IRS, False),
    "D": (RightRts.DRS, LeftRts.IRS, GrsClass.CRS, True),
}


def _right(d, o, tol=Tolerance()):
    return f.classify_unit(d, o, tol).one_sided.right


def _left(d, o):
    return f.classify_unit(d, o).one_sided.left


def _global(d, o):
    return f.classify_unit(d, o).grs


def scaled_down_example() -> f.Dataset:
    # the reference is efficient yet every scaled score agrees below 1:
    # a smaller peer wins under contraction, a larger one under expansion
    return f.validate_dataset(
        ["o", "small", "big"],
        [[F(2)], [F(1)], [F(3)]],
        [[F(2)], [F(3, 2)], [F(9, 2)]],
    )


class TestOneSided:
    def test_staircase_right_classes(self, stair):
        got = [_right(stair, o) for o in range(stair.n)]
        assert got == [EXPECTED_CLASSES[name][0] for name in stair.names]

    def test_staircase_left_classes(self, stair):
        got = [_left(stair, o) for o in range(stair.n)]
        assert got == [EXPECTED_CLASSES[name][1] for name in stair.names]

    def test_solo_unit_is_decreasing_up_increasing_down(self):
        d = f.validate_dataset(["solo"], [[2]], [[5]])
        assert _right(d, 0) is RightRts.DRS
        assert _left(d, 0) is LeftRts.IRS

    def test_proportional_neighbours_give_constant_sides(self):
        d = f.validate_dataset(["r1", "r2", "r3"], [[1], [2], [3]], [[2], [4], [6]])
        assert _right(d, 1) is RightRts.CRS
        assert _left(d, 1) is LeftRts.CRS
        assert _right(d, 0) is RightRts.CRS
        assert _left(d, 0) is LeftRts.IRS
        assert _right(d, 2) is RightRts.DRS
        assert _left(d, 2) is LeftRts.CRS

    def test_dominated_unit_rejected(self):
        # a dominated unit gets no classes, only a marker naming its dominator
        d = with_dominated("E", x=(4,), y=(4,))
        item = f.classify_unit(d, 4)
        assert isinstance(item, InefficientUnit)
        assert d.names[item.witness] == "B"

    def test_tolerance_controls_the_near_one_band(self):
        d = f.validate_dataset(
            ["o", "p"], [[1.0], [1.00005]], [[1.0], [1.00005]]
        )
        assert _right(d, 0) is RightRts.CRS
        assert _right(d, 0, Tolerance(1e-4)) is RightRts.DRS


    @pytest.mark.parametrize(
        "p_out,q_out,right,left",
        [
            # sigma_plus = 1.0004 inside the band 1 +- 5e-4, sigma_minus = 1.0008 above
            (3.0008, 0.4996, RightRts.CRS, LeftRts.IRS),
            # sigma_plus = 1.0008 above the band, sigma_minus = 1.0004 inside
            (3.0016, 0.4998, RightRts.IRS, LeftRts.CRS),
        ],
    )
    def test_classes_follow_the_printed_ratios_near_one(self, p_out, q_out, right, left):
        d = f.validate_dataset(
            ["o", "p", "q"], [[1.0], [3.0], [0.5]], [[1.0], [p_out], [q_out]]
        )
        tol = Tolerance(5e-4)
        item = f.classify_unit(d, 0, tol)
        assert item.one_sided == OneSidedRts(right, left)
        assert f.check_consistency(item, tol) == []
        rec = f.build_report_document(d, tol)["units"][0]
        assert (rec["right_rts"], rec["left_rts"]) == (right.value, left.value)


class TestGlobal:
    def test_staircase_global_classes(self, stair):
        got = [_global(stair, o) for o in range(stair.n)]
        assert got == [EXPECTED_CLASSES[name][2] for name in stair.names]

    def test_scaled_down_unit_is_sub_constant(self):
        d = scaled_down_example()
        assert _global(d, 0) is GrsClass.SCRS
        assert _right(d, 0) is RightRts.IRS
        assert _left(d, 0) is LeftRts.DRS
        assert f.scale_ratios(d, 0).sigma_plus == F(5, 2)
        assert f.scale_ratios(d, 0).sigma_minus == F(1, 2)

    def test_only_smaller_peers_give_globally_decreasing(self):
        d = f.validate_dataset(["o", "small"], [[2], [1]], [[2], [F(3, 2)]])
        assert _global(d, 0) is GrsClass.DRS
        assert _right(d, 0) is RightRts.DRS
        assert _left(d, 0) is LeftRts.DRS

    def test_two_unit_ray(self):
        d = f.validate_dataset(["lo", "hi"], [[1], [2]], [[1], [2]])
        assert _global(d, 0) is GrsClass.CRS
        assert _global(d, 1) is GrsClass.CRS
        assert _right(d, 0) is RightRts.CRS
        assert _left(d, 1) is LeftRts.CRS

    def test_enum_labels(self):
        assert GrsClass.CRS.value == "G-CRS"
        assert GrsClass.SCRS.value == "G-SCRS"
        assert RightRts.IRS.value == "Right-IRS"
        assert LeftRts.DRS.value == "Left-DRS"


class TestClassifyAll:
    def test_staircase_reports(self, stair):
        items = f.classify_all(stair)
        assert [it.reference for it in items] == [0, 1, 2, 3]
        for item, name in zip(items, stair.names):
            right, left, global_cls, mpss = EXPECTED_CLASSES[name]
            assert isinstance(item, RtsReport)
            assert item.one_sided == OneSidedRts(right, left)
            assert item.grs is global_cls
            assert item.mpss is mpss

    def test_sigma_rides_along(self, stair):
        items = f.classify_all(stair)
        assert items[0].sigma.sigma_plus == F(11, 10)
        assert items[0].sigma.sigma_minus is UNBOUNDED
        assert items[3].sigma.sigma_minus == F(66, 65)

    def test_dominated_unit_becomes_marker(self):
        d = with_dominated("E", x=(4,), y=(4,))
        items = f.classify_all(d)
        marker = items[4]
        assert isinstance(marker, InefficientUnit)
        assert marker.theta_vrs == F(3, 4)
        assert d.names[marker.witness] == "B"
        assert all(isinstance(it, RtsReport) for it in items[:4])

    def test_pool_row_in_the_eps_band_above_one_gets_the_full_table(self):
        # e's input ratio against o is 1 + 5e-10, inside the eps band, so e is no
        # incremental candidate; k, which e dominates and the pool leaves out,
        # then carries o's sigma_plus. Over the pool alone it would read 0.
        d = f.validate_dataset(
            ["o", "e", "k"], [[1.0], [1 + 5e-10], [2.0]], [[1.0], [2.0], [1.5]]
        )
        assert rts._pool(d, _dominator_sets(d)) == [0, 1]
        items = f.classify_all(d)
        assert items == [f.classify_unit(d, o) for o in range(d.n)]
        assert (items[0].sigma.sigma_plus, items[0].sigma.plus_witness) == (0.5, 2)

    def test_tiny_pool_row_gets_the_full_table(self):
        # k and e are a millionth of o's size and 1e-11 apart, relative: too far
        # for the pool. But 1 - alpha and 1 - beta round alike, so k ties e on
        # o's sigma_minus and, first by index, is its witness.
        k, e = (1e-6 * (1 + 1e-11), 1e-6 * (1 - 1e-11)), (1e-6, 1e-6)
        d = f.validate_dataset(
            ["k", "e", "o"], [[k[0]], [e[0]], [1.0]], [[k[1]], [e[1]], [1.0]]
        )
        assert rts._pool(d, _dominator_sets(d)) == [1, 2]
        items = f.classify_all(d)
        assert items == [f.classify_unit(d, o) for o in range(d.n)]
        assert (items[2].sigma.sigma_minus, items[2].sigma.minus_witness) == (1.0, 0)

    def test_score_mappings_iterate_in_delta_order(self):
        # E is dominated and outside the pool [A, B, C, D], so its scores come
        # from the pool's table; the report's records read them in this order
        d = with_dominated("E", x=(4,), y=(4,))
        assert rts._pool(d, _dominator_sets(d)) == [0, 1, 2, 3]
        items = f.classify_all(d)
        assert isinstance(items[4], InefficientUnit)
        for item in items + [f.classify_unit(d, o) for o in range(d.n)]:
            assert list(item.scores.theta) == list(Delta)
            assert list(item.scores.phi) == list(Delta)

    def test_solo_unit_report(self):
        d = f.validate_dataset(["solo"], [[2]], [[5]])
        (item,) = f.classify_all(d)
        assert item.one_sided == OneSidedRts(RightRts.DRS, LeftRts.IRS)
        assert item.grs is GrsClass.CRS
        assert item.mpss is True
        assert item.sigma.sigma_plus == 0
        assert item.sigma.sigma_minus is UNBOUNDED


class TestConsistency:
    def test_sound_reports_have_no_violations(self, stair):
        for item in f.classify_all(stair):
            assert f.check_consistency(item) == []

    def test_sound_reports_on_constructed_examples(self):
        for d in (
            scaled_down_example(),
            f.validate_dataset(["o", "small"], [[2], [1]], [[2], [F(3, 2)]]),
            f.validate_dataset(["solo"], [[2]], [[5]]),
        ):
            for item in f.classify_all(d):
                if isinstance(item, RtsReport):
                    assert f.check_consistency(item) == []

    def test_swapped_right_class_is_caught(self, stair):
        report = f.classify_all(stair)[0]
        broken = report._replace(
            one_sided=OneSidedRts(RightRts.DRS, report.one_sided.left)
        )
        messages = f.check_consistency(broken)
        assert len(messages) == 2
        assert any("incremental ratio" in msg for msg in messages)
        assert any("not right-increasing" in msg for msg in messages)

    def test_tampered_ratio_is_caught(self, stair):
        report = f.classify_all(stair)[0]
        broken = report._replace(sigma=report.sigma._replace(sigma_plus=F(1, 2)))
        messages = f.check_consistency(broken)
        assert any("disagrees" in msg for msg in messages)

    def test_constant_class_bounds_both_ratios(self, stair):
        report = f.classify_all(stair)[3]
        assert report.grs is GrsClass.CRS
        broken = report._replace(sigma=report.sigma._replace(sigma_plus=F(2)))
        messages = f.check_consistency(broken)
        assert any("globally constant" in msg for msg in messages)

    def test_sub_constant_class_straddles_one(self):
        report = f.classify_all(scaled_down_example())[0]
        assert report.grs is GrsClass.SCRS and f.check_consistency(report) == []
        # an unbounded decremental ratio with a matching left class: only the
        # global class is off
        broken = report._replace(
            sigma=report.sigma._replace(sigma_minus=UNBOUNDED),
            one_sided=OneSidedRts(RightRts.IRS, LeftRts.IRS),
        )
        assert f.check_consistency(broken) == [
            "globally sub-constant unit has ratios Fraction(5, 2)/inf not straddling 1"
        ]

    def test_unbounded_decrement_counts_as_large(self, stair):
        # the smallest unit has no smaller peer; its left class must be IRS
        report = f.classify_all(stair)[0]
        assert report.sigma.sigma_minus is UNBOUNDED
        assert report.one_sided.left is LeftRts.IRS
        assert f.check_consistency(report) == []
