from fractions import Fraction as F

import pytest

import fdhscale as f
from fdhscale import Delta, Orientation

from conftest import with_dominated


DELTAS = (Delta.VRS, Delta.CRS, Delta.NIRS, Delta.NDRS)

EXPECTED_THETA = {
    # unit -> scores under (VRS, CRS, NIRS, NDRS)
    "A": (F(1), F(12, 13), F(12, 13), F(1)),
    "B": (F(1), F(8, 13), F(8, 13), F(2, 3)),
    "C": (F(1), F(6, 13), F(6, 13), F(1, 2)),
    "D": (F(1), F(1), F(1), F(1)),
}

EXPECTED_PHI = {
    "A": (F(1), F(13, 12), F(13, 12), F(1)),
    "B": (F(1), F(13, 8), F(13, 8), F(3, 2)),
    "C": (F(1), F(13, 6), F(13, 6), F(2)),
    "D": (F(1), F(1), F(1), F(1)),
}


class TestTheta:
    def test_staircase_values_are_exact(self, stair):
        for o, name in enumerate(stair.names):
            got = tuple(f.theta(stair, dl, o).value for dl in DELTAS)
            assert got == EXPECTED_THETA[name], name

    def test_staircase_witnesses(self, stair):
        assert stair.names[f.theta(stair, Delta.CRS, 1).witness] == "D"
        assert stair.names[f.theta(stair, Delta.NDRS, 1).witness] == "A"
        assert f.theta(stair, Delta.VRS, 1).witness == 1

    def test_score_carries_attaining_scale(self, stair):
        # the winning move shrinks the largest unit to 5/13 of its size
        s = f.theta(stair, Delta.NIRS, 2)
        assert s.delta == F(5, 13) and stair.names[s.witness] == "D"
        assert f.theta(stair, Delta.VRS, 2).delta == 1

    def test_witness_is_self_when_self_optimal(self, stair):
        s = f.theta(stair, Delta.CRS, 3)
        assert s.value == 1 and s.witness == 3


class TestPhi:
    def test_staircase_values_are_exact(self, stair):
        for o, name in enumerate(stair.names):
            got = tuple(f.phi(stair, dl, o).value for dl in DELTAS)
            assert got == EXPECTED_PHI[name], name

    def test_fixed_scale_witness(self, stair):
        assert f.phi(stair, Delta.VRS, 0).witness == 0

    def test_scaled_witness(self, stair):
        assert stair.names[f.phi(stair, Delta.CRS, 2).witness] == "D"


class TestStructure:
    def test_radial_dispatch(self, stair):
        assert f.radial(stair, Delta.CRS, Orientation.INPUT, 1) == f.theta(
            stair, Delta.CRS, 1
        )
        assert f.radial(stair, Delta.CRS, Orientation.OUTPUT, 1) == f.phi(
            stair, Delta.CRS, 1
        )

    def test_compute_scores_covers_all_regimes(self, stair):
        sc = f.classify_unit(stair, 1).scores
        assert sc.reference == 1
        assert set(sc.theta) == set(DELTAS) and set(sc.phi) == set(DELTAS)
        assert sc.theta[Delta.CRS].value == F(8, 13)
        assert sc.phi[Delta.CRS].value == F(13, 8)

    def test_regime_ordering(self, stair):
        for o in range(stair.n):
            th = {dl: f.theta(stair, dl, o).value for dl in DELTAS}
            ph = {dl: f.phi(stair, dl, o).value for dl in DELTAS}
            assert th[Delta.CRS] <= th[Delta.NIRS] <= th[Delta.VRS] <= 1
            assert th[Delta.CRS] <= th[Delta.NDRS] <= th[Delta.VRS]
            assert 1 <= ph[Delta.VRS] <= ph[Delta.NIRS] <= ph[Delta.CRS]
            assert ph[Delta.VRS] <= ph[Delta.NDRS] <= ph[Delta.CRS]

    def test_scaled_score_combines_one_sided_scores(self, stair):
        for o in range(stair.n):
            assert f.theta(stair, Delta.CRS, o).value == min(
                f.theta(stair, Delta.NIRS, o).value,
                f.theta(stair, Delta.NDRS, o).value,
            )
            assert f.phi(stair, Delta.CRS, o).value == max(
                f.phi(stair, Delta.NIRS, o).value,
                f.phi(stair, Delta.NDRS, o).value,
            )

    def test_output_scaled_score_is_reciprocal_of_input_scaled(self, stair):
        for o in range(stair.n):
            assert f.phi(stair, Delta.CRS, o).value == 1 / f.theta(
                stair, Delta.CRS, o
            ).value

    def test_input_dominated_unit(self):
        d = with_dominated("E", x=(4,), y=(4,))
        assert f.theta(d, Delta.VRS, 4).value == F(3, 4)
        assert d.names[f.theta(d, Delta.VRS, 4).witness] == "B"
        # the slack sits entirely in the input, so the output score stays 1
        assert f.phi(d, Delta.VRS, 4).value == F(1)

    def test_output_dominated_unit(self):
        d = with_dominated("E", x=(6,), y=(5,))
        assert f.theta(d, Delta.VRS, 4).value == F(5, 6)
        assert d.names[f.theta(d, Delta.VRS, 4).witness] == "C"
        assert f.phi(d, Delta.VRS, 4).value == F(13, 5)
        assert d.names[f.phi(d, Delta.VRS, 4).witness] == "D"

    def test_single_unit_scores_are_one(self):
        d = f.validate_dataset(["solo"], [[5, 2]], [[3]])
        for dl in DELTAS:
            assert f.theta(d, dl, 0).value == 1
            assert f.phi(d, dl, 0).value == 1

    def test_index_checked(self, stair):
        with pytest.raises(f.IndexOutOfRangeError):
            f.theta(stair, Delta.VRS, -1)


class TestMostProductiveScale:
    def test_staircase_has_unique_best_scale_unit(self, stair):
        flags = [f.classify_unit(stair, o).mpss for o in range(stair.n)]
        assert flags == [False, False, False, True]

    def test_all_units_on_common_ray_have_best_scale(self):
        d = f.validate_dataset(["r1", "r2", "r3"], [[1], [2], [3]], [[2], [4], [6]])
        assert all(f.classify_unit(d, o).mpss for o in range(3))

    def test_float_and_exact_agree(self, stair, stair_float):
        for o in range(stair.n):
            assert f.classify_unit(stair, o).mpss == f.classify_unit(stair_float, o).mpss


def test_float_scores_match_exact_to_machine_precision(stair, stair_float):
    for o in range(stair.n):
        for dl in DELTAS:
            assert abs(float(f.theta(stair, dl, o).value) - f.theta(stair_float, dl, o).value) < 1e-12
            assert abs(float(f.phi(stair, dl, o).value) - f.phi(stair_float, dl, o).value) < 1e-12
