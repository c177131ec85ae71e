"""The package's records: named tuples that print and refuse change as before."""

from fractions import Fraction as F

import pytest

import fdhscale as f
from fdhscale import oracle

from conftest import make_staircase


def _records():
    """One record of each kind, built the way the package builds them."""
    d = make_staircase()
    # D, with more input and less output than C, is the one dominated unit
    small = f.validate_dataset("ABCD", [[1], [2], [3], [4]], [[1], [3], [4], [2]])
    report, _, _, dominated = f.classify_all(small)
    return {
        "Tolerance": f.Tolerance(),
        "Dataset": d,
        "RatioTable": f.ratio_table(d, 0),
        "Score": f.theta(d, f.Delta.CRS, 1),
        "EfficiencyScores": report.scores,
        "OneSidedRts": report.one_sided,
        "RtsReport": report,
        "InefficientUnit": dominated,
        "ScaleRatios": f.scale_ratios(d, 1),
        "Point": f.Point([1], [2]),
        "ResponseFunction": f.build_response(d, 1),
        "OracleConfig": f.OracleConfig(grid_steps=100),
        "CheckResult": f.CheckResult("x", True, "ok"),
    }


RECORDS = _records()


class TestRepr:
    # the texts the frozen dataclasses printed; verify's FAIL lines quote them
    def test_score(self):
        assert repr(f.theta(make_staircase(), f.Delta.CRS, 1)) == (
            "Score(value=Fraction(8, 13), witness=3, delta=Fraction(4, 13))"
        )

    def test_tolerance(self):
        assert repr(f.Tolerance()) == "Tolerance(eps=1e-09)"
        assert repr(f.Tolerance(eps=1e-6)) == "Tolerance(eps=1e-06)"

    def test_scale_ratios(self):
        d = make_staircase()
        assert repr(f.scale_ratios(d, 0)) == (
            "ScaleRatios(reference=0, sigma_plus=Fraction(11, 10), sigma_minus=inf, "
            "plus_witness=3, minus_witness=None)"
        )
        assert repr(f.scale_ratios(d, 3)) == (
            "ScaleRatios(reference=3, sigma_plus=0, sigma_minus=Fraction(66, 65), "
            "plus_witness=None, minus_witness=0)"
        )


@pytest.mark.parametrize("kind", sorted(RECORDS))
def test_a_field_cannot_be_assigned(kind):
    record = RECORDS[kind]
    field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, None)


# the three left out hold score dicts, which do not hash
UNHASHABLE = {"EfficiencyScores", "RtsReport", "InefficientUnit"}


@pytest.mark.parametrize("kind", sorted(set(RECORDS) - UNHASHABLE))
def test_equal_records_hash_equal(kind):
    record = RECORDS[kind]
    twin = type(record)(*record)
    assert twin == record and twin is not record
    assert hash(twin) == hash(record)


def test_records_are_named_tuples():
    sc = f.Score(F(1, 2), 3, 1)
    assert sc == (F(1, 2), 3, 1) and len(sc) == 3
    value, witness, delta = sc
    assert (value, witness, delta) == (sc.value, sc.witness, sc.delta)
    assert sc._replace(witness=0) == f.Score(F(1, 2), 0, 1)
    assert f.RtsReport(**RECORDS["RtsReport"]._asdict()) == RECORDS["RtsReport"]


class TestConstructors:
    def test_tolerance_default_and_bounds(self):
        assert f.Tolerance().eps == 1e-9
        assert f.Tolerance(eps=1e-4).eps == 1e-4
        assert f.Tolerance()._replace(eps=1e-4) == f.Tolerance(1e-4)
        for build in (lambda: f.Tolerance(0), lambda: f.Tolerance()._replace(eps=0)):
            with pytest.raises(ValueError, match=r"^eps must lie in \(0, 1e-3\), got 0$"):
                build()

    def test_oracle_config_floor(self):
        assert f.OracleConfig().grid_steps == 10_000
        for build in (
            lambda: f.OracleConfig(grid_steps=99),
            lambda: f.OracleConfig()._replace(grid_steps=99),
        ):
            with pytest.raises(ValueError, match="^grid_steps must be >= 100, got 99$"):
                build()

    def test_point_keeps_tuples(self):
        p = f.Point([1], [2])
        assert p.x == (1,) and p.y == (2,)
        assert f.Point(x=iter([1, 2]), y=[3]) == ((1, 2), (3,))
        assert p._replace(x=[3]).x == (3,)

    def test_dataset_builds_its_columns_once(self):
        d = make_staircase()
        assert d.columns is d.columns
        assert d._replace(names=("P", "Q", "R", "S")).columns == d.columns


def test_verify_random_prefixes_each_passing_detail(monkeypatch):
    details = iter(["first", "second"])

    def battery(d, tol):
        detail = next(details)
        pairs = (("ok", True), ("bad", False))
        return [oracle.CheckResult(name, ok, detail) for name, ok in pairs]

    monkeypatch.setattr(oracle, "verify_dataset", battery)
    assert oracle.verify_random(2) == [
        ("ok", True, "2 datasets, last: second"),
        ("bad", False, "first"),
    ]
