"""Invariants checked over generated data.

Hypothesis drives the structural properties; a seeded loop at the end
replays the adversarial construction (duplicates and exact ray copies)
that floats tend to get wrong, in exact arithmetic.
"""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import fdhscale as f
from fdhscale import Delta, Point, RtsReport
from fdhscale.oracle import _curve_runs
from fdhscale.technology import dominating_peer

DELTAS = tuple(Delta)


@st.composite
def datasets(draw, max_units=6, max_in=2, max_out=2):
    n = draw(st.integers(1, max_units))
    m = draw(st.integers(1, max_in))
    s = draw(st.integers(1, max_out))

    def value():
        return F(draw(st.integers(1, 12)), draw(st.integers(1, 6)))

    names = [f"U{i + 1}" for i in range(n)]
    inputs = [[value() for _ in range(m)] for _ in range(n)]
    outputs = [[value() for _ in range(s)] for _ in range(n)]
    return f.validate_dataset(names, inputs, outputs)


positive = st.fractions(min_value=F(1, 6), max_value=F(12))


@given(datasets(), positive, positive)
@settings(max_examples=60, deadline=None)
def test_scores_ignore_units_of_measurement(d, cx, cy):
    scaled = f.validate_dataset(
        d.names,
        [[cx * v for v in row] for row in d.inputs],
        [[cy * v for v in row] for row in d.outputs],
    )
    for o in range(d.n):
        for delta in DELTAS:
            assert f.theta(scaled, delta, o).value == f.theta(d, delta, o).value
            assert f.phi(scaled, delta, o).value == f.phi(d, delta, o).value


@given(datasets())
@settings(max_examples=60, deadline=None)
def test_score_bounds_and_regime_nesting(d):
    for o in range(d.n):
        th = {delta: f.theta(d, delta, o).value for delta in DELTAS}
        ph = {delta: f.phi(d, delta, o).value for delta in DELTAS}
        assert all(0 < th[delta] <= 1 for delta in DELTAS)
        assert all(ph[delta] >= 1 for delta in DELTAS)
        assert th[Delta.CRS] <= th[Delta.NIRS] <= th[Delta.VRS]
        assert th[Delta.CRS] <= th[Delta.NDRS] <= th[Delta.VRS]
        assert ph[Delta.VRS] <= ph[Delta.NIRS] <= ph[Delta.CRS]
        assert ph[Delta.VRS] <= ph[Delta.NDRS] <= ph[Delta.CRS]
        assert ph[Delta.CRS] * th[Delta.CRS] == 1


@given(datasets())
@settings(max_examples=60, deadline=None)
def test_dominance_matches_componentwise_definition(d):
    for o in range(d.n):
        xo, yo = d.unit(o)
        direct = any(
            all(a <= b for a, b in zip(d.inputs[j], xo))
            and all(a >= b for a, b in zip(d.outputs[j], yo))
            and (d.inputs[j], d.outputs[j]) != (xo, yo)
            for j in range(d.n)
        )
        assert (f.find_dominating(d, Delta.VRS, o) is not None) == direct


NEAR_ONE = (1.0, 1.0 + 2**-52, 1.0 - 2**-53)


@st.composite
def near_tie_datasets(draw, exact):
    """Rows drawn from values one ulp apart around 1 and small integers,
    plus duplicate rows and proportional copies of earlier rows."""
    n = draw(st.integers(1, 7))
    m = draw(st.integers(1, 2))
    s = draw(st.integers(1, 2))
    pool = st.sampled_from(NEAR_ONE + (2.0, 3.0))
    inputs, outputs = [], []
    for _ in range(n):
        kind = draw(st.sampled_from(["fresh", "duplicate", "copy"])) if inputs else "fresh"
        if kind == "fresh":
            inputs.append([draw(pool) for _ in range(m)])
            outputs.append([draw(pool) for _ in range(s)])
        else:
            k = draw(st.integers(0, len(inputs) - 1))
            t = 1.0 if kind == "duplicate" else draw(st.sampled_from([0.5, 2.0, 3.0]))
            inputs.append([t * v for v in inputs[k]])
            outputs.append([t * v for v in outputs[k]])
    d = f.validate_dataset([f"U{i + 1}" for i in range(n)], inputs, outputs)
    return d.as_exact() if exact else d


@given(st.one_of(near_tie_datasets(exact=False), near_tie_datasets(exact=True), datasets()))
@settings(max_examples=150, deadline=None)
def test_table_dominance_matches_interval_test(d):
    for o in range(d.n):
        rt = f.ratio_table(d, o)
        assert dominating_peer(d, rt) == f.find_dominating(d, Delta.VRS, o)


@given(datasets(), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_response_is_canonical_monotone_and_agrees_with_scans(d, salt):
    rng = random.Random(salt)
    for o in range(d.n):
        r = f.build_response(d, o)
        ts = [t for t, _ in r.steps]
        vs = [v for _, v in r.steps]
        assert ts == sorted(set(ts)) and vs == sorted(set(vs))
        assert r.alpha_min == ts[0]
        rt = f.ratio_table(d, o)
        assert max(vs) == max(rt.beta)
        queries = [r.alpha_min + F(rng.randint(0, 400), 100) for _ in range(5)]
        queries += ts
        last = None
        for alpha in sorted(queries):
            val = r.evaluate(alpha)
            assert val == f.oracle_response_value(d, o, alpha)
            if last is not None:
                assert val >= last
            last = val


small = st.builds(F, st.integers(1, 16), st.sampled_from([1, 2, 4]))


@given(
    st.lists(st.tuples(small, small), min_size=1, max_size=8),
    st.lists(st.lists(small, max_size=12), min_size=1, max_size=3),
    st.data(),
)
@settings(max_examples=200, deadline=None)
def test_curve_merge_equals_rescan(pairs, runs, data):
    # runs mix fresh points with points exactly at a threshold; some ascend
    runs = [
        run + data.draw(st.lists(st.sampled_from([a for a, _ in pairs])))
        for run in runs
    ]
    runs = [sorted(run) if data.draw(st.booleans()) else run for run in runs]
    lowest = min(a for a, _ in pairs)
    try:
        want = [(p, max(b for a, b in pairs if a <= p)) for run in runs for p in run]
    except ValueError:
        assert any(p < lowest for run in runs for p in run)
        with pytest.raises(ValueError):
            list(_curve_runs(pairs, *runs))
        return
    assert list(_curve_runs(pairs, *runs)) == want


@given(datasets(), positive, positive)
@settings(max_examples=60, deadline=None)
def test_free_disposal(d, extra, keep):
    keep = min(keep, F(1))
    for o in range(d.n):
        xo, yo = d.unit(o)
        p = Point(tuple(v + extra for v in xo), tuple(v * keep for v in yo))
        for delta in DELTAS:
            assert f.member(d, delta, p)


@given(datasets())
@settings(max_examples=60, deadline=None)
def test_membership_nesting_at_observed_points(d):
    for o in range(d.n):
        p = Point(*d.unit(o))
        assert f.member(d, Delta.VRS, p)
        assert f.member(d, Delta.NIRS, p)
        assert f.member(d, Delta.NDRS, p)
        assert f.member(d, Delta.CRS, p)


@given(datasets(max_units=5), st.integers(0, 4))
@settings(max_examples=50, deadline=None)
def test_duplicate_rows_change_nothing(d, pick):
    o = pick % d.n
    twin = f.validate_dataset(
        list(d.names) + ["TWIN"],
        [list(r) for r in d.inputs] + [list(d.inputs[o])],
        [list(r) for r in d.outputs] + [list(d.outputs[o])],
    )
    for k in range(d.n):
        assert f.is_efficient(twin, Delta.VRS, k) == f.is_efficient(d, Delta.VRS, k)
        for delta in DELTAS:
            assert f.theta(twin, delta, k).value == f.theta(d, delta, k).value
    # the twin inherits its original's standing and classes
    assert f.is_efficient(twin, Delta.VRS, d.n) == f.is_efficient(d, Delta.VRS, o)
    if f.is_efficient(d, Delta.VRS, o):
        assert f.right_rts(twin, d.n) == f.right_rts(d, o)
        assert f.left_rts(twin, d.n) == f.left_rts(d, o)
        assert f.grs(twin, d.n) == f.grs(d, o)


@given(datasets())
@settings(max_examples=60, deadline=None)
def test_every_unit_classifies_and_reports_are_consistent(d):
    items = f.classify_all(d)
    assert len(items) == d.n
    for item in items:
        if isinstance(item, RtsReport):
            assert f.check_consistency(item) == []
        else:
            # output-slack domination leaves the radial input score at 1
            assert 0 < item.theta_vrs <= 1
            assert item.witness != item.reference


def test_adversarial_duplicates_and_rays_in_exact_arithmetic():
    for t in range(40):
        rng = random.Random(f"adv:{t}")
        base = f.random_dataset(9000 + t, rng.randint(1, 6), rng.randint(1, 2), rng.randint(1, 2))
        o = rng.randrange(base.n)
        factor = F(rng.randint(1, 6), rng.randint(1, 6))
        names = list(base.names) + ["DUP", "RAY"]
        inputs = [list(r) for r in base.inputs]
        outputs = [list(r) for r in base.outputs]
        inputs += [list(base.inputs[o]), [factor * v for v in base.inputs[o]]]
        outputs += [list(base.outputs[o]), [factor * v for v in base.outputs[o]]]
        d = f.validate_dataset(names, inputs, outputs)
        items = f.classify_all(d)
        for item in items:
            if isinstance(item, RtsReport):
                assert f.check_consistency(item) == []
        # a duplicate never demotes its original
        assert isinstance(items[o], RtsReport) == isinstance(items[base.n], RtsReport)
