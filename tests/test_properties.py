"""Invariants checked over generated data.

Hypothesis drives the structural properties, the equivalence of the fast
CSV cell parse and dataset digest with their ``Fraction`` references, of the
column-wise CSV read and validation with their row loops, of the oracle's
breakpoint walk with a dense comparison, and a fuzz of the command line on
random CSV text; a seeded loop at the end
replays the adversarial construction (duplicates and exact ray copies)
that floats tend to get wrong, in exact arithmetic.
"""

import contextlib
import functools
import hashlib
import io
import math
import random
from fractions import _RATIONAL_FORMAT, Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import fdhscale as f
from fdhscale import Delta, ParseError, Point, RtsReport, ValueSpreadError
from fdhscale import io_cli, model, oracle
from fdhscale.io_cli import _cell, _digest
from fdhscale.oracle import _curve_runs
from fdhscale.rts import _frontier_pool
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


@st.composite
def tie_heavy_datasets(draw, exact):
    """Rows derived from earlier rows: duplicates, copies scaled by k, and
    copies with only the outputs or only the inputs scaled (by 2, 3, 1/2 or
    one ulp either way), then shuffled. A copy of either of the last two
    kinds dominates or is dominated by its source while keeping every
    input or every output, so the two often tie on scores, and the
    dominated one often comes first by index."""
    n = draw(st.integers(2, 8))
    m = draw(st.integers(1, 2))
    s = draw(st.integers(1, 2))
    pool = st.sampled_from(NEAR_ONE + (2.0, 3.0))
    factor = st.sampled_from([0.5, 1.0 - 2**-53, 2.0, 1.0 + 2**-52, 3.0])
    inputs = [[draw(pool) for _ in range(m)]]
    outputs = [[draw(pool) for _ in range(s)]]
    for _ in range(n - 1):
        kind = draw(st.sampled_from(["fresh", "duplicate", "copy", "outputs", "inputs"]))
        k = draw(st.integers(0, len(inputs) - 1))
        t = 1.0 if kind == "duplicate" else draw(factor)
        if kind == "fresh":
            inputs.append([draw(pool) for _ in range(m)])
            outputs.append([draw(pool) for _ in range(s)])
        else:
            inputs.append([v * (1 if kind == "outputs" else t) for v in inputs[k]])
            outputs.append([v * (1 if kind == "inputs" else t) for v in outputs[k]])
    order = draw(st.permutations(range(n)))
    d = f.validate_dataset(
        [f"U{i + 1}" for i in range(n)],
        [inputs[k] for k in order],
        [outputs[k] for k in order],
    )
    return d.as_exact() if exact else d


TIE_DATA = (
    near_tie_datasets(exact=False),
    near_tie_datasets(exact=True),
    tie_heavy_datasets(exact=False),
    tie_heavy_datasets(exact=True),
)


@given(st.one_of(*TIE_DATA))
@settings(max_examples=150, deadline=None)
def test_skyline_finds_exactly_the_undominated_units(d):
    frontier, pool = _frontier_pool(d)
    assert frontier == {o for o in range(d.n) if f.find_dominating(d, Delta.VRS, o) is None}
    assert pool == sorted(set(pool)) and frontier <= set(pool)


def _each_unit(classify):
    try:
        return classify()
    except f.UnclassifiableError as exc:
        return str(exc)


@given(st.one_of(*TIE_DATA))
@settings(max_examples=400, deadline=None)
def test_frontier_first_classify_all_equals_classifying_each_unit(d):
    got = _each_unit(lambda: f.classify_all(d))
    want = _each_unit(lambda: [f.classify_unit(d, o) for o in range(d.n)])
    # every field of every unit, each score's witness and scaling included
    assert got == want


def _defined_score(rt, delta, orientation):
    """A score by its regime's definition, as a (value, witness, scaling) triple.

    Each peer is scaled by the smallest admitted factor t that covers the
    unit's outputs (theta), or by the largest that fits in its inputs (phi),
    and the best value wins, the lowest index on a tie.
    """
    lo, hi = delta.bounds
    inward = orientation is f.Orientation.INPUT
    found = []
    for j, (a, b) in enumerate(zip(rt.alpha, rt.beta)):
        if inward:
            t = max(lo, 1 / b)
            if hi is None or t <= hi:
                found.append((t * a, j, t))
        else:
            t = 1 / a if hi is None else min(hi, 1 / a)
            if t >= lo:
                found.append((t * b, j, t))
    return min(found, key=lambda c: (c[0] if inward else -c[0], c[1]))


@given(st.one_of(tie_heavy_datasets(exact=True), datasets()))
@settings(max_examples=200, deadline=None)
def test_every_score_matches_its_regime_definition(d):
    # the frontier-first path included: dominated units score against a pool
    for item in f.classify_all(d):
        rt = f.ratio_table(d, item.reference)
        for orientation, side in (
            (f.Orientation.INPUT, item.scores.theta),
            (f.Orientation.OUTPUT, item.scores.phi),
        ):
            for delta in DELTAS:
                got = side[delta]
                want = _defined_score(rt, delta, orientation)
                assert (got.value, got.witness, got.delta) == want, (delta, orientation)


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


def _dense_reference(pairs):
    """A dense comparison with the exact curve of ``pairs``, and the curve.

    ``misses(steps, evaluate)`` lists the points where ``evaluate`` differs
    from a rescan of the pairs, among the given thresholds, their
    midpoints, a 100-step grid from the smallest alpha to
    ``max(10 * largest alpha, 2)`` and every pair threshold: more points
    than the breakpoint walk needs.
    """
    alphas = [a for a, _ in pairs]
    lo, hi = min(alphas), max(10 * max(alphas), F(2))
    base = {*alphas, *(lo + (hi - lo) * k / 100 for k in range(101))}
    curve = functools.cache(lambda p: max(b for a, b in pairs if a <= p))

    def misses(steps, evaluate):
        mids = [(u + v) / 2 for u, v in zip(steps, steps[1:])]
        return [p for p in base.union(steps, mids) if evaluate(p) != curve(p)]

    return misses, curve


def _perturbed(steps, pairs, rng):
    """The true step list with one change, once per kind of change.

    A step value changes, a step is inserted, a step is dropped, or a
    threshold moves between its neighbours. Every copy keeps the first
    threshold, where the domain starts, and strictly ascending thresholds;
    some changes leave the curve as it was (an inserted step that repeats
    the value before it, a move back to the same place).
    """
    alphas = sorted({a for a, _ in pairs})
    top = max(10 * alphas[-1], F(2)) + 1
    values = [v for _, v in steps]

    def between(lst, k):
        # a pair threshold or a fresh point after threshold k - 1 and before k
        lo = lst[k - 1][0]
        hi = lst[k][0] if k < len(lst) else top
        inside = [a for a in alphas if lo < a < hi]
        return rng.choice(inside + [lo + (hi - lo) * F(rng.randint(1, 99), 100)])

    k = rng.randrange(len(steps))
    t, v = steps[k]
    new_v = rng.choice([v / 2, 2 * v, v + F(1, 2**60), *values])
    yield steps[:k] + [(t, new_v)] + steps[k + 1 :]
    k = rng.randrange(1, len(steps) + 1)
    new = (between(steps, k), rng.choice([*values, 2 * values[-1]]))
    yield steps[:k] + [new] + steps[k:]
    if len(steps) > 1:
        k = rng.randrange(1, len(steps))
        rest = steps[:k] + steps[k + 1 :]
        yield rest
        yield rest[:k] + [(between(rest, k), steps[k][1])] + rest[k:]


def _breakpoint_walk_is_complete(d, rng):
    """Check the response walk of every unit against the dense comparison.

    Returns how many changed step lists the dense comparison caught.
    """
    caught = 0
    for o in range(d.n):
        pairs = oracle._exact_pairs(d, o)
        misses, curve = _dense_reference(pairs)
        true = list(f.build_response(d, o).steps)
        right = f.ResponseFunction(o, tuple(true)).evaluate
        assert oracle._walk(pairs, [t for t, _ in true], right)[0] is None
        for steps in _perturbed(true, pairs, rng):
            ts = [t for t, _ in steps]
            evaluate = f.ResponseFunction(o, tuple(steps)).evaluate
            dense = misses(ts, evaluate)
            miss, _ = oracle._walk(pairs, ts, evaluate)
            if dense:
                caught += 1
                # both curves are constant between the walk's points, so the
                # walk meets a difference no later than any denser check
                assert miss is not None and miss <= min(dense), (o, steps)
            if miss is not None:
                assert evaluate(miss) != curve(miss), (o, steps)
    return caught


def test_breakpoint_walk_finds_every_difference_on_seeded_data():
    rng = random.Random("walk")
    caught = 0
    for seed in range(40):
        d = f.random_dataset(3000 + seed, 2 + seed % 7, 1 + seed % 2, 1 + seed % 3)
        caught += _breakpoint_walk_is_complete(d, rng)
    assert caught > 100


@given(tie_heavy_datasets(exact=True), st.integers(0, 2**32))
@settings(max_examples=100, deadline=None)
def test_breakpoint_walk_finds_every_difference_on_tie_heavy_data(d, salt):
    _breakpoint_walk_is_complete(d, random.Random(salt))


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
    def efficient(data, k):
        return f.find_dominating(data, Delta.VRS, k) is None

    for k in range(d.n):
        assert efficient(twin, k) == efficient(d, k)
        for delta in DELTAS:
            assert f.theta(twin, delta, k).value == f.theta(d, delta, k).value
    # the twin inherits its original's standing and classes
    assert efficient(twin, d.n) == efficient(d, o)
    if efficient(d, o):
        item, copy = f.classify_unit(d, o), f.classify_unit(twin, d.n)
        assert copy.one_sided.right == item.one_sided.right
        assert copy.one_sided.left == item.one_sided.left
        assert copy.grs == item.grs


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


@st.composite
def ray_tie_datasets(draw):
    """One input from {0.5, 1, 1.5, 2}; each output is the input times 0.5, 1
    or 2, off that ray by up to 3e-8 relative, so many scale ratios land a
    few eps from 1, where eps decides the one-sided class."""
    n, s = draw(st.integers(1, 8)), draw(st.integers(1, 2))
    inputs, outputs = [], []
    for _ in range(n):
        x = draw(st.sampled_from([0.5, 1.0, 1.5, 2.0]))
        inputs.append([x])
        ratios = [draw(st.sampled_from([0.5, 1.0, 2.0])) for _ in range(s)]
        outputs.append([x * r * (1 + draw(st.floats(-3e-8, 3e-8))) for r in ratios])
    return f.validate_dataset([f"U{i + 1}" for i in range(n)], inputs, outputs)


@given(ray_tie_datasets())
@settings(max_examples=300, deadline=None)
def test_one_sided_classes_follow_the_reported_ratios_near_one(d):
    for item in f.classify_all(d):
        if isinstance(item, RtsReport):
            bad = f.check_consistency(item)
            assert not [m for m in bad if m.startswith(("right class", "left class"))]


# CSV cells: float reprs (with nan, inf, -0.0 and subnormals), fraction
# literals (some over zero), nan/inf spellings, underscores and Unicode
# digits in valid and invalid places, values beyond double range either
# way (some with exponents too far out to build 10**exponent quickly), cells
# too long for the short-cell fast path, and arbitrary text.
SPELLINGS = [
    "nan", "-NaN", "inf", "+Infinity", "-inf", "iNfInItY", "1e400", "-1e400",
    "1e-400", "-1e-400", "2e-324", "3e-324", "5e-324", "1.8e308",
    "1.7976931348623157e308", ".5", "5.", "+3", "-0", "+0.0", "00012", "1_000",
    "1__0", "_1", "1_", "1e1_0", "0x10", "13/4", "1 / 2", "1/0", "١٢٣",
    "１２.５", "٣e٢", "", " 7 ", "0." + "1" * 700, "0." + "1" * 5000, "1" * 5000,
    "1e300000", "-1e300000", "1e-300000", "-1e-300000", "0e300000", "-0.0e-300000",
    "1" * 700 + "e300000", "0." + "0" * 700 + "1e-300000", "0E1000001", "1e-1000001",
    "1/2e9999999", "1 e9999999", "1" * 5000 + "e9999999",
]
cells = st.one_of(
    st.floats().map(repr),
    st.builds("{}/{}".format, st.integers(-50, 10**20), st.integers(0, 10**6)),
    st.sampled_from(SPELLINGS),
    st.text(alphabet="0123456789_.eE+-/ ٣１", max_size=14),
    st.text(max_size=8),
)


def _outcome(parse, *args):
    try:
        value = parse(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return type(value), repr(value) if isinstance(value, float) else value


def _fraction_cell(text):
    """The float cell parse by way of ``Fraction``, with the underflow rule."""
    where = f"row 2, column 'in_x': {text!r}"
    try:
        q = F(text)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"row 2, column 'in_x': bad number {text!r}")
    try:
        value = float(q)
    except OverflowError:
        raise ValueSpreadError(f"{where} is outside the double range")
    if q > 0 and value == 0:
        raise ValueSpreadError(f"{where} is outside the double range")
    return value


def _exact_cell(text):
    """``Fraction(text)``, refusing a decimal exponent beyond 10**6 as documented.

    ``Fraction``'s own grammar finds the exponent of a well-formed literal;
    its checks of the digits before the exponent come first.
    """
    try:
        m = _RATIONAL_FORMAT.match(text)
        if m and m["exp"] and abs(int(m["exp"])) > 10**6:
            int(m["num"] or "0"), int(m["decimal"] or "0")
            raise ParseError(
                f"row 2, column 'in_x': {text!r} has an exponent beyond 1000000"
            )
        return F(text)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"row 2, column 'in_x': bad number {text!r}")


@given(cells)
@settings(max_examples=600, deadline=None)
def test_cell_parse_equals_fraction_path(text):
    assert _outcome(_cell, text, False, 2, "in_x") == _outcome(_fraction_cell, text)
    assert _outcome(_cell, text, True, 2, "in_x") == _outcome(_exact_cell, text)


# Padding that str.strip() removes; float() rejects \x1c-\x1f outright, so a
# column holding one of them falls to the row loop.
PADS = ["", " ", "\t", "\x85", "\u00a0", "\u2028", "\u3000"]
CONTROL_PADS = ["\x1c", "\x1d", "\x1e", "\x1f"]
# Spellings on either side of each condition under which a float column is
# read at once: zero and underflow, NaN and infinities, literals only
# Fraction reads, Unicode digits, and cells too long for the short-cell test
# (beyond 4300 digits only Fraction's int conversion refuses them).
FLOAT_CELLS = [
    "-0", "0", "0.0", "-0.0", "nan", "-NaN", "inf", "-inf", "1e400", "-1e400", "1e-400",
    "-1e-400", "5e-324", "1.7976931348623157e308", "13/4", "1_000", "1__0", "١٢٣",
    "１２.５", "-1", "abc", "", "0." + "1" * 700, " " * 700 + "2.5",
]
LONG_CELLS = ["0." + "1" * 5000, "1" + "0" * 5000 + "e-5000", "2." + "5" * 4400]


@st.composite
def float_csv_texts(draw):
    """Float CSV text of padded cells; some tables have odd cells, ragged rows
    or odd names, so that either path of ``read_csv_text`` is taken."""
    m, s = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    pad = st.sampled_from(PADS + (CONTROL_PADS if draw(one_in(4)) else []))
    plain = st.one_of(
        st.floats(1e-3, 1e6).map(repr), st.integers(1, 10**20).map(str)
    ).map(lambda c: draw(pad) + c + draw(pad))
    odd = st.one_of(st.sampled_from(FLOAT_CELLS), st.sampled_from(LONG_CELLS), cells)
    messy, ragged, odd_names = draw(one_in(2)), draw(one_in(4)), draw(one_in(4))
    lines = ["dmu," + ",".join([f"in_{k}" for k in range(m)] + [f"out_{k}" for k in range(s)])]
    for k in range(draw(st.integers(0, 6))):
        width = draw(st.integers(1, 6)) if ragged and draw(one_in(3)) else 1 + m + s
        name = f" U{k}\u00a0" if odd_names else f"U{k}"
        if odd_names and draw(one_in(3)):
            name = draw(st.sampled_from(["U0", "", " ", "\x1f"]))
        row = [name] + [draw(plain) for _ in range(width - 1)]
        if messy and width > 1:
            row[draw(st.integers(1, width - 1))] = draw(odd)
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _read_outcome(text):
    try:
        d = f.read_csv_text(text)
    except Exception as exc:
        return type(exc), str(exc)
    return d, repr(d)


@given(float_csv_texts())
@settings(max_examples=500, deadline=None)
def test_column_read_equals_row_loop(text):
    by_columns = _read_outcome(text)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(io_cli, "_float_columns", lambda *args: None)
        assert by_columns == _read_outcome(text)


validation_entries = st.one_of(
    st.sampled_from(
        [math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, True, False, 2, F(0), F(-1, 2)]
        + ["1", "x", None]
    ),
    st.floats(),
    st.floats(1e-6, 1e6),
    st.integers(-2, 10**6),
    st.fractions(max_denominator=50),
    st.fractions(F(1, 50), 10**6),
)


@st.composite
def validation_tables(draw):
    """Raw names and rows with one kind per column, then up to two entries
    swapped for any entry at all, and sometimes one row cut or lengthened."""
    n, m, s = draw(st.integers(1, 4)), draw(st.integers(1, 2)), draw(st.integers(1, 2))
    kinds = [
        draw(st.sampled_from([st.floats(1e-6, 1e6), st.fractions(F(1, 50), 50)]))
        for _ in range(m + s)
    ]
    inputs = [[draw(kinds[c]) for c in range(m)] for _ in range(n)]
    outputs = [[draw(kinds[m + c]) for c in range(s)] for _ in range(n)]
    for _ in range(draw(st.integers(0, 2))):
        row = draw(st.sampled_from(inputs + outputs))
        row[draw(st.integers(0, len(row) - 1))] = draw(validation_entries)
    if draw(one_in(6)):
        row = draw(st.sampled_from(inputs + outputs))
        row[:] = row[1:] if draw(st.booleans()) else row + [1.0]
    names = [draw(st.sampled_from([k, f"U{k}", "U0"])) for k in range(n)]
    return names, inputs, outputs


def _validate_outcome(table):
    try:
        d = f.validate_dataset(*table)
    except Exception as exc:
        return type(exc), str(exc)
    return d, repr(d)


@given(validation_tables())
@settings(max_examples=500, deadline=None)
def test_bulk_validation_equals_row_loop(table):
    bulk = _validate_outcome(table)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "_all_positive_finite", lambda *args: False)
        assert bulk == _validate_outcome(table)


def _digest_by_fraction(d):
    h = hashlib.sha256()
    for o in range(d.n):
        line = "|".join(
            [
                d.names[o],
                ",".join(str(F(v)) for v in d.inputs[o]),
                ",".join(str(F(v)) for v in d.outputs[o]),
            ]
        )
        h.update(line.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


entries = st.one_of(
    st.floats(min_value=0, exclude_min=True, allow_infinity=False),
    st.integers(1, 10**30),
    st.fractions(min_value=F(1, 10**12), max_value=F(10**12)),
)


@st.composite
def raw_datasets(draw):
    """Unvalidated datasets mixing float, int and Fraction entries."""
    n, m, s = draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    names = tuple(draw(st.text(max_size=4)) for _ in range(n))
    inputs = tuple(tuple(draw(entries) for _ in range(m)) for _ in range(n))
    outputs = tuple(tuple(draw(entries) for _ in range(s)) for _ in range(n))
    return f.Dataset(names, inputs, outputs)


@given(raw_datasets())
@settings(max_examples=100, deadline=None)
def test_digest_equals_fraction_strings(d):
    assert _digest(d) == _digest_by_fraction(d)


def one_in(k):
    return st.sampled_from([True] + [False] * (k - 1))


@st.composite
def csv_files(draw):
    """CSV bytes: a valid header, then rows that may be ragged, unnamed or repeated.

    Most cells are plain positive numbers; about one row in five has one
    cell drawn from ``cells``, and one in ten has a random width.
    """
    m, s = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    header = ["dmu"] + [f"in_{k}" for k in range(m)] + [f"out_{k}" for k in range(s)]
    plain = st.one_of(st.integers(1, 50).map(str), st.floats(0.01, 100).map(repr))
    lines = [",".join(header)]
    for k in range(draw(st.integers(0, 6))):
        ragged, messy = draw(one_in(10)), draw(one_in(5))
        width = draw(st.integers(0, 7)) if ragged else len(header)
        row = [draw(st.sampled_from([f"U{k}"] * 6 + ["U0", ""]))]
        row += [draw(plain) for _ in range(width - 1)]
        if messy and len(row) > 1:
            row[draw(st.integers(1, len(row) - 1))] = draw(cells)
        lines.append(",".join(row))
    text = "\n".join(lines) + "\n"
    bom = draw(st.sampled_from([b"", b"\xef\xbb\xbf"]))
    bad_byte = draw(st.sampled_from([b""] * 5 + [b"\xff"]))
    return bom + text.encode("utf-8") + bad_byte


def _main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = f.main(argv)
    return code, out.getvalue(), err.getvalue()


@given(data=csv_files())
@settings(max_examples=120, deadline=None)
def test_cli_on_random_csv_exits_cleanly(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("fuzz") / "data.csv"
    path.write_bytes(data)
    for argv in (["report"], ["ratios", "--dmu", "U0"]):
        argv = [argv[0], "--input", str(path), *argv[1:]]
        code, out, err = _main(argv)
        assert code in (0, 1, 2, 3)
        assert err.count("\n") <= 1 and "Traceback" not in err
        assert _main(argv)[1] == out


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
