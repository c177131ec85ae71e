"""Invariants checked over generated data.

Hypothesis drives the structural properties, the equivalence of the fast
CSV cell parse and dataset digest with their ``Fraction`` references, and a
fuzz of the command line on random CSV text; a seeded loop at the end
replays the adversarial construction (duplicates and exact ray copies)
that floats tend to get wrong, in exact arithmetic.
"""

import contextlib
import hashlib
import io
import random
from fractions import _RATIONAL_FORMAT, Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import fdhscale as f
from fdhscale import Delta, ParseError, Point, RtsReport, ValueSpreadError
from fdhscale.io_cli import _cell, _digest
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
