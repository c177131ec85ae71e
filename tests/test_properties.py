"""Invariants checked over generated data.

Hypothesis drives the structural properties, the equivalence of the fast
CSV cell parse and dataset digest with their ``Fraction`` references, of the
column-wise CSV read and validation with their row loops, of the oracle's
integer core with a ``Fraction`` reference written from the definitions, of
its breakpoint walk with a dense comparison, and a fuzz of the command line on
random CSV text; a seeded loop at the end
replays the adversarial construction (duplicates and exact ray copies)
that floats tend to get wrong, in exact arithmetic.
"""

import contextlib
import copy
import csv
import functools
import hashlib
import io
import math
import pickle
import random
from fractions import _RATIONAL_FORMAT, Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import fdhscale as f
from fdhscale import (
    Delta,
    Orientation,
    ParseError,
    Point,
    RtsReport,
    Tolerance,
    ValueSpreadError,
)
from fdhscale import efficiency, io_cli, model, oracle, response
from fdhscale.io_cli import _cell, _digest
from fdhscale.oracle import _curve_runs, _dominator, _unit_pairs
from fdhscale.rts import _near, _pool, _pooled, _project
from fdhscale.technology import _dominator_sets, dominating_peer

from conftest import float_csv_lines, fraction_pairs, int_pairs, projected_copy

DELTAS = tuple(Delta)
TOL = Tolerance()


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


def _dominators(d, o):
    """Every unit at least as good as ``o`` in each input and output, by
    all-pairs comparison, with ``o``'s identical copies left out."""
    xo, yo = d.unit(o)
    return {
        j
        for j in range(d.n)
        if all(a <= b for a, b in zip(d.inputs[j], xo))
        and all(a >= b for a, b in zip(d.outputs[j], yo))
        and not all(a == b for a, b in zip(d.inputs[j] + d.outputs[j], xo + yo))
    }


@given(datasets())
@settings(max_examples=60, deadline=None)
def test_dominance_matches_componentwise_definition(d):
    for o in range(d.n):
        assert (f.find_dominating(d, Delta.VRS, o) is not None) == bool(_dominators(d, o))


NEAR_ONE = (1.0, 1.0 + 2**-52, 1.0 - 2**-53)
# Strategies the composites draw from, each built once: hypothesis caches no
# ``sampled_from`` and would validate a new one on every draw.
NEAR_VALUES = st.sampled_from(NEAR_ONE + (2.0, 3.0))
ROW_KINDS = st.sampled_from(["fresh", "duplicate", "copy"])
COPY_SCALES = st.sampled_from([0.5, 2.0, 3.0])


@st.composite
def near_tie_datasets(draw, exact):
    """Rows drawn from values one ulp apart around 1 and small integers,
    plus duplicate rows and proportional copies of earlier rows."""
    n = draw(st.integers(1, 7))
    m = draw(st.integers(1, 2))
    s = draw(st.integers(1, 2))
    inputs, outputs = [], []
    for _ in range(n):
        kind = draw(ROW_KINDS) if inputs else "fresh"
        if kind == "fresh":
            inputs.append([draw(NEAR_VALUES) for _ in range(m)])
            outputs.append([draw(NEAR_VALUES) for _ in range(s)])
        else:
            k = draw(st.integers(0, len(inputs) - 1))
            t = 1.0 if kind == "duplicate" else draw(COPY_SCALES)
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


TIE_FACTORS = st.sampled_from([0.5, 1.0 - 2**-53, 2.0, 1.0 + 2**-52, 3.0])
TIE_KINDS = st.sampled_from(["fresh", "duplicate", "copy", "outputs", "inputs"])


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
    inputs = [[draw(NEAR_VALUES) for _ in range(m)]]
    outputs = [[draw(NEAR_VALUES) for _ in range(s)]]
    for _ in range(n - 1):
        kind = draw(TIE_KINDS)
        k = draw(st.integers(0, len(inputs) - 1))
        t = 1.0 if kind == "duplicate" else draw(TIE_FACTORS)
        if kind == "fresh":
            inputs.append([draw(NEAR_VALUES) for _ in range(m)])
            outputs.append([draw(NEAR_VALUES) for _ in range(s)])
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
def test_dominator_sets_match_all_pairs_dominance(d):
    dom = _dominator_sets(d)
    assert len(dom) == d.n and all(bits >= 0 for bits in dom)
    want = [_dominators(d, o) for o in range(d.n)]
    assert [{j for j in range(d.n) if bits >> j & 1} for bits in dom] == want
    efficient = {o for o in range(d.n) if not dom[o]}
    assert efficient == {o for o in range(d.n) if f.find_dominating(d, Delta.VRS, o) is None}
    for o in range(d.n):
        if dom[o]:  # the witness is the lowest-index dominator
            assert min(want[o]) == dominating_peer(d, f.ratio_table(d, o))
    pool = _pool(d, dom)
    assert pool == sorted(set(pool)) and efficient <= set(pool)
    for k in set(pool) - efficient:
        assert all(k < e for e in want[k] & efficient)
    ties = {
        k
        for k in range(d.n)
        if dom[k] and all(k < e and _near(d, e, k) for e in want[k] & efficient)
    }
    assert set(pool) == efficient | ties


RAY_INPUTS = st.sampled_from([0.5, 1.0, 1.5, 2.0])
RAY_SLOPES = st.sampled_from([0.5, 1.0, 2.0])
EPS_KINDS = st.sampled_from(["ray", "tiny", "copy"])
EPS_GROWTH = st.sampled_from([1 + 1e-11, 1 + 5e-10, 1.5, 2.0])
EPS_SHRINK = st.sampled_from([1.0, 1 - 1e-11, 0.75])


@st.composite
def eps_tie_datasets(draw):
    """Rays at the eps scale: one input from {0.5, 1, 1.5, 2}, off by up to 3e-9
    relative, so input ratios land in the eps band around 1; each output the
    input times 0.5, 1 or 2, off by up to 3e-8. Other rows copy an earlier row
    a millionth of its size, or with its input grown (by 1 + 1e-11, 1 + 5e-10,
    1.5 or 2) and its outputs kept or shrunk (by 1 - 1e-11 or 3/4): a copy the
    pool leaves out, near or past the eps band and the tie slack. Shuffled."""
    n, s = draw(st.integers(2, 8)), draw(st.integers(1, 2))
    near = st.floats(-3e-9, 3e-9)
    inputs, outputs = [], []
    for _ in range(n):
        kind = draw(EPS_KINDS) if inputs else "ray"
        if kind == "ray":
            x = draw(RAY_INPUTS) * (1 + draw(near))
            inputs.append([x])
            ratios = [draw(RAY_SLOPES) for _ in range(s)]
            outputs.append([x * r * (1 + draw(st.floats(-3e-8, 3e-8))) for r in ratios])
            continue
        k = draw(st.integers(0, len(inputs) - 1))
        grow, shrink = 1e-6, 1e-6
        if kind == "copy":
            grow = draw(EPS_GROWTH)
            shrink = draw(EPS_SHRINK)
        inputs.append([grow * v for v in inputs[k]])
        outputs.append([shrink * v for v in outputs[k]])
    order = draw(st.permutations(range(n)))
    return f.validate_dataset(
        [f"U{i + 1}" for i in range(n)],
        [inputs[k] for k in order],
        [outputs[k] for k in order],
    )


@given(st.one_of(*TIE_DATA, eps_tie_datasets()))
@settings(max_examples=400, deadline=None)
def test_frontier_first_classify_all_equals_classifying_each_unit(d):
    # every field of every unit, each score's witness and scaling included
    assert f.classify_all(d) == [f.classify_unit(d, o) for o in range(d.n)]


def _efficiency_equals_radial(d):
    """``build_efficiency_document`` gives every unit the value, witness and
    scaling of :func:`radial`, unrounded, in all eight settings. ``radial``
    builds the unit's table on each call; here the eight settings share it."""
    table = functools.lru_cache(maxsize=None)(lambda o: model.ratio_table(d, o))
    with mock.patch.object(io_cli, "_num", lambda v: v), mock.patch.object(
        efficiency, "ratio_table", lambda _, o: table(o)
    ):  # compare unrounded
        for delta in Delta:
            for orientation in Orientation:
                doc = io_cli.build_efficiency_document(d, delta, orientation)
                want = [f.radial(d, delta, orientation, o) for o in range(d.n)]
                assert [
                    (rec["name"], rec["value"], rec["witness"], rec["delta"])
                    for rec in doc["scores"]
                ] == [
                    (name, sc.value, d.names[sc.witness], sc.delta)
                    for name, sc in zip(d.names, want)
                ]


def _projection_equals_a_projected_copy(d):
    """``--project`` classifies a dominated unit, and gives its ratios, as
    :func:`classify_unit` and :func:`scale_ratios` do on a copy with the exact
    grown point, when that point is efficient in exact arithmetic. Else the unit
    keeps its marker, and ``ratios`` names the exact copy's lowest dominator."""
    exact, want = d.as_exact(), []
    for item in f.classify_all(d):
        o = item.reference
        if isinstance(item, f.InefficientUnit):
            copy = projected_copy(exact, o)
            reached = f.find_dominating(copy, Delta.VRS, o) is None
            copy = projected_copy(d, o) if reached else copy
            want.append((f.classify_unit(copy, o) if reached else item, True))
            with mock.patch.object(io_cli, "_num", lambda v: v):  # compare unrounded
                assert _outcome(_projected_ratios, d, o) == _outcome(_ratios_of, copy, o)
        else:
            want.append((item, False))
    assert list(io_cli._classified_units(d, TOL, True)) == want


def _projected_ratios(d, o):
    doc = io_cli.build_ratios_document(d, d.names[o], TOL, project=True)
    return doc["sigma_plus"], doc["sigma_minus"], doc["witnesses"]


def _ratios_of(d, o):
    r = f.scale_ratios(d, o, TOL)
    names = [None if j is None else d.names[j] for j in (r.plus_witness, r.minus_witness)]
    return r.sigma_plus, r.sigma_minus, dict(zip(("sigma_plus", "sigma_minus"), names))


@given(st.one_of(*TIE_DATA, eps_tie_datasets(), datasets()))
@settings(max_examples=150, deadline=None)
def test_efficiency_and_projection_equal_their_per_unit_references(d):
    _efficiency_equals_radial(d)
    _projection_equals_a_projected_copy(d)


@pytest.mark.parametrize(
    "make",
    [lambda: _generated_floats(12, 300), lambda: oracle.random_dataset(5, 120, 2, 2)],
    ids=["float-300", "exact-120"],
)
def test_efficiency_and_projection_equal_their_references_on_larger_data(make):
    d = make()
    _efficiency_equals_radial(d)
    _projection_equals_a_projected_copy(d)


RAY_COPY_FACTORS = st.sampled_from([F(1, 2), F(1, 3), F(3, 10), F(7, 10)])


def _multiple_of_30(v):
    """``v`` moved down by under 30 units in the last place, to a significand
    that 30 divides, so ``v`` times 1/2, 1/3, 3/10 or 7/10 is a double."""
    m, e = math.frexp(v)
    sig = int(m * 2**53)
    return math.ldexp(sig - sig % 30, e - 53)


@st.composite
def ray_copy_datasets(draw):
    """Float data from the strategies above, plus one to three units that copy a
    unit's inputs and take its outputs times 1/2, 1/3, 3/10 or 7/10, rounded.
    Mostly the unit's outputs are first moved to a multiple of 30 in their last
    places, which makes the copy exactly proportional to it; else the product
    rounds, and growing the copy back by its output score can round past the
    unit. Shuffled."""
    d = draw(
        st.one_of(
            *TIE_DATA[::2],
            eps_tie_datasets(),
            ray_tie_datasets(),
            datasets().map(f.Dataset.as_float),
        )
    )
    inputs, outputs = list(d.inputs), [list(y) for y in d.outputs]
    for _ in range(draw(st.integers(1, 3))):
        k, t = draw(st.integers(0, d.n - 1)), draw(RAY_COPY_FACTORS)
        if not draw(one_in(4)):
            outputs[k] = [_multiple_of_30(v) for v in outputs[k]]
        inputs.append(inputs[k])
        outputs.append([float(t * F(v)) for v in outputs[k]])
    order = draw(st.permutations(range(len(inputs))))
    return f.validate_dataset(
        [f"U{i + 1}" for i in range(len(inputs))],
        [inputs[k] for k in order],
        [outputs[k] for k in order],
    )


@given(ray_copy_datasets())
@settings(max_examples=200, deadline=None)
def test_projection_is_decided_as_in_exact_arithmetic(d):
    # the flags of every unit equal those of the same doubles read as exact,
    # and each dominated unit's decision over the pool equals that over every unit
    def flags(units):
        return [(isinstance(item, RtsReport), flag) for item, flag in units]

    exact = d.as_exact()
    assert flags(io_cli._classified_units(d, TOL, True)) == flags(
        io_cli._classified_units(exact, TOL, True)
    )
    for rt, w in _pooled(d, TOL):
        if w is not None:
            grow = efficiency._phis(rt)[Delta.VRS].value
            pooled, u = _project(d, rt, grow)
            full, v = _project(d, f.ratio_table(d, rt.reference), grow)
            assert (u is None) == (v is None)
            if u is None:
                assert pooled == full
    _projection_equals_a_projected_copy(d)


def _steps_off_the_pool(d):
    """Every unit's steps off its table over the pool equal those of
    ``build_response`` over every unit; returns how many tables were full."""
    full = 0
    for rt, _ in _pooled(d, TOL):
        assert response.response_from_table(rt) == f.build_response(d, rt.reference)
        full += len(rt.units) == d.n
    return full


FLOAT_OR_EXACT = (datasets(), datasets().map(f.Dataset.as_float))


@given(st.one_of(*TIE_DATA, eps_tie_datasets(), ray_copy_datasets(), *FLOAT_OR_EXACT))
@settings(max_examples=300, deadline=None)
def test_response_steps_off_the_pool_equal_build_response(d):
    _steps_off_the_pool(d)


@pytest.mark.parametrize(
    "rows",
    [
        # an input ratio in the eps band above 1, and a pool row below _LOW
        ([[1.0], [1 + 5e-10], [2.0]], [[1.0], [2.0], [1.5]]),
        ([[1e-6 * (1 + 1e-11)], [1e-6], [1.0]], [[1e-6 * (1 - 1e-11)], [1e-6], [1.0]]),
    ],
    ids=["eps-band", "low"],
)
def test_response_steps_off_a_full_fallback_table_equal_build_response(rows):
    # each dataset leaves a dominated unit out of the pool, and one efficient
    # unit's guard gives it the full table
    d = f.validate_dataset(["U1", "U2", "U3"], *rows)
    assert len(_pool(d, _dominator_sets(d))) == 2
    assert _steps_off_the_pool(d) == 1


@pytest.mark.parametrize(
    "make",
    [lambda: _generated_floats(11, 300), lambda: oracle.random_dataset(7, 150, 2, 2)],
    ids=["float-300", "exact-150"],
)
def test_response_steps_off_the_pool_equal_build_response_on_larger_data(make):
    _steps_off_the_pool(make())


def _tables_name_their_rows(d):
    """Every table ``_pooled`` yields holds, at row j, the row of unit ``units[j]``
    of the table over every unit. Its units ascend and include every efficient
    unit, and the table is hashable."""
    efficient = {o for o in range(d.n) if f.find_dominating(d, Delta.VRS, o) is None}
    for rt, _ in _pooled(d, TOL):
        full = f.ratio_table(d, rt.reference)
        assert rt.alpha == tuple(full.alpha[u] for u in rt.units)
        assert rt.beta == tuple(full.beta[u] for u in rt.units)
        assert list(rt.units) == sorted(set(rt.units)) and efficient <= set(rt.units)
        hash(rt)


@given(st.one_of(*TIE_DATA, eps_tie_datasets(), ray_copy_datasets(), *FLOAT_OR_EXACT))
@settings(max_examples=300, deadline=None)
def test_pool_tables_name_the_unit_of_each_row(d):
    _tables_name_their_rows(d)


@pytest.mark.parametrize(
    "make",
    [
        lambda: _generated_floats(11, 300),
        lambda: f.validate_dataset(
            ["U1", "U2", "U3"], [[1.0], [1 + 5e-10], [2.0]], [[1.0], [2.0], [1.5]]
        ),
        lambda: f.validate_dataset(
            ["U1", "U2", "U3"],
            [[1e-6 * (1 + 1e-11)], [1e-6], [1.0]],
            [[1e-6 * (1 - 1e-11)], [1e-6], [1.0]],
        ),
    ],
    ids=["float-300", "eps-band", "low"],
)
def test_pool_tables_name_the_unit_of_each_row_on_fixed_data(make):
    _tables_name_their_rows(make())


@given(st.one_of(*TIE_DATA, *FLOAT_OR_EXACT))
@settings(max_examples=300, deadline=None)
def test_oracle_dominator_off_its_pairs_equals_find_dominating(d):
    # duplicate rows included: near_tie and tie_heavy data copy rows exactly
    for o in range(d.n):
        assert _dominator(d, _unit_pairs(d, o), o) == f.find_dominating(d, Delta.VRS, o)


def _four_pattern_grs(theta, mpss, tol):
    """The global class by the four score patterns, scores within eps counting as
    equal, or None where the scores fit none of them."""
    tc, tni, tnd = (theta[reg].value for reg in (Delta.CRS, Delta.NIRS, Delta.NDRS))
    eq_ni, eq_nd = abs(tc - tni) <= tol.eps, abs(tc - tnd) <= tol.eps
    if eq_ni and eq_nd:
        return f.GrsClass.CRS if mpss else f.GrsClass.SCRS
    if eq_ni and tnd > tc:
        return f.GrsClass.IRS
    if eq_nd and tni > tc:
        return f.GrsClass.DRS
    return None


@pytest.mark.parametrize("eps", [1e-15, 1e-9, 9e-4])
@given(st.one_of(datasets(), *TIE_DATA, eps_tie_datasets()))
@settings(max_examples=100, deadline=None)
def test_crs_score_is_the_lesser_one_sided_score_and_grs_fits_a_pattern(eps, d):
    # every efficient unit of classify_all, classify_unit and --project: the
    # variable-returns score is 1, so the crs score equals the lesser of the
    # nirs and ndrs scores bit for bit, and the gap rule gives the class of
    # the four patterns, which the scores therefore always fit
    tol = Tolerance(eps)
    items = f.classify_all(d, tol) + [f.classify_unit(d, o, tol) for o in range(d.n)]
    items += [item for item, _ in io_cli._classified_units(d, tol, True)]
    for item in items:
        if isinstance(item, RtsReport):
            th = {reg: sc.value for reg, sc in item.scores.theta.items()}
            assert th[Delta.VRS] == 1
            assert th[Delta.CRS] == min(th[Delta.NIRS], th[Delta.NDRS])
            assert item.grs is _four_pattern_grs(item.scores.theta, item.mpss, tol)


def _generated_floats(seed, n, m=3, s=2):
    """Unit sizes e**g with g standard normal, each entry the size times e**u
    with u uniform in +-0.5; a tenth of the rows are then replaced by exact
    duplicates, by copies scaled by 2 or 1/2, and by copies with one entry
    one ulp up or down, and the rows are shuffled."""
    rng = random.Random(seed)
    rows = []
    for _ in range(n):
        size = math.exp(rng.gauss(0, 1))
        rows.append([size * math.exp(rng.uniform(-0.5, 0.5)) for _ in range(m + s)])
    for k in range(0, n, 10):
        row = list(rows[rng.randrange(n)])
        kind = k // 10 % 3
        if kind == 1:
            row = [rng.choice([0.5, 2.0]) * v for v in row]
        elif kind == 2:
            i = rng.randrange(m + s)
            row[i] = math.nextafter(row[i], rng.choice([0.0, math.inf]))
        rows[k] = row
    rng.shuffle(rows)
    names = [f"U{k + 1}" for k in range(n)]
    return f.validate_dataset(names, [r[:m] for r in rows], [r[m:] for r in rows])


@pytest.mark.parametrize(
    "make",
    [lambda: _generated_floats(11, 300), lambda: oracle.random_dataset(7, 150, 2, 2)],
    ids=["float-300", "exact-150"],
)
def test_classify_all_equals_classifying_each_unit_past_one_machine_word(make):
    d = make()
    dom = _dominator_sets(d)
    assert max(dom).bit_length() > 64  # the masks span several machine words
    assert len(_pool(d, dom)) > sum(not bits for bits in dom)  # the pool holds ties
    # every field of every unit, each score's witness and scaling included
    assert f.classify_all(d) == [f.classify_unit(d, o) for o in range(d.n)]


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
    points = ([p.as_integer_ratio() for p in run] for run in runs)
    got = _curve_runs(int_pairs(pairs), *points)
    try:
        want = [(p, max(b for a, b in pairs if a <= p)) for run in runs for p in run]
    except ValueError:
        assert any(p < lowest for run in runs for p in run)
        with pytest.raises(ValueError):
            list(got)
        return
    assert fraction_pairs(got) == want


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
        pairs = oracle._unit_pairs(d, o)
        exact = fraction_pairs(pairs)
        misses, curve = _dense_reference(exact)
        true = list(f.build_response(d, o).steps)
        right = f.ResponseFunction(o, tuple(true)).evaluate
        assert oracle._walk(pairs, [t for t, _ in true], right)[0] is None
        for steps in _perturbed(true, exact, rng):
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


PRIMES = [p for p in range(2, 200) if all(p % q for q in range(2, p))]


def _drawn_dataset(draw, value):
    """Up to 6 units with 1-2 inputs and 1-2 outputs, every entry ``value()``."""
    n, m, s = draw(st.integers(1, 6)), draw(st.integers(1, 2)), draw(st.integers(1, 2))
    inputs = [[value() for _ in range(m)] for _ in range(n)]
    outputs = [[value() for _ in range(s)] for _ in range(n)]
    return f.validate_dataset([f"U{i + 1}" for i in range(n)], inputs, outputs)


@st.composite
def prime_datasets(draw):
    """Every entry ``k/p`` with a prime ``p`` of its own, so that no two
    denominators share a factor."""
    primes = iter(draw(st.permutations(PRIMES)))

    def value():
        p = next(primes)
        return F(draw(st.integers(1, 3 * p)), p)

    return _drawn_dataset(draw, value)


DOUBLES = st.one_of(
    st.floats(5e-324, 2.2250738585072014e-308),
    st.builds(
        math.ldexp, st.floats(0.5, 1.0, exclude_max=True), st.integers(-500, 500)
    ),
    st.sampled_from([0.5, 1.0, 2.0, 3.0]),
)


@st.composite
def double_datasets(draw):
    """Doubles read as exact: subnormals, entries from 2**-500 to 2**500 in one
    column, and a few small values that tie."""
    return _drawn_dataset(draw, lambda: F(draw(DOUBLES)))


def _reference_pairs(d, o):
    """Each peer's worst input and output ratio against unit ``o``, in Fractions."""
    xo, yo = d.unit(o)
    return [
        (max(v / w for v, w in zip(xj, xo)), min(v / w for v, w in zip(yj, yo)))
        for xj, yj in zip(d.inputs, d.outputs)
    ]


def _reference_scores(pairs, delta):
    """theta and phi by their definitions: peer j scaled by t in the regime's
    interval with t * beta_j >= 1 uses t * alpha_j, least at the smallest such
    t; with t * alpha_j <= 1 it makes t * beta_j, most at the largest."""
    lo, hi = delta.bounds
    least = [max(1 / b, lo) for _, b in pairs]
    most = [1 / a if hi is None else min(1 / a, hi) for a, _ in pairs]
    theta = min(t * a for t, (a, _) in zip(least, pairs) if hi is None or t <= hi)
    phi = max(t * b for t, (_, b) in zip(most, pairs) if t >= lo)
    return theta, phi


def _reference_ratios(pairs):
    """The extreme secant slopes through (1, 1) at the pairs' thresholds."""
    curve = {a: max(b for p, b in pairs if p <= a) for a, _ in pairs}
    slopes = [((v - 1) / (p - 1), p > 1) for p, v in curve.items() if p != 1]
    plus = max([F(0)] + [slope for slope, above in slopes if above])
    minus = min((slope for slope, above in slopes if not above), default=f.UNBOUNDED)
    return plus, minus


# factors by which a drawn witness verdict's bound misses the scaled witness
NEAR_FACTORS = st.sampled_from([F(1), F(999_999, 10**6), F(1_000_001, 10**6)])

REFERENCE_SYSTEMS = {
    f.ScalingSystem.RIGHT_STRICT: lambda a, b: max(a, 1) < b,
    f.ScalingSystem.RIGHT_WEAK: lambda a, b: b > 1 and b >= a,
    f.ScalingSystem.LEFT_WEAK: lambda a, b: a < 1 and a <= b,
    f.ScalingSystem.LEFT_STRICT: lambda a, b: a < 1 and a < b,
}


@given(
    st.one_of(
        datasets(), prime_datasets(), double_datasets(), tie_heavy_datasets(exact=True)
    ),
    st.data(),
)
@settings(max_examples=300, deadline=None)
def test_int_oracle_equals_a_fraction_reference(d, data):
    # every oracle value of every unit, and a witness verdict per unit drawn
    # so that the scaled witness often meets the bound exactly
    cols = oracle._columns(d)
    for o in range(d.n):
        pairs, ref = oracle._unit_pairs(d, o), _reference_pairs(d, o)
        assert fraction_pairs(pairs) == ref
        for delta in Delta:
            got = oracle._theta_of(pairs, delta), oracle._phi_of(pairs, delta)
            assert got == _reference_scores(ref, delta)
        assert oracle._ratios(pairs) == _reference_ratios(ref)
        for system, holds in REFERENCE_SYSTEMS.items():
            assert oracle._feasible(pairs, system) == any(holds(a, b) for a, b in ref)
        curve = fraction_pairs(oracle._curve_runs(pairs, [a for a, _ in pairs]))
        assert curve == [(p, max(b for a, b in ref if a <= p)) for p, _ in ref]
        # the walk meets each distinct threshold once and agrees at every one
        at = dict(curve).__getitem__
        assert oracle._walk(pairs, [], at) == (None, len({a for a, _ in ref}))
        j = data.draw(st.integers(0, d.n - 1))
        a, b = ref[j]
        t = data.draw(st.sampled_from([F(1), 1 / a, 1 / b, F(1, 2), F(2)]))
        shrink = data.draw(st.sampled_from([t * a, F(1)])) * data.draw(NEAR_FACTORS)
        grow = data.draw(st.sampled_from([t * b, F(1)])) * data.draw(NEAR_FACTORS)
        (xj, yj), (xo, yo) = d.unit(j), d.unit(o)
        fits = all(t * v <= shrink * w for v, w in zip(xj, xo)) and all(
            t * v >= grow * w for v, w in zip(yj, yo)
        )
        assert oracle._fits(cols, j, o, t, shrink, grow) == fits


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
        x = draw(RAY_INPUTS)
        inputs.append([x])
        ratios = [draw(RAY_SLOPES) for _ in range(s)]
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
    """The float cell parse by way of ``Fraction``, with the underflow rule.

    ``Fraction`` builds 10**exponent, in minutes once the exponent has eight
    digits. Beyond 10**6 either way the outcome follows from the literal's sign
    and whether its digits are all zero: each run of digits has at most 4300
    (``int`` refuses more), so a nonzero value lies above 1e990000 or below
    1e-990000 and overflows, or rounds to zero.
    """
    where = f"row 2, column 'in_x': {text!r}"
    try:
        m = _RATIONAL_FORMAT.match(text)
        if m and m["exp"] and abs(int(m["exp"])) > 10**6:
            digits = int(m["num"] or "0"), int(m["decimal"] or "0")
            if not any(digits):
                return 0.0
            if int(m["exp"]) > 0 or m["sign"] != "-":
                raise ValueSpreadError(f"{where} is outside the double range")
            return -0.0
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


# Cells the csv module reads otherwise than a split at commas would: quoted
# cells, with or without a comma inside, and malformed quotes.
QUOTED_CELLS = ['"2.5"', '" 3 "', '"1,5"', '""', '"a""b"', '2"5', '"7"x']
# Header faults, each checked before any body line is read.
BAD_HEADERS = st.sampled_from(
    ["name,in_0,out_0", "dmu,out_0,in_0", "dmu,in_0,x_0,out_0", "dmu", ""]
)
PLAIN_PADS, ALL_PADS = st.sampled_from(PADS), st.sampled_from(PADS + CONTROL_PADS)
ODD_CELLS = st.one_of(
    st.sampled_from(FLOAT_CELLS + QUOTED_CELLS), st.sampled_from(LONG_CELLS), cells
)
ODD_NAMES = st.sampled_from(["U0", "", " ", "\x1f"])
BLANK_LINES = st.sampled_from(["", " ", "\t", ",", "\r", "\x00", "U9,\x00,1"])
LINE_ENDS = st.sampled_from(["\r", "\x00", ' "', "\r\r"])
# A line whose last field, an unclosed quote or a plain cell, gets more
# characters than csv.field_size_limit() allows once the limit's worth is added.
PAST_THE_FIELD_LIMIT = st.sampled_from(['U9,"', "U9,1", 'U9,1,"2'])


@st.composite
def float_csv_texts(draw):
    """Float CSV text of padded cells; some tables have odd cells, ragged rows
    or odd names, so that either path of ``read_csv_text`` is taken. Some have
    quoted cells, blank lines, carriage returns, NULs or a faulty header, which
    the ``csv`` module reads."""
    m, s = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    pad = ALL_PADS if draw(one_in(4)) else PLAIN_PADS
    plain = st.one_of(
        st.floats(1e-3, 1e6).map(repr), st.integers(1, 10**20).map(str)
    ).map(lambda c: draw(pad) + c + draw(pad))
    messy, ragged, odd_names = draw(one_in(2)), draw(one_in(4)), draw(one_in(4))
    quoted = draw(one_in(4))
    lines = ["dmu," + ",".join([f"in_{k}" for k in range(m)] + [f"out_{k}" for k in range(s)])]
    if draw(one_in(8)):
        lines[0] = draw(BAD_HEADERS)
    for k in range(draw(st.integers(0, 6))):
        width = draw(st.integers(1, 6)) if ragged and draw(one_in(3)) else 1 + m + s
        name = f" U{k}\u00a0" if odd_names else f"U{k}"
        if odd_names and draw(one_in(3)):
            name = draw(ODD_NAMES)
        row = [name] + [draw(plain) for _ in range(width - 1)]
        if messy and width > 1:
            row[draw(st.integers(1, width - 1))] = draw(ODD_CELLS)
        if quoted and draw(st.booleans()):
            j = draw(st.integers(0, width - 1))
            row[j] = f'"{row[j]}"'
        lines.append(",".join(row))
    for _ in range(draw(st.integers(0, 2)) if draw(one_in(3)) else 0):
        blank = draw(BLANK_LINES)
        lines.insert(draw(st.integers(0, len(lines))), blank)
    if draw(one_in(6)):
        k = draw(st.integers(0, len(lines) - 1))
        lines[k] += draw(LINE_ENDS)
    if messy and draw(one_in(3)):  # a csv.Error after the rows, odd cells and all
        lines.append(draw(PAST_THE_FIELD_LIMIT) + "1" * csv.field_size_limit())
    return "\n".join(lines) + "\n"


def _read_outcome(text):
    try:
        d = f.read_csv_text(text)
    except Exception as exc:
        return type(exc), str(exc)
    return d, repr(d)


def _csv_module_outcome(text, streamed):
    """The reference read: every non-empty record of ``csv.reader(io.StringIO(text))``
    through the row loop. A ``csv.Error`` is raised before the header is checked,
    or, ``streamed``, only once the records before it are read."""
    reader = csv.reader(io.StringIO(text.removeprefix("\ufeff")))
    records, error = [], None
    try:
        records += filter(None, reader)
    except csv.Error as exc:
        error = ParseError(f"line {reader.line_num}: {exc}")

    def pieces(_text):
        if error and not streamed:
            raise error
        yield True, (records[0] if records else None)
        if records[1:]:
            yield records[1:]
        if error:
            raise error

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(io_cli, "_records", pieces)
        mp.setattr(io_cli, "_float_grid", lambda *args: None)
        return _read_outcome(text)


@given(float_csv_texts())
@settings(max_examples=500, deadline=None)
def test_column_read_equals_row_loop(text):
    # the one difference allowed: an earlier defect now wins over a csv.Error
    by_columns = _read_outcome(text)
    reference = _csv_module_outcome(text, streamed=False)
    if by_columns != reference:
        assert reference[0] is ParseError and reference[1].startswith("line ")
        assert by_columns == _csv_module_outcome(text, streamed=True)
        assert by_columns[1] != reference[1]


# Bytes that are not UTF-8, alone or as the start of a cut multi-byte character.
NOT_UTF8 = st.sampled_from([b"\xff", b"\xe2\x82", b"\xc3", b"\xed\xa0\x80"])


@st.composite
def csv_file_bytes(draw):
    """A float CSV text as a file's bytes: some with a byte-order mark, some
    line ends made CR LF or CR, some with multi-byte names or bytes that are
    not UTF-8."""
    text = draw(float_csv_texts()).replace("U1", draw(st.sampled_from(["U1", "Ü1", "U€1"])))
    ends = [draw(st.sampled_from(["\n", "\n", "\r\n", "\r"])) for _ in text.split("\n")]
    text = "".join(line + end for line, end in zip(text.split("\n"), ends))[: -len(ends[-1])]
    data = draw(BOMS) + text.encode("utf-8")
    for _ in range(draw(st.integers(0, 2)) if draw(one_in(4)) else 0):
        k = draw(st.integers(0, len(data)))
        data = data[:k] + draw(NOT_UTF8) + data[k:]
    return data


@given(csv_file_bytes(), st.sampled_from([4, 5, 6, 7, 64, io_cli._SLICE]))
@settings(max_examples=300, deadline=None)
def test_file_read_equals_reading_its_decoded_text(tmp_path_factory, data, size):
    # the file is checked a slice at a time and decoded a line at a time, as
    # if its whole text were decoded, given universal newlines and read
    path = tmp_path_factory.mktemp("bytes") / "data.csv"
    path.write_bytes(data)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        reference = ParseError, f"cannot decode {path}: invalid UTF-8 at byte {exc.start}"
    else:
        reference = _read_outcome(text.replace("\r\n", "\n").replace("\r", "\n"))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(io_cli, "_SLICE", size)
        try:
            d = f.read_csv(path)
        except Exception as exc:
            by_file = type(exc), str(exc)
        else:
            by_file = d, repr(d)
    assert by_file == reference


def test_line_beyond_the_field_size_limit_is_the_csv_error():
    text = "dmu,in_x,out_y\n" + "U" * 150 + ",1,2\n"
    limit = csv.field_size_limit(100)
    try:
        with pytest.raises(ParseError) as caught:
            f.read_csv_text(text)
        assert str(caught.value) == "line 2: field larger than field limit (100)"
        assert f.read_csv_text(text.replace("U" * 150, "U" * 100)).names == ("U" * 100,)
    finally:
        csv.field_size_limit(limit)


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


COLUMN_KINDS = st.sampled_from([st.floats(1e-6, 1e6), st.fractions(F(1, 50), 50)])


@st.composite
def validation_tables(draw):
    """Raw names and rows with one kind per column, then up to two entries
    swapped for any entry at all, and sometimes one row cut or lengthened."""
    n, m, s = draw(st.integers(1, 4)), draw(st.integers(1, 2)), draw(st.integers(1, 2))
    kinds = [draw(COLUMN_KINDS) for _ in range(m + s)]
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
        mp.setattr(model, "_valid_columns", lambda cols: False)
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


float_entries = st.one_of(
    st.floats(min_value=0, exclude_min=True, allow_infinity=False),
    st.sampled_from([1.0, 2.0, 2.0**60, 0.5, 3e300]),
    st.integers(1, 2**70).map(float),
)
entries = st.one_of(
    float_entries,
    st.integers(1, 10**30),
    st.fractions(min_value=F(1, 10**12), max_value=F(10**12)),
)


ENTRY_KINDS = st.sampled_from([float_entries, entries])


@st.composite
def raw_datasets(draw):
    """Unvalidated datasets: each column all floats, as in a parsed file, or a
    mix of float, int and Fraction entries."""
    n, m, s = draw(st.integers(1, 5)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    kinds = [draw(ENTRY_KINDS) for _ in range(m + s)]
    names = tuple(draw(st.text(max_size=4)) for _ in range(n))
    inputs = tuple(tuple(draw(kinds[c]) for c in range(m)) for _ in range(n))
    outputs = tuple(tuple(draw(kinds[m + c]) for c in range(s)) for _ in range(n))
    return f.Dataset(names, inputs, outputs)


@given(raw_datasets())
@settings(max_examples=150, deadline=None)
def test_digest_equals_fraction_strings(d):
    assert _digest(d) == _digest_by_fraction(d)


def _rows_transposed(d):
    return tuple(
        tuple(row[k] for row in rows)
        for rows in (d.inputs, d.outputs)
        for k in range(len(rows[0]))
    )


def _float_csv_text(d):
    """A plain CSV of ``d``'s entries as float literals, which the grid reads."""
    lines = ["dmu," + ",".join([f"in_{k}" for k in range(d.m)] + [f"out_{k}" for k in range(d.s)])]
    for name, x, y in zip(d.names, d.inputs, d.outputs):
        lines.append(",".join([name, *(repr(float(v)) for v in x + y)]))
    return "\n".join(lines) + "\n"


@given(raw_datasets(), datasets())
@settings(max_examples=150, deadline=None)
def test_columns_are_the_rows_transposed(raw, d):
    copies = [
        raw,
        raw.as_exact(),
        d,
        d.as_float(),
        d.as_float().as_exact(),
        f.read_csv_text(f.write_csv(d), exact=True),
        f.read_csv_text(_float_csv_text(d)),
    ]
    for item in f.classify_all(d):
        if isinstance(item, f.InefficientUnit):
            copies.append(projected_copy(d, item.reference))
    for c in copies:
        assert c.columns == _rows_transposed(c)
        for view, cols in ((c.inputs, c.columns[: c.m]), (c.outputs, c.columns[c.m :])):
            _check_rows_view(view, tuple(zip(*cols)))
        copies_back = [pickle.loads(pickle.dumps(c, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
        for back in (*copies_back, copy.deepcopy(c)):
            assert (back, repr(back), back.columns) == (c, repr(c), c.columns)
            assert type(back.inputs) is type(c.inputs)


def _check_rows_view(view, rows):
    """``view`` behaves as the tuple of row tuples ``rows``."""
    n = len(rows)
    assert len(view) == n and tuple(view) == rows and list(iter(view)) == list(rows)
    assert [view[i] for i in range(-n, n)] == [rows[i] for i in range(-n, n)]
    for i in (n, -n - 1):
        with pytest.raises(IndexError):
            view[i]
    for cut in (slice(None), slice(1, None), slice(None, -1), slice(None, None, -2),
                slice(n, 0), slice(-2, None, 1)):
        assert view[cut] == rows[cut] and type(view[cut]) is tuple
    assert view == rows and rows == view and not view != rows and not rows != view
    assert view != rows[:-1] and rows[:-1] != view and view != list(rows)
    assert hash(view) == hash(rows) and repr(view) == repr(rows)


# Sizes about the reader's and the digest's pieces of lines.
CHUNK = io_cli._CHUNK
CHUNK_SIZES = [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1]


@pytest.mark.parametrize("n", [4000, *CHUNK_SIZES])
def test_digest_of_a_large_float_csv_equals_fraction_strings(n):
    d = f.read_csv_text("\n".join(float_csv_lines(n)) + "\n")
    assert d.n == n
    for copy in (d, d.as_exact()):
        assert _digest(copy) == _digest_by_fraction(copy)


# An odd cell for a number column, or "" for the name column: a literal only
# Fraction reads, a zero, an empty name and a cell over 640 characters.
ODD_PIECE_CELLS = ["13/4", "0", "", "1." + "0" * 639]


@pytest.mark.parametrize("n", CHUNK_SIZES)
@pytest.mark.parametrize("odd", ODD_PIECE_CELLS)
def test_grid_pieces_equal_the_row_loop_at_chunk_boundaries(n, odd):
    # one odd cell on the last line of the first piece, the first line of the
    # second, or the last line: the grid takes every other piece it reaches,
    # and the row loop reads the odd one to the same dataset or error as the
    # row loop reading the whole file
    grid = io_cli._float_grid
    for k in sorted({CHUNK - 1, CHUNK, n - 1} & set(range(n))):
        lines = float_csv_lines(n)
        cells = lines[k + 1].split(",")
        cells[0 if odd == "" else 1 + k % 5] = odd
        lines[k + 1] = ",".join(cells)
        text = "\n".join(lines) + "\n"
        taken = []

        def spy(*args):
            taken.append(grid(*args))
            return taken[-1]

        with mock.patch.object(io_cli, "_float_grid", spy):
            by_pieces = _read_outcome(text)
        assert [rows is None for rows in taken].count(True) == 1
        with mock.patch.object(io_cli, "_float_grid", lambda *args: None):
            assert by_pieces == _read_outcome(text)


@functools.cache  # one strategy per k, as for the constants above
def one_in(k):
    return st.sampled_from([True] + [False] * (k - 1))


PLAIN_NUMBERS = st.one_of(st.integers(1, 50).map(str), st.floats(0.01, 100).map(repr))
BOMS = st.sampled_from([b"", b"\xef\xbb\xbf"])
BAD_BYTES = st.sampled_from([b""] * 5 + [b"\xff"])


@st.composite
def csv_files(draw):
    """CSV bytes: a valid header, then rows that may be ragged, unnamed or repeated.

    Most cells are plain positive numbers; about one row in five has one
    cell drawn from ``cells``, and one in ten has a random width.
    """
    m, s = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    header = ["dmu"] + [f"in_{k}" for k in range(m)] + [f"out_{k}" for k in range(s)]
    lines = [",".join(header)]
    for k in range(draw(st.integers(0, 6))):
        ragged, messy = draw(one_in(10)), draw(one_in(5))
        width = draw(st.integers(0, 7)) if ragged else len(header)
        row = [draw(st.sampled_from([f"U{k}"] * 6 + ["U0", ""]))]
        row += [draw(PLAIN_NUMBERS) for _ in range(width - 1)]
        if messy and len(row) > 1:
            row[draw(st.integers(1, len(row) - 1))] = draw(cells)
        lines.append(",".join(row))
    text = "\n".join(lines) + "\n"
    return draw(BOMS) + text.encode("utf-8") + draw(BAD_BYTES)


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
