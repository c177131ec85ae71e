import math
import random
from fractions import Fraction as F

import pytest

import fdhscale as f


def make_staircase() -> f.Dataset:
    """Four single-input single-output units along a staircase frontier."""
    return f.validate_dataset(
        ["A", "B", "C", "D"],
        [[F(1)], [F(3)], [F(5)], [F(6)]],
        [[F(2)], [F(4)], [F(5)], [F(13)]],
    )


def with_dominated(extra_name="E", x=(4,), y=(4,)) -> f.Dataset:
    d = make_staircase()
    return f.validate_dataset(
        list(d.names) + [extra_name],
        [list(r) for r in d.inputs] + [[F(v) for v in x]],
        [list(r) for r in d.outputs] + [[F(v) for v in y]],
    )


def projected_copy(d: f.Dataset, o: int) -> f.Dataset:
    """Copy of ``d`` with unit ``o``'s outputs grown by its variable-returns output
    score, exactly, then rounded to doubles on float data: the dataset that
    ``--project`` analyses the unit in, built out. Where projection reaches the
    frontier the grown point is some unit's data, so the rounding is exact."""
    exact = d.as_exact()
    grow = f.phi(exact, f.Delta.VRS, o).value
    kind = F if d is exact else float
    grown = tuple(kind(grow * v) for v in exact.outputs[o])
    outputs = tuple(grown if k == o else row for k, row in enumerate(d.outputs))
    return f.Dataset(d.names, d.inputs, outputs)


def float_csv_lines(n: int) -> list[str]:
    """The header and ``n`` rows of a plain float CSV with three inputs and two
    outputs: four widely spread doubles and a small integer per row, seeded."""
    rng = random.Random(18)
    lines = ["dmu,in_1,in_2,in_3,out_1,out_2"]
    for k in range(n):
        cells = [repr(math.exp(rng.gauss(0, 3))) for _ in range(5)]
        lines.append(",".join([f"U{k}", *cells[:4], str(rng.randint(1, 9))]))
    return lines


def int_pairs(pairs) -> list:
    """``(a, b)`` pairs of Fractions in the oracle's form, each ratio an int pair."""
    return [(a.as_integer_ratio(), b.as_integer_ratio()) for a, b in pairs]


def fraction_pairs(pairs) -> list:
    """The oracle's int-pair ``(a, b)`` pairs, each ratio back as a Fraction."""
    return [(F(*a), F(*b)) for a, b in pairs]


@pytest.fixture
def stair() -> f.Dataset:
    return make_staircase()


@pytest.fixture
def stair_float() -> f.Dataset:
    return make_staircase().as_float()


@pytest.fixture
def stair_csv(tmp_path):
    path = tmp_path / "stair.csv"
    path.write_text(
        "dmu,in_labor,out_widgets\nA,1,2\nB,3,4\nC,5,5\nD,6,13\n", encoding="utf-8"
    )
    return path


@pytest.fixture(scope="session")
def random_batch() -> list:
    """The seeded random datasets shared by the acceptance criteria."""
    out = []
    for t in range(1000):
        rng = random.Random(f"acceptance:{t}")
        out.append(
            f.random_dataset(t, rng.randint(1, 8), rng.randint(1, 3), rng.randint(1, 3))
        )
    return out
