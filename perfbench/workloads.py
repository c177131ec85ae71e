"""Seeded inputs and job lists for the benchmark workloads.

Every dataset is derived from the workload seed alone and written as a CSV
file; the program under test sees only those files. Floats are written with
``repr`` so that they parse back to the same doubles, and exact datasets use
fraction literals.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

# Every dataset of a workload has the same shape and only its values depend
# on the seed, so runs with different seeds do comparable work and job times
# form one mode. Sizes keep one job near half a second, so that a run holds
# dozens of jobs.
SPARSE_N, SPARSE_FILES = 100, 10
DENSE_N, DENSE_FILES = 90, 8
QUERY_ROWS = 4_000
QUERY_UNITS = 4  # each gets a ratios job; the first half also a response job
QUERY_SCAN = 60  # units probed for efficiency on the large dataset
VERIFY_N, VERIFY_FILES = 7, 6
# The default 10,000-step grid costs 2-5 s per job at n = 4-8, too few jobs
# per run for a tail percentile; 1,000 steps keeps the sweeps dominant.
VERIFY_GRID = 1000

WORKLOADS = {
    "report-sparse": "report on small float datasets with a thin frontier: "
    "the analytic core does nearly all the work",
    "classify-dense": "classify --project on datasets near one surface: same "
    "core, plus the projection and dataset-copy path",
    "query-large": "ratios and response for single units of one 4,000-row CSV: "
    "parsing, validation, digest and serialization dominate",
    "verify-exact": "verify on small exact datasets: the only workload that "
    "runs the oracle and the fast path in Fraction arithmetic",
}


@dataclass(frozen=True)
class DataFile:
    """One generated CSV and its shape."""

    key: str
    path: str
    n: int
    m: int
    s: int
    exact: bool


@dataclass(frozen=True)
class Job:
    """One CLI call; ``{out}`` in ``argv`` stands for the output path."""

    kind: str
    data: str
    argv: tuple[str, ...]
    unit: str | None = None


@dataclass
class Plan:
    files: dict[str, DataFile]
    jobs: list[Job]
    notes: list[str]


def _write(path: Path, inputs: list, outputs: list, exact: bool) -> None:
    m, s = len(inputs[0]), len(outputs[0])
    cell = str if exact else repr
    lines = [
        ",".join(["dmu"] + [f"in_{k + 1}" for k in range(m)] + [f"out_{k + 1}" for k in range(s)])
    ]
    for o, (xs, ys) in enumerate(zip(inputs, outputs)):
        lines.append(",".join([f"U{o + 1}"] + [cell(v) for v in (*xs, *ys)]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def thin_frontier(rng: random.Random, n: int, m: int, s: int) -> tuple[list, list]:
    """A fifth of the units on a frontier, every other unit dominated by one.

    Frontier units have log-uniform sizes; their inputs and outputs track
    size with noise, but the first input is the size itself and the first
    outputs are assigned in size order, so no frontier unit dominates
    another. Each remaining unit copies a frontier unit with every input
    inflated and every output shrunk. Every dataset therefore has exactly a
    fifth of its units efficient, and runs with different seeds do the same
    amount of work.
    """
    k = n // 5
    sizes = sorted(math.exp(rng.uniform(0.0, math.log(100.0))) for _ in range(k))
    firsts = sorted(size * math.exp(rng.uniform(-1.0, 1.0)) for size in sizes)
    inputs, outputs = [], []
    for size, first in zip(sizes, firsts):
        inputs.append([size] + [size * math.exp(rng.uniform(-0.2, 0.2)) for _ in range(m - 1)])
        outputs.append([first] + [size * math.exp(rng.uniform(-1.0, 1.0)) for _ in range(s - 1)])
    for _ in range(n - k):
        src = rng.randrange(k)
        inputs.append([v * math.exp(rng.uniform(0.01, 0.5)) for v in inputs[src]])
        outputs.append([v * math.exp(rng.uniform(-1.0, -0.01)) for v in outputs[src]])
    return _shuffled(rng, inputs, outputs)


def near_surface(rng: random.Random, n: int) -> tuple[list, list]:
    """Units with m = s = 3, four fifths near one surface, the rest copies.

    On the surface the log-outputs sum to the log-inputs, up to a small
    noise, so units there hardly ever dominate one another. Each copy
    shrinks a surface unit's outputs and, for half of them, also inflates
    its inputs: projection runs on every copy, and the inflated ones stay
    dominated after it.
    """
    base = n * 4 // 5
    span = math.log(100.0)
    inputs, outputs = [], []
    for _ in range(base):
        lx = [rng.uniform(0.0, span) for _ in range(3)]
        l1, l2 = rng.uniform(0.0, span), rng.uniform(0.0, span)
        l3 = sum(lx) - l1 - l2 + rng.uniform(-0.01, 0.01)
        inputs.append([math.exp(v) for v in lx])
        outputs.append([math.exp(l1), math.exp(l2), math.exp(l3)])
    for _ in range(n - base):
        src = rng.randrange(base)
        shrink = rng.uniform(0.7, 0.95)
        xs = list(inputs[src])
        if rng.random() < 0.5:
            grow = rng.uniform(1.05, 1.3)
            xs = [grow * v for v in xs]
        inputs.append(xs)
        outputs.append([shrink * v for v in outputs[src]])
    return _shuffled(rng, inputs, outputs)


def small_exact(rng: random.Random, n: int) -> tuple[list, list]:
    """Small positive rationals with m = s = 2, n - 2 of them on a frontier.

    As in :func:`thin_frontier`, the first input and the first output
    increase together along the frontier, and each of the two other units
    is a frontier unit with inputs inflated and outputs shrunk.
    """
    k = n - 2
    firsts_in = sorted(rng.sample(range(4, 80), k))
    firsts_out = sorted(rng.sample(range(4, 80), k))
    inputs = [[Fraction(a, 4), Fraction(rng.randint(1, 40), rng.randint(1, 8))] for a in firsts_in]
    outputs = [[Fraction(b, 4), Fraction(rng.randint(1, 40), rng.randint(1, 8))] for b in firsts_out]
    for _ in range(n - k):
        src = rng.randrange(k)
        inputs.append([v * Fraction(rng.randint(5, 8), 4) for v in inputs[src]])
        outputs.append([v * Fraction(rng.randint(1, 3), 4) for v in outputs[src]])
    return _shuffled(rng, inputs, outputs)


def _shuffled(rng, inputs, outputs):
    order = list(range(len(inputs)))
    rng.shuffle(order)
    return [inputs[k] for k in order], [outputs[k] for k in order]


def build_plan(workload: str, seed: int, data_dir: Path) -> Plan:
    """Write the workload's datasets into ``data_dir`` and list its jobs.

    The same workload and seed always give the same files and jobs.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    data_dir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    files: dict[str, DataFile] = {}
    jobs: list[Job] = []
    notes: list[str] = []

    def add(key: str, exact: bool, rows: tuple) -> DataFile:
        inputs, outputs = rows
        path = data_dir / f"{key}.csv"
        _write(path, inputs, outputs, exact)
        files[key] = DataFile(key, str(path), len(inputs), len(inputs[0]), len(outputs[0]), exact)
        return files[key]

    if workload == "report-sparse":
        for k in range(SPARSE_FILES):
            f = add(f"d{k}", False, thin_frontier(rng, SPARSE_N, 2, 1))
            jobs.append(Job("report", f.key, ("report", "--input", f.path, "--out", "{out}")))
    elif workload == "classify-dense":
        for k in range(DENSE_FILES):
            f = add(f"d{k}", False, near_surface(rng, DENSE_N))
            jobs.append(Job("classify", f.key, ("classify", "--project", "--input", f.path,
                                                "--out", "{out}")))
    elif workload == "query-large":
        f = add("large", False, thin_frontier(rng, QUERY_ROWS, 3, 2))
        units, share = _efficient_sample(f, rng)
        notes.append(f"{f.key}: n={f.n} m={f.m} s={f.s} efficient share {share:.3f} "
                     f"over {QUERY_SCAN} probed units")
        # Twice as many ratios jobs as response jobs, which are faster, keeps
        # the median job inside one mode of the job times.
        for k, name in enumerate(units):
            jobs.append(Job("ratios", f.key, ("ratios", "--input", f.path, "--dmu", name,
                                              "--out", "{out}"), name))
            if k < QUERY_UNITS // 2:
                jobs.append(Job("response", f.key, ("response", "--input", f.path, "--dmu",
                                                    name, "--alpha-max", "5", "--out", "{out}"),
                                name))
    else:
        for k in range(VERIFY_FILES):
            f = add(f"x{k}", True, small_exact(rng, VERIFY_N))
            jobs.append(Job("verify", f.key, ("verify", "--input", f.path, "--trials", "0",
                                              "--grid-steps", str(VERIFY_GRID), "--out", "{out}")))
    for f in files.values():
        if f.n < QUERY_ROWS:
            notes.append(f"{f.key}: n={f.n} m={f.m} s={f.s} "
                         f"efficient share {_efficient_share(f):.3f}")
    rng.shuffle(jobs)
    return Plan(files, jobs, notes)


def _efficient_share(f: DataFile) -> float:
    from fdhscale.io_cli import read_csv
    from fdhscale.model import Delta
    from fdhscale.technology import find_dominating

    d = read_csv(f.path, exact=f.exact)
    return sum(find_dominating(d, Delta.VRS, o) is None for o in range(d.n)) / d.n


def _efficient_sample(f: DataFile, rng: random.Random) -> tuple[list[str], float]:
    """Pick efficient units of a large dataset with the public dominance test.

    Probes units in seeded order until ``QUERY_SCAN`` are probed and
    ``QUERY_UNITS`` efficient ones are found. Returns the first efficient
    ones and the efficient share among the first ``QUERY_SCAN`` probed.
    """
    from fdhscale.io_cli import read_csv
    from fdhscale.model import Delta
    from fdhscale.technology import find_dominating

    d = read_csv(f.path)
    efficient: list[int] = []
    share = 0.0
    for k, o in enumerate(rng.sample(range(d.n), d.n)):
        if k == QUERY_SCAN:
            share = len(efficient) / QUERY_SCAN
        if k >= QUERY_SCAN and len(efficient) >= QUERY_UNITS:
            break
        if find_dominating(d, Delta.VRS, o) is None:
            efficient.append(o)
    return [d.names[o] for o in efficient[:QUERY_UNITS]], share
