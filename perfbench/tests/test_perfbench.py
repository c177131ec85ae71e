"""Tests of the benchmark itself: inputs, checker, tracer and metric names.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import worker
from checker import Checker
from tracer import FUNCTIONS, PER_UNIT, Tracer
from workloads import WORKLOADS, build_plan

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _files(plan) -> dict:
    return {key: Path(f.path).read_bytes() for key, f in plan.files.items()}


def _argvs(plan, data_dir: Path) -> list:
    return [tuple(arg.replace(str(data_dir), "") for arg in job.argv) for job in plan.jobs]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_gives_same_inputs(workload, tmp_path):
    a = build_plan(workload, 7, tmp_path / "a")
    b = build_plan(workload, 7, tmp_path / "b")
    other = build_plan(workload, 8, tmp_path / "c")
    assert _files(a) == _files(b)
    assert _argvs(a, tmp_path / "a") == _argvs(b, tmp_path / "b")
    assert _files(a) != _files(other)


def _run_first(plan, data: str, tmp_path: Path) -> tuple[int, Path]:
    from fdhscale.io_cli import main

    k = next(i for i, job in enumerate(plan.jobs) if job.data == data)
    out = tmp_path / "good.out"
    rc, _, _, error = worker.run_job(main, list(plan.jobs[k].argv), str(out))
    assert rc == 0, error
    return k, out


def _bump(rec: dict, key: str) -> None:
    if isinstance(rec[key], (int, float)):
        rec[key] = rec[key] * (1 + 1e-6) + 1e-6


MUTATIONS = {
    "theta": lambda rec: rec["theta"].update(crs=rec["theta"]["crs"] * (1 - 1e-6)),
    "phi": lambda rec: rec["phi"].update(vrs=rec["phi"]["vrs"] + 1e-6),
    "sigma": lambda rec: _bump(rec, "sigma_plus"),
    "class": lambda rec: rec.update(right_rts={"Right-IRS": "Right-DRS"}.get(
        rec["right_rts"], rec["right_rts"] and "Right-IRS")),
    "efficient": lambda rec: rec.update(efficient=not rec["efficient"]),
}


@pytest.fixture(scope="module")
def report_job(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("report")
    plan = build_plan("report-sparse", 5, tmp / "data")
    k, out = _run_first(plan, "d0", tmp)
    return plan, k, out


def test_checker_passes_a_correct_report(report_job):
    plan, k, out = report_job
    assert Checker(plan.files, plan.jobs, 5).check(k, 0, str(out), None) is None


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_checker_flags_a_mutated_report(report_job, mutation, tmp_path):
    plan, k, out = report_job
    doc = json.loads(out.read_text(encoding="utf-8"))
    for rec in doc["units"]:
        MUTATIONS[mutation](rec)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    assert Checker(plan.files, plan.jobs, 5).check(k, 0, str(bad), None) is not None


def test_checker_flags_a_changed_repeat_and_a_failed_exit(report_job, tmp_path):
    plan, k, out = report_job
    checker = Checker(plan.files, plan.jobs, 5)
    assert checker.check(k, 0, str(out), None) is None
    other = tmp_path / "other.json"
    other.write_text(out.read_text(encoding="utf-8").replace(",", ", ", 1), encoding="utf-8")
    assert checker.check(k, 0, str(other), None) is not None
    assert checker.check(k, 2, str(out), None) is not None


def test_checker_flags_a_mutated_response(tmp_path):
    plan = build_plan("query-large", 5, tmp_path / "data")
    from fdhscale.io_cli import main

    k = next(i for i, job in enumerate(plan.jobs) if job.kind == "response")
    out = tmp_path / "good.csv"
    assert worker.run_job(main, list(plan.jobs[k].argv), str(out))[0] == 0
    assert Checker(plan.files, plan.jobs, 5).check(k, 0, str(out), None) is None
    header, *rows = out.read_text(encoding="utf-8").splitlines()
    bumped = [header] + [f"{a},{float(b) * (1 + 1e-6)}" for a, b in (r.split(",") for r in rows)]
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(bumped) + "\n", encoding="utf-8")
    assert Checker(plan.files, plan.jobs, 5).check(k, 0, str(bad), None) is not None


def _bindings() -> dict:
    return {
        (name, attr): value
        for name, mod in list(sys.modules.items())
        if name == "fdhscale" or name.startswith("fdhscale.")
        for attr, value in vars(mod).items()
    }


def test_tracer_restores_every_binding():
    import fdhscale.efficiency
    import fdhscale.io_cli  # noqa: F401
    import fdhscale.model

    before = _bindings()
    tracer = Tracer()
    tracer.install()
    try:
        assert fdhscale.efficiency.ratio_table is not before[("fdhscale.model", "ratio_table")]
        assert fdhscale.efficiency.ratio_table is fdhscale.model.ratio_table
    finally:
        tracer.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def _traced(tmp_path: Path, tag: str) -> dict:
    plan = build_plan("report-sparse", 5, tmp_path / "data")
    jobs = [job for job in plan.jobs if job.data in ("d0", "d1")]
    out = tmp_path / tag
    out.mkdir()
    return worker.run_plan({
        "jobs": [{"argv": list(job.argv)} for job in jobs],
        "out_dir": str(out),
        "seconds": 0,
        "min_jobs": 0,
        "trace": True,
        "spans_path": str(tmp_path / f"{tag}.csv"),
    })


def test_traced_counts_repeat_and_catch_internal_calls(tmp_path):
    first, second = _traced(tmp_path, "one"), _traced(tmp_path, "two")
    calls = {qual: layer["calls"] for qual, layer in first["layers"].items()}
    assert calls == {qual: layer["calls"] for qual, layer in second["layers"].items()}
    assert first["useful"] == second["useful"]
    assert first["divisions"] == second["divisions"]
    # one report job reads one table; the rest come from internal calls
    assert calls["model.ratio_table"] > 2 * 100
    assert calls["io_cli.read_csv"] == 2
    spans = (tmp_path / "one.csv").read_text(encoding="utf-8").splitlines()
    assert len(spans) == 1 + sum(calls.values())


def test_metric_names_are_valid_and_match_the_spec():
    declared_e2e = [m["name"] for m in SPEC["end_to_end"]]
    declared_layers = [m["name"] for m in SPEC["per_layer"]]
    for name in declared_e2e + declared_layers:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert len(set(declared_e2e + declared_layers)) == len(declared_e2e + declared_layers)
    e2e, _ = run.end_to_end(0.1, [0.2] * 30, 300, 20_000, 30, 0)
    assert sorted(set(e2e) - set(run.PRINTED_ONLY)) == sorted(declared_e2e)
    fake = {
        "layers": {qual: {"calls": 3, "self_s": 0.1} for qual in FUNCTIONS},
        "useful": {qual: 1 for qual in PER_UNIT},
        "divisions": 9,
        "traced_s": 2.0,
        "untraced_s": 1.0,
    }
    assert sorted(run.layer_metrics(fake, 10)) == sorted(declared_layers)
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "report-sparse", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
