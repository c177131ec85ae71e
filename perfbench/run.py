"""fdhscale benchmark: seeded CLI workloads, job-level metrics, per-module trace.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload report-sparse --seed 1 --seconds 25 --trace 0

The benchmark writes seeded CSV datasets under ``.perfbench_work/`` and runs
fdhscale CLI jobs on them, each an in-process call to
``fdhscale.io_cli.main(argv)`` inside one single-threaded worker process
(``worker.py``). Afterwards it checks every output (``checker.py``) and
prints one line per metric, then one JSON object as the last line.

Times are CPU seconds (user plus system) of the process doing the work.
On a virtual machine they leave out the spells in which the hypervisor runs
other guests, which can stretch wall time by a third for minutes at a time;
the median job wall time is printed for reference.

With ``--trace 0`` the jobs repeat for ``--seconds`` of wall time and the
metrics are the end-to-end ones:

- ``setup_s``: median time of a fresh interpreter running
  ``python -m fdhscale --help`` (package import and parser build).
- ``job_tail_s``: job time at the highest percentile with at least ten jobs
  beyond it; the percentile and the job count are printed beside it.
- ``peak_rss_mb``: peak resident memory of the worker process.
- ``ok_frac``: jobs that passed over jobs attempted.

It also prints, but leaves out of the JSON result, ``job_p50_s`` (median job
time), ``rows_per_s`` (dataset rows per second of job time) and
``fail_frac`` (1 - ``ok_frac``). On a shared two-core machine the CPU runs
jobs at two speeds that alternate within seconds, and the share of fast
spells in a run moves the median and the mean by up to a quarter from run
to run; the tail sits in the slow spells and stays steady.

With ``--trace 1`` the job list runs once untraced and once traced
(``tracer.py``), and the metrics are calls and self seconds per traced
function, calls per dataset row and the share of calls on a distinct
(dataset, unit) pair for the two per-unit functions, the number of
divisions the ratio tables imply, and the tracing overhead.

The program under test is imported from ``src/``. Without it the benchmark
exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from checker import Checker
from tracer import FUNCTIONS, PER_UNIT
from workloads import WORKLOADS, build_plan

HERE = Path(__file__).resolve().parent
SETUP_LAUNCHES = 8  # before the jobs and again after them; the median is reported
MIN_JOBS = 30  # enough for job_tail_s to leave ten jobs beyond it
DEADLINE_S = 150  # for the worker; checks and set-up timing follow it
# Printed on every run but left out of the result: see the module docstring.
PRINTED_ONLY = ("job_p50_s", "rows_per_s", "fail_frac")


def time_setup(root: Path, src: Path, launches: int) -> list[float]:
    """CPU seconds of ``python -m fdhscale --help``, each in a fresh process."""
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = [sys.executable, "-m", "fdhscale", "--help"]
    samples = []
    for _ in range(launches):
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        done = subprocess.run(argv, cwd=root, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=30)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        samples.append(after.ru_utime - before.ru_utime + after.ru_stime - before.ru_stime)
        if done.returncode != 0:
            raise RuntimeError(f"'fdhscale --help' exited with {done.returncode}")
    return samples


def end_to_end(setup_s: float, times: list[float], rows: int, maxrss_kb: int,
               attempted: int, failed: int) -> tuple[dict, str]:
    """End-to-end metrics as name -> (value, unit), and the tail's percentile.

    The names in ``PRINTED_ONLY`` are printed but left out of the result.
    """
    ordered = sorted(times)
    n = len(ordered)
    tail_rank = n - 11  # ten jobs lie beyond this one
    metrics = {
        "job_p50_s": (statistics.median(ordered), "s"),
        "job_tail_s": (ordered[tail_rank], "s"),
        "rows_per_s": (rows / sum(ordered), "rows/s"),
        "peak_rss_mb": (maxrss_kb / 1024.0, "MB"),
        "ok_frac": ((attempted - failed) / attempted, "frac"),
        "fail_frac": (failed / attempted, "frac"),
        "setup_s": (setup_s, "s"),
    }
    return metrics, f"p{100.0 * (tail_rank + 1) / n:.1f} of {n} jobs"


def layer_metrics(result: dict, rows: int) -> dict:
    metrics = {}
    for qual in FUNCTIONS:
        layer = result["layers"][qual]
        metrics[f"{qual}.calls"] = (layer["calls"], "count")
        metrics[f"{qual}.self_s"] = (layer["self_s"], "s")
    for qual in PER_UNIT:
        calls = result["layers"][qual]["calls"]
        metrics[f"{qual}.per_row"] = (calls / rows, "calls/row")
        metrics[f"{qual}.useful_frac"] = (result["useful"][qual] / calls if calls else 0.0, "frac")
    metrics["model.ratio_table.divisions"] = (result["divisions"], "computed")
    overhead = result["traced_s"] - result["untraced_s"]
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_frac"] = (overhead / result["untraced_s"], "frac")
    return metrics


def run(args: argparse.Namespace, root: Path, run_dir: Path) -> dict:
    started = time.perf_counter()
    src = root / "src"
    plan = build_plan(args.workload, args.seed, run_dir / "data")
    phases = {"plan": time.perf_counter() - started}
    print(f"# {args.workload} seed={args.seed}: {WORKLOADS[args.workload]}")
    print(f"# python {platform.python_version()}, nproc {os.cpu_count()}")
    for note in plan.notes:
        print(f"# {note}")

    # The first launch also compiles bytecode, so it is left out.
    setup = [] if args.trace else time_setup(root, src, SETUP_LAUNCHES + 1)[1:]
    phases["setup"] = time.perf_counter() - started - sum(phases.values())

    out_dir = run_dir / "out"
    out_dir.mkdir()
    spans_path = root / ".perfbench_work" / f"trace-{args.workload}.csv"
    plan_path, result_path = run_dir / "plan.json", run_dir / "result.json"
    plan_path.write_text(json.dumps({
        "src": str(src),
        "jobs": [{"argv": list(job.argv)} for job in plan.jobs],
        "out_dir": str(out_dir),
        "seconds": args.seconds,
        "min_jobs": MIN_JOBS,
        "trace": bool(args.trace),
        "spans_path": str(spans_path),
    }), encoding="utf-8")
    with open(run_dir / "worker.err", "w", encoding="utf-8") as err:
        done = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(plan_path), str(result_path)],
            cwd=root, stdout=subprocess.DEVNULL, stderr=err,
            timeout=DEADLINE_S - (time.perf_counter() - started),
        )
    if done.returncode != 0:
        tail = (run_dir / "worker.err").read_text(encoding="utf-8")[-2000:]
        raise RuntimeError(f"worker exited with {done.returncode}:\n{tail}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    phases["jobs"] = time.perf_counter() - started - sum(phases.values())
    if not args.trace:  # set-up is timed on both sides of the jobs, to average slow spells
        setup += time_setup(root, src, SETUP_LAUNCHES)
        phases["setup"] += time.perf_counter() - started - sum(phases.values())

    checker = Checker(plan.files, plan.jobs, args.seed)
    records = result["records"]
    failed = 0
    for rec in records:
        problem = checker.check(rec["job"], rec["rc"], rec["out"], rec["error"])
        if problem:
            failed += 1
            if failed <= 5:
                job = plan.jobs[rec["job"]]
                print(f"# FAIL {job.kind} {job.data} {job.unit or ''}: {problem}")
    phases["checks"] = time.perf_counter() - started - sum(phases.values())
    for key, share in sorted(checker.efficient_after.items()):
        print(f"# {key}: efficient share after projection {share:.3f}")
    print("# wall seconds: " + ", ".join(f"{k} {v:.1f}" for k, v in phases.items()))

    timed = [rec for rec in records if rec["traced"] == bool(args.trace)]
    rows = sum(plan.files[plan.jobs[rec["job"]].data].n for rec in timed)
    attempted = len(records)
    tail_note = ""
    if args.trace:
        metrics = layer_metrics(result, rows)
        print(f"# spans written to {spans_path.relative_to(root)}")
    else:
        metrics, tail_note = end_to_end(statistics.median(setup), [rec["s"] for rec in timed],
                                        rows, result["maxrss_kb"], attempted, failed)
        print(f"# job wall time p50 {statistics.median(rec['wall'] for rec in timed):.6g} s")
    notes = {"job_tail_s": f" ({tail_note})", "fail_frac": f" ({failed} of {attempted} jobs)"}
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}{notes.get(name, '')}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items() if name not in PRINTED_ONLY},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "fdhscale" / "__init__.py").is_file():
        print(f"error: no fdhscale sources under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    work = root / ".perfbench_work"
    work.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=work))
    try:
        doc = run(args, root, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
