"""Run benchmark jobs in one single-threaded process and time each one.

Usage: python3 worker.py PLAN.json RESULT.json

Each job is an in-process call to ``fdhscale.io_cli.main(argv)`` writing to
its own ``--out`` file, so that every output can be checked afterwards. Each
job is timed in CPU seconds of this process, which leave out the time a
virtual machine's hypervisor lends the CPU to other guests, and in wall
seconds. In timed mode the jobs repeat in plan order until the time is up.
In trace mode each job of the list runs once untraced and once traced, and
the result holds the traced counts and self times. The result also holds
the process's peak resident memory.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def run_job(main, argv: list[str], out: str) -> tuple[int | None, float, float, str | None]:
    """Exit code (None if the call raised), CPU and wall seconds, error text."""
    argv = [out if arg == "{out}" else arg for arg in argv]
    wall, cpu = time.perf_counter(), time.process_time()
    try:
        rc, error = main(argv), None
    except Exception as exc:  # a traceback is a failed job, not a failed run
        rc, error = None, f"{type(exc).__name__}: {exc}"
    return rc, time.process_time() - cpu, time.perf_counter() - wall, error


def run_plan(plan: dict) -> dict:
    from fdhscale.io_cli import main

    jobs = plan["jobs"]
    out_dir = Path(plan["out_dir"])
    records = []

    def one(job_index: int, traced: bool) -> float:
        seq = len(records)
        out = str(out_dir / f"{seq:05d}.out")
        rc, cpu, wall, error = run_job(main, jobs[job_index]["argv"], out)
        records.append({"job": job_index, "out": out, "rc": rc, "s": cpu, "wall": wall,
                        "error": error, "traced": traced})
        return cpu

    result: dict = {"records": records}
    if plan["trace"]:
        from tracer import Tracer

        # Each job runs untraced and then traced, so that both see the same
        # machine state and their difference is the tracing overhead.
        tracer = Tracer()
        untraced = traced = 0.0
        for k in range(len(jobs)):
            untraced += one(k, False)
            tracer.install()
            try:
                tracer.start_job(len(records))
                traced += one(k, True)
            finally:
                tracer.restore()
        tracer.write_spans(Path(plan["spans_path"]))
        result["layers"] = tracer.summary()
        result["useful"] = {name: len(units) for name, units in tracer.units.items()}
        result["divisions"] = tracer.divisions
        result["untraced_s"] = untraced
        result["traced_s"] = traced
    else:
        deadline = time.perf_counter() + plan["seconds"]
        k = 0
        while time.perf_counter() < deadline or len(records) < plan["min_jobs"]:
            one(k % len(jobs), False)
            k += 1
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return result


def main() -> int:
    plan = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    sys.path.insert(0, plan["src"])
    result = run_plan(plan)
    Path(sys.argv[2]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
