"""Run every workload over several seeds and summarise the end-to-end metrics.

Usage, from the root of a checkout:

    python3 perfbench/collect.py --seeds 1 2 3 4 5 6 7 8 9 10 --out perfbench/BASELINE.json

Runs ``run.py`` once per workload and seed (seeds in the outer loop, so slow
spells of the machine spread over all workloads), prints every end-to-end
metric with its unit, and for each metric the median, the quartiles and
their distance as a share of the median (``statistics.quantiles(n=4)``),
against the bound in ``BENCHMARK.json``. The metrics ``run.py`` prints but
leaves out of its result are summarised too, without a bound. With
``--trace`` it also makes one traced run per workload on the first seed.
``--out`` writes all of it with the machine's Python version, core count and
CPU model.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from run import PRINTED_ONLY

HERE = Path(__file__).resolve().parent


def machine() -> dict:
    """Python version, core count and CPU model (from /proc/cpuinfo on Linux)."""
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu}


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(argv[1:])} exited with {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    printed = {}
    for line in lines[:-1]:
        parts = line.split()
        if parts and parts[0] in PRINTED_ONLY:
            printed[parts[0]] = {"value": float(parts[1]), "unit": parts[2]}
    return {"seed": seed, "log": lines[:-1], **json.loads(lines[-1]), "printed": printed}


def summarise(runs: list[dict], key: str, bounds: dict) -> dict:
    summary = {}
    for name in runs[0][key]:
        values = [r[key][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        summary[name] = {
            "unit": runs[0][key][name]["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "bound": bounds.get(name),
        }
    return summary


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    runs: dict[str, list] = {w: [] for w in workloads}
    for seed in args.seeds:
        for w in workloads:
            res = run_once(w, seed, seconds, 0)
            runs[w].append(res)
            values = ", ".join(f"{k} {v['value']:.4g} {v['unit']}" for k, v in res["metrics"].items())
            print(f"{w} seed {seed}: failed {res['failed']}/{res['attempted']}; {values}", flush=True)

    report = {"machine": machine(), "seconds": seconds, "seeds": args.seeds, "workloads": {}}
    for w in workloads:
        summary = summarise(runs[w], "metrics", bounds)
        summary.update(summarise(runs[w], "printed", bounds))
        attempted = sum(r["attempted"] for r in runs[w])
        failed = sum(r["failed"] for r in runs[w])
        print(f"\n{w}: fail_frac {failed / attempted:.4f} ({failed} of {attempted} jobs)")
        for name, s in summary.items():
            print(f"  {name:12s} median {s['median']:.6g} {s['unit']:7s} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.3f} bound {s['bound']}")
        entry = {"fail_frac": failed / attempted, "summary": summary, "runs": runs[w]}
        if args.trace:
            entry["trace"] = run_once(w, args.seeds[0], seconds, 1)
        report["workloads"][w] = entry
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
