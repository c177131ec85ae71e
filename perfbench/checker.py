"""Check job outputs against the exact oracle, outside the timed region.

A job passes when it exits 0, its output parses and the checks below find
no mismatch. The first output of each distinct job is checked in full; a
repeat of the job must reproduce it byte for byte.

- report and classify: a seeded sample of units is recomputed by the exact
  oracle on an exact copy of the data as written: theta and phi (all four
  regimes in a report, the variable-returns theta in a classification),
  the efficient and best-scale flags, sigma+ and sigma- (sweeps at the
  smallest grid) and the one-sided classes (interval feasibility).
  Classify records of projected efficient units describe the projected
  dataset, which the oracle does not rebuild, so they are checked for
  shape only.
- ratios: sigma+ and sigma- against their definition evaluated exactly.
- response: steps strictly increasing, and the value in the middle of
  sampled steps against ``oracle_response_value``.
- verify: the ``overall PASS`` line.

Numbers are compared within the report's 12-decimal rounding plus float
error. Witness names are never compared: ties may be broken either way.
"""

from __future__ import annotations

import csv
import io
import json
import random
from fractions import Fraction

from workloads import DataFile, Job

TOL = 1e-11
EPS = 1e-9  # the CLI's default tolerance, used for the best-scale flag
SAMPLE_EFFICIENT = 2
SAMPLE_DOMINATED = 1
SAMPLE_STEPS = 2


def close(reported, exact) -> bool:
    """Whether a reported JSON number matches an exact value."""
    from fdhscale.scale import UNBOUNDED

    if exact is UNBOUNDED:
        return reported == "inf"
    if isinstance(reported, bool) or not isinstance(reported, (int, float)):
        return False
    x = float(exact)
    return abs(reported - x) <= TOL * max(1.0, abs(x))


def load_exact(f: DataFile):
    """The dataset as written, every cell an exact rational."""
    from fdhscale.model import validate_dataset

    with open(f.path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    cell = Fraction if f.exact else (lambda text: Fraction(float(text)))
    return validate_dataset(
        [row[0] for row in rows],
        [[cell(v) for v in row[1:1 + f.m]] for row in rows],
        [[cell(v) for v in row[1 + f.m:]] for row in rows],
    )


class Checker:
    def __init__(self, files: dict[str, DataFile], jobs: list[Job], seed: int) -> None:
        self.files = files
        self.jobs = jobs
        self.seed = seed
        self._exact: dict[str, object] = {}
        self._first: dict[int, tuple[str, str | None]] = {}
        self.efficient_after: dict[str, float] = {}

    def exact(self, key: str):
        if key not in self._exact:
            self._exact[key] = load_exact(self.files[key])
        return self._exact[key]

    def check(self, job_index: int, rc, out_path: str, error: str | None) -> str | None:
        """Problem with one job run, or None when it passed."""
        if rc != 0:
            return error or f"exit code {rc}"
        try:
            with open(out_path, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            return f"no output: {exc}"
        if job_index in self._first:
            first, problem = self._first[job_index]
            return problem if text == first else "output differs from an earlier run of the job"
        job = self.jobs[job_index]
        try:
            problem = getattr(self, f"_{job.kind}")(job, text)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            problem = f"unreadable output: {type(exc).__name__}: {exc}"
        self._first[job_index] = (text, problem)
        return problem

    def _report(self, job: Job, text: str) -> str | None:
        return self._units(job, json.loads(text), full_scores=True)

    def _classify(self, job: Job, text: str) -> str | None:
        doc = json.loads(text)
        units = doc["units"]
        self.efficient_after[job.data] = sum(rec["efficient"] for rec in units) / len(units)
        return self._units(job, doc, full_scores=False)

    def _units(self, job: Job, doc: dict, full_scores: bool) -> str | None:
        d = self.exact(job.data)
        records = doc["units"]
        if [rec["name"] for rec in records] != list(d.names):
            return "unit names or order differ from the input"
        rng = random.Random(f"{self.seed}:{job.data}")
        plain = [o for o, rec in enumerate(records) if not rec.get("projected")]
        efficient = [o for o in plain if records[o]["efficient"]]
        dominated = [o for o, rec in enumerate(records) if not rec["efficient"]]
        sample = (rng.sample(efficient, min(SAMPLE_EFFICIENT, len(efficient)))
                  + rng.sample(dominated, min(SAMPLE_DOMINATED, len(dominated))))
        for o in sample:
            problem = self._unit(d, o, records[o], full_scores)
            if problem:
                return f"{d.names[o]}: {problem}"
        for rec in records:
            if rec.get("projected") and rec["efficient"] and rec["right_rts"] is None:
                return f"{rec['name']}: projected efficient unit has no classes"
        return None

    def _unit(self, d, o: int, rec: dict, full_scores: bool) -> str | None:
        from fdhscale.model import Delta
        from fdhscale.oracle import (
            OracleConfig,
            ScalingSystem,
            oracle_phi,
            oracle_sigma_minus,
            oracle_sigma_plus,
            oracle_system_feasible,
            oracle_theta,
        )

        theta = {reg: oracle_theta(d, reg, o) for reg in Delta}
        phi = {reg: oracle_phi(d, reg, o) for reg in Delta}
        efficient = theta[Delta.VRS] == 1 and phi[Delta.VRS] == 1
        if rec["efficient"] is not efficient:
            return f"efficient flag {rec['efficient']}, oracle says {efficient}"
        if full_scores:
            for reg in Delta:
                if not close(rec["theta"][reg.value], theta[reg]):
                    return f"theta[{reg.value}] {rec['theta'][reg.value]} != {float(theta[reg])}"
                if not close(rec["phi"][reg.value], phi[reg]):
                    return f"phi[{reg.value}] {rec['phi'][reg.value]} != {float(phi[reg])}"
        elif not close(rec["theta_vrs"], theta[Delta.VRS]):
            return f"theta_vrs {rec['theta_vrs']} != {float(theta[Delta.VRS])}"
        if rec["mpss"] is not (abs(theta[Delta.CRS] - 1) <= EPS):
            return f"best-scale flag {rec['mpss']} with crs theta {float(theta[Delta.CRS])}"
        if not efficient:
            fields = ("sigma_plus", "sigma_minus", "right_rts", "left_rts")
            if any(rec[k] is not None for k in fields):
                return "dominated unit carries scale ratios or classes"
            return None
        cfg = OracleConfig(grid_steps=100)
        for key, exact in (("sigma_plus", oracle_sigma_plus(d, o, cfg)),
                           ("sigma_minus", oracle_sigma_minus(d, o, cfg))):
            if not close(rec[key], exact):
                return f"{key} {rec[key]} != {exact}"

        def feasible(system: ScalingSystem) -> bool:
            return oracle_system_feasible(d, o, system)

        if feasible(ScalingSystem.RIGHT_STRICT):
            right = "Right-IRS"
        else:
            right = "Right-CRS" if feasible(ScalingSystem.RIGHT_WEAK) else "Right-DRS"
        if feasible(ScalingSystem.LEFT_STRICT):
            left = "Left-DRS"
        else:
            left = "Left-CRS" if feasible(ScalingSystem.LEFT_WEAK) else "Left-IRS"
        if (rec["right_rts"], rec["left_rts"]) != (right, left):
            return f"classes {rec['right_rts']}/{rec['left_rts']} != {right}/{left}"
        return None

    def _ratios(self, job: Job, text: str) -> str | None:
        from fdhscale.scale import UNBOUNDED

        doc = json.loads(text)
        d = self.exact(job.data)
        o = d.index_of(job.unit)
        xo, yo = d.inputs[o], d.outputs[o]
        up = down = None
        for xs, ys in zip(d.inputs, d.outputs):
            a = max(x / w for x, w in zip(xs, xo))
            if a == 1:
                continue
            slope = (min(y / w for y, w in zip(ys, yo)) - 1) / (a - 1)
            if a > 1 and (up is None or slope > up):
                up = slope
            if a < 1 and (down is None or slope < down):
                down = slope
        up = up if up is not None and up > 0 else 0
        down = UNBOUNDED if down is None else down
        if doc["name"] != job.unit or doc["projected"] is not False:
            return "wrong unit or projection flag"
        for key, exact in (("sigma_plus", up), ("sigma_minus", down)):
            if not close(doc[key], exact):
                return f"{key} {doc[key]} != {exact}"
        return None

    def _response(self, job: Job, text: str) -> str | None:
        from fdhscale.oracle import oracle_response_value

        rows = list(csv.reader(io.StringIO(text)))
        if rows[0] != ["alpha_threshold", "beta_value"]:
            return "bad response header"
        steps = [(Fraction(a), Fraction(b)) for a, b in rows[1:]]
        if len(steps) < 2:
            return "fewer than two steps"
        if any(p[0] >= q[0] or p[1] >= q[1] for p, q in zip(steps, steps[1:])):
            return "steps not strictly increasing"
        d = self.exact(job.data)
        o = d.index_of(job.unit)
        rng = random.Random(f"{self.seed}:{job.data}:{job.unit}")
        for k in rng.sample(range(len(steps) - 1), min(SAMPLE_STEPS, len(steps) - 1)):
            mid = (steps[k][0] + steps[k + 1][0]) / 2
            exact = oracle_response_value(d, o, mid)
            if not close(float(steps[k][1]), exact):
                return f"value at alpha={float(mid)} is {float(steps[k][1])}, oracle {float(exact)}"
        return None

    def _verify(self, job: Job, text: str) -> str | None:
        lines = text.strip().splitlines()
        if not lines or lines[-1].split() != ["overall", "PASS"]:
            return "no 'overall PASS' line"
        return None
