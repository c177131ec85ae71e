"""Outside-in spans around the public functions of each fdhscale module.

A :class:`Tracer` wraps every listed function and rebinds each name that
refers to it in every loaded ``fdhscale`` module, so calls that one module
makes into another (for example ``efficiency`` calling the ``ratio_table``
it imported from ``model``) are caught as well as calls from outside. The
program itself is not changed: :meth:`Tracer.restore` puts every original
binding back.

Spans (function, start, end, parent span, job) stay in memory until the run
ends. A span's self time is its duration minus the durations of its direct
children; calls are synchronous on one thread, so children nest inside
their parent and never overlap.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from pathlib import Path

PACKAGE = "fdhscale"

TARGETS = {
    "io_cli": ("read_csv", "build_report_document", "build_classification_document",
               "build_ratios_document", "response_csv", "write_report"),
    "model": ("validate_dataset", "ratio_table"),
    "technology": ("find_dominating",),
    "efficiency": ("theta", "phi", "compute_scores", "is_mpss"),
    "response": ("build_response",),
    "scale": ("sigma_plus", "sigma_minus"),
    "rts": ("right_rts", "left_rts", "grs", "classify_all"),
    "oracle": ("verify_dataset", "oracle_theta", "oracle_phi", "oracle_sigma_plus",
               "oracle_sigma_minus", "oracle_system_feasible"),
}
FUNCTIONS = tuple(f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns)
# Per-unit functions whose (dataset, unit) arguments are recorded, to count
# repeated work on the same unit.
PER_UNIT = ("model.ratio_table", "technology.find_dominating")


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.job = -1
        self._stack: list[int] = []
        self._rebound: list[tuple[object, str, object]] = []
        self._datasets: list = []  # keeps ids in ``units`` unique within a job
        self.units: dict[str, set] = {name: set() for name in PER_UNIT}
        self.divisions = 0

    def install(self) -> None:
        """Rebind every traced function in every loaded module of the package."""
        for mod_name in TARGETS:
            importlib.import_module(f"{PACKAGE}.{mod_name}")
        modules = [mod for name, mod in list(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for fid, qual in enumerate(FUNCTIONS):
            mod_name, fn_name = qual.split(".")
            original = getattr(sys.modules[f"{PACKAGE}.{mod_name}"], fn_name, None)
            if original is None:  # gone from the program: reported as never called
                continue
            wrapper = self._wrap(fid, qual, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._rebound.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def restore(self) -> None:
        for mod, attr, original in reversed(self._rebound):
            setattr(mod, attr, original)
        self._rebound.clear()

    def start_job(self, job: int) -> None:
        self.job = job
        self._datasets.clear()

    def _wrap(self, fid: int, qual: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.process_time_ns  # CPU time, as the worker times jobs
        per_unit = self.units.get(qual)
        is_table = qual == "model.ratio_table"

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (fid, start, end, parent, self.job)
                if per_unit is not None:
                    d = args[0] if args else kwargs["d"]
                    o = kwargs["o"] if "o" in kwargs else args[-1]
                    self._datasets.append(d)
                    per_unit.add((self.job, id(d), o))
                    if is_table:
                        self.divisions += d.n * (d.m + d.s)

        return traced

    def summary(self) -> dict[str, dict[str, float]]:
        """Calls and self seconds per traced function."""
        child_ns = [0] * len(self.spans)
        for fid, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls: dict[int, int] = defaultdict(int)
        self_ns: dict[int, int] = defaultdict(int)
        for idx, (fid, start, end, _, _) in enumerate(self.spans):
            calls[fid] += 1
            self_ns[fid] += end - start - child_ns[idx]
        return {qual: {"calls": calls[fid], "self_s": self_ns[fid] / 1e9}
                for fid, qual in enumerate(FUNCTIONS)}

    def write_spans(self, path: Path) -> None:
        lines = ["function,start_ns,end_ns,parent,job"]
        lines.extend(f"{FUNCTIONS[fid]},{start},{end},{parent},{job}"
                     for fid, start, end, parent, job in self.spans)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
