"""CSV ingestion, JSON reports, and the command line.

Wire format: a header ``dmu,in_<name>,...,out_<name>,...`` with input
columns before output columns, then one row per unit. Cells accept
decimals and fraction literals like ``13/4``. Reports are emitted as
compact JSON with a fixed field order and 12-decimal rounding, so the
same inputs and flags always produce the same bytes.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import json
import math
import re
import sys
from fractions import Fraction
from pathlib import Path
from typing import Any, Sequence, Union

from ._version import __version__
from .efficiency import radial
from .errors import (
    AnalysisError,
    EmptyDatasetError,
    NoInputColumnsError,
    NoOutputColumnsError,
    ParseError,
    RaggedRowsError,
    ReportWriteError,
    UnclassifiableError,
    ValueSpreadError,
)
from .model import Dataset, Delta, Numeric, Orientation, Tolerance, validate_dataset
from .oracle import OracleConfig, merge_checks, verify_dataset, verify_random
from .response import build_response
from .rts import InefficientUnit, RtsReport, classify_all, classify_unit
from .scale import UNBOUNDED, scale_ratios


def read_csv(source: Union[str, Path], exact: bool = False) -> Dataset:
    """Parse and validate a dataset CSV.

    With ``exact`` the entries stay rational; otherwise they are converted
    to doubles.
    """
    try:
        text = Path(source).read_bytes().decode("utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {source}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"cannot decode {source}: invalid UTF-8 at byte {exc.start}"
        ) from exc
    # Universal newlines, as reading in text mode gives; read_csv_text drops
    # the one byte-order mark that utf-8-sig would.
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    return read_csv_text(text, exact=exact)


def read_csv_text(text: str, exact: bool = False) -> Dataset:
    text = text.removeprefix("\ufeff")  # a byte-order mark is not part of 'dmu'
    rows = _csv_rows(text)
    if not rows:
        raise EmptyDatasetError("no header row")
    header = [cell.strip() for cell in rows[0]]
    if not header or header[0] != "dmu":
        raise ParseError(f"first column must be 'dmu', got {header[:1]!r}")
    in_cols = [k for k, name in enumerate(header) if name.startswith("in_")]
    out_cols = [k for k, name in enumerate(header) if name.startswith("out_")]
    if not in_cols:
        raise NoInputColumnsError("header declares no in_ columns")
    if not out_cols:
        raise NoOutputColumnsError("header declares no out_ columns")
    if len(in_cols) + len(out_cols) != len(header) - 1:
        bad = [
            name
            for name in header[1:]
            if not (name.startswith("in_") or name.startswith("out_"))
        ]
        raise ParseError(f"unrecognized columns {bad!r}")
    if max(in_cols) > min(out_cols):
        raise ParseError("in_ columns must precede out_ columns")

    columns = [header[c] for c in in_cols + out_cols]
    parsed = None if exact else _float_columns(rows[1:], len(header), len(in_cols))
    if parsed is not None:
        return validate_dataset(*parsed, columns)
    names: list[str] = []
    inputs: list[list[Numeric]] = []
    outputs: list[list[Numeric]] = []
    for rownum, row in enumerate(rows[1:], start=2):
        cells = [cell.strip() for cell in row]
        if len(cells) != len(header):
            raise RaggedRowsError(
                f"row {rownum} has {len(cells)} cells, header has {len(header)}"
            )
        if not cells[0]:
            raise ParseError(f"row {rownum}: empty unit name")
        names.append(cells[0])
        inputs.append([_cell(cells[c], exact, rownum, header[c]) for c in in_cols])
        outputs.append([_cell(cells[c], exact, rownum, header[c]) for c in out_cols])
    return validate_dataset(names, inputs, outputs, columns)


def _float_columns(body: list[list[str]], width: int, m: int):
    """Names, input rows and output rows of ``body``, read a column at a time.

    ``None`` if a row is ragged, a name empty, or a cell outside ``_cell``'s
    fast branch (short, a valid float, finite, nonzero): the row loop decides.
    """
    if set(map(len, body)) != {width}:
        return None
    first, *cols = zip(*body)
    names = [name.strip() for name in first]
    values = []
    for col in cols:
        try:
            vals = list(map(float, col))
        except ValueError:
            return None
        short = max(map(len, col)) <= _SHORT_CELL
        if not (short and 0.0 not in vals and math.isfinite(sum(vals))):
            return None
        values.append(vals)
    return (names, zip(*values[:m]), zip(*values[m:])) if all(names) else None


def _csv_rows(text: str) -> list[list[str]]:
    """The non-empty records of a CSV text; a malformed one is a ``ParseError``."""
    reader = csv.reader(io.StringIO(text))
    try:
        return [row for row in reader if row]
    except csv.Error as exc:  # e.g. a field beyond csv.field_size_limit()
        raise ParseError(f"line {reader.line_num}: {exc}") from exc


# Python refuses int-string conversions beyond a digit limit that can be set
# no lower than 640, so ``Fraction`` reads every cell this short in full.
_SHORT_CELL = 640
# A decimal exponent as ``Fraction`` reads it, after the rest of the literal.
_EXPONENT = re.compile(r"(.*)e([-+]?\d+(?:_\d+)*)\s*", re.IGNORECASE | re.DOTALL)
# An exact cell whose decimal exponent exceeds this in magnitude is refused:
# ``Fraction`` builds 10**exponent, whose cost grows faster than the exponent.
_MAX_EXPONENT = 10**6


def _cell(text: str, exact: bool, rownum: int, column: str) -> Numeric:
    """One number cell: a ``Fraction`` with ``exact``, else a double.

    ``float(text)`` and ``float(Fraction(text))`` are both correctly
    rounded, so a finite nonzero ``float(text)`` is the double ``Fraction``
    would give. Every other cell takes the ``Fraction`` path: spellings only
    it reads (``13/4``), ``nan`` and ``inf`` (bad numbers), and values that
    overflow or underflow a double (a positive cell that rounds to 0.0).
    """
    if not exact and len(text) <= _SHORT_CELL:
        try:
            value = float(text)
        except ValueError:
            pass
        else:
            if value and math.isfinite(value):
                return value
    where = f"row {rownum}, column {column!r}"
    try:
        q = Fraction(_near_exponent(text, exact, where))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"{where}: bad number {text!r}") from exc
    if exact:
        return q
    try:
        value = float(q)
    except OverflowError:
        value = math.inf
    if math.isinf(value) or (q > 0 and not value):
        raise ValueSpreadError(f"{where}: {text!r} is outside the double range")
    return value


def _near_exponent(text: str, exact: bool, where: str) -> str:
    """``text``, with a float cell's far-out decimal exponent brought nearer.

    ``Fraction`` builds 10**exponent. An exact cell with an exponent beyond
    ``_MAX_EXPONENT`` is a ``ParseError``. In a float cell, an exponent beyond
    the literal's length plus 400 puts a nonzero value above 1e400 or below
    1e-400, so the same mantissa with that exponent at the bound gives the
    same double, or the same error.
    """
    m = _EXPONENT.fullmatch(text)
    if m is None:
        return text
    exponent = int(m[2])
    bound = _MAX_EXPONENT if exact else len(text) + 400
    if abs(exponent) <= bound:
        return text
    if exact:
        Fraction(f"{m[1]}e0")  # a malformed literal stays a bad number
        raise ParseError(f"{where}: {text!r} has an exponent beyond {_MAX_EXPONENT}")
    return f"{m[1]}e{bound if exponent > 0 else -bound}"


def write_csv(d: Dataset, destination: Union[str, Path, None] = None) -> str:
    """Serialize a dataset with fraction literals, for exact round-trips."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["dmu"]
        + [f"in_{k + 1}" for k in range(d.m)]
        + [f"out_{k + 1}" for k in range(d.s)]
    )
    for o in range(d.n):
        writer.writerow(
            [d.names[o]]
            + [_rational(v) for v in d.inputs[o]]
            + [_rational(v) for v in d.outputs[o]]
        )
    return _deliver(buf.getvalue(), destination)


def _deliver(text: str, destination: Union[str, Path, None]) -> str:
    if destination is not None:
        try:
            Path(destination).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise ReportWriteError(f"cannot write {destination}: {exc}") from exc
    return text


def _rational(v: Numeric) -> str:
    """``str(Fraction(v))`` without the ``Fraction``: lowest-terms ``n/d``, or ``n``."""
    n, den = v.as_integer_ratio()
    return f"{n}/{den}" if den != 1 else str(n)


def _digest(d: Dataset) -> str:
    h = hashlib.sha256()
    for name, xs, ys in zip(d.names, d.inputs, d.outputs):
        line = f"{name}|{','.join(map(_rational, xs))}|{','.join(map(_rational, ys))}\n"
        h.update(line.encode("utf-8"))
    return h.hexdigest()


def _num(v: Any) -> Any:
    """JSON form of a score: 12-decimal rounding, 'inf' for the symbol."""
    if v is UNBOUNDED:
        return "inf"
    try:
        r = round(float(v), 12)
    except OverflowError:
        raise ValueSpreadError("a reported value is outside the double range") from None
    i = int(r)
    return i if i == r else r


def _header(d: Dataset, tol: Tolerance, projected: bool = False) -> dict:
    return {
        "dataset_digest": _digest(d),
        "tolerance": tol.eps,
        "version": __version__,
        "projected": projected,
    }


def _project(d: Dataset, unit: InefficientUnit) -> Dataset:
    """Copy of ``d`` with the dominated unit's outputs expanded onto the frontier.

    The expansion factor is the unit's variable-returns output score. The
    caller analyses the copy afresh, from its own ratio table.
    """
    o = unit.reference
    grow = unit.scores.phi[Delta.VRS].value
    outputs = tuple(
        tuple(grow * v for v in row) if k == o else row
        for k, row in enumerate(d.outputs)
    )
    return Dataset(d.names, d.inputs, outputs)


def _classified_units(d: Dataset, tol: Tolerance, project: bool):
    """Per unit: (report-or-marker, projected flag).

    With ``project`` a dominated unit is analysed again after projection;
    when it is still dominated (input slack) its original marker stays.
    """
    out = []
    for item in classify_all(d, tol):
        if project and isinstance(item, InefficientUnit):
            again = classify_unit(_project(d, item), item.reference, tol)
            out.append((again if isinstance(again, RtsReport) else item, True))
        else:
            out.append((item, False))
    return out


def _report_record(
    d: Dataset, item, projected: bool, include_flag: bool, full_scores: bool
) -> dict:
    """One unit's record: every score with ``full_scores``, else theta_vrs only."""
    efficient = isinstance(item, RtsReport)
    rec: dict[str, Any] = {"name": d.names[item.reference], "efficient": efficient}
    if include_flag:
        rec["projected"] = projected
    witnesses: dict[str, Any] = {}
    if full_scores:
        for key, scores in (("theta", item.scores.theta), ("phi", item.scores.phi)):
            rec[key] = {reg.value: _num(scores[reg].value) for reg in Delta}
            witnesses[key] = {reg.value: d.names[scores[reg].witness] for reg in Delta}
    else:
        rec["theta_vrs"] = _num(item.scores.theta[Delta.VRS].value)
    rec["mpss"] = item.mpss
    if efficient:
        rec["grs"] = item.grs.value
        rec["right_rts"] = item.one_sided.right.value
        rec["left_rts"] = item.one_sided.left.value
        rec["sigma_plus"] = _num(item.sigma.sigma_plus)
        rec["sigma_minus"] = _num(item.sigma.sigma_minus)
        witnesses["sigma_plus"] = _name_or_none(d, item.sigma.plus_witness)
        witnesses["sigma_minus"] = _name_or_none(d, item.sigma.minus_witness)
    else:
        for key in ("grs", "right_rts", "left_rts", "sigma_plus", "sigma_minus"):
            rec[key] = None
        witnesses.update(sigma_plus=None, sigma_minus=None)
    witnesses["dominating"] = None if efficient else d.names[item.witness]
    rec["witnesses"] = witnesses
    return rec


def _name_or_none(d: Dataset, j: Union[int, None]) -> Union[str, None]:
    return None if j is None else d.names[j]


def _units_document(
    d: Dataset, tol: Tolerance, project: bool, full_scores: bool
) -> dict:
    units = [
        _report_record(d, item, flag, project, full_scores)
        for item, flag in _classified_units(d, tol, project)
    ]
    return {"header": _header(d, tol, project), "units": units}


def build_report_document(
    d: Dataset, tol: Tolerance = Tolerance(), project: bool = False
) -> dict:
    return _units_document(d, tol, project, full_scores=True)


def build_classification_document(
    d: Dataset, tol: Tolerance = Tolerance(), project: bool = False
) -> dict:
    return _units_document(d, tol, project, full_scores=False)


def build_efficiency_document(
    d: Dataset, delta: Delta, orientation: Orientation, tol: Tolerance = Tolerance()
) -> dict:
    scores = []
    for o in range(d.n):
        sc = radial(d, delta, orientation, o)
        scores.append(
            {
                "name": d.names[o],
                "value": _num(sc.value),
                "witness": d.names[sc.witness],
                "delta": _num(sc.delta),
            }
        )
    return {
        "header": _header(d, tol),
        "technology": delta.value,
        "orientation": orientation.value,
        "scores": scores,
    }


def build_ratios_document(
    d: Dataset, name: str, tol: Tolerance = Tolerance(), project: bool = False
) -> dict:
    o = d.index_of(name)
    used, projected = d, False
    if project:
        item = classify_unit(d, o, tol)
        if isinstance(item, InefficientUnit):
            used, projected = _project(d, item), True
    ratios = scale_ratios(used, o, tol)
    return {
        "header": _header(d, tol, projected),
        "name": name,
        "projected": projected,
        "sigma_plus": _num(ratios.sigma_plus),
        "sigma_minus": _num(ratios.sigma_minus),
        "witnesses": {
            "sigma_plus": _name_or_none(d, ratios.plus_witness),
            "sigma_minus": _name_or_none(d, ratios.minus_witness),
        },
    }


def response_csv(d: Dataset, name: str, alpha_max: Union[float, None] = None) -> str:
    """Two-column step list of a unit's response function."""
    r = build_response(d, d.index_of(name))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["alpha_threshold", "beta_value"])
    for t, v in r.steps:
        if alpha_max is not None and t > alpha_max:
            break
        writer.writerow([_num(t), _num(v)])
    return buf.getvalue()


def write_report(document: dict, destination: Union[str, Path, None] = None) -> str:
    """Serialize a report deterministically; optionally write it out."""
    text = json.dumps(document, separators=(",", ":"), allow_nan=False) + "\n"
    return _deliver(text, destination)


# ---------------------------------------------------------------------------
# command line


def _float(text: str) -> float:
    """A float flag value other than NaN, which compares false with everything."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if math.isnan(value):
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")
    return value


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache  # one parser per process; each parse gets a fresh namespace
def _build_parser() -> _Parser:
    parser = _Parser(
        prog="fdhscale",
        description="Free disposal hull efficiency, response functions, "
        "and returns-to-scale classification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, input_required: bool = True) -> None:
        p.add_argument("--input", required=input_required, help="dataset CSV path")
        p.add_argument("--eps", type=float, default=1e-9, help="classification tolerance")
        p.add_argument("--out", default=None, help="output path (default stdout)")

    def projectable(p: argparse.ArgumentParser) -> None:
        common(p)
        p.add_argument(
            "--project",
            action="store_true",
            help="classify dominated units after expanding their outputs onto "
            "the frontier (labeled; departs from the plain definitions)",
        )

    p = sub.add_parser("efficiency", help="radial scores for every unit")
    common(p)
    p.add_argument(
        "--technology",
        choices=[reg.value for reg in Delta],
        default=Delta.VRS.value,
    )
    p.add_argument(
        "--orientation",
        choices=[orient.value for orient in Orientation],
        default=Orientation.INPUT.value,
    )
    p.set_defaults(
        func=_cmd_document,
        build=lambda d, a: build_efficiency_document(
            d, Delta(a.technology), Orientation(a.orientation), Tolerance(a.eps)
        ),
    )

    p = sub.add_parser("classify", help="returns-to-scale classes for every unit")
    projectable(p)
    p.set_defaults(
        func=_cmd_document,
        build=lambda d, a: build_classification_document(
            d, Tolerance(a.eps), a.project
        ),
    )

    p = sub.add_parser("ratios", help="scale ratios of one unit")
    projectable(p)
    p.add_argument("--dmu", required=True, help="unit name")
    p.set_defaults(
        func=_cmd_document,
        build=lambda d, a: build_ratios_document(d, a.dmu, Tolerance(a.eps), a.project),
    )

    p = sub.add_parser("response", help="step list of one unit's response function")
    common(p)
    p.add_argument("--dmu", required=True, help="unit name")
    p.add_argument("--alpha-max", type=_float, default=None, help="cap listed thresholds")
    p.set_defaults(
        func=_cmd_document,
        build=lambda d, a: response_csv(d, a.dmu, a.alpha_max),
    )

    p = sub.add_parser("report", help="full classification report")
    projectable(p)
    p.set_defaults(
        func=_cmd_document,
        build=lambda d, a: build_report_document(d, Tolerance(a.eps), a.project),
    )

    p = sub.add_parser("verify", help="cross-check fast paths against the sweeps")
    common(p, input_required=False)
    p.add_argument("--grid-steps", type=int, default=10_000, help="accepted, not read")
    p.add_argument("--seed", type=int, default=42, help="random dataset seed")
    p.add_argument("--trials", type=int, default=10, help="random datasets to check")
    p.set_defaults(func=_cmd_verify)

    return parser


def _emit(args: argparse.Namespace, text: str) -> None:
    if args.out is not None:
        _deliver(text, args.out)
    else:
        sys.stdout.write(text)


def _cmd_document(args: argparse.Namespace) -> int:
    """Read the input and emit what the command builds: CSV text, or a JSON report."""
    d = read_csv(args.input)
    built = args.build(d, args)
    _emit(args, built if isinstance(built, str) else write_report(built))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    tol = Tolerance(args.eps)
    cfg = OracleConfig(grid_steps=args.grid_steps)
    batches = []
    if args.input:
        batches.append(verify_dataset(read_csv(args.input, exact=True), tol, cfg))
    if args.trials > 0:
        batches.append(verify_random(args.trials, args.seed, tol, cfg))
    results = merge_checks(batches)
    if not results:
        print("error: nothing to verify; give --input or --trials > 0", file=sys.stderr)
        return 1
    width = max(len(res.name) for res in results) + 2
    lines = [
        f"{res.name.ljust(width)}{'PASS' if res.passed else 'FAIL'}  {res.detail}"
        for res in results
    ]
    ok = all(res.passed for res in results)
    lines.append(f"{'overall'.ljust(width)}{'PASS' if ok else 'FAIL'}")
    _emit(args, "\n".join(lines) + "\n")
    return 0 if ok else 3


def main(argv: Union[Sequence[str], None] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except UnclassifiableError as exc:
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        return 3
    except AnalysisError as exc:
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
