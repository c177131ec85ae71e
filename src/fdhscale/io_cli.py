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
import io
import json
import math
import re
import sys
from collections.abc import Sequence
from fractions import Fraction
from itertools import islice, repeat
from os import PathLike

from ._version import __version__
from .efficiency import _phis, _thetas
from .errors import (
    AnalysisError,
    EmptyDatasetError,
    NoInputColumnsError,
    NoOutputColumnsError,
    ParseError,
    RaggedRowsError,
    ReportWriteError,
    ValueSpreadError,
)
from .model import Dataset, Delta, Numeric, Orientation, Tolerance, ratio_table
from .model import validate_dataset
from .response import build_response
from .rts import RtsReport, _classify, _pooled, _project, classified
from .scale import UNBOUNDED, RatioValue, _efficient_ratios
from .technology import dominating_peer

try:  # CPython's own SHA-256: hashlib's would map OpenSSL to hash one digest
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256


def read_csv(source: str | PathLike, exact: bool = False) -> Dataset:
    """Parse and validate a dataset CSV.

    With ``exact`` the entries stay rational; otherwise they are converted
    to doubles.
    """
    # No name here holds the text, so read_csv_text can drop it once it is split.
    return read_csv_text(_text_of(source), exact=exact)


def _text_of(source: str | PathLike) -> str:
    try:
        with open(source, "rb") as fh:
            text = fh.read().decode("utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {source}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"cannot decode {source}: invalid UTF-8 at byte {exc.start}"
        ) from exc
    # Universal newlines, as reading in text mode gives; read_csv_text drops
    # the one byte-order mark that utf-8-sig would.
    return text.replace("\r\n", "\n").replace("\r", "\n")


def read_csv_text(text: str, exact: bool = False) -> Dataset:
    text = text.removeprefix("\ufeff")  # a byte-order mark is not part of 'dmu'
    pieces = _plain_lines(text)
    plain = pieces is not None
    if not plain:
        records = _csv_rows(text)
        pieces = [records[:1], records[1:]]
    del text  # the pieces hold what is read
    head = pieces.pop(0)
    if not head:
        raise EmptyDatasetError("no header row")
    header = [cell.strip() for cell in (head[0].split(",") if plain else head[0])]
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
    grid = plain and not exact and all(  # every line's width, before a cell is read
        set(map(str.count, piece, repeat(","))) <= {len(header) - 1} for piece in pieces
    )
    names: list[str] = []
    inputs: list[Sequence[Numeric]] = []
    outputs: list[Sequence[Numeric]] = []
    while pieces:
        body = pieces.pop(0)  # and dropped once read
        taken = grid and _float_grid(body, len(header), len(in_cols))
        if taken:  # the row loop would read the same doubles and raise nothing
            names += taken[0]
            inputs += taken[1]
            outputs += taken[2]
            continue
        for row in (line.split(",") for line in body) if plain else body:
            rownum = len(names) + 2
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


# Lines read, and units hashed, at a time: it caps the lines, cells and digest
# lines held at once, whatever the row count.
_CHUNK = 512


def _plain_lines(text: str) -> list[list[str]] | None:
    """The first non-empty line of ``text``, then the others ``_CHUNK`` at a time, if
    split at commas they are ``csv``'s records: no quote, carriage return or NUL, no
    line beyond ``csv.field_size_limit()``."""
    if '"' in text or "\r" in text or "\0" in text:
        return None
    lines = [line for line in text.split("\n") if line]
    if max(map(len, lines), default=0) > csv.field_size_limit():
        return None
    return [lines[:1]] + [lines[k : k + _CHUNK] for k in range(1, len(lines), _CHUNK)]


def _float_grid(body: list[str], width: int, m: int):
    """Names, input rows and output rows of the lines ``body``, of ``width`` cells
    each, from column k as ``cells[k::width]``. ``None``, for the row loop to
    decide, if a name is empty, or a cell is long or off ``_cell``'s fast branch."""
    cells = ",".join(body).split(",")
    names = [name.strip() for name in cells[::width]]
    wide = max(map(len, body)) > _SHORT_CELL  # else no cell is: none outgrows its line
    if not all(names) or wide and max(map(len, cells)) > _SHORT_CELL:
        return None
    try:
        values = [list(map(float, cells[k::width])) for k in range(1, width)]
    except ValueError:
        return None
    if not all(0.0 not in v and math.isfinite(sum(v)) for v in values):
        return None
    return names, zip(*values[:m]), zip(*values[m:])


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


def write_csv(d: Dataset, destination: str | PathLike | None = None) -> str:
    """Serialize a dataset with fraction literals, for exact round-trips."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["dmu"]
        + [f"in_{k + 1}" for k in range(d.m)]
        + [f"out_{k + 1}" for k in range(d.s)]
    )
    writer.writerows(zip(d.names, *(map(_rational, col) for col in d.columns)))
    return _deliver(buf.getvalue(), destination)


def _deliver(text: str, destination: str | PathLike | None) -> str:
    if destination is not None:
        try:
            with open(destination, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ReportWriteError(f"cannot write {destination}: {exc}") from exc
    return text


def _rational(v: Numeric) -> str:
    """``str(Fraction(v))`` without the ``Fraction``: lowest-terms ``n/d``, or ``n``."""
    n, den = v.as_integer_ratio()
    return f"{n}/{den}" if den != 1 else str(n)


def _digest(d: Dataset) -> str:
    """sha256 of the lines ``name|x,...|y,...`` of ``_rational`` literals, made a
    column at a time and hashed ``_CHUNK`` lines at a time."""
    line = "|".join(["{}", ",".join(["{}"] * d.m), ",".join(["{}"] * d.s)]) + "\n"
    lines = map(line.format, d.names, *(map(_rational, c) for c in d.columns))
    h = sha256()
    while chunk := "".join(islice(lines, _CHUNK)):
        h.update(chunk.encode("utf-8"))
    return h.hexdigest()


def _num(v: RatioValue) -> int | float | str:
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


def _classified_units(d: Dataset, tol: Tolerance, project: bool):
    """Per unit, off its table over the pool: (report-or-marker, projected flag).

    With ``project`` a dominated unit is analysed again, on a table with its
    grown outputs, only when projection makes it efficient; else its original
    marker stays. Yielded one unit at a time, so no caller need hold every item.
    """
    for item, rt in classified(d, tol):
        projected = project and not isinstance(item, RtsReport)
        if projected:
            rt, w = _project(d, rt, item.scores.phi[Delta.VRS].value)
            if w is None:
                item = _classify(rt, None, tol)
        yield item, projected


_REGIMES = tuple(reg.value for reg in Delta)  # a record's score keys, in Delta order


def _report_record(
    d: Dataset, item, projected: bool, include_flag: bool, full_scores: bool
) -> dict:
    """One unit's record: every score with ``full_scores``, else theta_vrs only."""
    efficient = isinstance(item, RtsReport)
    rec: dict[str, object] = {"name": d.names[item.reference], "efficient": efficient}
    if include_flag:
        rec["projected"] = projected
    witnesses: dict[str, object] = {}
    if full_scores:  # score mappings are keyed in Delta order, as _REGIMES is
        for key, scores in (("theta", item.scores.theta), ("phi", item.scores.phi)):
            kept = scores.values()
            rec[key] = dict(zip(_REGIMES, [_num(sc.value) for sc in kept]))
            witnesses[key] = dict(zip(_REGIMES, [d.names[sc.witness] for sc in kept]))
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


def _name_or_none(d: Dataset, j: int | None) -> str | None:
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
    """Every unit's score, read off its table over the pool, as ``radial`` gives it."""
    side = _thetas if orientation is Orientation.INPUT else _phis
    scores = []
    for rt, _ in _pooled(d, tol):
        sc = side(rt)[delta]
        scores.append(
            {
                "name": d.names[rt.reference],
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
    rt = ratio_table(d, o)
    w = dominating_peer(d, rt)
    projected = project and w is not None
    if projected:  # onto the frontier, by the unit's variable-returns output score
        rt, w = _project(d, rt, _phis(rt)[Delta.VRS].value)
    ratios = _efficient_ratios(d, rt, w, tol)
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


def response_csv(d: Dataset, name: str, alpha_max: float | None = None) -> str:
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


def write_report(document: dict, destination: str | PathLike | None = None) -> str:
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

    def common(p: argparse.ArgumentParser, input_required=True, eps=True) -> None:
        p.add_argument("--input", required=input_required, help="dataset CSV path")
        if eps:  # response reads no tolerance
            p.add_argument(
                "--eps", type=float, default=1e-9, help="classification tolerance"
            )
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
    common(p, eps=False)
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
    from .oracle import OracleConfig, merge_checks, verify_dataset, verify_random

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


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except AnalysisError as exc:
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
