"""Command-line front door.

Two subcommands:

``lsaps smooth``
    Ingest a two-column spectrum file, smooth it with a fixed parameter
    or CV-selected parameter, optionally detect peaks, and write the
    results as delimited text plus a JSON run summary.

``lsaps benchmark``
    Run the synthetic Lorentzian sweep described by a JSON scenario
    file and write the per-cell and aggregate tables.

All numeric output uses 12 significant digits, so re-ingesting an
emitted file is idempotent at that precision. Errors exit nonzero with
one machine-parseable JSON line on stderr.
"""

import argparse
import json
import math
import sys
import time
import warnings
from array import array
from contextlib import contextmanager
from dataclasses import fields
from itertools import chain
from pathlib import Path

import numpy as np

from . import select as select_mod
from . import sim
from .errors import IngestError, InvalidConfigError, LsapsError, OutputError
from .peaks import PeakEntry, detect_peaks, second_difference
from .smoothers import METHODS, PENALIZED, smooth

FLOAT_FMT = "%.12g"
# Largest relative deviation of an abscissa step from the median step.
UNIFORM_RTOL = 1e-3


def _json_float(value):
    """``value``, or None where it is not finite, which strict JSON cannot hold."""
    return value if math.isfinite(value) else None


def _fmt(value) -> str:
    # Floats first: they are most of the values of a benchmark table.
    if isinstance(value, float):
        if math.isinf(value):
            return "noise-free" if value > 0 else "-inf"
        return FLOAT_FMT % value
    return "" if value is None else str(value)


def _line_delimiter(line, delimiter):
    """The delimiter a stripped line is split on: ``delimiter`` if given,
    else comma, else tab, else None for runs of whitespace."""
    if delimiter is not None:
        return delimiter
    if "," in line:
        return ","
    if "\t" in line:
        return "\t"
    return None


def _fields(line, sep):
    return [p.strip() for p in line.split(sep) if p.strip()]


def _first_bad_step(abscissa):
    """Index of the first zero step of a sorted abscissa, else of the first
    step that differs from the median step by more than ``UNIFORM_RTOL``
    of it; None for a uniform grid."""
    steps = np.diff(abscissa)
    zero = np.flatnonzero(steps == 0)
    if zero.size:
        return int(zero[0])
    median = np.median(steps)
    off = np.flatnonzero(np.abs(steps - median) > UNIFORM_RTOL * median)
    return int(off[0]) if off.size else None


def _ingest_fast(path, delimiter):
    """Parse a well-formed file with numpy's C reader.

    Returns None, and raises nothing, wherever ``_ingest_lines`` could
    read the file differently or would raise.
    """
    try:
        with path.open(encoding="utf-8-sig") as fh:
            for skip, line in enumerate(fh):
                line = line.strip()
                if line:
                    break
            else:
                return None
            sep = _line_delimiter(line, delimiter)
            parts = _fields(line, sep)
            if len(parts) < 2:
                return None
            try:
                float(parts[0]), float(parts[1])
            except ValueError:
                skip += 1  # single header line
            # Without an explicit delimiter the line parser splits a line
            # holding a comma on commas, else one holding a tab on tabs;
            # loadtxt would split it on the first line's delimiter and
            # could read values the line parser rejects.
            if delimiter is None and sep != ",":
                mixed = "," if sep == "\t" else ",\t"
                while chunk := fh.read(1 << 20):
                    if any(c in chunk for c in mixed):
                        return None
            fh.seek(0)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # "input contained no data"
                # An open file, not the path, which would import gzip.
                rows = np.loadtxt(fh, delimiter=sep, comments=None, usecols=(0, 1),
                                  skiprows=skip, ndmin=2)
    except (OSError, TypeError, ValueError):
        # TypeError: a delimiter loadtxt does not take, e.g. a multi-character one.
        return None
    if rows.shape[0] < 5 or not np.isfinite(rows).all():
        return None
    order = np.argsort(rows[:, 0], kind="stable")
    abscissa = rows[order, 0]
    if _first_bad_step(abscissa) is not None:
        return None
    return abscissa, rows[order, 1]


def _ingest_lines(path, delimiter):
    """Parse a file line by line; the source of every ``IngestError``
    that names a line."""
    # Typed columns, not a list of tuples: 24 bytes a row, which keeps
    # ingest's peak memory down on large files.
    xs, ys, linenos = array("d"), array("d"), array("q")
    nonblank = 0
    with path.open(encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            nonblank += 1
            parts = _fields(line, _line_delimiter(line, delimiter))
            if len(parts) < 2:
                raise IngestError(f"line {lineno}: expected two columns, got {len(parts)}")
            try:
                a, b = float(parts[0]), float(parts[1])
            except ValueError:
                if nonblank == 1:
                    continue  # single auto-detected header line
                raise IngestError(f"line {lineno}: unparseable row {line!r}") from None
            if not (math.isfinite(a) and math.isfinite(b)):
                raise IngestError(f"line {lineno}: non-finite value")
            xs.append(a)
            ys.append(b)
            linenos.append(lineno)
    if len(xs) < 5:
        raise IngestError(f"need at least 5 data points, got {len(xs)}")
    order = np.argsort(xs, kind="stable")
    abscissa = np.asarray(xs)[order]
    i = _first_bad_step(abscissa)
    if i is not None:
        steps = np.diff(abscissa)
        if steps[i] == 0:
            raise IngestError("duplicate abscissa values")
        # Every smoother assumes unit spacing, so the grid must be uniform.
        median = float(np.median(steps))
        raise IngestError(
            f"line {linenos[order[i + 1]]}: abscissa step {FLOAT_FMT % steps[i]} differs from "
            f"the median step {FLOAT_FMT % median} by more than {UNIFORM_RTOL:g} of it; "
            "the abscissa must be uniformly spaced"
        )
    return abscissa, np.asarray(ys)[order]


def ingest(path, delimiter=None):
    """Parse a two-column delimited spectrum file into (abscissa, intensity).

    Both are 1-d float arrays of equal length, at least 5, with every
    value finite and the abscissa strictly increasing.
    Delimiter (comma, tab, or whitespace) and a single header line are
    auto-detected; an explicit ``delimiter`` overrides detection. Rows
    are sorted by abscissa; duplicate abscissa values, and steps that
    differ from the median step by more than ``UNIFORM_RTOL`` of it, are
    rejected. A file that numpy's C reader parses with its first line's
    delimiter into a valid grid is read that way, and any other file is
    re-read line by line, which accepts per-line delimiter mixes and
    names the offending line in every error. The file is read as UTF-8,
    past a leading byte-order mark if it has one. A path that cannot be
    read or decoded as text, such as a directory, raises ``IngestError``
    too.
    """
    if delimiter == "":
        raise InvalidConfigError("delimiter must not be empty")
    path = Path(path)
    if not path.exists():
        raise IngestError(f"input file not found: {path}")
    columns = _ingest_fast(path, delimiter)
    if columns is not None:
        return columns
    try:
        return _ingest_lines(path, delimiter)
    except (OSError, UnicodeDecodeError) as exc:  # a directory, or not UTF-8 text
        raise IngestError(f"cannot read {path}: {exc}") from None


# Rows formatted per string operation; bounds the Python floats alive at once.
WRITE_BLOCK_ROWS = 8192


@contextmanager
def _output_dir(path):
    """The output directory ``path``, made if missing; an OSError while
    making it or writing into it is an ``OutputError``."""
    out_dir = Path(path)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        yield out_dir
    except OSError as exc:
        raise OutputError(f"cannot write output to {path}: {exc}") from None


def _write_columns(path, columns, header=None):
    """Write ``columns`` tab-separated in FLOAT_FMT, which prints integers as such."""
    row = "\t".join([FLOAT_FMT] * len(columns)) + "\n"
    with Path(path).open("w") as fh:
        if header is not None:
            fh.write("\t".join(header) + "\n")
        for start in range(0, len(columns[0]), WRITE_BLOCK_ROWS):
            block = np.column_stack([c[start : start + WRITE_BLOCK_ROWS] for c in columns])
            fh.write(row * len(block) % tuple(block.ravel().tolist()))


def _write_signal(out_dir, abscissa, smoothed, d2):
    """Write smoothed.txt and second_derivative.txt, as ``_write_columns``
    would, in lockstep, a block of rows at a time. ``d2`` leaves out the
    first and the last point."""
    n = len(abscissa)
    with (out_dir / "smoothed.txt").open("w") as fx, \
            (out_dir / "second_derivative.txt").open("w") as fd:
        for start in range(0, n, WRITE_BLOCK_ROWS):
            stop = min(start + WRITE_BLOCK_ROWS, n)
            # The abscissa is formatted once, into the rows' template of
            # both files: "x\t%.12g\n" per row.
            rows = ((FLOAT_FMT + "\t%" + FLOAT_FMT + "\n") * (stop - start)
                    % tuple(abscissa[start:stop].tolist()))
            fx.write(rows % tuple(smoothed[start:stop].tolist()))
            if start == 0:
                rows = rows[rows.find("\n") + 1 :]
            if stop == n:
                rows = rows[: rows.rfind("\n", 0, -1) + 1]
            fd.write(rows % tuple(d2[max(start, 1) - 1 : min(stop, n - 1) - 1].tolist()))


def _run_smooth(args) -> int:
    abscissa, y = ingest(args.input, delimiter=args.delimiter)

    grid = select_mod.DEFAULT_GRID
    if args.grid is not None:
        try:
            grid = tuple(float(g) for g in args.grid.split(","))
        except ValueError:
            raise InvalidConfigError(
                f"--grid must be comma-separated numbers, got {args.grid!r}"
            ) from None
    clip = args.clip == "on"

    summary = {
        "input": str(args.input),
        "method": args.method,
        "clip": clip,
        "n": y.shape[0],
    }
    curve = None
    t0 = time.perf_counter()
    if args.auto:
        result = select_mod.select_parameter(y, method=args.method, grid=grid, clip=clip)
        smoothed = result.smoothed
        curve = result.curve
        summary["selected_parameter"] = result.best_parameter
        summary["effective_lambda"] = _json_float(result.effective_lambda)
    else:
        if args.method in PENALIZED:
            parameter = args.param
            summary["parameter"] = args.param
        elif args.method == "sg":
            parameter = (args.window, args.order)
            summary.update(window=args.window, poly_order=args.order)
        else:
            parameter = args.window
            summary["window"] = args.window
        smoothed, lam = smooth(y, args.method, parameter, clip)
        if lam is not None:
            summary["effective_lambda"] = _json_float(lam)
    summary["smooth_time_s"] = time.perf_counter() - t0
    peaks = None
    if args.peaks is not None:
        peaks = detect_peaks(smoothed, args.peaks, abscissa=abscissa)

    # Every check has passed; only now is anything written.
    with _output_dir(args.out) as out_dir:
        _write_signal(out_dir, abscissa, smoothed, second_difference(smoothed))

        if peaks is not None:
            names = [f.name for f in fields(PeakEntry)]
            _write_columns(out_dir / "peaks.txt",
                           [[getattr(p, name) for p in peaks] for name in names], names)
            summary["peaks_found"] = len(peaks)
            summary["peaks_requested"] = args.peaks

        if curve is not None:
            _write_columns(out_dir / "cv_curve.txt", (curve.grid, curve.losses),
                           ("parameter", "loss"))
            summary["cv_curve"] = {
                "grid": list(curve.grid),
                "losses": [_json_float(v) for v in curve.losses],
                "best_index": curve.best_index,
            }

        with (out_dir / "summary.json").open("w") as fh:
            json.dump(summary, fh, indent=2)
            fh.write("\n")
    return 0


def _require(cond, message):
    if not cond:
        raise InvalidConfigError(message)


def load_scenario_file(path):
    """Parse and validate a benchmark scenario JSON file.

    Returns (scenario, resolutions, sigmas, method_grids, seeds), the
    last four as ``sim.check_sweep`` returns them.

    Raises
    ------
    LsapsError
        With a message that starts "scenario file: ": an ``LsapsError``
        if the file cannot be read or is not JSON, an InvalidConfigError
        if the JSON is not of the scenario's shape or ``check_sweep``
        rejects a value, and the error of ``sim.LorentzianPeak``,
        ``Background`` or ``SimScenario`` for a value they reject.
    """
    try:
        with Path(path).open(encoding="utf-8-sig") as fh:
            return _parse_scenario(json.load(fh))
    except LsapsError as exc:
        raise type(exc)(f"scenario file: {exc}") from None
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or not JSON
        raise LsapsError(f"scenario file: {exc}") from None


def _parse_scenario(data):
    """The scenario of the JSON value ``data``. Its shape (objects, lists
    and keys) is checked here; its values by the sim dataclasses and
    ``sim.check_sweep``."""
    _require(isinstance(data, dict), "top level must be a JSON object")
    peaks = sim.DEFAULT_PEAKS
    if "peaks" in data:
        _require(isinstance(data["peaks"], list), "'peaks' must be a list")
        for i, p in enumerate(data["peaks"]):
            _require(isinstance(p, dict), f"peaks[{i}] must be an object")
            for key in ("center", "height", "halfwidth"):
                _require(key in p, f"peaks[{i}] missing '{key}'")
        peaks = tuple(sim.LorentzianPeak(p["center"], p["height"], p["halfwidth"])
                      for p in data["peaks"])

    x_range = data.get("x_range", list(sim.DEFAULT_RANGE))
    _require(isinstance(x_range, list) and len(x_range) == 2, "'x_range' must be a list of two numbers")

    background = data.get("background", {})
    _require(isinstance(background, dict), "'background' must be an object")
    for key in background:
        _require(key in {f.name for f in fields(sim.Background)}, f"unknown 'background' key {key!r}")
    background = sim.Background(**background) if background else None

    methods = data.get("methods", sim.COMPARISON_GRIDS)
    _require(isinstance(methods, dict), "'methods' must be an object")
    resolutions, sigmas, method_grids, seeds = sim.check_sweep(
        data.get("resolutions", [1000]), data.get("noise_sigmas", [0.0]), methods,
        data.get("seeds", [0]))
    scenario = sim.SimScenario(peaks=peaks, n=resolutions[0], x_range=tuple(x_range),
                               background=background)
    return scenario, resolutions, sigmas, method_grids, seeds


def _param_str(parameter):
    if isinstance(parameter, tuple):
        return "/".join(str(p) for p in parameter)
    return _fmt(parameter)


def _csv_field(text):
    """``text`` as csv.writer writes a field: quoted, with its quotes
    doubled, where it holds a comma, a quote or a line break."""
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


# Rows per string operation of a table; a row holds up to ten fields, so a
# block holds about as many values as a block of ``_write_columns``.
TABLE_BLOCK_ROWS = 1024


def _write_table(path, columns):
    """Write the table held as ``columns``, a dict of one list per column,
    byte for byte as csv.writer writes its rows. The header is the dict's
    keys, in their order.

    Each block of rows is written with one string operation, and each
    column of a block takes its format from the values it holds: ``%d``
    if they are all ints, FLOAT_FMT if they are all finite floats, and
    otherwise ``_fmt`` (``_param_str`` for the parameter), once per
    distinct object.
    """
    with path.open("w", newline="") as fh:
        fh.write(",".join(columns) + "\r\n")
        for start in range(0, len(next(iter(columns.values()))), TABLE_BLOCK_ROWS):
            specs, block = [], []
            for name, values in columns.items():
                column = values[start : start + TABLE_BLOCK_ROWS]
                kinds = set(map(type, column))
                if kinds == {int}:
                    specs.append("%d")
                elif kinds == {float} and np.isfinite(column).all():
                    specs.append(FLOAT_FMT)
                else:
                    fmt = _param_str if name == "parameter" else _fmt
                    distinct = {id(v): v for v in column}
                    text = {key: _csv_field(fmt(v)) for key, v in distinct.items()}
                    column = [text[id(v)] for v in column]
                    specs.append("%s")
                block.append(column)
            row = ",".join(specs) + "\r\n"
            fh.write(row * len(block[0]) % tuple(chain.from_iterable(zip(*block))))


def _run_benchmark(args) -> int:
    scenario, resolutions, sigmas, method_grids, seeds = load_scenario_file(args.scenario)
    report = sim.run_benchmark(scenario, resolutions, sigmas, method_grids, seeds)
    summary = {
        "scenario": str(args.scenario),
        "resolutions": resolutions,
        "noise_sigmas": sigmas,
        "seeds": seeds,
        "methods": {m: len(g) for m, g in method_grids.items()},
        "cells": len(report.cells["method"]),
    }
    # The sweep has returned; only now is anything written.
    with _output_dir(args.out) as out_dir:
        _write_table(out_dir / "cells.csv", report.cells)
        _write_table(out_dir / "aggregates.csv", report.aggregates)
        _write_table(out_dir / "best.csv", report.best)
        with (out_dir / "summary.json").open("w") as fh:
            json.dump(summary, fh, indent=2)
            fh.write("\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lsaps",
        description="Penalized spectral smoothing, parameter selection, and peak detection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sm = sub.add_parser("smooth", help="smooth one spectrum file")
    sm.add_argument("input", help="two-column spectrum file")
    sm.add_argument("--method", choices=METHODS, default="lsa-ps")
    mode = sm.add_mutually_exclusive_group()
    mode.add_argument("--param", type=float, help="fixed smoothness parameter (ps / lsa-ps)")
    mode.add_argument("--auto", action="store_true", help="CV-based parameter selection")
    sm.add_argument("--window", type=int, default=5, help="window length (sg / gaussian)")
    sm.add_argument("--order", type=int, default=2, help="polynomial order (sg)")
    sm.add_argument("--clip", choices=["on", "off"], default="on")
    sm.add_argument("--grid", help="comma-separated candidate grid override")
    sm.add_argument("--peaks", type=int, help="detect this many top peaks")
    sm.add_argument("--delimiter", help="explicit column delimiter")
    sm.add_argument("--out", default="lsaps-out", help="output directory")
    sm.set_defaults(func=_run_smooth)

    bm = sub.add_parser("benchmark", help="run a synthetic benchmark sweep")
    bm.add_argument("scenario", help="scenario JSON file")
    bm.add_argument("--out", default="lsaps-benchmark", help="output directory")
    bm.set_defaults(func=_run_benchmark)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "smooth":
        if args.method in PENALIZED and not args.auto and args.param is None:
            parser.error("ps / lsa-ps need --param or --auto")
        if args.method not in PENALIZED and args.param is not None:
            parser.error("--param applies to ps / lsa-ps only; sg and gaussian take --window")
        if args.grid is not None and not args.auto:
            parser.error("--grid applies to --auto only")
    try:
        return args.func(args)
    except LsapsError as exc:
        record = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(record), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
