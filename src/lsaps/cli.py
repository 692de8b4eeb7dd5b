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
import csv
import json
import math
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import select as select_mod
from . import sim
from .errors import IngestError, InvalidConfigError, LsapsError
from .peaks import detect_peaks
from .smoothers import (
    METHODS,
    PENALIZED,
    Spectrum,
    smooth_gaussian,
    smooth_lsa_ps,
    smooth_ps,
    smooth_savitzky_golay,
)

FLOAT_FMT = "%.12g"


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float) and math.isinf(value):
        return "noise-free" if value > 0 else "-inf"
    if isinstance(value, float):
        return FLOAT_FMT % value
    return str(value)


def ingest(path, delimiter=None) -> Spectrum:
    """Parse a two-column delimited spectrum file.

    Delimiter (comma, tab, or whitespace) and a single header line are
    auto-detected; an explicit ``delimiter`` overrides detection. Rows
    are sorted by abscissa; duplicate abscissa values are rejected.
    """
    path = Path(path)
    if not path.exists():
        raise IngestError(f"input file not found: {path}")
    rows = []
    nonblank = 0
    with path.open() as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            nonblank += 1
            if delimiter is not None:
                parts = line.split(delimiter)
            elif "," in line:
                parts = line.split(",")
            elif "\t" in line:
                parts = line.split("\t")
            else:
                parts = line.split()
            parts = [p.strip() for p in parts if p.strip()]
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
            rows.append((a, b))
    if len(rows) < 5:
        raise IngestError(f"need at least 5 data points, got {len(rows)}")
    rows.sort(key=lambda r: r[0])
    abscissa = np.array([r[0] for r in rows])
    if np.any(np.diff(abscissa) == 0):
        raise IngestError("duplicate abscissa values")
    intensity = np.array([r[1] for r in rows])
    return Spectrum(abscissa=abscissa, intensity=intensity)


def _write_two_column(path, col1, col2):
    with Path(path).open("w") as fh:
        for a, b in zip(col1, col2):
            fh.write(f"{FLOAT_FMT % a}\t{FLOAT_FMT % b}\n")


def _run_smooth(args) -> int:
    spectrum = ingest(args.input, delimiter=args.delimiter)
    y = spectrum.intensity
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    grid = select_mod.DEFAULT_GRID
    if args.grid:
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
        "n": spectrum.n,
    }
    curve = None
    t0 = time.perf_counter()
    if args.auto:
        if args.method not in PENALIZED:
            raise LsapsError("auto-selection supports only ps and lsa-ps")
        result = select_mod.select_parameter(y, method=args.method, grid=grid, clip=clip)
        smoothed = result.smoothed
        curve = result.curve
        summary["selected_parameter"] = result.best_parameter
        summary["effective_lambda"] = result.effective_lambda
    elif args.method == "ps":
        smoothed = smooth_ps(y, args.param)
        summary["parameter"] = args.param
        summary["effective_lambda"] = args.param
    elif args.method == "lsa-ps":
        smoothed, _, lam = smooth_lsa_ps(y, args.param, clip=clip)
        summary["parameter"] = args.param
        summary["effective_lambda"] = lam
    elif args.method == "sg":
        smoothed = smooth_savitzky_golay(y, args.window, args.order)
        summary["window"] = args.window
        summary["poly_order"] = args.order
    elif args.method == "gaussian":
        smoothed = smooth_gaussian(y, args.window)
        summary["window"] = args.window
    summary["smooth_time_s"] = time.perf_counter() - t0

    _write_two_column(out_dir / "smoothed.txt", spectrum.abscissa, smoothed)
    d2 = np.diff(smoothed, n=2)
    _write_two_column(out_dir / "second_derivative.txt", spectrum.abscissa[1:-1], d2)

    if args.peaks:
        peak_set = detect_peaks(smoothed, args.peaks, abscissa=spectrum.abscissa)
        with (out_dir / "peaks.txt").open("w") as fh:
            fh.write("index\tabscissa\tsharpness\tintensity\n")
            for entry in peak_set.entries:
                fh.write(
                    f"{entry.index}\t{_fmt(entry.abscissa)}\t"
                    f"{_fmt(entry.sharpness)}\t{_fmt(entry.intensity)}\n"
                )
        summary["peaks_found"] = len(peak_set.entries)
        summary["peaks_requested"] = args.peaks

    if curve is not None:
        with (out_dir / "cv_curve.txt").open("w") as fh:
            fh.write("parameter\tloss\n")
            for g, loss in zip(curve.grid, curve.losses):
                fh.write(f"{_fmt(g)}\t{_fmt(loss)}\n")
        summary["cv_curve"] = {
            "grid": list(curve.grid),
            "losses": [None if math.isinf(v) else v for v in curve.losses],
            "best_index": curve.best_index,
            "normalization": curve.normalization,
        }

    with (out_dir / "summary.json").open("w") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    return 0


def _require(cond, message):
    if not cond:
        raise LsapsError(f"scenario file: {message}")


def load_scenario_file(path):
    """Parse and validate a benchmark scenario JSON file.

    Returns (scenario, resolutions, sigmas, method_grids, seeds).

    Raises
    ------
    LsapsError
        If the file cannot be read, is not a valid JSON object, or a
        value has the wrong type or range.
    """
    try:
        with Path(path).open() as fh:
            return _parse_scenario(json.load(fh))
    except LsapsError:
        raise
    except (OSError, TypeError, ValueError) as exc:
        raise LsapsError(f"scenario file: {exc}") from None


def _parse_scenario(data):
    _require(isinstance(data, dict), "top level must be a JSON object")
    if "peaks" in data:
        _require(isinstance(data["peaks"], list) and data["peaks"], "'peaks' must be a non-empty list")
        peaks = []
        for i, p in enumerate(data["peaks"]):
            for key in ("center", "height", "halfwidth"):
                _require(key in p, f"peaks[{i}] missing '{key}'")
            peaks.append(sim.LorentzianPeak(p["center"], p["height"], p["halfwidth"]))
        peaks = tuple(peaks)
    else:
        peaks = sim.DEFAULT_PEAKS

    x_range = tuple(data.get("x_range", sim.DEFAULT_RANGE))
    _require(len(x_range) == 2, "'x_range' must have two entries")

    background = None
    if data.get("background"):
        background = sim.Background(**data["background"])

    resolutions = data.get("resolutions", [1000])
    _require(
        isinstance(resolutions, list) and all(int(n) >= 5 for n in resolutions),
        "'resolutions' must be a list of integers >= 5",
    )
    sigmas = data.get("noise_sigmas", [0.0])
    _require(
        isinstance(sigmas, list) and all(float(s) >= 0 for s in sigmas),
        "'noise_sigmas' must be a list of values >= 0",
    )
    seeds = data.get("seeds", [0])
    _require(isinstance(seeds, list) and seeds, "'seeds' must be a non-empty list")

    raw_methods = data.get("methods")
    if raw_methods is None:
        method_grids = dict(sim.COMPARISON_GRIDS)
    else:
        method_grids = {}
        for method, grid in raw_methods.items():
            _require(method in (*METHODS, "none"), f"unknown method {method!r}")
            if method == "none":
                method_grids[method] = [None]
            elif method == "sg":
                method_grids[method] = [tuple(p) for p in grid]
            else:
                method_grids[method] = list(grid)

    scenario = sim.SimScenario(peaks=peaks, n=int(resolutions[0]), x_range=x_range, background=background)
    return scenario, [int(n) for n in resolutions], [float(s) for s in sigmas], method_grids, [int(s) for s in seeds]


def _param_str(parameter):
    if parameter is None:
        return "-"
    if isinstance(parameter, tuple):
        return "/".join(str(p) for p in parameter)
    return _fmt(float(parameter)) if isinstance(parameter, float) else str(parameter)


def _run_benchmark(args) -> int:
    scenario, resolutions, sigmas, method_grids, seeds = load_scenario_file(args.scenario)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    report = sim.run_benchmark(scenario, resolutions, sigmas, method_grids, seeds)

    with (out_dir / "cells.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["resolution", "sigma", "method", "parameter", "seed",
             "input_snr_db", "output_snr_db", "rrse", "time_s", "error"]
        )
        for c in report.cells:
            writer.writerow(
                [c.resolution, _fmt(c.sigma), c.method, _param_str(c.parameter), c.seed,
                 _fmt(c.input_snr), _fmt(c.output_snr), _fmt(c.rrse),
                 _fmt(c.time_s), c.error or ""]
            )

    with (out_dir / "aggregates.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["resolution", "sigma", "method", "parameter", "seeds",
             "input_snr_mean", "output_snr_mean", "output_snr_std",
             "rrse_mean", "rrse_std"]
        )
        for r in report.aggregates:
            writer.writerow(
                [r.resolution, _fmt(r.sigma), r.method, _param_str(r.parameter), r.seeds,
                 _fmt(r.input_snr_mean), _fmt(r.output_snr_mean), _fmt(r.output_snr_std),
                 _fmt(r.rrse_mean), _fmt(r.rrse_std)]
            )

    with (out_dir / "best.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["resolution", "sigma", "method", "criterion", "parameter", "value"])
        for b in report.best:
            writer.writerow(
                [b.resolution, _fmt(b.sigma), b.method, b.criterion,
                 _param_str(b.parameter), _fmt(b.value)]
            )

    # Single-call timing snapshot at the coarsest resolution.
    timing = {}
    clean = sim.generate_clean(replace(scenario, n=resolutions[0]))
    noisy, _ = sim.add_noise(clean, sigmas[0], seeds[0])
    for method, grid in method_grids.items():
        timing[method] = sim.time_method(method, grid[0], noisy.intensity)

    summary = {
        "scenario": str(args.scenario),
        "resolutions": resolutions,
        "noise_sigmas": sigmas,
        "seeds": seeds,
        "methods": {m: len(g) for m, g in method_grids.items()},
        "cells": len(report.cells),
        "single_call_median_time_s": timing,
    }
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
    if args.command == "smooth" and not args.auto and args.param is None:
        if args.method in PENALIZED:
            parser.error("ps / lsa-ps need --param or --auto")
    try:
        return args.func(args)
    except LsapsError as exc:
        record = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(record), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
