"""Serving process: one client driving ``lsaps.cli.main`` in a closed loop.

    python3 perfbench/serve.py --result R.json --out-root DIR --seconds S \
        --trace 0|1 -- <lsaps CLI arguments without --out>

The first request is a warm-up; after it, requests run back to back until
``--seconds`` have passed, each writing to ``DIR/<request index>``. A
short calibration loop runs before each request and after the last, outside
the timed region. Python warnings are recorded per request, not printed. With ``--trace 1`` every
public function named in ``LAYERS`` is wrapped wherever an ``lsaps``
module looks it up, and each timed request's calls and self time per
layer are reported.
The result JSON goes to ``--result``; the outputs are checked by the
caller, outside this process.
"""

import argparse
import functools
import json
import resource
import statistics
import sys
import time
import traceback
import warnings

import numpy as np

# Public functions traced per layer, as (module, function).
LAYERS = (
    ("cli", "main"), ("cli", "ingest"),
    ("localfit", "local_quadratic_curvature"),
    ("linalg", "assemble_system"), ("linalg", "solve"), ("linalg", "hat_diagonal"),
    ("select", "select_parameter"),
    ("smoothers", "smooth_ps"), ("smoothers", "smooth_lsa_ps"),
    ("smoothers", "smooth_savitzky_golay"), ("smoothers", "smooth_gaussian"),
    ("peaks", "detect_peaks"),
    ("sim", "run_benchmark"), ("sim", "apply_method"), ("sim", "generate_clean"),
    ("sim", "add_noise"), ("sim", "snr"), ("sim", "rrse_second_derivative"),
    ("sim", "time_method"),
)

HAT_DIAGONAL = "linalg.hat_diagonal"


class Tracer:
    """Records one span per call of a wrapped function, per request.

    A span is (name, start, end, parent span index). ``end_request`` folds
    the request's spans into per-layer call counts and self time, where
    self time is the span's duration minus that of its child spans.
    """

    def __init__(self):
        self.spans = []
        self._open = []
        self._hat_bytes = 0
        self.requests = []
        self.absent = []

    def wrap(self, name, fn):
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = open_[-1] if open_ else None
            open_.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index] = (name, start, time.perf_counter(), parent)
                open_.pop()
                if name == HAT_DIAGONAL:
                    # Computed, not measured: one n x n float64 identity
                    # solve per call.
                    self._hat_bytes += 16 * args[0].n ** 2

        return traced

    def install(self):
        """Wrap each layer function in every lsaps module that binds it."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "lsaps" or key.startswith("lsaps."))]
        for module_name, func_name in LAYERS:
            name = f"{module_name}.{func_name}"
            original = getattr(sys.modules.get(f"lsaps.{module_name}"), func_name, None)
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self.wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def end_request(self, counted):
        """Fold the finished request's spans into one record if ``counted``."""
        if counted:
            child = [0.0] * len(self.spans)
            for name, start, end, parent in self.spans:
                if parent is not None:
                    child[parent] += end - start
            calls, self_s = {}, {}
            for (name, start, end, _), inner in zip(self.spans, child):
                calls[name] = calls.get(name, 0) + 1
                self_s[name] = self_s.get(name, 0.0) + (end - start) - inner
            self.requests.append({"calls": calls, "self_s": self_s, "hat_bytes": self._hat_bytes})
        self.spans.clear()
        self._hat_bytes = 0


def _calibration_loop():
    small = np.linspace(0.0, 1.0, 1_000)
    large = np.linspace(0.0, 1.0, 20_000)
    start = time.perf_counter()
    acc = 0.0
    for i in range(200_000):
        acc += i * 0.5
    for _ in range(600):
        small = np.sqrt(small * small + 1.0) - 1.0
    for _ in range(100):
        large = np.sqrt(large * large + 1.0) - 1.0
    return time.perf_counter() - start


def calibrate():
    """Median seconds of a fixed mix of interpreter and numpy work.

    The machine's speed drifts by tens of percent over tens of seconds; this
    loop, timed just before and after each request, measures that drift so
    the caller can report request time in its units. The median of three
    damps the loop's own jitter.
    """
    return statistics.median(_calibration_loop() for _ in range(3))


def serve(cli_args, out_root, seconds, trace):
    import lsaps.cli as cli

    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
    times, exit_codes, warning_counts, calibration = [], [], [], []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        window_start = None
        while window_start is None or time.perf_counter() - window_start < seconds:
            argv = [*cli_args, "--out", f"{out_root}/{len(times)}"]
            calibration.append(calibrate())
            caught.clear()
            start = time.perf_counter()
            try:
                code = cli.main(argv)
            except (Exception, SystemExit):
                traceback.print_exc()
                code = -1
            times.append(time.perf_counter() - start)
            exit_codes.append(code)
            warning_counts.append(len(caught))
            if tracer:
                tracer.end_request(counted=window_start is not None)
            if window_start is None:
                window_start = time.perf_counter()
    calibration.append(calibrate())
    result = {
        "times": times,
        "calibration": calibration,
        "exit_codes": exit_codes,
        "warnings": warning_counts,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        result.update(layers=tracer.requests, absent=tracer.absent)
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--result", required=True)
    parser.add_argument("--out-root", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
    result = serve(cli_args, args.out_root, args.seconds, args.trace)
    with open(args.result, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
