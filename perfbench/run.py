"""Benchmark of the ``lsaps`` command line, run from the root of a checkout.

    python3 perfbench/run.py --workload smooth-fixed --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --seed 1            # every workload, one after another

One client sends ``lsaps.cli.main(argv)`` requests in a closed loop (the
next request starts when the previous one returns) from a fresh serving
process that imports ``lsaps`` from the checkout's ``src/``. Inputs come
from ``reference.py`` and the seed; every output is checked against the
reference outside the serving process. The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` splits the
time between an untraced and a traced serving process and reports the
per-layer metrics of the traced one (per timed request) and the tracing
overhead. ``--size tiny`` shrinks every input for the self-test.
"""

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
# One client and no extra threads: BLAS runs single-threaded, which is also
# within a cap of one thread per core. Children inherit the setting.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import reference  # noqa: E402  (after the thread cap)
from serve import LAYERS  # noqa: E402

# Why each workload, and which layers it loads, is in README.md.
WORKLOADS = {
    # lambda_bar None selects it by LOO-CV (--auto).
    "smooth-fixed": {"n": {"full": 100_000, "tiny": 2_000}, "lambda_bar": 2.5},
    "smooth-auto": {"n": {"full": 4_000, "tiny": 300}, "lambda_bar": None},
    "sweep": {"resolutions": {"full": [500, 1000], "tiny": [40]},
              "sigmas": {"full": [0.05, 0.2], "tiny": [0.2]},
              "seeds": {"full": 3, "tiny": 1}},
}
SMOOTH_SIGMA = 0.2
PEAKS = 15
SETUP_IMPORTS = 3
WORK_DIR = ".perfbench-work"

IMPORT_PROBE = ("import time; t = time.perf_counter(); import lsaps.cli; "
                "print(time.perf_counter() - t)")


def child_env(root):
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def prepare(workload, seed, size, work):
    """Write the workload's inputs; return (CLI args, points per request, checker)."""
    spec = WORKLOADS[workload]
    if workload == "sweep":
        resolutions, sigmas = spec["resolutions"][size], spec["sigmas"][size]
        seeds = [spec["seeds"][size] * seed + k for k in range(spec["seeds"][size])]
        scenario = work / "scenario.json"
        scenario.write_text(json.dumps(reference.sweep_scenario(resolutions, sigmas, seeds)))
        check = reference.SweepCheck(resolutions, sigmas, seeds, sample_seed=seed)
        points = check.expected // len(resolutions) * sum(resolutions)
        return ["benchmark", str(scenario)], points, check
    n = spec["n"][size]
    t, clean = reference.clean_spectrum(n)
    y = clean + reference.noise(n, SMOOTH_SIGMA, seed)
    spectrum = work / "spectrum.txt"
    reference.write_spectrum(spectrum, t, y)
    lambda_bar = spec["lambda_bar"]
    mode = ["--auto"] if lambda_bar is None else ["--param", repr(lambda_bar)]
    check = reference.SmoothCheck(t, y, lambda_bar, k=PEAKS)
    return ["smooth", str(spectrum), "--method", "lsa-ps", *mode, "--peaks", str(PEAKS)], n, check


def measure_setup(env):
    """Median seconds for a fresh interpreter to import lsaps.cli."""
    samples = []
    for _ in range(SETUP_IMPORTS):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, check=True,
                             capture_output=True, text=True, timeout=60)
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def serve(cli_args, seconds, trace, env, work, tag):
    """Run one serving process to completion; return its result and output root."""
    out_root = work / tag
    result_path = work / f"{tag}.json"
    subprocess.run(
        [sys.executable, str(HERE / "serve.py"), "--result", str(result_path),
         "--out-root", str(out_root), "--seconds", str(seconds), "--trace", str(trace),
         "--", *cli_args],
        env=env, check=True, timeout=seconds + 60)
    return json.loads(result_path.read_text()), out_root


def check_outputs(result, out_root, check):
    """Number of failed requests; every request's output is checked."""
    failed = 0
    for i, code in enumerate(result["exit_codes"]):
        try:
            problems = [f"exit code {code}"] if code != 0 else check(out_root / str(i))
        except (OSError, ValueError, KeyError, IndexError, StopIteration) as exc:
            problems = [f"unreadable output: {exc}"]
        if problems:
            failed += 1
            print(f"request {i} failed: {'; '.join(problems)}", file=sys.stderr)
    return failed


def _in_calibration_units(result):
    """Timed request times divided by the calibration time around each."""
    cal = result["calibration"]
    return [t / ((cal[i] + cal[i + 1]) / 2) for i, t in enumerate(result["times"]) if i]


def end_to_end(result, setup_s, points):
    timed = _in_calibration_units(result)
    return {
        "setup_s": (setup_s, "s"),
        "request_cal_p50": (statistics.median(timed), "cal"),
        "points_per_cal": (points * len(timed) / sum(timed), "points/cal"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }


def wall_clock(result, points):
    """The same request metrics in seconds, as the machine ran them."""
    timed = result["times"][1:]
    return {
        "request_s_p50": (statistics.median(timed), "s"),
        "points_per_s": (points * len(timed) / sum(timed), "points/s"),
        "calibration_s": (statistics.median(result["calibration"]), "s"),
    }


def _median_requests(times):
    """Indices of the timed request(s) whose mean time is the median."""
    order = sorted(range(len(times)), key=times.__getitem__)
    return order[(len(order) - 1) // 2: len(order) // 2 + 1]


def per_layer(untraced, traced, out_root, points):
    """Layer breakdown of the median traced request, so the self times sum to its time."""
    mid = _median_requests(traced["times"][1:])
    layers = [traced["layers"][i] for i in mid]

    def mean(values):
        return sum(values) / len(mid)

    metrics = {}
    for module, func in LAYERS:
        name = f"{module}.{func}"
        metrics[f"{name}.calls"] = (mean(r["calls"].get(name, 0) for r in layers), "count")
        metrics[f"{name}.self_s"] = (mean(r["self_s"].get(name, 0.0) for r in layers), "s")
    metrics["linalg.hat_diagonal.bytes_computed"] = (mean(r["hat_bytes"] for r in layers), "B")
    # No CV candidate tried means none wasted: the ratio is 1.
    ratio = reference.candidates_ok_ratio(out_root / "1")
    metrics["select.candidates_ok_ratio"] = (1.0 if ratio is None else ratio, "ratio")
    metrics["warnings.count"] = (mean(traced["warnings"][1 + i] for i in mid), "count")
    traced_p50 = statistics.median(traced["times"][1:])
    metrics["traced_request_s_p50"] = (traced_p50, "s")
    metrics["tracing_overhead_s"] = (traced_p50 - statistics.median(untraced["times"][1:]), "s")
    metrics.update(wall_clock(untraced, points))
    if traced["absent"]:
        print(f"absent layer functions (reported as 0): {', '.join(traced['absent'])}")
    return metrics


def run_workload(args, root):
    work = root / WORK_DIR / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        cli_args, points, check = prepare(args.workload, args.seed, args.size, work)
        env = child_env(root)
        if args.trace:
            untraced, untraced_root = serve(cli_args, args.seconds / 2, 0, env, work, "untraced")
            traced, traced_root = serve(cli_args, args.seconds / 2, 1, env, work, "traced")
            runs = [(untraced, untraced_root), (traced, traced_root)]
            metrics = shown = per_layer(untraced, traced, traced_root, points)
            timed = len(traced["times"]) - 1
        else:
            result, out_root = serve(cli_args, args.seconds, 0, env, work, "untraced")
            # After serving, so the probes find lsaps's bytecode already compiled.
            setup_s = measure_setup(env)
            runs = [(result, out_root)]
            metrics = end_to_end(result, setup_s, points)
            shown = dict(metrics, **wall_clock(result, points))
            timed = len(result["times"]) - 1
        attempted = sum(len(r["times"]) for r, _ in runs)
        failed = sum(check_outputs(r, out, check) for r, out in runs)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it
    for name, (value, unit) in shown.items():
        print(f"{args.workload:>12}  {name:<48} {value:.6g} {unit}")
    # error_rate is 0 when the program is right, so it is not a JSON metric;
    # the result line carries it as failed / attempted.
    print(f"{args.workload:>12}  {'error_rate':<48} {failed / attempted:.6g} ratio"
          f"  ({failed} of {attempted} requests; {timed} timed)")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def run_all(args):
    """Each workload in its own fresh interpreter, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        out = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size],
            check=True, capture_output=True, text=True, timeout=900)
        lines = out.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = metric
    return combined


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    root = Path.cwd()
    if not (root / "src" / "lsaps" / "cli.py").is_file():
        print("run from the root of an lsaps checkout: src/lsaps/cli.py not found", file=sys.stderr)
        return 2
    result = run_all(args) if args.workload == "all" else run_workload(args, root)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
