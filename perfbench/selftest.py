"""Fast self-test of the benchmark at tiny input sizes.

    python3 perfbench/selftest.py      # from the root of the checkout

Runs every workload untraced and traced with ``--size tiny`` and checks
that each run is correct, that the metric names and units printed are
exactly those listed in BENCHMARK.json, that the layer self times add up
to the traced request time, and that the hat diagonal is called only on
the CV path. It also checks that the benchmark fails, without a result
line, in a directory that holds no program.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
RUN = [sys.executable, "perfbench/run.py"]
HAT_CALLS = {"smooth-fixed": 0, "smooth-auto": 11, "sweep": 0}


def run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [*RUN, "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"], cwd=cwd, capture_output=True, text=True, timeout=300)


def check_run(spec, workload, trace):
    out = run(workload, trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2, result
    listed = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == listed, (set(printed) ^ set(listed), printed, listed)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values()), result["metrics"]
        return
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert values["linalg.hat_diagonal.calls"] == HAT_CALLS[workload], values
    total = sum(v for name, v in values.items() if name.endswith(".self_s"))
    traced = values["traced_request_s_p50"]
    slack = max(abs(values["tracing_overhead_s"]), 0.01 * traced)
    assert abs(total - traced) <= slack, (workload, total, traced, slack)


def check_no_program():
    bare = ROOT / ".perfbench-work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        out = run("sweep", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert out.returncode != 0 and not out.stdout.strip(), (out.returncode, out.stdout)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    assert workloads == list(HAT_CALLS), workloads
    for workload in workloads:
        for trace in (0, 1):
            check_run(spec, workload, trace)
            print(f"ok  {workload} trace={trace}", flush=True)
    check_no_program()
    print("ok  fails without a program")


if __name__ == "__main__":
    main()
