"""Quick self-test of the benchmark in its smoke mode (about a minute).

    python3 perfbench/selftest.py

It is a script, not a pytest module, so the repository's test suite does
not collect it.  It checks that:
  * one command prints every end-to-end metric of BENCHMARK.json, by name
    and unit, for every workload, and every per-layer metric with --trace 1;
  * the output checks run: each passes on real output and fails on output
    that was tampered with;
  * in a directory holding only BENCHMARK.json and the benchmark's files,
    the benchmark exits non-zero without printing a result.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import run
import workloads

SELFTEST_WORK = os.path.join(run.WORK, "selftest")


def bench(argv, cwd=run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *argv],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def check_result(proc, expected: dict, what: str):
    if proc.returncode != 0:
        raise AssertionError(f"{what}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise AssertionError(f"{what}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0
            and result["attempted"] >= 1):
        raise AssertionError(f"{what}: run not correct\n{proc.stdout}")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected:
        raise AssertionError(f"{what}: metrics {got}, expected {expected}")
    for name, unit in expected.items():
        if not any(l.startswith(f"{name} = ") and l.endswith(f" {unit}")
                   for l in lines):
            raise AssertionError(f"{what}: no printed line for {name}")


def tamper(w, out: str):
    """Spoil the one output file each workload's check reads."""
    if w.name == "grid-fine":
        path = os.path.join(out, "solution.csv")
        with open(path) as fh:
            lines = fh.read().splitlines()
        m, j, x, re, im = lines[len(lines) // 2].split(",")
        lines[len(lines) // 2] = ",".join(
            (m, j, x, repr(float(re) * 1.001 + 1e-6), im))
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    elif w.name == "harmonic-taylor":
        with open(os.path.join(out, "taylor.csv"), "w") as fh:
            fh.write("eps,remainder,slope\n0.1,1e-3,\n0.01,1e-5,1.5\n")
    else:
        with open(os.path.join(out, "oracle.csv"), "w") as fh:
            fh.write("metric,value\ndiscrepancy,0.002\ndt,0.01\n"
                     "periodicity_gap,1e-9\n")


def check_output_checks(w):
    work = run.fresh(os.path.join(SELFTEST_WORK, w.name))
    inputs = workloads.write_inputs(w, 7, os.path.join(work, "input"))
    expected = workloads.expected_for(inputs)
    out = os.path.join(work, "out")
    proc = subprocess.run(
        [sys.executable, "-c", run.LAUNCH, w.verb, inputs.config, "-o", out],
        cwd=run.ROOT, env=run.child_env(), capture_output=True, text=True,
        timeout=300)
    if proc.returncode != 0:
        raise AssertionError(f"{w.name}: verb failed\n{proc.stderr}")
    reason = workloads.check_outputs(inputs, out, expected)
    if reason is not None:
        raise AssertionError(f"{w.name}: check failed on real output: "
                             f"{reason}")
    tamper(w, out)
    if workloads.check_outputs(inputs, out, expected) is None:
        raise AssertionError(f"{w.name}: check passed on tampered output")


def check_bare_directory():
    bare = run.fresh(os.path.join(SELFTEST_WORK, "bare"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(["--workload", "grid-fine", "--seed", "0", "--seconds", "1",
                  "--trace", "0"], cwd=bare)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        raise AssertionError("bare directory: expected a failing exit and "
                             f"no result, got {proc.returncode}\n"
                             f"{proc.stdout}")


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    names = [w["name"] for w in spec["workloads"]]
    if sorted(names) != sorted(workloads.WORKLOADS):
        raise AssertionError(f"BENCHMARK.json workloads {names}")
    for name in names:
        for trace, expected in ((0, end_to_end), (1, per_layer)):
            check_result(bench(["--workload", name, "--seed", "1",
                                "--seconds", "1", "--trace", str(trace),
                                "--smoke"]),
                         expected, f"{name} --trace {trace}")
        check_output_checks(workloads.WORKLOADS[name].smoke())
        print(f"selftest: {name} ok")
    check_bare_directory()
    shutil.rmtree(SELFTEST_WORK, ignore_errors=True)
    print("selftest: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
