"""hbwave benchmark: run one workload as whole `hbwave` CLI processes and
print its metrics.

    python3 perfbench/run.py --workload grid-fine --seed 0 --seconds 35 \
        --trace 0 [--smoke]

Run it from the root of a source tree; it needs src/hbwave and builds
nothing.  The load is a closed loop with one client: each CLI process
starts after the previous one has exited, for --seconds seconds.  With
--trace 0 each loop step launches `hbwave validate` (set-up) and then the
workload's verb, and the end-to-end metrics are printed.  With --trace 1
each step launches the verb untraced and then traced, and the per-layer
metrics from the spans are printed.  Every verb run's outputs are checked.
Times are calibrated for the machine's slowdown (see Launcher).  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  --smoke runs the same workloads at tiny
sizes.  Scratch files go to .perfbench_work/ in the source tree.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np
import scipy

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")

# One BLAS/OpenMP thread in every child: at nx=1025 the default two
# threads give the same wall time on a 2-core machine but burn ~65% more
# CPU and add noise.
BLAS_THREADS = 1
DEFAULT_SEED = 0
# Wall seconds of the CALIBRATION job on the reference machine (a 2-vCPU
# Xeon VM) when no other tenant slows it; times are reported in its units.
CALIBRATION_REF_S = 0.45
RUN_LIMIT_S = 170          # children still running at this age are killed
LAUNCH = ("import sys; from hbwave.cli import run_command; "
          "sys.exit(run_command(sys.argv[1:]))")

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("wall_s_tail", "s"),
              ("cpu_s", "s"), ("peak_rss_mb", "MB")]


def environment() -> dict:
    try:
        blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = blas.get("version", "unknown")
    except (KeyError, TypeError):
        openblas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "openblas": openblas,
            "blas_threads": BLAS_THREADS, "nproc": os.cpu_count(),
            "default_seed": DEFAULT_SEED}


@dataclass
class Sample:
    """One child process, measured from launch to exit."""

    wall: float
    cpu: float               # user + sys seconds
    rss_mb: float            # peak resident set, 1e6 bytes
    code: int
    slowdown: float          # machine slowdown meanwhile (1 = quiet)


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


# A fixed job of the same kind as a short CLI run: interpreter start, the
# numpy and scipy imports, then an interpreter loop, dense LU and memory
# streaming.  It shares no code with hbwave.
CALIBRATION = """
import numpy as np, scipy.linalg
a = np.random.default_rng(0).standard_normal((256, 256)) + 256 * np.eye(256)
s = np.ones(2_000_000)
x = 0
for i in range(300_000):
    x += i
for _ in range(10):
    scipy.linalg.lu_factor(a)
for _ in range(6):
    s.sum()
"""


class Launcher:
    """Starts CLI processes one at a time, through spawner.py, and measures
    each from launch to exit: wall seconds, user+sys CPU seconds and peak
    RSS.  Use it as a context manager; leaving it stops the spawner.

    Other tenants of a shared machine slow every process by up to ~1.7x
    for spells from under a second to tens of seconds, in CPU time as much
    as in wall time.  So the CALIBRATION job runs right before and right
    after each child, and the mean of its two wall times over
    CALIBRATION_REF_S is the machine's slowdown meanwhile.  Dividing a
    time by it gives seconds on the reference machine when quiet."""

    def __init__(self, work: str):
        self.work = work
        self.spawner = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "spawner.py")], cwd=ROOT,
            env=child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True)
        self.start = time.perf_counter()
        self.last_calibration = self.calibrate()
        self.attempted = 0
        self.failed = 0
        self.reasons: list = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.spawner.stdin.close()
        try:
            self.spawner.wait(timeout=RUN_LIMIT_S)
        finally:
            if self.spawner.poll() is None:
                self.spawner.kill()
                self.spawner.wait()
            self.spawner.stdout.close()

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def run(self, argv, what: str) -> dict:
        stderr_path = os.path.join(self.work, "stderr.txt")
        request = {"argv": argv, "stderr": stderr_path,
                   "timeout": max(1.0, RUN_LIMIT_S - self.elapsed())}
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        reply = json.loads(self.spawner.stdout.readline())
        if reply["code"] != 0:
            with open(stderr_path, errors="replace") as fh:
                last = fh.read().strip().splitlines()[-1:]
            self.fail(f"{what} exited {reply['code']}: {last}")
        return reply

    def calibrate(self) -> float:
        return self.run([sys.executable, "-c", CALIBRATION],
                        "calibration")["wall"]

    def launch(self, argv, what: str) -> Sample:
        self.attempted += 1
        reply = self.run(argv, what)
        before, self.last_calibration = self.last_calibration, self.calibrate()
        slowdown = (before + self.last_calibration) / (2 * CALIBRATION_REF_S)
        return Sample(reply["wall"], reply["cpu"], reply["rss_mb"],
                      reply["code"], slowdown)

    def fail(self, reason: str):
        self.failed += 1
        self.reasons.append(reason)

    def cli(self, verb: str, config: str, out: str) -> Sample:
        return self.launch([sys.executable, "-c", LAUNCH, verb, config,
                            "-o", out], verb)

    def traced_cli(self, spans: str, run_id: str, verb: str, config: str,
                   out: str) -> Sample:
        return self.launch([sys.executable,
                            os.path.join(HERE, "traced_cli.py"), spans,
                            run_id, verb, config, "-o", out], verb)


def fresh(directory: str) -> str:
    shutil.rmtree(directory, ignore_errors=True)
    os.makedirs(directory)
    return directory


def bytes_in(directory: str) -> int:
    return sum(os.path.getsize(os.path.join(directory, name))
               for name in os.listdir(directory))


def tail(samples) -> tuple:
    """The 90th percentile of the samples, interpolated, as (value, label).
    The highest percentile with at least ten samples beyond it is at or
    above the median only from 20 samples on, and a run gets fewer."""
    if len(samples) < 2:
        return samples[0], "only sample"
    return (statistics.quantiles(samples, n=10, method="inclusive")[-1],
            f"p90 of {len(samples)} samples")


def calibrated(samples, field: str) -> list:
    return [getattr(x, field) / x.slowdown for x in samples]


def verb_run(launcher, run, inputs, expected, out) -> Sample:
    """Launch one verb run into a fresh `out` and check its outputs."""
    fresh(out)
    sample = run()
    if sample.code == 0:
        reason = workloads.check_outputs(inputs, out, expected)
        if reason:
            launcher.fail(f"output check: {reason}")
    return sample


def run_timed(launcher, inputs, expected, seconds) -> dict:
    w = inputs.workload
    out = os.path.join(launcher.work, "out")
    setups, verbs = [], []
    while True:
        setups.append(launcher.cli("validate", inputs.config, fresh(out)))
        verbs.append(verb_run(
            launcher, lambda: launcher.cli(w.verb, inputs.config, out),
            inputs, expected, out))
        if launcher.elapsed() >= seconds:
            break
    walls = calibrated(verbs, "wall")
    tail_value, tail_label = tail(walls)
    print(f"loop: {len(verbs)} verb runs and {len(setups)} validate runs in "
          f"{launcher.elapsed():.1f} s; wall_s_tail is the {tail_label}")
    for name, samples in (("validate", setups), ("verb", verbs)):
        print(f"{name} samples: wall (s) "
              + " ".join(f"{x.wall:.3f}" for x in samples)
              + "; slowdown " + " ".join(f"{x.slowdown:.2f}" for x in samples))
    raw = [statistics.median(x.wall for x in setups),
           statistics.median(x.wall for x in verbs),
           statistics.median(x.cpu for x in verbs)]
    print("uncalibrated medians: setup {:.4f} s, verb wall {:.4f} s, "
          "verb cpu {:.4f} s".format(*raw))
    return {"setup_s": statistics.median(calibrated(setups, "wall")),
            "wall_s": statistics.median(walls),
            "wall_s_tail": tail_value,
            "cpu_s": statistics.median(calibrated(verbs, "cpu")),
            "peak_rss_mb": statistics.median(x.rss_mb for x in verbs)}


def run_traced(launcher, inputs, expected, seconds, label) -> dict:
    """Alternate untraced and traced verb runs, at least two of each."""
    w = inputs.workload
    out = os.path.join(launcher.work, "out")
    untraced, traced, runs = [], [], []
    while ((len(runs) < 2 or launcher.elapsed() < seconds)
           and launcher.elapsed() < RUN_LIMIT_S):
        untraced.append(verb_run(
            launcher, lambda: launcher.cli(w.verb, inputs.config, out),
            inputs, expected, out))
        run_id = f"{label}-traced-{len(runs)}"
        spans_path = os.path.join(launcher.work, run_id + ".json")
        sample = verb_run(
            launcher, lambda: launcher.traced_cli(
                spans_path, run_id, w.verb, inputs.config, out),
            inputs, expected, out)
        traced.append(sample)
        if sample.code == 0:
            with open(spans_path) as fh:
                spans = json.load(fh)["spans"]
            metrics = tracing.layer_metrics(spans, bytes_in(out))
            for name, unit, _ in tracing.PER_LAYER:
                if unit == "s" and name in metrics:
                    metrics[name] /= sample.slowdown
            runs.append(metrics)
        elif not runs:
            break
    if len(runs) < 2:
        launcher.fail(f"{len(runs)} traced runs completed, two are needed")
    if not runs:
        return {}
    differ = [name for name in tracing.COUNTS
              if len({r[name] for r in runs}) != 1]
    if differ:
        launcher.fail(f"counts differ across traced runs: {differ}")
    metrics = {name: (runs[0][name] if name in tracing.COUNTS
                      else statistics.median(r[name] for r in runs))
               for name in runs[0]}
    metrics["trace.overhead_s"] = (
        statistics.median(calibrated(traced, "wall"))
        - statistics.median(calibrated(untraced, "wall")))
    print(f"loop: {len(untraced)} untraced and {len(traced)} traced verb "
          f"runs in {launcher.elapsed():.1f} s; counts "
          f"{'differ' if differ else 'repeat exactly'} across "
          f"{len(runs)} traced runs; spans in {launcher.work}")
    return metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes, for a quick self-test")
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "hbwave", "cli.py")):
        print(f"no hbwave source tree under {ROOT}/src; run the benchmark "
              "from the root of a checkout", file=sys.stderr)
        return 2

    # the children and the calibration jobs share one CPU: other tenants
    # slow the two CPUs of a small VM at different times
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})

    w = workloads.WORKLOADS[args.workload]
    if args.smoke:
        w = w.smoke()
    label = (f"{w.name}{'-smoke' if args.smoke else ''}-seed{args.seed}"
             f"-trace{args.trace}")
    work = fresh(os.path.join(WORK, label))
    inputs = workloads.write_inputs(w, args.seed, os.path.join(work, "input"))
    expected = workloads.expected_for(inputs)

    env = environment()
    print(f"workload {w.name}: hbwave {w.verb}, {w.kind}, nx={w.nx}, "
          f"M={w.M}, amplitude_1={inputs.amplitude:.6g}, seed {args.seed}; "
          "closed loop, 1 client")
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env.items())
          + f"; benchmark and children pinned to CPU {cpu}")

    with Launcher(work) as launcher:
        if args.trace:
            values = run_traced(launcher, inputs, expected, args.seconds,
                                label)
            units = {name: unit for name, unit, _ in tracing.PER_LAYER}
        else:
            values = run_timed(launcher, inputs, expected, args.seconds)
            units = dict(END_TO_END)
    shutil.rmtree(os.path.join(work, "out"), ignore_errors=True)

    for name, value in values.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"failed_frac = {launcher.failed / launcher.attempted:.6g} "
          f"({launcher.failed} failed of {launcher.attempted} runs)")
    for reason in launcher.reasons:
        print(f"failure: {reason}")
    print(json.dumps({
        "correct": launcher.failed == 0 and bool(values),
        "attempted": launcher.attempted,
        "failed": launcher.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
