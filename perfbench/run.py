"""Run one kamrev benchmark workload and print its metrics.

    python3 perfbench/run.py --workload torus|sweep|divisors --seed N \
        --seconds S --trace 0|1

Run from the repository root.  The workload's CLI command is driven
in-process through `kamrev.cli.main` with `--threads 2`, on a config built
from the seed (see workloads.py), for S seconds of back-to-back passes.
The first pass is checked in full; every later pass must exit 0 and report
the same result.  The last line of stdout is one JSON object:

    {"correct": ..., "attempted": passes, "failed": failed passes,
     "metrics": {name: {"value": ..., "unit": ...}}}

With --trace 0 the metrics are the end-to-end ones: `wall_norm_s`,
`setup_s` (median of several fresh processes that import kamrev and build
the config) and `peak_rss_mb`.  With --trace 1 untraced and traced passes
alternate and the metrics are the per-layer table of tracer.py.  Lines
before the last carry a readable summary, with the raw `wall_s` and
`fail_frac`, and a `meta` line with every pass's host calibration, wall and
CPU time.

`wall_s` is the median pass wall time, leaving out the first pass, which
warms up.  `wall_norm_s` is `wall_s` at a reference host speed: times
CAL_REF_S over the median time of a fixed Python loop run before each of
those passes.  The loop shares no code with kamrev, so it tracks the host
alone.  On the 2-vCPU KVM guest where the benchmark was defined, the host
slowed kamrev by up to 40% in phases of seconds to minutes, with CPU time
following wall time and negligible steal.  Over three sets of ten seeds
the quartile spread of `wall_s` on torus and sweep was 0.20-0.30 of its
median, and that of `wall_norm_s` 0.06-0.15.
"""
import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402  (needs kamrev from src/ on the path)
from kamrev import cli  # noqa: E402

THREADS = 2
SETUP_REPEATS = 5
# The Python calibration loop's usual time on that reference host.
CAL_REF_S = 0.016


def calibrate():
    """Seconds for a fixed Python loop and a fixed numpy kernel."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(200000):
        acc += i * i
    t1 = time.perf_counter()
    a = np.arange(40000, dtype=float).reshape(200, 200) % 7.0
    for _ in range(10):
        np.sort(a @ a, axis=0)
    return t1 - t0, time.perf_counter() - t1


def write_config(name, config):
    """Write a config under the run directory `name`; returns its path."""
    run_dir = os.path.join(OUT, name)
    os.makedirs(run_dir, exist_ok=True)
    path = os.path.join(run_dir, "config.json")
    with open(path, "w") as fh:
        json.dump(config, fh)
    return path


def set_up(workload, seed):
    """Write the workload's config; returns its path.  Set-up time also
    counts the imports above."""
    return write_config(f"{workload}-{seed}", workloads.make_config(workload, seed))


def setup_seconds(workload, seed):
    """Median wall time of fresh processes that only import and set up."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, os.path.abspath(__file__), "--workload",
                        workload, "--seed", str(seed), "--setup-only"],
                       cwd=ROOT, check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Runner:
    """Back-to-back passes of one workload, each checked."""

    def __init__(self, workload, config_path):
        self.workload = workload
        self.command = workloads.COMMANDS[workload]
        self.config_path = config_path
        self.out_dir = os.path.join(os.path.dirname(config_path), "out")
        with open(config_path) as fh:
            self.config = json.load(fh)
        self.first_result = self.first_problems = None
        self.attempted = self.failed = 0
        self.problems = []
        self.host = []  # per pass: calibration timings, wall and CPU time
        self.cpu = 0.0

    def one_pass(self, threads=THREADS):
        """Run the command once; returns its wall time, or None if it failed."""
        cal = calibrate()
        argv = [self.command, "--config", self.config_path, "--out", self.out_dir,
                "--threads", str(threads)]
        with contextlib.redirect_stdout(io.StringIO()):  # the report path
            t0, c0 = time.perf_counter(), time.process_time()
            code = cli.main(argv)  # looked up here, so a tracer can swap it
            wall = time.perf_counter() - t0
            self.cpu = time.process_time() - c0
        self.host.append(cal + (wall, self.cpu))
        self.attempted += 1
        problems = self._check(code)
        if problems:
            self.failed += 1
            self.problems.extend(problems)
            return None
        return wall

    def _check(self, code):
        if code != 0:
            return [f"pass {self.attempted}: exit code {code}"]
        with open(os.path.join(self.out_dir, f"{self.command}-report.json")) as fh:
            report = json.load(fh)
        if self.first_result is None:
            self.first_result = report["result"]
            self.first_problems = workloads.CHECKS[self.workload](self.config, report)
        elif report["result"] != self.first_result:
            return [f"pass {self.attempted}: result differs from the first pass"]
        return self.first_problems

    def meta(self):
        """Per pass: the host calibration timed just before it, and its wall
        and CPU time."""
        keys = ("calibration_python_s", "calibration_numpy_s", "pass_wall_s", "pass_cpu_s")
        columns = zip(*self.host) if self.host else [()] * len(keys)
        out = {"workload": self.workload, "command": self.command,
               "threads": THREADS, "passes": self.attempted}
        out.update({k: [round(x, 6) for x in col] for k, col in zip(keys, columns)})
        return out


def measure(runner, seconds):
    """Pass times until `seconds` have gone by and two passes are good;
    stops early after three failed passes."""
    walls = []
    deadline = time.perf_counter() + seconds
    while (len(walls) < 2 or time.perf_counter() < deadline) and runner.failed < 3:
        wall = runner.one_pass()
        if wall is not None:
            walls.append(wall)
    return walls


def measure_traced(runner, seconds):
    """Alternate untraced and traced passes; returns the per-layer table."""
    from tracer import PER_LAYER, WORK_COUNTS, Tracer
    plain, traced, tables, cpu = [], [], [], []
    deadline = time.perf_counter() + seconds
    while (not traced or time.perf_counter() < deadline) and runner.failed < 3:
        wall = runner.one_pass()
        if wall is not None:
            plain.append(wall)
            cpu.append(runner.cpu)
        tracer = Tracer()
        with tracer.installed():
            wall = runner.one_pass()
        if wall is not None:
            traced.append(wall)
            tables.append(tracer.layer_metrics())
    if not tables or not plain:
        return {}
    table = {}
    for name, _, _ in PER_LAYER:
        values = [t[name] for t in tables]
        table[name] = values[0] if name in WORK_COUNTS else statistics.median(values)
    if tracer.counts["diophantine.measure.calls"]:
        # the measure is the only layer that reads --threads: repeat it on one
        tracer = Tracer()
        with tracer.installed():
            if runner.one_pass(threads=1) is not None:
                t1 = tracer.layer_metrics()["diophantine.measure.self_s"]
                table["diophantine.measure.scaling_eff"] = (
                    t1 / (THREADS * table["diophantine.measure.self_s"]))
    # untraced figures leave out the first pass, which warms up
    table["cli.main.wall_s"] = statistics.median(plain[1:] or plain)
    table["cli.main.cpu_s"] = statistics.median(cpu[1:] or cpu)
    table["trace.overhead_s"] = statistics.median(traced) - table["cli.main.wall_s"]
    return table


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.COMMANDS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import kamrev, write the config and exit")
    args = ap.parse_args(argv)
    if args.setup_only:
        set_up(args.workload, args.seed)
        return 0

    setup_s = None if args.trace else setup_seconds(args.workload, args.seed)
    runner = Runner(args.workload, set_up(args.workload, args.seed))
    if args.trace:
        from tracer import PER_LAYER
        table = measure_traced(runner, args.seconds)
        units = {name: unit for name, unit, _ in PER_LAYER}
        metrics = {name: {"value": table.get(name, 0.0), "unit": units[name]}
                   for name, _, _ in PER_LAYER}
    else:
        walls = measure(runner, args.seconds)[1:]  # the first pass warms up
        wall = statistics.median(walls) if walls else 0.0
        cal = statistics.median(h[0] for h in runner.host[1:] or runner.host)
        print(f"{args.workload} wall_s {wall:.6g} s, the median of {len(walls)} passes, "
              f"with the calibration loop at {cal:.6g} s")
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "wall_norm_s": {"value": wall * CAL_REF_S / cal, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }
    fail_frac = runner.failed / runner.attempted

    for problem in runner.problems[:10]:
        print(f"check failed: {problem}")
    for name, m in metrics.items():
        print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} fail_frac {fail_frac:.6g} "
          f"({runner.failed} of {runner.attempted} passes)")
    print("meta " + json.dumps(runner.meta()))
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
