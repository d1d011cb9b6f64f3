"""Self-test of the benchmark's generators, output checks and tracer.

    python3 perfbench/selftest.py

Run from the repository root.  Every workload runs at tiny sizes: once
untraced and twice traced, through the same code paths as run.py.  Exits
non-zero with a message on the first failure.
"""
import copy
import json
import os
import sys

import run
import workloads
from tracer import PER_LAYER, WORK_COUNTS, Tracer

TINY = {
    "torus": dict(order=8, degree=3, delta=1e-4, tol=1e-11),
    "sweep": dict(order=8, grid_points=3, T=5.0, fraction_samples=400, horizon=16),
    "divisors": dict(kmax=50, samples=400, gammas=[0.02, 0.04, 0.08]),
}


def expect(cond, message):
    if not cond:
        raise SystemExit(f"selftest failed: {message}")


def check_declarations():
    """BENCHMARK.json, plan.json and the code name the same things."""
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    with open(os.path.join(os.path.dirname(__file__), "plan.json")) as fh:
        plan = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    expect(names == list(workloads.COMMANDS), f"workloads {names}")
    layer = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    expect(layer == [tuple(m) for m in PER_LAYER], "per_layer differs from tracer.PER_LAYER")
    expect(list(plan["predictions"]) == [m[0] for m in PER_LAYER],
           "plan.json predictions differ from the per-layer metrics")
    for name, (_, full) in workloads.BUILDERS.items():
        rec = plan["workloads"][name]
        expect(rec["command"] == workloads.COMMANDS[name], f"{name} command")
        expect(rec["threads"] == run.THREADS, f"{name} threads")
        for key, value in full.items():
            expect(rec["inputs"].get(key) == value,
                   f"plan.json {name} input {key} is not {value}")


def check_generators(name):
    a = workloads.make_config(name, 1, TINY[name])
    expect(json.dumps(a) == json.dumps(workloads.make_config(name, 1, TINY[name])),
           f"{name}: same seed gave different inputs")
    expect(json.dumps(a) != json.dumps(workloads.make_config(name, 2, TINY[name])),
           f"{name}: different seeds gave the same inputs")
    return a


def broken(name, report):
    """A copy of a good report that its check must reject."""
    bad = copy.deepcopy(report)
    res = bad["result"]
    if name == "torus":
        res["residualHistory"] = res["residualHistory"][:1] * 8
    elif name == "sweep":
        pt = next(p for p in res["pipeline"]["points"] if p["mu"][0] == workloads.RESONANT_MU)
        pt.update(accepted=True, reason="")
    else:
        res["fractions"] = res["fractions"][::-1]
    return bad


def check_workload(name):
    config = check_generators(name)
    runner = run.Runner(name, run.write_config(f"selftest-{name}", config))
    expect(runner.one_pass() is not None, f"{name}: {runner.problems}")
    with open(os.path.join(runner.out_dir, f"{runner.command}-report.json")) as fh:
        report = json.load(fh)
    expect(workloads.CHECKS[name](config, broken(name, report)),
           f"{name}: check accepted a broken report")

    from kamrev import ftaylor, normalizer
    orig = normalizer.fs_matmul
    tables = []
    for _ in range(2):
        tracer = Tracer()
        with tracer.installed():
            expect(normalizer.fs_matmul is not orig and ftaylor.fs_matmul is not orig,
                   "copies of fs_matmul were not replaced")
            wall = runner.one_pass()
        expect(wall is not None, f"{name} traced: {runner.problems}")
        table = tracer.layer_metrics()
        self_total = sum(v for k, v in table.items() if k.endswith(".self_s"))
        expect(self_total <= wall and min(table.values()) >= -1e-9,
               f"{name}: self times {self_total} against a {wall} s pass")
        tables.append(table)
    expect(ftaylor.fs_matmul is orig and normalizer.fs_matmul is orig,
           "bindings not restored")
    for key in WORK_COUNTS:
        expect(tables[0][key] == tables[1][key],
               f"{name}: {key} differs between traced passes")
    t = tables[0]
    if name == "divisors":
        expect(t["fourier.product.calls"] == 0 and t["diophantine.measure.divisors"] > 0,
               f"divisors layers: {t}")
    else:
        expect(t["fourier.product.calls"] > 0 and t["normalizer.sweeps"] > 0,
               f"{name} layers: {t}")
    if name == "torus":
        expect(t["ftaylor.neumann.iters"] > 0, "no Neumann iterations counted")
    if name == "sweep":
        expect(t["ruessmann.grid_points"] == TINY["sweep"]["grid_points"]
               and 0 < t["ruessmann.accepted_ratio"] < 1, f"sweep layers: {t}")
    print(f"selftest {name}: ok")


def main():
    check_declarations()
    for name in workloads.COMMANDS:
        check_workload(name)
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
