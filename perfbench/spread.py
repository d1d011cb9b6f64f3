"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 10 [--first-seed 0] \
        [--workloads torus sweep] [--save runs.json] [--against earlier.json]

Run from the repository root.  Workloads are interleaved (seed 0 of every
workload, then seed 1, ...), so a drift in host speed spreads over all of
them instead of landing on one.  For each workload and end-to-end metric it
prints the median, the quartiles and the quartile spread as a share of the
median next to the metric's bound from BENCHMARK.json.  With --against it
also prints how far each median moved from an earlier saved set.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(bench, workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    meta = next((json.loads(x[5:]) for x in lines if x.startswith("meta ")), {})
    return {"seed": seed, "elapsed_s": elapsed, "result": json.loads(lines[-1]),
            "meta": meta}


def summarize(runs, bench, against=None):
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for workload, rows in runs.items():
        bad = [r["seed"] for r in rows if not r["result"]["correct"]]
        print(f"{workload}: {len(rows)} runs, incorrect seeds {bad or 'none'}, "
              f"{max(r['elapsed_s'] for r in rows):.1f} s longest run")
        for name in rows[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][name]["value"] for r in rows]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else [med] * 3
            line = (f"  {name:<34} median {med:<10.4g} q1 {q1:<10.4g} q3 {q3:<10.4g}"
                    f" spread {(q3 - q1) / med if med else 0.0:.3f}")
            if name in bounds:
                line += f" bound {bounds[name]}"
            earlier = (against or {}).get(workload)
            if earlier and name in earlier[0]["result"]["metrics"]:
                old = statistics.median(r["result"]["metrics"][name]["value"]
                                        for r in earlier)
                line += f" vs earlier {(med - old) / old if old else 0.0:+.3f}"
            print(line)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=0)
    ap.add_argument("--workloads", nargs="*")
    ap.add_argument("--save")
    ap.add_argument("--against")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    runs = {w: [] for w in names}
    for i in range(args.seeds):
        seed = args.first_seed + i
        for w in names[i % len(names):] + names[:i % len(names)]:
            row = run_once(bench, w, seed)
            runs[w].append(row)
            vals = {k: round(v["value"], 4) for k, v in row["result"]["metrics"].items()}
            print(f"{w} seed {seed} ({row['elapsed_s']:.1f} s): {vals}", flush=True)
    if args.save:
        with open(args.save, "w") as fh:
            json.dump(runs, fh, indent=1)
    against = None
    if args.against:
        with open(args.against) as fh:
            against = json.load(fh)
    summarize(runs, bench, against)
    return 0


if __name__ == "__main__":
    sys.exit(main())
