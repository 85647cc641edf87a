#!/usr/bin/env python3
"""Run-to-run spread of the benchmark, and its bounds.

    python3 perfbench/spread.py [--runs K] [--seed0 N] [--seconds S]
                                [--workloads a,b,...] [--trace] [--set-bounds]

Runs every workload K times (seeds N .. N+K-1) through run.py, untraced,
and prints for each end-to-end metric its median, first and third
quartile (Python's statistics.quantiles, n=4), the quartile distance as a
share of the median, and the max/min ratio, next to the bound in
BENCHMARK.json. It also checks that the failed share of operations is the
same in every run of a workload. With --trace it then makes one traced
run per workload and reports the tracing overhead against the untraced
median round time. With --set-bounds it writes new bounds into
BENCHMARK.json: three times the widest spread seen for the metric,
rounded up to 0.01, at least 0.15 and at most 0.25; setup_s gets 0.25,
the largest. The floor covers drift between sets of runs taken minutes
apart on a shared host (analytic_fleet's median round moved 6% between
two such sets on a 2-vCPU guest). Every run's host facts are printed.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = os.path.join(ROOT, "BENCHMARK.json")


def run_once(workload, seed, seconds, trace):
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    host = next((l for l in lines if l.startswith("host:")), "host: unknown")
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}")
    result = json.loads(lines[-1])
    return host, result, lines


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    share = (q3 - q1) / med if med else math.inf
    ratio = max(values) / min(values) if min(values) > 0 else math.inf
    return med, q1, q3, share, ratio


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--workloads", default=None)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--set-bounds", action="store_true")
    args = ap.parse_args()
    with open(SPEC) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    widest = {name: 0.0 for name in bounds}
    ok = True
    for name in names:
        results = []
        for i in range(args.runs):
            host, result, _ = run_once(name, args.seed0 + i, seconds, False)
            values = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
            print(f"{name} seed {args.seed0 + i}: {host[6:]} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} {values}", flush=True)
            ok &= result["correct"]
            results.append(result)
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"{name}: failed share {sorted(shares)}"
              + ("" if len(shares) == 1 else "  <-- differs between runs"))
        ok &= len(shares) == 1
        print(f"  {'metric':<16} {'median':>14} {'q1':>14} {'q3':>14} {'iqr/med':>8} "
              f"{'max/min':>8} {'bound':>6}")
        for metric in bounds:
            values = [r["metrics"][metric]["value"] for r in results]
            med, q1, q3, share, ratio = spread(values)
            widest[metric] = max(widest[metric], share)
            gated = metric != "setup_s"
            mark = ""
            if gated and share > bounds[metric]:
                mark, ok = "  <-- wider than bound", False
            elif gated and share > bounds[metric] / 3:
                mark = "  (over a third of the bound)"
            print(f"  {metric:<16} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {share:>8.4f} "
                  f"{ratio:>8.4f} {bounds[metric]:>6.2f}{mark}")
        if args.trace:
            _, traced, lines = run_once(name, args.seed0, seconds, True)
            over = traced["metrics"].get("trace.overhead_pct", {}).get("value")
            print(f"  traced run: correct={traced['correct']} overhead {over:.2f}% "
                  "(traced vs untraced rounds of the same run)")
            for line in lines:
                if line.startswith("trace:"):
                    print("  " + line)
    if args.set_bounds:
        for m in spec["end_to_end"]:
            if m["name"] == "setup_s":
                m["bound"] = 0.25
            else:
                m["bound"] = min(0.25, max(0.15, math.ceil(300 * widest[m["name"]]) / 100))
        with open(SPEC, "w") as f:
            json.dump(spec, f, indent=2)
            f.write("\n")
        print("bounds written:", {m["name"]: m["bound"] for m in spec["end_to_end"]})
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
