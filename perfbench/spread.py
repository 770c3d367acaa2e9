#!/usr/bin/env python3
"""Run one workload on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload daemon-mix --seeds 1-10 [--seconds 10] [--trace 0]

For every metric: the median of the runs and the distance between the
first and third quartile (statistics.quantiles(n=4)) as a share of the
median, next to the bound BENCHMARK.json gives it (end-to-end metrics).
Runs perfbench/run.py once per seed, from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--seconds", type=int, default=None, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]
    values = {}
    for s in args.seeds:
        cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(s),
               "--seconds", str(seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print("seed %d: exit %d" % (s, done.returncode), file=sys.stderr)
            return 1
        res = json.loads(lines[-1])
        print("seed %d: correct=%s attempted=%d failed=%d" % (s, res["correct"], res["attempted"], res["failed"]),
              flush=True)
        for k, v in res["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    print("%-40s %14s %14s %14s %8s %6s" % ("metric", "median", "q1", "q3", "spread", "bound"))
    worst = 0.0
    for k, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0], 0, vs[0])
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(k)
        if bound is not None and k != "setup_s":
            worst = max(worst, spread / bound)
        print("%-40s %14.6g %14.6g %14.6g %8.4f %6s" % (k, med, q1, q3, spread, "" if bound is None else bound))
    if args.trace == 0:
        print("largest spread / bound (setup_s excluded): %.3f" % worst)
    return 0


if __name__ == "__main__":
    sys.exit(main())
