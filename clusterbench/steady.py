#!/usr/bin/env python3
"""Steadiness mode: run each workload repeatedly and judge the bounds.

Usage, from the root of a checkout:

    python3 clusterbench/steady.py [--workloads lookup,realtime] [--runs 10]
                                   [--first-seed 1] [--seconds N]

Each run uses its own seed (first-seed, first-seed+1, ...). For every
end-to-end metric of BENCHMARK.json the script prints the median, the first
and third quartiles (statistics.quantiles(values, n=4)), the spread
(q3 - q1) / median, the metric's bound and the spread as a share of the
bound. A metric whose spread is above its bound, setup_s included, is
flagged UNSTEADY; so is a workload whose share of failed operations varies
between runs, or one with an incorrect run. The script then exits 1.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    start = time.time()
    res = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True, timeout=600)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        raise SystemExit("%s seed %d: exit %d" % (workload, seed, res.returncode))
    out = json.loads(lines[-1])
    out["wall_s"] = time.time() - start
    return out


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()

    unsteady = 0
    for w in args.workloads.split(","):
        runs = []
        for i in range(args.runs):
            r = run_once(w, args.first_seed + i, args.seconds)
            runs.append(r)
            print("%s seed %d: correct=%s attempted=%d failed=%d wall=%.0fs" % (
                w, args.first_seed + i, r["correct"], r["attempted"], r["failed"], r["wall_s"]),
                file=sys.stderr)
        print("\n== %s (%d runs, seeds %d..%d)" % (w, len(runs), args.first_seed,
                                                  args.first_seed + len(runs) - 1))
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        correct = all(r["correct"] for r in runs)
        flag = ""
        if len(shares) > 1 or not correct:
            flag = "  UNSTEADY"
            unsteady += 1
        print("failed share: %s   correct: %s%s" % (shares, correct, flag))
        print("%-20s %12s %12s %12s %8s %6s %7s" % ("metric", "median", "q1", "q3", "spread", "bound", "/bound"))
        for m in bench["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if spread > m["bound"]:
                flag = "  UNSTEADY"
                unsteady += 1
            print("%-20s %12.4f %12.4f %12.4f %8.4f %6.2f %7.2f%s" % (
                m["name"], med, q1, q3, spread, m["bound"], spread / m["bound"], flag))
    sys.exit(1 if unsteady else 0)


if __name__ == "__main__":
    main()
