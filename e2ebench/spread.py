#!/usr/bin/env python3
"""Runs one workload over several seeds and prints each metric's spread.

    python3 e2ebench/spread.py --workload adhoc --seeds 1-10 --seconds 15

For every metric: the median, the first and third quartiles (as
statistics.quantiles(values, n=4) gives them) and the quartile distance as
a share of the median; plus the failed share of every run. Use it to check
that a workload is steady before comparing two commits.
"""
import argparse
import json
import statistics
import subprocess
import sys
import os

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    values, shares = {}, []
    for seed in seeds(args.seeds):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True)
        if out.returncode != 0:
            print(f"seed {seed}: exit {out.returncode}\n{out.stderr}", file=sys.stderr)
            return 1
        r = json.loads(out.stdout.strip().splitlines()[-1])
        shares.append(f"{r['failed']}/{r['attempted']}")
        print(f"seed {seed}: correct={r['correct']} failed={r['failed']}/{r['attempted']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in r["metrics"].items()),
              flush=True)
        if not r["correct"]:
            print(out.stdout, file=sys.stderr)
        for k, v in r["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    print(f"{'metric':34} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8}")
    for k, v in values.items():
        if len(v) < 2:
            continue
        q1, med, q3 = statistics.quantiles(v, n=4)
        share = (q3 - q1) / med if med else float("nan")
        print(f"{k:34} {med:12.6g} {q1:12.6g} {q3:12.6g} {share:8.4f}")
    print("failed shares:", " ".join(shares))
    return 0


if __name__ == "__main__":
    sys.exit(main())
