#!/usr/bin/env python3
"""Run one workload N times with different seeds and report its spread.

    python3 perfbench/steady.py --workload scale_te --runs 10 --seconds 20

Each run is `perfbench/run.py --workload W --seed s` for s = first-seed,
first-seed+1, ... For every metric it prints the median, the first and third
quartiles (statistics.quantiles(values, n=4)) and the spread
(q3 - q1) / median, next to the metric's bound from BENCHMARK.json and a
third of it, the target the bounds were set against. It also prints the
failed share of every run, which must be identical across runs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def bounds():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return {}
    return {m["name"]: m.get("bound") for m in spec.get("end_to_end", [])}


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    done = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, cwd=ROOT)
    if done.returncode != 0:
        raise SystemExit(f"run with seed {seed} exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    results = []
    for i in range(args.runs):
        seed = args.first_seed + i
        r = run_once(args.workload, seed, args.seconds, args.trace)
        results.append(r)
        share = r["failed"] / r["attempted"]
        values = " ".join(f"{name}={m['value']:.6g}"
                          for name, m in r["metrics"].items())
        print(f"seed {seed}: correct={r['correct']} attempted={r['attempted']}"
              f" failed={r['failed']} share={share!r} {values}", flush=True)

    limits = bounds()
    print(f"\n{'metric':30} {'unit':6} {'median':>14} {'q1':>14} {'q3':>14}"
          f" {'spread':>8} {'bound':>6} {'bound/3':>8}")
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / q2 if q2 else float("inf")
        bound = limits.get(name)
        third = f"{bound / 3:8.4f}" if bound is not None else ""
        shown = f"{bound:6.3f}" if bound is not None else ""
        flag = " !" if bound is not None and spread > bound / 3 else ""
        print(f"{name:30} {first['unit']:6} {q2:14.6g} {q1:14.6g} {q3:14.6g}"
              f" {spread:8.4f} {shown:>6} {third:>8}{flag}")
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"\nfailed share identical in every run: {len(shares) == 1}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
