#!/usr/bin/env python3
"""Steadiness check: runs each workload several times with different seeds
and prints, for every end-to-end metric, the median, the quartiles and the
spread (q3 - q1) / median, next to the bound BENCHMARK.json gives it.

    python3 perfbench/steady.py [--runs 10] [--seconds S]
                                [--workloads dst_grid,smr_wal,...]
                                [--json FILE]

Run from the root of a checkout; runs are sequential (one at a time).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--json", help="also write all values to this file")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    table = {}
    for w in args.workloads.split(","):
        values, shares = {}, []
        for i in range(args.runs):
            seed = args.first_seed + i
            out = subprocess.run(
                [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                 "--workload", w, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                stdout=subprocess.PIPE, text=True, cwd=ROOT)
            if out.returncode != 0:
                sys.exit("%s seed %d: exit %d" % (w, seed, out.returncode))
            r = json.loads(out.stdout.strip().splitlines()[-1])
            if not r["correct"]:
                sys.exit("%s seed %d: correctness check failed" % (w, seed))
            shares.append(r["failed"] / r["attempted"])
            for name, m in r["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print("%s seed %d: %s" % (w, seed, json.dumps(
                {k: round(v["value"], 4) for k, v in r["metrics"].items()})),
                  flush=True)
        table[w] = {"values": values, "failed_shares": shares}
        print("\n%-10s %-12s %12s %12s %12s %8s %6s" % (
            "workload", "metric", "median", "q1", "q3", "spread", "bound"))
        for name, xs in sorted(values.items()):
            q1, med, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name, 0)
            # One cold set-up per run is noisier than a run's median over
            # rounds; it is flagged against its whole bound, the rest
            # against a third of theirs.
            limit = bound if name == "setup_s" else bound / 3
            flag = "" if spread < limit else "  <-- wide"
            print("%-10s %-12s %12.5g %12.5g %12.5g %8.4f %6.2f%s" % (
                w, name, med, q1, q3, spread, bound, flag))
        print("%-10s failed share: %s\n" % (w, sorted(set(shares))), flush=True)
    if args.json:
        with open(args.json, "w") as f:
            json.dump(table, f, indent=1)


if __name__ == "__main__":
    main()
