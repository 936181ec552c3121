#!/usr/bin/env python3
"""Run the whole benchmark as two (or more) sets on one commit and report,
for every end-to-end metric of every workload, each set's median and
quartiles, the spread between its quartiles as a share of its median, and
whether the sets agree within the metric's bound from BENCHMARK.json.

Run it from the root of the repository:

    python3 perfbench/steadiness.py                 # 2 sets x 10 seeds, all workloads
    python3 perfbench/steadiness.py --runs 5 --sets 1 --workloads udp_echo

Each run lasts run_seconds from BENCHMARK.json and uses its own seed (set
k, run i -> seed 1000 * k + i + 1). A metric is steady when each set's
spread is within its bound and every set's median lies within the bound of
the first set's, in either direction (the "vs set 1" column: how much
worse a set's median is than the first set's, negative when better). The
share of failed operations must be the same in every set. Exits 1 when
any check fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds, trace):
    args = command + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    started = time.monotonic()
    proc = subprocess.run(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    took = time.monotonic() - started
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    for line in proc.stderr.splitlines():
        if "check failed" in line or "warning" in line:
            print(f"{workload} seed {seed}: {line}", file=sys.stderr)
    last = proc.stdout.strip().splitlines()[-1]
    return json.loads(last), took


def worse_by(metric, first, other):
    """How much worse `other` is than `first`, as a share of `first`
    (negative when it is better)."""
    if first == 0:
        return 0.0
    if metric["better"] == "lower":
        return (other - first) / first
    return (first - other) / first


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    ap.add_argument("--sets", type=int, default=2, help="sets of runs to compare")
    ap.add_argument("--workloads", nargs="*", help="subset of workloads (default: all)")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    command = bench["command"]
    seconds = bench["run_seconds"]
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]

    ok = True
    for workload in names:
        sets = []
        for k in range(args.sets):
            runs = []
            for i in range(args.runs):
                seed = 1000 * k + i + 1
                result, took = run_once(command, workload, seed, seconds, 0)
                print(f"{workload} set {k + 1} seed {seed}: {took:.1f} s, "
                      f"attempted {result['attempted']}, failed {result['failed']}, "
                      f"correct {result['correct']}", file=sys.stderr)
                if not result["correct"]:
                    ok = False
                runs.append(result)
            sets.append(runs)

        print(f"\n## {workload} ({args.runs} runs per set, {seconds} s each)\n")
        print("| metric | unit | bound | set | median | q1 | q3 | spread | vs set 1 | verdict |")
        print("|---|---|---|---|---|---|---|---|---|---|")
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            first_median = None
            for k, runs in enumerate(sets):
                values = [r["metrics"][name]["value"] for r in runs]
                med = statistics.median(values)
                q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
                spread = (q3 - q1) / med if med else 0.0
                if first_median is None:
                    first_median = med
                drift = worse_by(metric, first_median, med)
                verdict = "ok"
                if spread > bound:
                    verdict = "SPREAD"
                if abs(drift) > bound:
                    verdict = "DRIFT"
                if verdict != "ok":
                    ok = False
                print(f"| {name} | {metric['unit']} | {bound} | {k + 1} | {med:.6g} | {q1:.6g} | "
                      f"{q3:.6g} | {spread:.1%} | {drift:+.1%} | {verdict} |")
        shares = {sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs) for runs in sets}
        print(f"\nfailed share per set: {sorted(shares)}")
        if len(shares) != 1:
            ok = False
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
