#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs two sets of runs (A and B) of the same checkout, interleaved run by
run (A B, then B A, ...) for every workload, so host drift hits both sets
alike. For every end-to-end metric it prints each set's median and
quartiles, the spread (interquartile distance over the median) and how far
set B's median moved from set A's, and says whether both stay within the
metric's bound in BENCHMARK.json. It also checks that the share of failed
operations is the same in both sets.

Run from the repository root:

    python3 skybench/steady.py --runs 10
    python3 skybench/steady.py --runs 5 --workloads pr-tcp

Set A uses seeds 1..N, set B seeds 101..100+N. Every run's JSON line is
appended to .bench_build/steady/<timestamp>.jsonl. Exits 1 if any check
fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def load_bench(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(root, bench, workload, seed, seconds):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    p = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True, timeout=900)
    if p.returncode != 0:
        sys.stderr.write(p.stderr)
        raise RuntimeError(f"{workload} seed {seed} exited {p.returncode}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def spread(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    ap.add_argument("--workloads", default="", help="comma-separated subset (default: all)")
    args = ap.parse_args()

    root = os.getcwd()
    bench = load_bench(root)
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")
    metrics = bench["end_to_end"]

    os.makedirs(os.path.join(root, ".bench_build", "steady"), exist_ok=True)
    log_path = os.path.join(root, ".bench_build", "steady", time.strftime("%Y%m%dT%H%M%S") + ".jsonl")
    results = {w: {"A": [], "B": []} for w in workloads}
    with open(log_path, "a") as log:
        for i in range(args.runs):
            for w in workloads:
                order = ("A", "B") if i % 2 == 0 else ("B", "A")
                for s in order:
                    seed = (1 if s == "A" else 101) + i
                    t0 = time.time()
                    res = run_once(root, bench, w, seed, seconds)
                    took = time.time() - t0
                    results[w][s].append(res)
                    log.write(json.dumps({"workload": w, "set": s, "seed": seed,
                                          "wall_s": took, "result": res}) + "\n")
                    log.flush()
                    print(f"run {i + 1}/{args.runs} {w} set {s} seed {seed}: {took:.1f}s "
                          f"attempted {res['attempted']} failed {res['failed']}", file=sys.stderr)

    ok = True
    print(f"# steadiness: {args.runs} runs per set, {seconds}s each")
    for w in workloads:
        print(f"\n## {w}\n")
        print("| metric | unit | A median | A q1–q3 | A spread | B median | B q1–q3 | B spread | B vs A | bound | verdict |")
        print("|---|---|---|---|---|---|---|---|---|---|---|")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            a = [r["metrics"][name]["value"] for r in results[w]["A"]]
            b = [r["metrics"][name]["value"] for r in results[w]["B"]]
            am, aq1, aq3, asp = spread(a)
            bm, bq1, bq3, bsp = spread(b)
            shift = (bm - am) / am if am else 0.0
            worse = shift if m["better"] == "lower" else -shift
            good = worse <= bound
            if name != "setup_s":
                good = good and asp <= bound and bsp <= bound
            ok = ok and good
            print(f"| {name} | {m['unit']} | {am:.6g} | {aq1:.6g}–{aq3:.6g} | {asp:.3f} "
                  f"| {bm:.6g} | {bq1:.6g}–{bq3:.6g} | {bsp:.3f} | {shift:+.3f} "
                  f"| {bound} | {'ok' if good else 'FAIL'} |")
        shares = {}
        for s in ("A", "B"):
            att = sum(r["attempted"] for r in results[w][s])
            fail = sum(r["failed"] for r in results[w][s])
            shares[s] = (fail, att)
        same = shares["A"][0] * shares["B"][1] == shares["B"][0] * shares["A"][1]
        correct = all(r["correct"] for s in ("A", "B") for r in results[w][s])
        ok = ok and same and correct
        print(f"\nfailed/attempted: A {shares['A'][0]}/{shares['A'][1]}, "
              f"B {shares['B'][0]}/{shares['B'][1]} ({'same share' if same else 'SHARES DIFFER'}); "
              f"all correct: {correct}")
    print(f"\nraw results: {os.path.relpath(log_path, root)}")
    print("verdict:", "steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
