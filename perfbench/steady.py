#!/usr/bin/env python3
"""Steadiness check for perfbench: two sets of runs of one commit.

Run from the repository root:

    python3 perfbench/steady.py [--runs 10] [--workloads a,b]

For each workload it makes two sets of --runs runs, each run on its own seed
(set 1 uses seeds 1, 2, ...; set 2 uses 101, 102, ...), and prints one row
per workload and end-to-end metric: each set's median, quartiles and spread
(Q3 - Q1) / median against the metric's bound, and the drift, how much worse
the second median is than the first (negative: better). A spread or a drift
in either direction beyond the bound fails, setup_s included. It then
re-checks the output checks on a second seed: one plain run must pass, and
one run fed a corrupted match set (--drop-one-match) must fail. Exits 1 if
any spread, drift or check is out of bounds. Raw results go to
.bench_build/perfbench/steady.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def steal_of(stderr):
    for line in stderr.splitlines():
        if "cpu steal during the run" in line:
            return float(line.rsplit(" ", 1)[1].rstrip("%"))
    return 0.0


def run(workload, seed, seconds, extra=()):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0", *extra]
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True)
    lines = p.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return p.returncode, result, p.stderr


def quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    higher = {m["name"] for m in bench["end_to_end"] if m["better"] == "higher"}
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")

    raw = {}
    ok = True
    for w in workloads:
        sets = []
        shares = []
        for s in range(2):
            runs = []
            for i in range(args.runs):
                seed = 1 + 100 * s + i
                code, res, err = run(w, seed, seconds)
                if code != 0 or res is None:
                    print(f"{w} seed {seed}: exit {code}\n{err[-2000:]}")
                    ok = False
                    continue
                res["steal_pct"] = steal_of(err)
                runs.append(res)
            sets.append(runs)
            att = sum(r["attempted"] for r in runs)
            fl = sum(r["failed"] for r in runs)
            shares.append(fl / att if att else None)
        raw[w] = sets
        steal = [max((r["steal_pct"] for r in runs), default=0)
                 for runs in sets]
        print(f"\n== {w}: failed share per set {shares}; "
              f"highest cpu steal per set {steal} %")
        print(f"{'metric':<14}{'set':>4}{'median':>14}{'q1':>14}{'q3':>14}"
              f"{'spread':>9}{'bound':>7}{'drift':>9}")
        for name, bound in bounds.items():
            meds = []
            for s, runs in enumerate(sets):
                vals = [r["metrics"][name]["value"] for r in runs
                        if name in r["metrics"]]
                if len(vals) < 4:
                    print(f"{name:<14}{s + 1:>4}  too few values")
                    ok = False
                    continue
                q1, med, q3 = quartiles(vals)
                spread = (q3 - q1) / med if med else float("inf")
                meds.append(med)
                drift = ""
                if s > 0 and meds[0]:
                    # Positive when the later set is worse.
                    d = (med - meds[0]) / meds[0]
                    if name in higher:
                        d = -d
                    drift = f"{d:9.3f}"
                    if abs(d) > bound:
                        drift += "  OUT"
                        ok = False
                flag = "" if spread <= bound else "  OUT"
                if flag:
                    ok = False
                print(f"{name:<14}{s + 1:>4}{med:>14.6g}{q1:>14.6g}"
                      f"{q3:>14.6g}{spread:>9.3f}{bound:>7.2f}{drift}{flag}")
        if len(set(shares)) > 1:
            print("failed share differs between sets  OUT")
            ok = False

    print("\n== output checks on a second seed")
    seed = 1001
    for w in workloads:
        code, res, _ = run(w, seed, 1)
        good = code == 0 and res is not None and res["correct"]
        code2, res2, _ = run(w, seed, 1, ["--drop-one-match"])
        caught = code2 != 0 and res2 is not None and not res2["correct"]
        print(f"{w:<18} seed {seed}: clean run "
              f"{'passes' if good else 'FAILS'}; dropped match "
              f"{'caught' if caught else 'NOT CAUGHT'}")
        ok = ok and good and caught

    os.makedirs(os.path.join(".bench_build", "perfbench"), exist_ok=True)
    with open(os.path.join(".bench_build", "perfbench", "steady.json"),
              "w") as f:
        json.dump(raw, f)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
