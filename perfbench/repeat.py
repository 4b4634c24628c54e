#!/usr/bin/env python3
"""Repeat check: run sets of benchmark runs of one commit and compare them.

    python3 perfbench/repeat.py [--sets 2] [--runs 10]

Every set runs every workload of BENCHMARK.json --runs times, each run
run_seconds long and with a seed of its own: run i of set s uses seed
1000·(s+1) + i. The sets are interleaved run by run, and the order of the
sets turns with every run index, so drift of the host's speed lands on all
sets alike instead of on the set that runs last.

Per workload and end-to-end metric the report gives each set's median and
its spread, the distance between the first and third quartile as a share of
the median (statistics.quantiles, n=4). It flags a spread above the metric's
bound in BENCHMARK.json (setup_s excepted), a set whose median differs from
the first set's by more than the bound in either direction, a share of
failed operations that differs between runs, and any run that reports
incorrect output. It exits 1 if anything is flagged. Raw results are
written to the build directory.
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
    res = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        sys.stderr.write(res.stderr)
        raise SystemExit(f"repeat: {workload} seed {seed} exited {res.returncode}")
    return json.loads(lines[-1])


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()

    metrics = {m["name"]: m for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]
    results = {w: {s: [] for s in range(args.sets)} for w in workloads}
    for i in range(args.runs):
        order = [(i + k) % args.sets for k in range(args.sets)]
        for w in workloads:
            for s in order:
                seed = 1000 * (s + 1) + i
                res = run_once(w, seed, bench["run_seconds"])
                results[w][s].append(res)
                print(f"set {s} {w} seed {seed}: attempted={res['attempted']} failed={res['failed']} "
                      + " ".join(f"{k}={v['value']:.6g} {v['unit']}" for k, v in sorted(res["metrics"].items())),
                      flush=True)

    flagged = []
    print()
    print(f"{'workload':<11} {'metric':<16} {'bound':>6} " + " ".join(
        f"{'median' + str(s):>12} {'spread' + str(s):>8}" for s in range(args.sets)))
    for w, sets in results.items():
        shares = {r["failed"] / r["attempted"] for runs in sets.values() for r in runs}
        if len(shares) != 1:
            flagged.append(f"{w}: failed share differs between runs: {sorted(shares)}")
        for runs in sets.values():
            for r in runs:
                if not r["correct"]:
                    flagged.append(f"{w}: a run reported incorrect output")
        for name, m in metrics.items():
            cols, medians = [], []
            for s in range(args.sets):
                vals = [r["metrics"][name]["value"] for r in sets[s]]
                med, sp = statistics.median(vals), spread(vals)
                medians.append(med)
                cols.append(f"{med:>12.6g} {sp:>8.3f}")
                if name != "setup_s" and sp > m["bound"]:
                    flagged.append(f"{w} {name}: set {s} spread {sp:.3f} above bound {m['bound']}")
            for s in range(1, args.sets):
                if abs(medians[s] - medians[0]) / medians[0] > m["bound"]:
                    flagged.append(f"{w} {name}: set {s} median {medians[s]:.6g} differs from "
                                   f"{medians[0]:.6g} by more than {m['bound']}")
            print(f"{w:<11} {name:<16} {m['bound']:>6} " + " ".join(cols))

    out_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    os.makedirs(out_dir, exist_ok=True)
    out = os.path.join(out_dir, time.strftime("repeat-%Y%m%dT%H%M%S.json"))
    with open(out, "w") as f:
        json.dump(results, f, indent=1)
    print(f"\nraw results: {out}")
    for line in flagged:
        print("FLAGGED:", line)
    sys.exit(1 if flagged else 0)


if __name__ == "__main__":
    main()
