#!/usr/bin/env python3
"""Steadiness check for the repo benchmark.

    python3 perfbench/steady.py [--runs 10] [--sets 2] [--seed 1]
                                [--workloads a,b]

Runs every workload of BENCHMARK.json `--runs` times per set, for `--sets`
sets, each run for the file's run_seconds.  Every run of set k uses seed
`--seed` + k, so a set repeats one seed and each later set runs another.

For each workload, set and end-to-end metric it prints the median and
quartiles (statistics.quantiles, n=4) and the spread (Q3 - Q1) / median,
and checks:
  - every spread is within the metric's bound;
  - every later set's median is not worse than the first set's by more
    than the bound;
  - every run exited 0 with "correct": true.
It also counts determinism-digest mismatches between the runs of a set,
which share a seed (reported, not gated).  Exit code 1 if a check fails.
Run from the root of a checkout.
"""
import argparse
import collections
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DIGEST = re.compile(r"^digest (\S+) seed=(\d+) pass=(\S+) cycle=(\d+) (\w+)$")


def run_once(spec, workload, seed, seconds):
    cmd = list(spec["command"]) + ["--workload", workload, "--seed", str(seed),
                                   "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    digests = [m.groups() for m in map(DIGEST.match, lines) if m]
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return p.returncode, result, digests, p.stderr


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--sets", type=int, default=2)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--workloads", default="")
    args = p.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        names = [n for n in names if n in args.workloads.split(",")]
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    ok = True
    for w in names:
        sets = []
        digests = collections.defaultdict(set)
        for k in range(args.sets):
            values = collections.defaultdict(list)
            seed = args.seed + k
            for _ in range(args.runs):
                code, result, dig, err = run_once(spec, w, seed, seconds)
                good = code == 0 and result and result.get("correct")
                if not good:
                    ok = False
                    print("%s seed %d: FAILED (exit %d) %s" %
                          (w, seed, code, err.strip()[-300:]))
                if result:
                    for name, m in result["metrics"].items():
                        values[name].append(m["value"])
                for wl, s, ps, c, h in dig:
                    digests[(wl, s, ps, c)].add(h)
                print("%s set %d seed %d: exit %d, attempted %s, failed %s" %
                      (w, k + 1, seed, code, result and result["attempted"],
                       result and result["failed"]), flush=True)
                if result:
                    print("   " + " ".join(
                        "%s=%.4g" % (n, result["metrics"][n]["value"])
                        for n in metrics if n in result["metrics"]))
            sets.append(values)

        print("\n== %s (%d runs x %d sets, %gs each)" %
              (w, args.runs, args.sets, seconds))
        print("  %-22s %4s %12s %12s %12s %8s %6s  %s" %
              ("metric", "set", "median", "q1", "q3", "spread", "bound",
               "check"))
        for name, m in metrics.items():
            first = None
            for k, values in enumerate(sets):
                vals = values.get(name, [])
                if len(vals) < 2:
                    print("  %-22s %4d  missing" % (name, k + 1))
                    ok = False
                    continue
                med, q1, q3, spread = summarize(vals)
                verdict = []
                if spread > m["bound"]:
                    verdict.append("SPREAD")
                if first is None:
                    first = med
                else:
                    worse = (med - first) / first if m["better"] == "lower" \
                        else (first - med) / first
                    if worse > m["bound"]:
                        verdict.append("DRIFT %+.3f" % worse)
                ok = ok and not verdict
                print("  %-22s %4d %12.6g %12.6g %12.6g %8.4f %6.3f  %s" %
                      (name, k + 1, med, q1, q3, spread, m["bound"],
                       " ".join(verdict) or "ok"))
        mismatched = sum(1 for hs in digests.values() if len(hs) > 1)
        print("  determinism digests: %d seed/pass/cycle keys, %d with "
              "mismatches across repeats (not gated)" %
              (len(digests), mismatched))
    print("\nsteadiness:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
