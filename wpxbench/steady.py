#!/usr/bin/env python3
"""Steadiness check: repeat each workload with distinct seeds and compare
sets of runs against the bounds in ``BENCHMARK.json``.

    python3 wpxbench/steady.py run --runs 10 --first-seed 100 --out set1.json
    python3 wpxbench/steady.py run --runs 10 --first-seed 200 --out set2.json
    python3 wpxbench/steady.py compare set1.json set2.json

``run`` prints, per workload and end-to-end metric, the median, the
quartiles and their spread as a share of the median, next to the metric's
bound, plus the failed share of all operations and the median wall time of
one run, start to exit.  It exits 1 when a spread exceeds its bound or an
operation failed.  ``compare`` exits 1 when a metric's median in the second
set differs from the first, either way, by more than its bound, so two sets
of the same code must agree.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_once(spec: dict, workload: str, seed: int) -> dict:
    argv = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0",
    ]
    if argv[0] in ("python3", "python"):
        argv[0] = sys.executable
    t0 = time.perf_counter()
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall_s = time.perf_counter() - t0
    if done.returncode != 0:
        raise SystemExit("run failed (%d): %s\n%s" % (done.returncode, " ".join(argv), done.stderr))
    return dict(json.loads(done.stdout.strip().splitlines()[-1]), wall_s=wall_s)


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def cmd_run(args) -> int:
    spec = load_spec()
    out = {}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        seeds = [args.first_seed + i for i in range(args.runs)]
        results = []
        for seed in seeds:
            results.append(run_once(spec, workload, seed))
            print(".", end="", file=sys.stderr, flush=True)
        print(file=sys.stderr)
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        print("%s: %d runs, %d operations, fail_frac=%g, median wall time of a run %.1f s" % (
            workload, len(results), attempted, failed / attempted,
            statistics.median(r["wall_s"] for r in results)))
        ok &= failed == 0
        out[workload] = {"seeds": seeds, "runs": results}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in results]
            s = summarize(values)
            within = s["spread"] <= metric["bound"]
            ok &= within
            print("  %-16s %12.4f %-4s q1=%.4f q3=%.4f spread=%.3f bound=%.2f (third %.3f)%s" % (
                name, s["median"], metric["unit"], s["q1"], s["q3"], s["spread"],
                metric["bound"], metric["bound"] / 3, "" if within else "  SPREAD OVER BOUND"))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(out, fh, indent=1)
    return 0 if ok else 1


def cmd_compare(args) -> int:
    spec = load_spec()
    with open(args.first, encoding="utf-8") as fh:
        first = json.load(fh)
    with open(args.second, encoding="utf-8") as fh:
        second = json.load(fh)
    ok = True
    for workload in first:
        if workload not in second:
            continue
        print(workload)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = statistics.median(r["metrics"][name]["value"] for r in first[workload]["runs"])
            b = statistics.median(r["metrics"][name]["value"] for r in second[workload]["runs"])
            worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
            within = abs(worse) <= metric["bound"]
            ok &= within
            print("  %-16s %12.4f -> %12.4f worse by %+.3f (bound %.2f)%s" % (
                name, a, b, worse, metric["bound"], "" if within else "  DISAGREE"))
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = p.add_subparsers(dest="command", required=True)
    r = sub.add_parser("run", help="repeat every workload with distinct seeds")
    r.add_argument("--runs", type=int, default=10)
    r.add_argument("--first-seed", type=int, default=100)
    r.add_argument("--out", default="")
    c = sub.add_parser("compare", help="compare two saved sets of runs")
    c.add_argument("first")
    c.add_argument("second")
    args = p.parse_args(argv)
    return cmd_run(args) if args.command == "run" else cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
