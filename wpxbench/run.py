#!/usr/bin/env python3
"""Benchmark of ``wpx explain --json``, run in-process from outside the
package.

    python3 wpxbench/run.py --workload bundle --seed 1 --seconds 20 --trace 0

Run from the repository root.  One operation is ``explain(problem)``
followed by ``serialize_report(report)``; one client runs operations in a
closed loop on one thread, in whole cycles over the workload's inputs,
until ``--seconds`` have gone by.  Each output is checked against the
workload's reference outside the timed span.

``--trace 0`` prints the end-to-end metrics, as times on the host at its
reference speed (see ``speed``).  ``--trace 1`` runs one warm-up cycle,
then runs each operation twice, untraced and with spans around every layer,
in alternating order, and prints the per-layer metrics and the tracing
overhead; the spans are written to ``.bench_out/``.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 1
# Cold set-ups, each in a fresh interpreter, whose median is setup_s.  They
# are spread evenly over the run, so that they sample the host over the
# whole run rather than over the few seconds at its start.
SETUP_PROBES = 5
# The bundle's wa6x6 d17 row is 1 of 14 operations and ~85% of a cycle.
# With at least 11 cycles the 10 samples beyond the tail are all that row,
# so the tail reads that row's latency instead of jumping between rows as
# the cycle count changes.
MIN_CYCLES = {"bundle": 11, "relational_unsat": 1, "relational_sat": 1}
OUT_DIR = os.path.join(ROOT, ".bench_out")
END_TO_END_UNITS = {
    "setup_s": "s",
    "explain_per_s": "1/s",
    "explain_p50_ms": "ms",
    "explain_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


class SetupProbes:
    """Cold set-ups of one workload, each a run of ``setup_probe.py`` in a
    fresh interpreter, which times them at the reference speed."""

    def __init__(self, workload: str, seed: int) -> None:
        self.argv = [sys.executable, os.path.join(HERE, "setup_probe.py"), workload, str(seed)]
        self.results = []

    def __call__(self) -> None:
        done = subprocess.run(self.argv, capture_output=True, text=True, timeout=60, check=True)
        self.results.append(json.loads(done.stdout))

    def median(self, key: str) -> float:
        """The median of one figure over the probes run."""
        return statistics.median(p[key] for p in self.results)


def setup(cases):
    """Import wpx and parse every input: (wpx, problems)."""
    import wpx

    problems = [
        wpx.parse_problem(c.problem_text, wpx.parse_model(c.model_text, c.source)).problem
        for c in cases
    ]
    return wpx, problems


class Ops:
    """Results of the operations run so far."""

    def __init__(self) -> None:
        self.latencies = []
        self.raw_latencies = []
        # The start and end of each operation, when a sampler runs.
        self.bounds = []
        self.attempted = 0
        self.failed = 0
        self.elapsed = 0.0
        self.messages = []

    @property
    def verified(self) -> int:
        return self.attempted - self.failed

    def per_s(self) -> float:
        return self.verified / sum(self.latencies)


def run_ops(wpx, checker, cases, problems, cycle, seconds, min_ops, probe=None, probes=0) -> Ops:
    """Run whole cycles of operations, each timed at the reference speed,
    until ``seconds`` have gone by and at least ``min_ops`` are done.
    Between cycles ``probe`` is called ``probes`` times, first before any
    operation and then at even intervals; its time does not count toward
    ``seconds``."""
    result = Ops()
    sampler = speed.Sampler()
    paused = 0.0
    start = time.perf_counter()
    sampler.start()
    try:
        while True:
            measured = time.perf_counter() - start - paused
            due = probe is not None and len(probe.results) < probes
            if due and measured >= len(probe.results) * seconds / probes:
                t0 = time.perf_counter()
                sampler.stop()
                probe()
                sampler.start()
                paused += time.perf_counter() - t0
            elif result.attempted >= min_ops and measured >= seconds:
                break
            else:
                run_cycle(wpx, checker, cases, problems, cycle, result, sampler=sampler)
    finally:
        sampler.stop()
    while probe is not None and len(probe.results) < probes:
        probe()
    result.elapsed = measured
    result.latencies = [
        speed.scaled(latency, sampler.speed(t0, t1))
        for latency, (t0, t1) in zip(result.raw_latencies, result.bounds)
    ]
    return result


def run_traced(wpx, checker, cases, problems, cycle, seconds, tracer):
    """One warm-up cycle, then every operation twice, once untraced (A) and
    once traced (B), in the order A B B A A B B A ...  Both sides run the
    same inputs back to back, so they see the same warm-up and drift.  Stops
    when both sides have done whole cycles and ``seconds`` have gone by:
    (warm-up, untraced, traced) results."""
    warm, plain, traced = Ops(), Ops(), Ops()
    run_cycle(wpx, checker, cases, problems, cycle, warm)
    start = time.perf_counter()
    i = 0
    while i == 0 or i % (2 * cycle) or time.perf_counter() - start < seconds:
        if i % 4 in (1, 2):
            tracer.install()
            try:
                run_cycle(wpx, checker, cases, problems, 1, traced, tracer)
            finally:
                tracer.restore()
        else:
            run_cycle(wpx, checker, cases, problems, 1, plain)
        i += 1
    return warm, plain, traced


def run_cycle(wpx, checker, cases, problems, cycle, result, tracer=None, sampler=None) -> None:
    """Run ``cycle`` operations into ``result``, going over ``cases`` in
    order and wrapping around.  Every output is checked outside its timed
    span.  Time spent in ``sampler`` is taken out of the latencies, and the
    bounds of each operation are kept for scaling them."""
    explain, serialize_report = wpx.explain, wpx.serialize_report
    span = tracer.span if tracer is not None else _no_span
    for _ in range(cycle):
        index = result.attempted % len(cases)
        case, problem = cases[index], problems[index]
        if tracer is not None:
            tracer.op = result.attempted
        report = text = None
        stolen = sampler.stolen if sampler is not None else 0.0
        t0 = time.perf_counter()
        try:
            with span("op"):
                with span("explain"):
                    report = explain(problem, name=case.name)
                with span("textio.serialize"):
                    text = serialize_report(report)
        except Exception:  # counted as a failed operation; the loop goes on
            error = traceback.format_exc(limit=3)
        else:
            error = None
        t1 = time.perf_counter()
        latency = t1 - t0
        if sampler is not None:
            latency -= sampler.stolen - stolen
            result.bounds.append((t0, t1))
        result.raw_latencies.append(latency)
        result.latencies.append(latency)
        result.attempted += 1
        if error is None:
            mismatches = workloads.check(case, json.loads(text), report, problem, checker)
        else:
            mismatches = [error]
        if mismatches:
            result.failed += 1
            if len(result.messages) < 5:
                result.messages.append("%s: %s" % (case.name, "; ".join(mismatches)))


def _no_span(name):
    return contextlib.nullcontext()


def tail(latencies):
    """The highest percentile with at least 10 samples beyond it:
    (value, percentile, sample count)."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "wpx", "__init__.py")):
        print("error: wpx sources not found under %s" % src, file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    probe = SetupProbes(args.workload, args.seed)
    cases, cycle = workloads.cases(args.workload, args.seed, ROOT)
    wpx, problems = setup(cases)
    # Taken before any wrapper is installed, so checks leave no spans.
    checker = workloads.Checker(sys.modules["wpx.reach"].extract_witness, wpx.check_witness)
    if not os.path.abspath(wpx.__file__).startswith(src + os.sep):
        print("error: imported wpx from %s, not from %s" % (wpx.__file__, src), file=sys.stderr)
        return 2

    if args.trace:
        tracer = spans.Tracer()
        warm, plain, traced = run_traced(wpx, checker, cases, problems, cycle, args.seconds, tracer)
        kinds = {i: cases[i % len(cases)].kind for i in range(traced.attempted)}
        metrics = spans.layer_metrics(tracer.spans, kinds)
        for _ in range(SETUP_PROBES):
            probe()
        # Unscaled, as are the spans.
        metrics["textio.parse_s"] = probe.median("unscaled_parse_s")
        metrics["trace.explain_per_s_untraced"] = plain.per_s()
        metrics["trace.explain_per_s_traced"] = traced.per_s()
        metrics["trace.overhead_per_s"] = plain.per_s() - traced.per_s()
        os.makedirs(OUT_DIR, exist_ok=True)
        out = os.path.join(OUT_DIR, "spans-%s-seed%d.json" % (args.workload, args.seed))
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
        runs = (warm, plain, traced)
        units = spans.UNITS
        print("workload=%s seed=%d traced_ops=%d spans=%d -> %s" % (
            args.workload, args.seed, traced.attempted, len(tracer.spans), out))
    else:
        min_ops = cycle * MIN_CYCLES[args.workload]
        result = run_ops(
            wpx, checker, cases, problems, cycle, args.seconds, min_ops, probe, SETUP_PROBES)
        value, pct, n = tail(result.latencies)
        metrics = {
            "setup_s": probe.median("setup_s"),
            "explain_per_s": result.per_s(),
            "explain_p50_ms": 1000.0 * statistics.median(result.latencies),
            "explain_tail_ms": 1000.0 * value,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        runs = (result,)
        units = END_TO_END_UNITS
        print("workload=%s seed=%d ops=%d seconds=%.1f fail_frac=%g tail=p%.1f of %d samples"
              " unscaled_p50_ms=%.4g unscaled/scaled=%.3g" % (
                  args.workload, args.seed, result.attempted, result.elapsed,
                  result.failed / result.attempted, pct, n,
                  1000.0 * statistics.median(result.raw_latencies),
                  sum(result.raw_latencies) / sum(result.latencies)))

    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    for r in runs:
        for message in r.messages:
            print("mismatch: " + message, file=sys.stderr)
    for name, value in metrics.items():
        print("  %-32s %14.6g %s" % (name, value, units[name]))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
