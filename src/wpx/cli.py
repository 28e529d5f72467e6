"""Command-line front end.

Subcommands: ``paths`` (bounded path count), ``waypoints`` (the inevitable
waypoint chain), ``explain`` (the full explanation pipeline), ``check``
(one bounded reachability verdict), ``bench`` (run every bundled benchmark
and diff the structural fields against the expectations file).

Exit codes: 0 classified/answered, 2 input error, 3 resource cap exceeded,
4 internal invariant failure.  ``WPX_LOG`` selects the logging level.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from typing import List, Optional, Tuple

from .explain import ExplanationReport, chain_from_lcs, classify_trivial_chain, explain
from .graph import (
    DEFAULT_PATH_CAP,
    ResourceCapExceeded,
    build_graph,
    enumerate_paths,
    iter_walks,
    lcs_multi,
)
from .model import Plan, PlanningProblem
from .reach import bounded_reachable, extract_witness
from .textio import (
    ParseError,
    parse_model,
    parse_problem,
    plan_json,
    reading,
    serialize_report,
    split_model_line,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CAP = 3
EXIT_INTERNAL = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wpx",
        description="Waypoint-chain explanations for unsolvable bounded "
        "planning problems on linear hybrid automata.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, help_text in (
        ("paths", "count (and optionally list) the bounded discrete paths"),
        ("waypoints", "print the chain of inevitable waypoints"),
        ("explain", "locate the first unreachable waypoint"),
        ("check", "decide bounded reachability of the problem as given"),
        ("bench", "run the bundled benchmarks against the expectations file"),
    ):
        # Each subcommand registers only the flags it honours.
        p = sub.add_parser(name, help=help_text)
        if name != "bench":
            p.add_argument("--model", help="path to the .lha model file")
            p.add_argument("--problem", help="path to the .prob problem file")
            p.add_argument("--depth", type=int, help="override the problem depth")
            p.add_argument("--json", action="store_true", help="JSON output")
        if name != "waypoints":
            p.add_argument(
                "--max-paths", type=int, default=DEFAULT_PATH_CAP,
                help="cap on the walks listed (paths -v) and the concrete "
                "paths decided per reachability check",
            )
        if name in ("explain", "check"):
            p.add_argument(
                "--dump-lp",
                help="directory for the rows of each path a check decides "
                "(explain: one subdirectory per check)",
            )
        if name == "paths":
            p.add_argument("-v", "--verbose", action="store_true", help="list the paths")
    return parser


# WPX_LOG takes these names in any case; unset or empty means warning.
_LOG_LEVELS = ("debug", "info", "warning", "warn", "error", "critical", "fatal", "notset")


def _configure_logging() -> bool:
    """Apply ``WPX_LOG``; False when it names no level."""
    name = (os.environ.get("WPX_LOG") or "warning").lower()
    if name not in _LOG_LEVELS:
        return False
    level = getattr(logging, name.upper())
    logging.basicConfig(level=level, format="%(name)s %(levelname)s %(message)s")
    return True


def _read(path: str) -> str:
    """The text of a UTF-8 file; any other bytes are an input error."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError("not UTF-8 text (%s)" % exc.reason, source=path)


def _load(
    problem_path: Optional[str],
    model_path: Optional[str] = None,
    depth: Optional[int] = None,
) -> Tuple[PlanningProblem, str]:
    """Parse the model and problem; the model path may come from the
    problem file's ``model`` line, resolved relative to the problem file."""
    if problem_path is None:
        raise ParseError("a --problem file is required")
    problem_text = _read(problem_path)

    if model_path is None:
        with reading(problem_path):
            ref, _text = split_model_line(problem_text)
        if ref is None:
            raise ParseError(
                "no --model given and the problem file has no 'model' line",
                source=problem_path,
            )
        model_path = os.path.join(os.path.dirname(problem_path), ref)
    automaton = parse_model(_read(model_path), source=model_path)
    problem = parse_problem(problem_text, automaton, source=problem_path).problem
    if depth is not None:
        if depth < 0:
            raise ParseError("depth must be non-negative")
        problem = PlanningProblem(
            domain=problem.domain, init=problem.init, goal=problem.goal, depth=depth
        )
    name = os.path.splitext(os.path.basename(problem_path))[0]
    return problem, name


def cmd_paths(args: argparse.Namespace) -> int:
    problem, _name = _load(args.problem, args.model, args.depth)
    graph = build_graph(problem.domain)
    init_loc, _ = problem.init
    paths = enumerate_paths(graph, init_loc, problem.goal.location, problem.depth)
    # The count is free; only listing the walks costs, so only it is capped.
    if args.verbose and paths.count > args.max_paths:
        raise ResourceCapExceeded("path listing", args.max_paths)
    walks = iter_walks(graph, init_loc, problem.goal.location, problem.depth)
    if args.json:
        doc = {"path_count": paths.count}
        if args.verbose:
            doc["paths"] = [[problem.domain.location(l).name for l in walk] for walk in walks]
        print(json.dumps(doc, indent=2))
    else:
        print(paths.count)
        if args.verbose:
            for walk in walks:
                print(" ".join(problem.domain.location(l).name for l in walk))
    return EXIT_OK


def cmd_waypoints(args: argparse.Namespace) -> int:
    problem, _name = _load(args.problem, args.model, args.depth)
    graph = build_graph(problem.domain)
    init_loc, _ = problem.init
    paths = enumerate_paths(graph, init_loc, problem.goal.location, problem.depth)
    if paths.count == 0:
        if args.json:
            print(json.dumps({"chain": [], "note": "discrete-infeasible"}))
        else:
            print("discrete-infeasible: no bounded path reaches the goal location")
        return EXIT_OK
    lcs = lcs_multi(paths)
    chain = chain_from_lcs(problem, lcs)
    names = [e.location_name for e in chain]
    trivial = classify_trivial_chain(chain)
    if args.json:
        print(json.dumps({"chain": names, "trivial": trivial}, indent=2))
    else:
        print(" ".join(names))
        if trivial:
            print("note: trivial chain (endpoints only)")
    return EXIT_OK


def _print_plan(plan: Plan) -> None:
    for t, label in plan.steps:
        print("  plan step t=%s %s" % (t, label))
    print("  makespan %s" % plan.makespan)


def _print_text_report(report: ExplanationReport) -> None:
    print("outcome: %s" % report.outcome)
    print("path_count: %d" % report.path_count)
    if report.chain is not None:
        print("chain: %s" % " ".join(e.location_name for e in report.chain))
    for v in report.verdicts:
        print(
            "  %-12s %-11s paths_checked=%d" % (v.location_name, v.reachability, v.paths_checked)
        )
    if report.explanation_name is not None:
        print("explanation: %s" % report.explanation_name)
    plan = report.witness_plan
    if plan is not None:
        _print_plan(plan)
    for note in report.annotations:
        print("note: %s" % note)
    print("timings_ms: " + " ".join("%s=%.2f" % kv for kv in report.timings_ms.items()))


def cmd_explain(args: argparse.Namespace) -> int:
    problem, name = _load(args.problem, args.model, args.depth)
    report = explain(problem, name=name, cap=args.max_paths, dump_dir=args.dump_lp)
    if args.json:
        print(serialize_report(report))
    else:
        _print_text_report(report)
    return EXIT_OK


def cmd_check(args: argparse.Namespace) -> int:
    problem, _name = _load(args.problem, args.model, args.depth)
    verdict = bounded_reachable(problem, cap=args.max_paths, dump_dir=args.dump_lp)
    plan = extract_witness(problem, verdict)[1] if verdict.is_sat else None
    if args.json:
        doc = {"status": verdict.status, "paths_checked": verdict.paths_checked}
        if plan is not None:
            doc["plan"] = plan_json(plan.steps, plan.makespan)
        print(json.dumps(doc, indent=2))
    else:
        print("%s (paths_checked=%d)" % (verdict.status, verdict.paths_checked))
        if plan is not None:
            _print_plan(plan)
    return EXIT_OK


def benchmarks_root() -> str:
    return os.path.join(os.path.dirname(os.path.abspath(__file__)), "benchmarks")


def cmd_bench(args: argparse.Namespace) -> int:
    root = benchmarks_root()
    with open(os.path.join(root, "expectations.json"), encoding="utf-8") as fh:
        expectations = json.load(fh)
    mismatches = 0
    for entry in expectations["rows"]:
        bench_dir = os.path.join(root, entry["dir"])
        problem, name = _load(
            os.path.join(bench_dir, entry["problem"]),
            os.path.join(bench_dir, entry["model"]),
            entry["depth"],
        )
        report = explain(problem, name=name, cap=args.max_paths)
        actual = {
            "path_count": report.path_count,
            "chain_length": len(report.chain) if report.chain else 0,
            "feasible": report.feasible_count,
            "explanation": report.explanation_name,
        }
        row_ok = True
        diffs = []
        for key, expected in entry["expected"].items():
            if expected is None:
                continue
            if actual.get(key) != expected:
                row_ok = False
                diffs.append("%s: expected %r, got %r" % (key, expected, actual.get(key)))
        tag = "ok" if row_ok else "MISMATCH"
        print("%-24s depth=%-3d %s" % (entry["name"], entry["depth"], tag))
        for d in diffs:
            print("    " + d)
        if not row_ok:
            mismatches += 1
    print("%d row(s) diverged from expectations" % mismatches)
    return EXIT_OK


_COMMANDS = {
    "paths": cmd_paths,
    "waypoints": cmd_waypoints,
    "explain": cmd_explain,
    "check": cmd_check,
    "bench": cmd_bench,
}


def main(argv: Optional[List[str]] = None) -> int:
    if not _configure_logging():
        print("input error: WPX_LOG must be one of " + ", ".join(_LOG_LEVELS), file=sys.stderr)
        return EXIT_INPUT
    if hasattr(sys, "set_int_max_str_digits"):
        # Walk counts are exact and uncapped; deep ones run past the default
        # 4,300-digit limit on printing an int.
        sys.set_int_max_str_digits(0)
    args = _build_parser().parse_args(argv)
    if getattr(args, "max_paths", DEFAULT_PATH_CAP) <= 0:
        print("input error: --max-paths must be positive", file=sys.stderr)
        return EXIT_INPUT
    try:
        return _COMMANDS[args.subcommand](args)
    except (ParseError, OSError) as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    except ResourceCapExceeded as exc:
        print("resource cap: %s" % exc, file=sys.stderr)
        return EXIT_CAP
    except AssertionError as exc:
        print("internal invariant failure: %s" % exc, file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
