"""The benchmark's workloads: their inputs and the reference each output is
checked against.

``bundle`` is the pinned table in ``src/wpx/benchmarks/expectations.json``;
``relational_unsat`` and ``relational_sat`` are pools of problems built by
``gen`` from the seed, each slot of a pool having a fixed shape so that the
cost of a pass changes little from seed to seed.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

import gen

WORKLOADS = ("bundle", "relational_unsat", "relational_sat")

# The one documented divergence of the pinned table: under the edge-count
# depth convention the monitor at depth 50 has 13 walks, as the row's notes
# explain.  It is checked against 13, not dropped.
DOCUMENTED_DIVERGENCES = {("wlm", 50): {"path_count": 13}}

S = gen.Slot
# Half goal-only, half mid-path infeasibility; 8 to 32 walks per problem.
# Prefix pruning in the LP layer can only help the "mid" half.
UNSAT_SHAPES = (
    S("goal", (3,), (3,), False),
    S("mid", (3, 3), (2,), False, "A"),
    S("goal", (2, 2), (2,), False),
    S("mid", (3,), (3, 2), False, "B"),
    S("goal", (3,), (3,), True),
    S("mid", (2, 2, 2), (2,), True, "A"),
    S("goal", (2,), (2, 2), True),
    S("mid", (2, 2, 2, 2), (2,), False, "A"),
    S("goal", (2, 2), (2,), True),
    S("mid", (3,), (3,), True, "B"),
    S("goal", (2,), (2, 2), False),
    S("mid", (2, 2), (2,), False, "B"),
)
SAT_SHAPES = (
    S("sat", (3,), (3,), False),
    S("sat", (2, 2), (2,), True),
    S("sat", (2, 2), (2, 2), False),
    S("sat", (3, 3), (3,), False),
    S("sat", (3,), (3,), True),
    S("sat", (2, 2, 2), (2,), False),
    S("sat", (2,), (2, 2, 2), True),
    S("sat", (3,), (3, 3), False),
    S("sat", (2, 2), (2, 2), True),
    S("sat", (3,), (2, 2), False),
)
# The cost of one problem changes by about 20% from seed to seed, so a run
# goes through many problems of each shape and its figures average over
# them.  A cycle holds one problem of each shape; runs stop at the end of a
# cycle, so every run has the same mix.
POOLS = {"relational_unsat": (UNSAT_SHAPES, 10), "relational_sat": (SAT_SHAPES, 12)}

@dataclass
class Case:
    name: str
    kind: str  # "bundle", or the generator's "sat" | "goal" | "mid"
    model_text: str
    problem_text: str
    source: str
    expected: Dict[str, object]


def bundle_cases(root: str) -> List[Case]:
    bench = os.path.join(root, "src", "wpx", "benchmarks")
    with open(os.path.join(bench, "expectations.json"), encoding="utf-8") as fh:
        rows = json.load(fh)["rows"]
    cases = []
    for row in rows:
        directory = os.path.join(bench, row["dir"])
        with open(os.path.join(directory, row["model"]), encoding="utf-8") as fh:
            model_text = fh.read()
        with open(os.path.join(directory, row["problem"]), encoding="utf-8") as fh:
            problem_text = fh.read()
        expected = {k: v for k, v in row["expected"].items() if v is not None}
        expected.update(DOCUMENTED_DIVERGENCES.get((row["name"], row["depth"]), {}))
        cases.append(
            Case(
                name="%s_d%d" % (row["name"], row["depth"]),
                kind="bundle",
                model_text=model_text,
                problem_text=problem_text,
                source=os.path.join(directory, row["model"]),
                expected=expected,
            )
        )
    return cases


def generated_cases(workload: str, seed: int) -> List[Case]:
    shapes, copies = POOLS[workload]
    cases = []
    for i, slot in enumerate(shapes * copies):
        name = "%s_%02d" % (slot.kind, i)
        g = gen.generate(slot, seed, name)
        cases.append(Case(name, slot.kind, g.model_text, g.problem_text, name + ".lha", g.expected))
    return cases


def cases(workload: str, seed: int, root: str) -> Tuple[List[Case], int]:
    """The workload's inputs in run order, and the length of its cycle."""
    if workload == "bundle":
        table = bundle_cases(root)
        return table, len(table)
    return generated_cases(workload, seed), len(POOLS[workload][0])


def _reachability(status: str) -> str:
    return "unreachable" if status == "UNSAT" else "reachable"


@dataclass(frozen=True)
class Checker:
    """The wpx functions a check replays a SAT witness with."""

    extract_witness: Callable
    check_witness: Callable


def check(case: Case, doc: dict, report, problem, checker: Checker) -> List[str]:
    """Mismatches between one serialized report and the case's reference.

    ``doc`` is the parsed ``serialize_report`` output.  A SAT witness is
    rebuilt with ``extract_witness`` and replayed through ``check_witness``,
    and the serialized plan must be the plan of that run.
    """
    problems: List[str] = []
    exp = case.expected
    if case.kind == "bundle":
        actual = {
            "path_count": doc["path_count"],
            "chain_length": len(doc["chain"]),
            "feasible": sum(1 for v in doc["verdicts"] if v["status"] == "reachable"),
            "explanation": doc["explanation"]["location"],
        }
        for key, want in exp.items():
            if actual[key] != want:
                problems.append("%s: expected %r, got %r" % (key, want, actual[key]))
    else:
        want_verdicts = [
            (loc, _reachability(status)) for loc, status in zip(exp["chain"], exp["statuses"])
        ]
        got_verdicts = [(v["location"], v["status"]) for v in doc["verdicts"]]
        actual = {
            "outcome": doc["explanation"]["outcome"],
            "path_count": doc["path_count"],
            "chain": doc["chain"],
            "verdicts": got_verdicts,
            "explanation": doc["explanation"]["location"],
        }
        want = dict(
            (k, exp[k]) for k in ("outcome", "path_count", "chain", "explanation")
        )
        want["verdicts"] = want_verdicts
        for key in want:
            if actual[key] != want[key]:
                problems.append("%s: expected %r, got %r" % (key, want[key], actual[key]))
        if case.kind == "mid" and doc["verdicts"]:
            checked = doc["verdicts"][-1]["paths_checked"]
            if checked != exp["exhaustive_paths"]:
                problems.append(
                    "paths_checked: expected %d, got %d" % (exp["exhaustive_paths"], checked)
                )
        if (case.kind == "sat") != ("witness_plan" in doc):
            problems.append("witness_plan present: %s" % ("witness_plan" in doc))
    verdict = report.witness_verdict
    if verdict is not None and verdict.is_sat:
        problems.extend(_check_witness(doc, problem, verdict, checker))
    return problems


def _check_witness(doc, problem, verdict, checker: Checker) -> List[str]:
    run, _plan = checker.extract_witness(problem, verdict)
    violations = checker.check_witness(problem.domain, problem.init, problem.goal, run)
    problems = ["witness: " + v for v in violations]
    plan: Optional[dict] = doc.get("witness_plan")
    if plan is None:
        return problems + ["SAT report without witness_plan"]
    elapsed = Fraction(0)
    steps = []
    for seg, tid in zip(run.segments, run.transitions):
        elapsed += seg.dwell
        steps.append((elapsed, problem.domain.transitions[tid].label))
    makespan = elapsed + run.segments[-1].dwell
    got = [(Fraction(str(t)), label) for t, label in plan["steps"]]
    if got != steps or Fraction(str(plan["makespan"])) != makespan:
        problems.append("serialized witness_plan differs from the replayed run")
    return problems
