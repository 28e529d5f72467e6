"""End-to-end explanation of unsolvable bounded planning problems.

Pipeline: count the bounded path set of the discrete abstraction and
reduce it to the chain of inevitable waypoints via the multi-string LCS,
both symbolically (the walks are never listed), then walk the chain with
the widened sub-problems until the first waypoint whose bounded
reachability check comes back infeasible.  The chain is a tuple of
entries, one sub-problem per inevitable waypoint; an entry's position is
its index.  Four mutually exclusive outcomes cover every case, including
the degenerate ones where the discrete abstraction already fails or where
the original problem turns out to be solvable after all.
"""

from __future__ import annotations

import logging
import os
import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from .graph import DEFAULT_PATH_CAP, LcsResult, build_graph, enumerate_paths, lcs_multi
from .model import HybridAutomaton, PlanningProblem, alpha
from .reach import BoxSteps, Verdict, bounded_reachable

OUTCOME_DISCRETE_INFEASIBLE = "DiscreteInfeasible"
OUTCOME_FIRST_UNREACHABLE = "FirstUnreachableWaypoint"
OUTCOME_NO_WAYPOINT = "NoWaypointExplanation"
OUTCOME_SOLVABLE = "SolvableContradiction"

# The note each outcome adds to a report; a first unreachable waypoint needs
# none, as the report names it.
OUTCOME_NOTES = {
    OUTCOME_DISCRETE_INFEASIBLE: "no bounded discrete path reaches the goal location",
    OUTCOME_SOLVABLE: "the problem is solvable; no explanation exists",
    OUTCOME_NO_WAYPOINT: "every inevitable waypoint is reachable but the exact goal is not",
}

STATUS_SAT = "SAT"

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ChainEntry:
    location: int
    location_name: str
    problem: PlanningProblem


def chain_from_lcs(problem: PlanningProblem, lcs: LcsResult) -> Tuple[ChainEntry, ...]:
    """Entry i is the sub-problem whose goal is the invariant of symbol i.

    The LCS holds each location once (see ``wpx.graph.lcs_multi``); a
    repeated symbol would give duplicate sub-problems and is rejected.
    """
    if not lcs.sequence:
        raise ValueError("empty LCS")
    if len(set(lcs.sequence)) != len(lcs.sequence):
        raise ValueError("LCS repeats a location: %r" % (lcs.sequence,))
    return tuple(
        ChainEntry(
            location=sym,
            location_name=problem.domain.location(sym).name,
            problem=alpha(problem, sym),
        )
        for sym in lcs.sequence
    )


@dataclass(frozen=True)
class WaypointVerdict:
    location_name: str
    status: str
    paths_checked: int

    @property
    def reachability(self) -> str:
        """The status as reports print it."""
        return "reachable" if self.status == STATUS_SAT else "unreachable"


@dataclass(frozen=True)
class ExplanationReport:
    problem_name: str
    problem: PlanningProblem
    outcome: str
    path_count: int
    chain: Optional[Tuple[ChainEntry, ...]]
    verdicts: Tuple[WaypointVerdict, ...]
    explanation_name: Optional[str]
    witness_verdict: Optional[Verdict]
    timings_ms: Dict[str, float] = field(default_factory=dict)
    annotations: Tuple[str, ...] = ()

    @property
    def feasible_count(self) -> int:
        """Reachable chain entries."""
        return sum(1 for v in self.verdicts if v.status == STATUS_SAT)

    # Computed on each access: wpxbench/tests/test_run.py pins the number of
    # extract_witness calls per SAT report.
    @property
    def witness_plan(self):
        if self.witness_verdict is None or not self.witness_verdict.is_sat:
            return None
        from .reach import extract_witness

        _run, plan = extract_witness(self.problem, self.witness_verdict)
        return plan


def classify_trivial_chain(chain: Tuple[ChainEntry, ...]) -> bool:
    """A chain holding only the endpoints carries no interior waypoint and
    therefore cannot localize a cause beyond the goal itself."""
    return len(chain) <= 2


def _dead_note(automaton: HybridAutomaton, goal: str, verdict: Verdict) -> str:
    """The note naming each dead constraint of an UNSAT ``verdict`` and
    where it sits: ``goal`` names its goal region, and a guard is named by
    its transition."""
    parts = []
    for where, constraint in verdict.dead:
        if where is None:
            place = goal
        else:
            trans = automaton.transitions[where]
            place = "guard of %s -> %s" % (
                automaton.location(trans.source).name, automaton.location(trans.target).name
            )
        parts.append("%s: %s holds in no reachable state at any depth" % (place, constraint))
    return "; ".join(parts) + " (it fails at init, and no flow or jump makes it hold)"


def explain(
    problem: PlanningProblem,
    name: str = "problem",
    cap: int = DEFAULT_PATH_CAP,
    dump_dir: Optional[str] = None,
) -> ExplanationReport:
    """Locate the first unreachable inevitable waypoint of ``problem``.

    The chain entries, the initial location's included, are checked in
    chain order and, once every one of them is reachable, the exact goal
    last.  Each check is one ``bounded_reachable`` call over a shared box
    pass, so a reachable entry rests on a witness run that
    ``check_witness`` replayed.  ``dump_dir`` gets one subdirectory per
    check: ``<position>_<location>`` for a chain entry and ``goal`` for the
    exact goal.  ``cap`` bounds the concrete paths each check decides; the
    walk count is never capped.  When every path of the deciding UNSAT
    check holds a dead constraint (``Verdict.dead``), a note names it.
    """
    timings = dict.fromkeys(("path_enumeration", "lcs", "reachability"), 0.0)
    init_loc, _ = problem.init
    graph = build_graph(problem.domain)

    t0 = time.perf_counter()
    paths = enumerate_paths(graph, init_loc, problem.goal.location, problem.depth)
    timings["path_enumeration"] = (time.perf_counter() - t0) * 1000.0

    chain: Optional[Tuple[ChainEntry, ...]] = None
    verdicts = []
    if paths.count == 0:
        outcome = OUTCOME_DISCRETE_INFEASIBLE
    else:
        t1 = time.perf_counter()
        lcs = lcs_multi(paths)
        chain = chain_from_lcs(problem, lcs)
        timings["lcs"] = (time.perf_counter() - t1) * 1000.0

        t2 = time.perf_counter()
        # Every check differs only in its goal, so they share one box pass.
        box = BoxSteps(problem)

        def check(label: str, subdir: str, sub: PlanningProblem) -> Verdict:
            dump = None if dump_dir is None else os.path.join(dump_dir, subdir)
            verdict = bounded_reachable(sub, cap=cap, dump_dir=dump, box=box)
            log.info("check %s: %s paths_checked=%d", label, verdict.status, verdict.paths_checked)
            return verdict

        for position, entry in enumerate(chain):
            where = (position, entry.location_name)
            verdict = check("%d %s" % where, "%d_%s" % where, entry.problem)
            verdicts.append(
                WaypointVerdict(entry.location_name, verdict.status, verdict.paths_checked)
            )
            if not verdict.is_sat:
                outcome = OUTCOME_FIRST_UNREACHABLE
                goal = "invariant of waypoint " + entry.location_name
                break
        else:
            goal = "goal " + problem.domain.location(problem.goal.location).name
            verdict = check(goal, "goal", problem)
            outcome = OUTCOME_SOLVABLE if verdict.is_sat else OUTCOME_NO_WAYPOINT
        timings["reachability"] = (time.perf_counter() - t2) * 1000.0

    annotations = ()
    if chain is not None and classify_trivial_chain(chain):
        annotations = ("chain is trivial (endpoints only)",)
    if outcome in OUTCOME_NOTES:
        annotations += (OUTCOME_NOTES[outcome],)
    if chain is not None and verdict.dead:
        annotations += (_dead_note(problem.domain, goal, verdict),)
    return ExplanationReport(
        problem_name=name,
        problem=problem,
        outcome=outcome,
        path_count=paths.count,
        chain=chain,
        verdicts=tuple(verdicts),
        explanation_name=(
            verdicts[-1].location_name if outcome == OUTCOME_FIRST_UNREACHABLE else None
        ),
        witness_verdict=verdict if outcome == OUTCOME_SOLVABLE else None,
        timings_ms=timings,
        annotations=annotations,
    )
