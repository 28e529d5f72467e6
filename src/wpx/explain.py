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
from .model import PlanningProblem, alpha
from .reach import BoxSteps, Verdict, bounded_reachable

OUTCOME_DISCRETE_INFEASIBLE = "DiscreteInfeasible"
OUTCOME_FIRST_UNREACHABLE = "FirstUnreachableWaypoint"
OUTCOME_NO_WAYPOINT = "NoWaypointExplanation"
OUTCOME_SOLVABLE = "SolvableContradiction"

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


def explain(
    problem: PlanningProblem,
    name: str = "problem",
    cap: int = DEFAULT_PATH_CAP,
    dump_dir: Optional[str] = None,
) -> ExplanationReport:
    """Locate the first unreachable inevitable waypoint of ``problem``.

    Every chain entry, the initial location's included, is decided by
    ``bounded_reachable`` over one shared box pass, so a reachable entry
    rests on a witness run that ``check_witness`` replayed.  ``dump_dir``
    gets one subdirectory per reachability check: ``<position>_<location>``
    for a chain entry and ``goal`` for the final check of the exact goal.
    ``cap`` bounds the concrete paths each check decides; the walk count is
    never capped.
    """

    def dump_subdir(name: str) -> Optional[str]:
        return None if dump_dir is None else os.path.join(dump_dir, name)

    annotations = []
    timings: Dict[str, float] = {}
    init_loc, _ = problem.init
    graph = build_graph(problem.domain)

    t0 = time.perf_counter()
    paths = enumerate_paths(graph, init_loc, problem.goal.location, problem.depth)
    timings["path_enumeration"] = (time.perf_counter() - t0) * 1000.0

    chain: Optional[Tuple[ChainEntry, ...]] = None
    verdicts = []
    failed: Optional[str] = None
    witness_verdict: Optional[Verdict] = None
    if paths.count == 0:
        outcome = OUTCOME_DISCRETE_INFEASIBLE
        timings["lcs"] = 0.0
        timings["reachability"] = 0.0
        annotations.append("no bounded discrete path reaches the goal location")
    else:
        t1 = time.perf_counter()
        lcs = lcs_multi(paths)
        chain = chain_from_lcs(problem, lcs)
        timings["lcs"] = (time.perf_counter() - t1) * 1000.0
        if classify_trivial_chain(chain):
            annotations.append("chain is trivial (endpoints only)")

        t2 = time.perf_counter()
        # Every check below differs only in its goal, so they share one
        # box pass.
        box = BoxSteps(problem)
        for position, entry in enumerate(chain):
            verdict = bounded_reachable(
                entry.problem,
                cap=cap,
                dump_dir=dump_subdir("%d_%s" % (position, entry.location_name)),
                box=box,
            )
            log.info(
                "check %d %s: %s paths_checked=%d",
                position, entry.location_name, verdict.status, verdict.paths_checked,
            )
            verdicts.append(
                WaypointVerdict(
                    location_name=entry.location_name,
                    status=verdict.status,
                    paths_checked=verdict.paths_checked,
                )
            )
            if not verdict.is_sat:
                failed = entry.location_name
                break

        if failed is not None:
            outcome = OUTCOME_FIRST_UNREACHABLE
        else:
            # Every waypoint is reachable: decide the original exact-goal problem.
            final = bounded_reachable(
                problem, cap=cap, dump_dir=dump_subdir("goal"), box=box
            )
            log.info(
                "check goal %s: %s paths_checked=%d",
                problem.domain.location(problem.goal.location).name,
                final.status, final.paths_checked,
            )
            if final.is_sat:
                outcome = OUTCOME_SOLVABLE
                witness_verdict = final
                annotations.append("the problem is solvable; no explanation exists")
            else:
                outcome = OUTCOME_NO_WAYPOINT
                annotations.append(
                    "every inevitable waypoint is reachable but the exact goal is not"
                )
        timings["reachability"] = (time.perf_counter() - t2) * 1000.0

    return ExplanationReport(
        problem_name=name,
        problem=problem,
        outcome=outcome,
        path_count=paths.count,
        chain=chain,
        verdicts=tuple(verdicts),
        explanation_name=failed,
        witness_verdict=witness_verdict,
        timings_ms=timings,
        annotations=tuple(annotations),
    )
