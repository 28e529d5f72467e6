"""Explainer outcomes, ordering, and instrumentation."""

import pytest

from conftest import load_benchmark
from wpx.explain import (
    OUTCOME_DISCRETE_INFEASIBLE,
    OUTCOME_FIRST_UNREACHABLE,
    OUTCOME_NO_WAYPOINT,
    OUTCOME_SOLVABLE,
    classify_trivial_chain,
    explain,
)
from wpx.model import GoalSpec, PlanningProblem, Polyhedron
from wpx.textio import parse_model, parse_problem

LINE = """
vars x t
location a {
  inv: x >= 0;
  rate x in [1, 1];
  rate t in [1, 1];
}
location b {
  inv: x <= 9;
  rate x in [1, 1];
  rate t in [1, 1];
}
location c {
  rate x in [0, 0];
  rate t in [1, 1];
}
location island {
  rate x in [0, 0];
  rate t in [1, 1];
}
trans a -> b {
  label: ab;
  guard: t >= 1;
  reset t in [0, 0];
}
trans b -> c {
  label: bc;
  guard: x >= GUARD;
}
init a { x = 0; t = 0; }
"""


def line_problem(guard, goal="c", depth=4, region=""):
    automaton = parse_model(LINE.replace("GUARD", guard))
    return parse_problem("goal %s %s\ndepth %d\n" % (goal, region, depth), automaton).problem


def test_first_unreachable_waypoint():
    report = explain(line_problem("10"))  # guard conflicts inv(b) x <= 9
    assert report.outcome == OUTCOME_FIRST_UNREACHABLE
    assert report.explanation_name == "c"
    assert [v.status for v in report.verdicts] == ["SAT", "SAT", "UNSAT"]


def test_discrete_infeasible():
    report = explain(line_problem("1", goal="island"))
    assert report.outcome == OUTCOME_DISCRETE_INFEASIBLE
    assert report.path_count == 0
    assert report.chain is None
    assert report.verdicts == ()


def test_solvable_contradiction_carries_plan():
    report = explain(line_problem("5"))
    assert report.outcome == OUTCOME_SOLVABLE
    plan = report.witness_plan
    assert plan is not None
    assert [label for _t, label in plan.steps] == ["ab", "bc"]


def test_no_waypoint_explanation():
    # Every chain location is reachable, but the exact goal region in c is
    # not (x never grows in c).
    report = explain(line_problem("5", region="{ x >= 50 }"))
    assert report.outcome == OUTCOME_NO_WAYPOINT
    assert report.explanation_name is None
    assert all(v.status != "UNSAT" for v in report.verdicts)


def test_init_entry_is_checked_like_every_other():
    # An init region that lists the invariant of its location verbatim
    # still goes through the reachability check.
    automaton = parse_model(
        LINE.replace("GUARD", "10").replace("init a { x = 0; t = 0; }",
                                            "init a { x >= 0; t = 0; }")
    )
    problem = parse_problem("goal c\ndepth 4\n", automaton).problem
    report = explain(problem)
    assert report.verdicts[0].status == "SAT"
    assert report.verdicts[0].paths_checked == 1
    assert report.feasible_count == 2  # a and b


@pytest.mark.parametrize("region", ["x >= 0; x = 1; x = 2;", "x >= 0; x + t <= 1; x + t >= 2;"])
def test_empty_init_region_is_the_explanation(region):
    # The region lists the invariant of a verbatim, yet no run can start.
    automaton = parse_model(
        LINE.replace("GUARD", "5").replace("init a { x = 0; t = 0; }", "init a { %s }" % region)
    )
    report = explain(parse_problem("goal c\ndepth 4\n", automaton).problem)
    assert report.outcome == OUTCOME_FIRST_UNREACHABLE
    assert report.explanation_name == "a"
    assert [v.status for v in report.verdicts] == ["UNSAT"]
    assert report.feasible_count == 0


def test_timings_present_and_nonnegative():
    report = explain(line_problem("10"))
    assert set(report.timings_ms) == {"path_enumeration", "lcs", "reachability"}
    assert all(v >= 0 for v in report.timings_ms.values())


def test_classify_trivial_chain():
    problem = load_benchmark("nav", "depth10.prob")
    report = explain(problem)
    assert classify_trivial_chain(report.chain)
    assert "chain is trivial (endpoints only)" in report.annotations


def test_chain_scan_stops_at_first_failure():
    problem = load_benchmark("rover", "depth12.prob")
    report = explain(problem)
    assert report.outcome == OUTCOME_FIRST_UNREACHABLE
    assert report.explanation_name == "l13"
    # No verdicts recorded past the first unreachable entry.
    assert [v.location_name for v in report.verdicts] == [
        "l11", "l6", "l1", "l2", "l3", "l8", "l13"
    ]
