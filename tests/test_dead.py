"""Dead constraints: goal and guard constraints that a checked certificate
names and that hold in no reachable state, at any depth.

Every claim is rebuilt by ``oracles.never_holds``, which shares no code
with ``wpx.reach``, and every claim made on random automata is checked
against an exhaustive per-path reference within the depth."""

import dataclasses
import os
import random
from fractions import Fraction

import pytest

import wpx.reach as reach
from conftest import box_off, load_benchmark
from oracles import (
    fraction_tableau_rows,
    full_encode_path,
    lp_rows,
    never_holds,
    random_automaton,
    recursive_concrete_paths,
)
from wpx.cli import EXIT_CAP, EXIT_INTERNAL, _load, main
from wpx.explain import OUTCOME_FIRST_UNREACHABLE, OUTCOME_NO_WAYPOINT, explain
from wpx.model import (
    GoalSpec,
    LinearConstraint,
    LinearExpression,
    PlanningProblem,
    Polyhedron,
    RateSpec,
    Relation,
    Reset,
    alpha,
)
from wpx.reach import bounded_reachable, encode_path, enumerate_concrete_paths
from wpx.textio import parse_model, parse_problem
from test_reach import LP_REGIME_ROWS

BLOCKED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "blocked")


def blocked(name):
    """``golden/blocked/<name>.prob``: laid out like the relational pools,
    with ``2*x - y >= 1`` in the goal (``goal``) or on every edge leaving
    the first layer before ``m`` (``guard``)."""
    problem, _name = _load(os.path.join(BLOCKED, name + ".prob"))
    return problem


def row_constraint(row):
    """The row ``F(x) <= b`` as the model constraint ``F(x) - b <= 0``."""
    terms, bound = row
    return LinearConstraint(LinearExpression.build(dict(terms), -bound), Relation.LE)


def recorded_tests(monkeypatch):
    """Record ``(automaton, init, row, answer, solves)`` for every row that
    ``_inductive_above`` decides, with the number of ``_solve_rows`` calls
    made while it does."""
    inductive = reach._inductive_above
    solve = reach._solve_rows
    tested, inner = [], []

    def recording(automaton, init, row):
        before = len(inner)
        answer = inductive(automaton, init, row)
        tested.append((automaton, init, row, answer, len(inner) - before))
        return answer

    def counted(rows, *, stages=None):
        inner.append(1)
        return solve(rows, stages=stages)

    monkeypatch.setattr(reach, "_inductive_above", recording)
    monkeypatch.setattr(reach, "_solve_rows", counted)
    return tested


def test_no_candidate_on_the_pinned_rows_reaches_the_init_lp(monkeypatch):
    # In the LP regime the certificates of the pinned rows name guard and
    # goal constraints over clocks and resources.  Each fails a cheap test,
    # a reset or a rate, so none is dead and no init LP is solved.
    tested = recorded_tests(monkeypatch)
    box_off(monkeypatch)
    for dirname, probname, _paths in LP_REGIME_ROWS:
        report = explain(load_benchmark(dirname, probname))
        assert not any("no reachable state" in note for note in report.annotations)
    assert len(tested) > 10
    assert not any(answer or solves for *_rest, answer, solves in tested)


@pytest.mark.parametrize("name", ["goal", "guard"])
def test_claims_on_the_blocked_fixtures_agree_with_the_oracle(monkeypatch, name):
    tested = recorded_tests(monkeypatch)
    problem = blocked(name)
    verdict = bounded_reachable(problem)
    assert not verdict.is_sat
    (where, constraint), = verdict.dead
    assert str(constraint) == "2*x - y >= 1"
    if name == "goal":
        assert where is None
    else:
        trans = problem.domain.transitions[where]
        names = [problem.domain.location(l).name for l in (trans.source, trans.target)]
        assert names == ["a1_0", "a2_0"]
    assert never_holds(problem.domain, problem.init, constraint)
    assert any(answer for *_rest, answer, _solves in tested)
    for automaton, init, row, answer, _solves in tested:
        assert never_holds(automaton, init, row_constraint(row)) == answer


def test_the_init_invariant_enters_the_init_lp():
    # The init region leaves y free; only l0's invariant, y >= 2, refutes
    # 2*x - y >= 1 at init.  Without it there is no claim and no note.
    problem = blocked("goal")
    assert "y >= 2" in [str(c) for c in problem.domain.location(0).invariant.constraints]
    assert all("y" not in c.variables() for c in problem.init[1].constraints)
    assert bounded_reachable(problem).dead
    report = explain(problem)
    assert report.outcome == OUTCOME_NO_WAYPOINT
    assert report.annotations[-1].startswith("goal g: 2*x - y >= 1 holds in no reachable state")


def test_a_guard_claim_names_the_waypoint_it_cuts_off():
    report = explain(blocked("guard"))
    assert (report.outcome, report.explanation_name) == (OUTCOME_FIRST_UNREACHABLE, "m")
    assert report.annotations == (
        "guard of a1_0 -> a2_0: 2*x - y >= 1 holds in no reachable state at any depth"
        " (it fails at init, and no flow or jump makes it hold)",
    )
    verdict = bounded_reachable(alpha(blocked("guard"), 5))
    assert verdict.paths_checked == 4 and len(verdict.dead) == 1


FORK = """
vars x y t
location s {
  inv: t <= 1;
  rate x in [0, 1];
  rate y in [2, 3];
  rate t in [1, 1];
}
location p {
  inv: t <= 1;
  rate x in [0, 1];
  rate y in [2, 2];
  rate t in [1, 1];
}
location q {
  inv: t <= 1;
  rate x in [1, 1];
  rate y in [2, 3];
  rate t in [1, 1];
}
location g {
  inv: t <= 1;
  rate x in [0, 0];
  rate y in [0, 0];
  rate t in [1, 1];
}
trans s -> p {
  label: slow;
  guard: t >= 2;
  reset t in [0, 0];
}
trans s -> q {
  label: fast;
  guard: GUARD;
  reset t in [0, 0];
}
trans p -> g {
  label: in;
  reset t in [0, 0];
}
trans q -> g {
  label: in;
  reset t in [0, 0];
}
init s { x = 0; y = 0; t = 0; }
"""


def fork(guard, goal):
    """Two paths to g: through p, whose guard ``t >= 2`` fails against s's
    invariant but is reset on every edge, so it is not dead; then through
    q, guarded by ``guard``."""
    automaton = parse_model(FORK.replace("GUARD", guard))
    return parse_problem("goal g %s\ndepth 2\n" % goal, automaton).problem


def test_a_path_decided_before_a_dead_guard_was_found_keeps_the_verdict_plain():
    # The first path is refuted by its own certificate, which names only
    # t >= 2; the second is refuted by 2*x - y >= 1 on s -> q, found dead.
    verdict = bounded_reachable(fork("2*x - y >= 1", ""))
    assert (verdict.status, verdict.paths_checked, verdict.dead) == ("UNSAT", 2, ())


def test_a_dead_goal_covers_the_paths_decided_before_it_was_found():
    verdict = bounded_reachable(fork("t >= 0", "{ 2*x - y >= 1 }"))
    assert (verdict.status, verdict.paths_checked) == ("UNSAT", 2)
    (where, constraint), = verdict.dead
    assert where is None and str(constraint) == "2*x - y >= 1"


@pytest.mark.parametrize("argv", [
    ["explain", "--problem", os.path.join(BLOCKED, "guard.prob"), "--max-paths", "3"],
    ["check", "--problem", os.path.join(BLOCKED, "goal.prob"), "--max-paths", "11"],
])
def test_max_paths_counts_the_paths_a_dead_constraint_refutes(capsys, argv):
    assert main(argv) == EXIT_CAP
    assert "resource cap" in capsys.readouterr().err


def test_an_init_lp_certificate_failing_its_check_exits_internal(monkeypatch, capsys):
    # Only the init LP, the one LP solved without a stage stack, returns a
    # certificate without its last support row; the path LPs' stay whole.
    solve = reach._solve_rows

    def corrupted(rows, *, stages=None):
        result = solve(rows, stages=stages)
        if stages is None and isinstance(result, reach.Farkas):
            result = reach.Farkas({i: m for i, m in result.y.items() if i != max(result.y)})
        return result

    monkeypatch.setattr(reach, "_solve_rows", corrupted)
    assert main(["check", "--problem", os.path.join(BLOCKED, "guard.prob")]) == EXIT_INTERNAL
    assert "init LP's Farkas certificate fails its check" in capsys.readouterr().err


def random_dead_problem(rng, denominator):
    """A random automaton with a goal row over y, or over y against x,
    that a certificate can name.  In most draws y's rate interval is made
    one-signed in most locations, with the goal row on the side y moves
    away from, and most of y's resets are dropped, so that many goal rows
    are dead and many miss by one location or one reset."""
    automaton = random_automaton(rng, denominator=denominator)
    relations = list(Relation)
    if rng.random() < 0.8:
        sign = rng.choice([1, -1])
        locations = []
        for loc in automaton.locations:
            rates = dict(loc.rates.intervals)
            lo, hi = rates["y"].lower, rates["y"].upper
            if rng.random() < 0.85:
                lo, hi = sorted((sign * abs(lo), sign * abs(hi)))
            locations.append(dataclasses.replace(
                loc, rates=RateSpec.build({"x": (1, 1), "y": (lo, hi)})
            ))
        transitions = [
            t if rng.random() < 0.2 else dataclasses.replace(
                t, reset=Reset(tuple(a for a in t.reset.actions if a[0] != "y"))
            )
            for t in automaton.transitions
        ]
        automaton = dataclasses.replace(
            automaton, locations=tuple(locations), transitions=tuple(transitions)
        )
        relations += [Relation.LE if sign == 1 else Relation.GE] * 3
    k = rng.choice([0, 0, 1, -1])
    bound = Fraction(rng.randint(-2 * denominator, 6 * denominator), denominator)
    expr = LinearExpression.build({"y": 1, "x": k}, -bound)
    region = Polyhedron((LinearConstraint(expr, rng.choice(relations)),))
    goal = GoalSpec(location=rng.randrange(len(automaton.locations)), region=region)
    return PlanningProblem(automaton, automaton.initial, goal, rng.randint(1, 4))


def reachable_somewhere(problem, constraint):
    """Whether some path of at most the depth, to any location, ends in a
    state that satisfies ``constraint``, by the full per-path encoding."""
    automaton = problem.domain
    for loc in range(len(automaton.locations)):
        sub = PlanningProblem(
            automaton, problem.init, GoalSpec(loc, Polyhedron((constraint,))), problem.depth
        )
        for path in recursive_concrete_paths(automaton, problem.init[0], loc, problem.depth):
            if fraction_tableau_rows(lp_rows(full_encode_path(sub, path))) is not None:
                return True
    return False


@pytest.mark.parametrize("denominator", [1, 2])
def test_no_claimed_dead_constraint_is_reachable_on_random_automata(monkeypatch, denominator):
    tested = recorded_tests(monkeypatch)
    box_off(monkeypatch)
    rng = random.Random(2424 + denominator)
    for _ in range(800):
        problem = random_dead_problem(rng, denominator)
        verdict = bounded_reachable(problem)
        for _where, constraint in verdict.dead:
            assert not reachable_somewhere(problem, constraint)
    claims = 0
    for automaton, init, row, answer, _solves in tested:
        constraint = row_constraint(row)
        assert never_holds(automaton, init, constraint) == answer
        if answer:
            claims += 1
            problem = PlanningProblem(automaton, init, GoalSpec(init[0]), 4)
            assert not reachable_somewhere(problem, constraint)
    assert claims > 20 and len(tested) - claims > 20


def substituted(c, s, point, variables):
    """Row ``s*expr <= 0`` of ``c`` over the valuation ``point`` (one
    affine expression per variable), with zero coefficients dropped."""
    values = dict(zip(variables, point))
    coeffs, const = {}, c.expression.constant
    for var, k in c.expression.coefficients:
        vcoeffs, vconst = values[var]
        for v, m in vcoeffs.items():
            coeffs[v] = coeffs.get(v, 0) + k * m
        const += k * vconst
    return {v: s * k for v, k in coeffs.items() if k}, -s * const


# The rows ``expr REL 0`` gives, one sign s per row ``s*expr <= 0``: an EQ
# gives its LE row, then its GE row.
SIGNS = {Relation.LE: (1,), Relation.GE: (-1,), Relation.EQ: (1, -1)}


def test_region_rows_name_the_rows_encode_path_emits():
    # Row j of a guard or goal region, at its stage's start plus j, is the
    # j-th of ``region.rows``: row s*expr <= 0 of its constraint, with the
    # signs of SIGNS, so an EQ gives two rows.
    rng = random.Random(99)
    problems = [blocked("goal"), blocked("guard")]
    for _ in range(150):
        problems.append(random_dead_problem(rng, rng.choice([1, 2])))
    stages = eqs = 0
    for problem in problems:
        automaton = problem.domain
        for path in enumerate_concrete_paths(
            automaton, problem.init[0], problem.goal.location, problem.depth
        ):
            rows, points, ends = encode_path(problem, path)
            regions = [
                (ends[2 * i], automaton.transitions[tid].guard, points[i][1])
                for i, tid in enumerate(path.transitions)
            ] + [(ends[-1], problem.goal.region, points[-1][1])]
            for start, region, point in regions:
                halves = [(c, s) for c in region.constraints for s in SIGNS[c.relation]]
                assert [c for c, _f, _b in region.rows] == [c for c, _s in halves]
                for j, (c, s) in enumerate(halves):
                    assert rows[start + j] == substituted(c, s, point, automaton.variables)
                stages += 1
                eqs += any(c.relation is Relation.EQ for c, _s in halves)
    assert stages > 500 and eqs > 20
