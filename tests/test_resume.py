"""The exact goal resumes the last waypoint's simplex: a stage stack keeps
the final state of its rows' last feasible LP whose goal rows were inert,
and a later LP on the same rows resumes it.  Bland's rule makes the cold
solve take exactly the kept pivots first, so every resumed solve must
return the cold solve's answer, number for number."""

import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

import wpx.reach as reach
from conftest import (
    benchmark_problems,
    box_off,
    half_problem,
    load_benchmark,
    parked_rows,
    pool_problems,
)
from oracles import lp_rows, random_automaton, random_lp
from test_dead import blocked
from wpx.explain import explain
from wpx.model import (
    GoalSpec,
    LinearConstraint,
    LinearExpression,
    PlanningProblem,
    Polyhedron,
    Relation,
    alpha,
    canonical,
)
from wpx.reach import bounded_reachable, encode_path, enumerate_concrete_paths


def exact(result):
    """An answer of ``_solve_rows`` as data that compares each number with
    its type: an assignment in its order, or a certificate's y."""
    if isinstance(result, reach.Farkas):
        return "farkas", sorted((i, type(m).__name__, m) for i, m in result.y.items())
    return "sat", [(v, type(x).__name__, x) for v, x in result.items()]


def routes(monkeypatch):
    """Record, per ``_Simplex.extended`` call, whether it resumed (True) or
    sent the solve cold (False)."""
    extended = reach._Simplex.extended
    taken = []

    def recording(self, rows, goal):
        state = extended(self, rows, goal)
        taken.append(state is not None)
        return state

    monkeypatch.setattr(reach._Simplex, "extended", recording)
    return taken


def resumed_solves(monkeypatch):
    """Re-solve every LP that resumes a kept state cold, and compare the two
    answers exactly; returns ``[LPs solved, LPs resumed]``, counted as
    they happen."""
    solve = reach._solve_rows
    taken = routes(monkeypatch)
    counts = [0, 0]

    def spied(rows, *, stages=None):
        before = len(taken)
        result = solve(rows, stages=stages)
        counts[0] += 1
        if any(taken[before:]):
            counts[1] += 1
            assert exact(result) == exact(solve(rows)), rows
        return result

    monkeypatch.setattr(reach, "_solve_rows", spied)
    return counts


# --- random rows ------------------------------------------------------------


def number(rng, n, kind):
    """``n`` as an int, or over a random denominator for ``kind`` fraction."""
    if kind == "fraction":
        return canonical(Fraction(n, rng.choice((1, 2, 3, 4))))
    return n


def goal_rows(rng, variables, kind):
    """A few goal rows over ``variables``: mostly multi-variable rows that
    resume; sometimes a single-variable, an empty or a new-variable row,
    which may send the solve cold."""
    rows = []
    for _ in range(rng.randint(0, 3)):
        shape = rng.random()
        if shape < 0.1:
            rows.append(({rng.choice(variables): number(rng, rng.choice((-1, 1)), kind)},
                         rng.randint(-4, 8)))
        elif shape < 0.15:
            rows.append(({}, rng.randint(-1, 1)))
        elif shape < 0.2:
            rows.append(({rng.choice(variables): 1, "new": 1}, rng.randint(0, 4)))
        else:
            chosen = rng.sample(variables, min(len(variables), rng.randint(2, 3)))
            coeffs = {v: number(rng, rng.choice((-3, -2, -1, 1, 2, 3)), kind) for v in chosen}
            rows.append((coeffs, rng.randint(-6, 6)))
    return rows


@pytest.mark.parametrize("kind", ["int", "fraction"])
def test_resumed_solves_equal_cold_ones_on_random_rows(monkeypatch, kind):
    # Each draw splits a random system into a stack's rows and their
    # kept state, then solves four goal-row sets on the same stack; every
    # answer, resumed or cold, must be the cold solve's.  A kept state is
    # resumed again after a resumed solve that pivoted it.
    taken = routes(monkeypatch)
    rng = random.Random(2727)
    resumed = again = 0
    for _ in range(400):
        rows = [
            ({v: number(rng, int(k), kind) for v, k in coeffs.items()}, canonical(bound))
            for coeffs, bound in lp_rows(random_lp(rng, 8, 16))
        ]
        path = rows[: rng.randint(1, len(rows))]
        variables = sorted({v for coeffs, _ in path for v in coeffs})
        if len(variables) < 2:
            continue
        stack = SimpleNamespace(rows=path, kept=None)
        pivoted = False
        for _ in range(4):
            full = path + goal_rows(rng, variables, kind)
            kept, before = stack.kept, len(taken)
            got = reach._solve_rows(full, stages=stack)
            assert exact(got) == exact(reach._solve_rows(full)), full
            if any(taken[before:]):
                resumed += 1
                again += pivoted
                # A resumed solve that keeps its state made no pivot.
                pivoted = pivoted or stack.kept is kept
    assert resumed > 250 and again > 50


# --- each refusal takes the cold route ----------------------------------------

# x, y >= 0, x + y >= 4, x - y <= 1 and x <= 3: two pivots reach
# x = 5/2, y = 3/2, and every goal row below is over x and y.
PATH = [({"x": -1}, 0), ({"y": -1}, 0), ({"x": -1, "y": -1}, -4), ({"x": 1, "y": -1}, 1), ({"x": 1}, 3)]


VERTEX = {"x": Fraction(5, 2), "y": Fraction(3, 2)}


def kept_stack():
    stack = SimpleNamespace(rows=PATH, kept=None)
    assert reach._solve_rows(list(PATH), stages=stack) == VERTEX
    assert stack.kept is not None
    return stack


@pytest.mark.parametrize(
    "goal",
    [
        [({"y": 1}, 3)],  # sets an upper bound on y
        [({"x": -1}, -1)],  # raises x's lower bound
        [({"x": 1, "z": 1}, 5)],  # names z, which the stack's rows do not
        [({"x": 1, "y": 1}, 9), ({}, -1)],  # an empty row below 0
        [({"x": 1, "y": 1}, Fraction(7, 2))],  # a bound over 2, where D is 1
    ],
    ids=["upper-bound", "lower-bound", "new-variable", "empty-negative", "denominator"],
)
def test_a_goal_row_that_changes_the_kept_pivots_is_solved_cold(monkeypatch, goal):
    taken = routes(monkeypatch)
    stack = kept_stack()
    got = reach._solve_rows(PATH + goal, stages=stack)
    assert taken == [False]
    assert exact(got) == exact(reach._solve_rows(PATH + goal))


def test_inert_goal_rows_resume_and_a_goal_slack_that_leaves_is_not_kept(monkeypatch):
    taken = routes(monkeypatch)
    stack = kept_stack()
    kept = stack.kept
    # y - x <= 4 holds at the kept vertex, so nothing pivots, and a bound
    # that equals a kept one sets nothing.
    inert = PATH + [({"x": -1, "y": 1}, 4), ({"x": 1}, 3)]
    assert reach._solve_rows(inert, stages=stack) == VERTEX
    assert taken == [True] and stack.kept is not kept
    # x - y <= 0 cuts the kept vertex off: its slack leaves the basis, so
    # the state is not kept, and the next solve on the stack goes cold.
    stack.kept = None
    cut = PATH + [({"x": 1, "y": -1}, 0)]
    assert reach._solve_rows(cut, stages=stack) == {"x": 2, "y": 2}
    assert stack.kept is None
    assert exact(reach._solve_rows(inert, stages=stack)) == exact(reach._solve_rows(inert))
    assert taken == [True]
    # Resumed, the same cut pivots a copy: the kept state stays as it was.
    kept = stack.kept
    assert reach._solve_rows(cut, stages=stack) == {"x": 2, "y": 2}
    assert taken == [True, True] and stack.kept is kept
    assert reach._solve_rows(inert, stages=stack) == VERTEX
    # An infeasible goal keeps nothing either.
    kept = stack.kept
    refuted = reach._solve_rows(PATH + [({"x": 1, "y": 1}, 3)], stages=stack)
    assert exact(refuted) == exact(reach._solve_rows(PATH + [({"x": 1, "y": 1}, 3)]))
    assert isinstance(refuted, reach.Farkas) and stack.kept is kept


# --- a goal row that names a parked variable ------------------------------------

# x in [0, 3], u - v <= -2 and v - x <= -3, where u and v have no bound: u
# enters first and its row, u = s0 + v, is parked; then v enters and its
# row, v = s1 + x, is parked too.  So u's parked row names v, parked after
# it, and the kept state is u = -5, v = -3, x = 0 with both rows parked.
PARKING = [({"x": -1}, 0), ({"x": 1}, 3), ({"u": 1, "v": -1}, -2), ({"v": 1, "x": -1}, -3)]


@pytest.mark.parametrize(
    "goal,answer",
    [
        ([({"u": 1, "x": 1}, 0)], {"u": -5, "v": -3, "x": 0}),  # holds as kept
        ([({"u": -1, "x": -1}, 1)], {"u": -3, "v": -1, "x": 2}),  # x enters
        ([({"v": 1, "x": -2}, -4)], {"u": -4, "v": -2, "x": 1}),  # v's row alone
        ([({"v": 1, "u": -2}, 9), ({"u": -1, "x": -1}, 1)], {"u": -3, "v": -1, "x": 2}),
        ([({"u": -1, "x": -1}, -20)], None),  # u + x is at most 1
    ],
    ids=["inert", "pivots", "last-parked", "two-rows", "infeasible"],
)
def test_a_goal_row_over_a_parked_variable_resumes_exactly(monkeypatch, goal, answer):
    # extended brings u's parked row over the nonbasic variables, through
    # v's, without touching the kept rows: the resumed answer is the cold
    # one, and the kept state resumes the same way again.
    taken = routes(monkeypatch)
    parks = parked_rows(monkeypatch)
    stack = SimpleNamespace(rows=PARKING, kept=None)
    assert reach._solve_rows(list(PARKING), stages=stack) == {"u": -5, "v": -3, "x": 0}
    kept = stack.kept
    assert parks[0] == 2 and [n for n, _, _ in kept.parked] == [0, 1]
    before = [(n, k, dict(row)) for n, k, row in kept.parked]
    cold = reach._solve_rows(PARKING + goal)
    for _ in range(2):
        got = reach._solve_rows(PARKING + goal, stages=stack)
        assert exact(got) == exact(cold)
        assert [(n, k, dict(row)) for n, k, row in kept.parked] == before
    assert taken == [True, True]
    assert got == answer if answer is not None else isinstance(got, reach.Farkas)


# --- the stage stack ----------------------------------------------------------


def test_the_stack_drops_its_kept_state_whenever_its_rows_change():
    # half: init a, then b, then the goal location c.  Each check's first
    # path extends the last one, and the exact goal resumes c's check.
    problem = half_problem()
    box = reach.BoxSteps(problem)
    stages = box.stages
    goal = problem.goal.location
    assert bounded_reachable(alpha(problem, goal), box=box).is_sat
    kept = stages.kept
    assert kept is not None
    path = next(enumerate_concrete_paths(problem.domain, problem.init[0], goal, problem.depth))
    encode_path(problem, path, stages=stages)  # the same rows: kept
    assert stages.kept is kept
    # A shorter path pops positions and pushes none.
    shorter = next(enumerate_concrete_paths(problem.domain, problem.init[0], 1, problem.depth))
    encode_path(alpha(problem, 1), shorter, stages=stages)
    assert stages.kept is None
    # Solved again, then extended: positions are pushed and none popped.
    assert bounded_reachable(alpha(problem, 1), box=box).is_sat
    assert stages.kept is not None
    encode_path(problem, path, stages=stages)
    assert stages.kept is None


# --- every resumed LP of the workloads ------------------------------------------


@pytest.mark.parametrize(
    "workload,solved,resumed",
    [("relational_sat", 480, 120), ("relational_unsat", 510, 60)],
)
def test_resumed_solves_equal_cold_ones_on_a_pool_pass(monkeypatch, workload, solved, resumed):
    # One seed-1 pass, its first cycle included.  The exact goal of every
    # SAT pool problem resumes its last entry's LP; on the UNSAT pool, so
    # does that of each problem whose goal row blocks it.
    problems = pool_problems(workload, 1)
    counts = resumed_solves(monkeypatch)
    for problem in problems:
        explain(problem)
    assert counts == [solved, resumed]


@pytest.mark.parametrize(
    "name,parked",
    [
        ("relational_sat", 2779),
        ("relational_unsat", 2013),
        ("half", 0),
        ("blocked/goal", 15),
        ("blocked/guard", 4),
    ],
)
def test_rows_parked_on_a_pass(monkeypatch, name, parked):
    # A seed-1 pass of each pool, or one fixture.  On the pools every
    # parked row is that of an interval-rate exit, such as x@4out, which
    # no row bounds.
    if name.startswith("relational"):
        problems = pool_problems(name, 1)
    else:
        problems = [half_problem() if name == "half" else blocked(name.split("/")[1])]
    parks = parked_rows(monkeypatch)
    for problem in problems:
        explain(problem)
    assert parks[0] == parked


@pytest.mark.parametrize("regime", ["default", "box_off"])
def test_resumed_solves_equal_cold_ones_on_the_pinned_rows(monkeypatch, regime):
    # No bundled row checks its exact goal: each stops at an unreachable
    # waypoint, in either regime, so no LP resumes; and no bundled LP has a
    # variable without a bound that enters the basis, so none parks a row.
    if regime == "box_off":
        box_off(monkeypatch)
    parks = parked_rows(monkeypatch)
    counts = resumed_solves(monkeypatch)
    for row in benchmark_problems():
        explain(load_benchmark(*row))
    assert counts[1] == 0 and counts[0] >= 52 and parks[0] == 0


@pytest.mark.parametrize("name", ["half", "blocked/goal", "blocked/guard"])
def test_resumed_solves_equal_cold_ones_on_the_fixtures(monkeypatch, name):
    # half's exact goal resumes c's check, which it shares a witness path
    # with; blocked/goal's first goal path resumes its last entry's LP and
    # is refuted there.  blocked/guard stops at an entry.
    problem = half_problem() if name == "half" else blocked(name.split("/")[1])
    counts = resumed_solves(monkeypatch)
    explain(problem)
    assert counts[1] == (0 if name == "blocked/guard" else 1)


def test_resumed_solves_equal_cold_ones_on_random_automata(monkeypatch):
    # Random automata with a one-variable goal row, a two-variable one or
    # none, explained alternately in the default and the LP regime.
    counts = resumed_solves(monkeypatch)
    rng = random.Random(2702)
    for case in range(300):
        automaton = random_automaton(rng, denominator=rng.choice((1, 2)))
        shapes = [{}, {"y": 1}, {"x": 1, "y": -1}, {"x": -1, "y": 2}]
        terms = rng.choice(shapes)
        region = Polyhedron()
        if terms:
            expr = LinearExpression.build(terms, -rng.randint(-2, 6))
            region = Polyhedron((LinearConstraint(expr, rng.choice([Relation.LE, Relation.GE])),))
        goal = GoalSpec(location=rng.randrange(len(automaton.locations)), region=region)
        problem = PlanningProblem(automaton, automaton.initial, goal, rng.randint(2, 5))
        with monkeypatch.context() as m:
            if case % 2:
                box_off(m)
            explain(problem)
    assert counts[1] > 100
