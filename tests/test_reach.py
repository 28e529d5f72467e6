"""Path-oriented reachability: encoding, exact feasibility, witnesses."""

import copy
import dataclasses
import gc
import itertools
import json
import logging
import os
import random
import sys
import weakref
from fractions import Fraction

import pytest

import wpx.graph as graph
import wpx.reach as reach
import oracles
from conftest import (
    assert_canonical,
    benchmark_problems,
    box_off,
    half_problem,
    load_benchmark,
    parked_rows,
    pool_problems,
)
from oracles import (
    LazyBoxSteps,
    LpProblem,
    fm_feasible,
    fraction_tableau_rows,
    full_encode_path,
    lp_feasible,
    lp_rows,
    per_check_box_unreachable,
    random_automaton,
    random_lp,
    recursive_concrete_paths,
    serialize_model,
    split_simplex_rows,
)
from wpx.model import (
    GoalSpec,
    LinearConstraint,
    LinearExpression,
    PlanningProblem,
    Polyhedron,
    Relation,
    alpha,
    check_witness,
)
from wpx.cli import EXIT_INTERNAL, EXIT_OK, main
from wpx.explain import OUTCOME_SOLVABLE, explain
from wpx.reach import (
    ConcretePath,
    bounded_reachable,
    encode_path,
    enumerate_concrete_paths,
    extract_witness,
)
from wpx.textio import parse_model, parse_problem, serialize_report

HOP = """
vars x t
location a {
  inv: x >= 0;
  rate x in [1, 2];
  rate t in [1, 1];
}
location b {
  inv: x <= 20;
  rate x in [0, 0];
  rate t in [1, 1];
}
trans a -> b {
  label: hop;
  guard: x >= 3; t >= 1;
  reset t in [0, 0];
}
init a { x = 0; t = 0; }
"""


def hop_problem(goal="b", depth=2, goal_region=""):
    automaton = parse_model(HOP)
    prob = parse_problem("goal %s %s\ndepth %d\n" % (goal, goal_region, depth), automaton)
    return prob.problem


def test_enumerate_concrete_paths_order_and_ids():
    problem = hop_problem()
    paths = list(
        enumerate_concrete_paths(problem.domain, 0, 1, 3)
    )
    assert paths[0].locations == (0, 1)
    assert paths[0].transitions == (0,)
    assert all(len(p.transitions) == len(p.locations) - 1 for p in paths)


def test_concrete_paths_respect_depth_zero():
    problem = hop_problem()
    assert list(enumerate_concrete_paths(problem.domain, 0, 0, 0))[0].locations == (0,)
    assert list(enumerate_concrete_paths(problem.domain, 0, 1, 0)) == []


def test_concrete_paths_match_recursive_oracle():
    # Same list in the same order: the order fixes paths_checked and which
    # SAT path supplies the witness.
    rng = random.Random(6060)
    for case in range(1000):
        automaton = random_automaton(rng)
        n = len(automaton.locations)
        source, goal = rng.randrange(n), rng.randrange(n)
        depth = rng.randint(0, 6)
        got = list(enumerate_concrete_paths(automaton, source, goal, depth))
        want = list(recursive_concrete_paths(automaton, source, goal, depth))
        assert got == want, case


def test_concrete_paths_longer_than_the_recursion_limit():
    problem = load_benchmark("wlm", "depth20.prob")
    init_loc, _ = problem.init
    paths = enumerate_concrete_paths(problem.domain, init_loc, problem.goal.location, 1200)
    assert max(len(p.transitions) for p in itertools.islice(paths, 300)) > 1000


def test_encode_path_variable_and_constraint_shape():
    problem = hop_problem()
    path = ConcretePath((0, 1), (0,))
    lp = full_encode_path(problem, path)
    assert "x@0in" in lp.variables and "x@1out" in lp.variables
    assert "d0" in lp.variables and "d1" in lp.variables
    # init equalities, invariants at both endpoints, dwell nonnegativity,
    # rate bands, guard, reset, goal invariant.
    assert any(c.relation is Relation.EQ for c in lp.constraints)


def test_encode_path_stage_ends():
    # hop: init x = 0, t = 0 (4 rows); a: entry invariant, d0 >= 0, the two
    # rows of x's rate band and the exit invariant (5); hop: its two guard
    # rows, and the point reset of t adds none (2); b: entry invariant,
    # d1 >= 0 and exit invariant, both rates exact (3); the goal adds
    # x >= 100 (1).
    problem = hop_problem(goal_region="{ x >= 100 }")
    rows, _points, ends = encode_path(problem, ConcretePath((0, 1), (0,)))
    assert ends == [9, 11, 14] and len(rows) == 15
    rows, _points, ends = encode_path(hop_problem(goal="a", depth=0), ConcretePath((0,), ()))
    assert ends == [9] and len(rows) == 9


def stage_elements(path):
    """The location or transition id behind each stage of ``path``."""
    return (path.locations[0], *(x for pair in zip(path.transitions, path.locations[1:]) for x in pair))


def test_rows_up_to_a_stage_depend_only_on_its_keys():
    # What recorded prefixes rest on: two paths from the init whose stage
    # keys agree up to a stage have the same rows up to it, also when the
    # transitions or locations behind equal keys differ.  The rows before
    # the goal's do not depend on the goal, so paths to every location of
    # an automaton are compared.
    rng = random.Random(7070)
    shared = 0
    for denominator in (1, 2, 3):
        for _ in range(100):
            automaton = random_automaton(rng, denominator=denominator)
            # The key tables of one pass, which every goal's check shares.
            stages = reach.BoxSteps(PlanningProblem(automaton, automaton.initial, GoalSpec(0), 4)).stages
            seen = {}
            for goal in range(len(automaton.locations)):
                problem = PlanningProblem(automaton, automaton.initial, GoalSpec(goal), 4)
                for path in enumerate_concrete_paths(automaton, automaton.initial[0], goal, 4):
                    rows, _points, ends = encode_path(problem, path)
                    keys = tuple(stages.keys(path))
                    assert len(keys) == len(ends)
                    for stage, end in enumerate(ends):
                        first, first_rows = seen.setdefault(keys[: stage + 1], (path, rows[:end]))
                        assert first_rows == rows[:end], (first, path, stage)
                        shared += stage_elements(first)[: stage + 1] != stage_elements(path)[: stage + 1]
    assert shared > 100


def test_encode_path_rejects_wrong_endpoints():
    problem = hop_problem()
    with pytest.raises(ValueError):
        encode_path(problem, ConcretePath((1, 1), (0,)))


def test_lp_feasible_simple_sat_and_witness():
    lp = LpProblem(
        variables=("u", "v"),
        constraints=(
            LinearConstraint(LinearExpression.build({"u": 1, "v": 1}, -4), Relation.EQ),
            LinearConstraint(LinearExpression.build({"u": 1}, -1), Relation.GE),
            LinearConstraint(LinearExpression.build({"v": 1}), Relation.GE),
        ),
    )
    w = lp_feasible(lp)
    assert w is not None
    assert w["u"] + w["v"] == 4 and w["u"] >= 1 and w["v"] >= 0


def test_lp_feasible_contradictory_equalities():
    lp = LpProblem(
        variables=("u",),
        constraints=(
            LinearConstraint(LinearExpression.build({"u": 1}, -1), Relation.EQ),
            LinearConstraint(LinearExpression.build({"u": 1}, -2), Relation.EQ),
        ),
    )
    assert lp_feasible(lp) is None


def test_lp_feasible_unbounded_free_variable():
    lp = LpProblem(
        variables=("u",),
        constraints=(
            LinearConstraint(LinearExpression.build({"u": 1}, 100), Relation.LE),
        ),
    )
    w = lp_feasible(lp)
    assert w is not None
    assert w["u"] <= -100


def test_lp_feasible_matches_fm_oracle_random():
    rng = random.Random(101)
    for _ in range(300):
        lp = random_lp(rng)
        assert (lp_feasible(lp) is not None) == fm_feasible(lp)


def test_sat_witness_satisfies_all_constraints():
    rng = random.Random(55)
    sats = 0
    for _ in range(300):
        lp = random_lp(rng)
        w = lp_feasible(lp)
        if w is not None:
            sats += 1
            for c in lp.constraints:
                assert c.holds(w)
    assert sats > 20


def refuted(rows, result):
    """Whether ``result``, what ``_solve_rows`` returned for ``rows``, is a
    Farkas certificate, after checking that the checker accepts it and that
    the split-and-shift reference finds the rows infeasible too."""
    if not isinstance(result, reach.Farkas):
        assert type(result) is dict
        return False
    assert result.y and all(m > 0 for m in result.y.values())
    assert reach._farkas_holds(rows, result.y), result.y
    assert split_simplex_rows(rows) is None
    return True


def agrees_with_reference(rows):
    """Whether the rows are feasible, after checking that the bounded simplex
    and the split-and-shift reference agree, that an UNSAT carries a
    certificate the checker accepts, and that a SAT assignment covers and
    satisfies every row."""
    assignment = reach._solve_rows(rows)
    if refuted(rows, assignment):
        return False
    assert split_simplex_rows(rows) is not None
    assert set(assignment) == {v for coeffs, _ in rows for v in coeffs}
    for coeffs, bound in rows:
        assert sum(k * assignment[v] for v, k in coeffs.items()) <= bound
    return True


def test_bounded_simplex_agrees_with_split_simplex_reference():
    # Fourier-Motzkin does not finish on LPs this size; the reference does.
    # Most of these draws pivot at least twice.
    rng = random.Random(2024)
    sat = sum(agrees_with_reference(lp_rows(random_lp(rng, 10, 24))) for _ in range(200))
    assert 20 < sat < 180


def degenerate(rows):
    # Every bound 0, plus the one row sum(v) >= 1 that forces pivots.
    rows = [(coeffs, Fraction(0)) for coeffs, _ in rows]
    variables = sorted({v for coeffs, _ in rows for v in coeffs})
    return rows + [({v: Fraction(-1) for v in variables}, Fraction(-1))]


def test_bounded_simplex_ends_on_degenerate_rows():
    # With every bound 0, every row is tight at the start point 0, which is
    # then feasible; the one row sum(v) >= 1 makes the loop pivot away from
    # that degenerate vertex, and it must still end.
    rng = random.Random(9)
    sat = sum(agrees_with_reference(degenerate(lp_rows(random_lp(rng, 10, 24)))) for _ in range(20))
    assert 0 < sat < 20


def same_as_fraction_tableau(rows):
    """Whether the rows are feasible, after checking that the integer
    tableau returns exactly the Fraction tableau's answer, with each value
    in canonical form, and that an UNSAT carries a certificate that the
    checker accepts (``refuted``)."""
    assignment = reach._solve_rows(rows)
    if refuted(rows, assignment):
        assert fraction_tableau_rows(rows) is None
        return False
    assert assignment == fraction_tableau_rows(rows)
    for x in assignment.values():
        assert_canonical(x)
    return True


def test_integer_tableau_matches_fraction_tableau_on_random_lps(monkeypatch):
    parks = parked_rows(monkeypatch)
    # Same pivots, so the same vertex: the assignments are equal, not just
    # both feasible.
    rng = random.Random(4242)
    sat = sum(same_as_fraction_tableau(lp_rows(random_lp(rng, 10, 24))) for _ in range(300))
    assert 30 < sat < 270
    sat = sum(same_as_fraction_tableau(degenerate(lp_rows(random_lp(rng, 10, 24)))) for _ in range(40))
    assert 0 < sat < 40
    # Rows with fractional coefficients enter scaled by their lcm.
    sat = 0
    for _ in range(100):
        rows = [
            ({v: k / rng.choice((1, 2, 3, 4)) for v, k in coeffs.items()}, bound)
            for coeffs, bound in lp_rows(random_lp(rng, 10, 24))
        ]
        sat += same_as_fraction_tableau(rows)
    assert 10 < sat < 90
    # Rows of basic variables with no bound were parked, so the oracle
    # covers their values, read off the parked rows at the end.
    assert parks[0] > 0


PRIMES = (1009, 1013, 1019, 1021, 1031, 1033, 1039, 1049)


def test_integer_values_match_fraction_tableau_with_large_coprime_denominators(monkeypatch):
    parks = parked_rows(monkeypatch)
    # Every bound over its own large prime, so the common denominator of the
    # values is the product of up to eight of them.
    rng = random.Random(515)
    sat = 0
    for _ in range(150):
        rows = [
            (coeffs, bound + Fraction(rng.randint(-50, 50), rng.choice(PRIMES)))
            for coeffs, bound in lp_rows(random_lp(rng, 8, 20))
        ]
        sat += same_as_fraction_tableau(rows)
    assert 15 < sat < 135
    assert parks[0] > 0  # the oracle covers parked rows


def test_integer_values_match_fraction_tableau_without_finite_bounds(monkeypatch):
    parks = parked_rows(monkeypatch)
    # Only constant rows: no bound at all, so the common denominator is
    # lcm() == 1.
    assert same_as_fraction_tableau([]) and reach._solve_rows([]) == {}
    assert same_as_fraction_tableau([({}, Fraction(0)), ({}, Fraction(3, 2))])
    assert not same_as_fraction_tableau([({}, Fraction(0)), ({}, Fraction(-1, 2))])
    # General rows over variables with no bound of their own: every
    # variable starts at 0 and the simplex decides from there.
    rng = random.Random(616)
    sat = unsat = 0
    for _ in range(200):
        rows = [
            (coeffs, bound) for coeffs, bound in lp_rows(random_lp(rng, 6, 16))
            if len(coeffs) > 1
        ]
        if same_as_fraction_tableau(rows):
            sat += 1
        else:
            unsat += 1
    assert sat > 20 and unsat > 20
    assert parks[0] > 0  # the oracle covers parked rows


def test_integer_values_match_fraction_tableau_with_fractional_row_bounds(monkeypatch):
    parks = parked_rows(monkeypatch)
    # Fractional bounds on the general rows only, so the slacks' bounds set
    # the common denominator; single-variable rows keep integer bounds.
    rng = random.Random(717)
    sat = 0
    for _ in range(200):
        rows = [
            (coeffs, bound + Fraction(rng.randint(1, 6), rng.choice((2, 3, 5, 7))))
            if len(coeffs) > 1 else (coeffs, Fraction(bound.numerator // bound.denominator))
            for coeffs, bound in lp_rows(random_lp(rng, 10, 24))
        ]
        sat += same_as_fraction_tableau(rows)
    assert 20 < sat < 180
    assert parks[0] > 0  # the oracle covers parked rows


def test_integer_interval_pass_matches_fraction_tableau_on_boxed_rows(monkeypatch):
    parks = parked_rows(monkeypatch)
    # Every variable boxed, and rows with fractional coefficients.  A row
    # whose smallest possible left side exceeds its bound has no pass of its
    # own in ``_solve_rows``: its simplex refutes it from bounds scaled by
    # the common denominator and rows scaled by theirs.  The Fraction
    # tableau keeps its interval pass, and the two must still agree.
    rng = random.Random(919)
    sat = unsat = 0
    for _ in range(200):
        lp = random_lp(rng, 6, 10)
        rows = [
            ({v: k / rng.choice((1, 2, 3)) for v, k in coeffs.items()}, bound)
            for coeffs, bound in lp_rows(lp)
        ]
        for v in lp.variables:
            lo = Fraction(rng.randint(-9, 3), rng.choice((1, 2, 5)))
            rows.append(({v: Fraction(-1)}, -lo))
            rows.append(({v: Fraction(1)}, lo + Fraction(rng.randint(0, 20), rng.choice((1, 3)))))
        if same_as_fraction_tableau(rows):
            sat += 1
        else:
            unsat += 1
    assert sat > 20 and unsat > 20
    # Every variable has a bound, so no row is parked.
    assert parks[0] == 0


def test_integer_values_match_fraction_tableau_on_degenerate_fractional_rows(monkeypatch):
    parks = parked_rows(monkeypatch)
    # The degenerate start point 0 stays a vertex: each variable also gets a
    # positive fractional upper bound, which leaves its start value at 0,
    # and the closing row asks for sum(v) >= 1/3 instead of 1.
    rng = random.Random(818)
    sat = 0
    for _ in range(60):
        rows = degenerate(lp_rows(random_lp(rng, 10, 24)))
        closing, _ = rows.pop()
        rows.append((closing, Fraction(-1, 3)))
        rows += [({v: Fraction(1)}, Fraction(rng.randint(1, 9), rng.choice((3, 5, 7)))) for v in closing]
        sat += same_as_fraction_tableau(rows)
    assert 0 < sat < 60
    # Every variable has a bound, so no row is parked.
    assert parks[0] == 0


def test_integer_tableau_matches_fraction_tableau_on_path_lps(monkeypatch):
    parks = parked_rows(monkeypatch)
    rng = random.Random(3131)
    sat = unsat = 0
    for _ in range(120):
        automaton = random_automaton(rng)
        goal = rng.randrange(len(automaton.locations))
        bound = LinearExpression.build({"y": 1}, -rng.randint(-2, 6))
        problem = PlanningProblem(
            domain=automaton,
            init=automaton.initial,
            goal=GoalSpec(
                location=goal,
                region=Polyhedron((LinearConstraint(bound, rng.choice([Relation.LE, Relation.GE])),)),
            ),
            depth=4,
        )
        for path in enumerate_concrete_paths(automaton, automaton.initial[0], goal, 4):
            if same_as_fraction_tableau(encode_path(problem, path)[0]):
                sat += 1
            else:
                unsat += 1
    assert sat > 100 and unsat > 100
    assert parks[0] > 0  # the oracle covers parked rows


def test_certificates_name_the_rows_that_refute():
    cases = [
        # A constant row below 0, alone.
        ([({"x": 1}, 5), ({}, -1)], {1: 1}),
        # A bound conflict: x <= 1 (from 2*x <= 2) against x >= 2 (from
        # -3*x <= -6), each row over its |k|; the looser x <= 3 takes no part.
        ([({"x": 2}, 2), ({"x": 3}, 9), ({"x": -3}, -6)], {0: Fraction(1, 2), 2: Fraction(1, 3)}),
        # A tie: 2*x <= 2 and x <= 1 both set x <= 1, and the first row to
        # reach a bound is the one named.
        ([({"x": 2}, 2), ({"x": 1}, 1), ({"x": -1}, -2)], {0: Fraction(1, 2), 2: 1}),
        # A bound tightened by a later row: 2*x <= 2 replaces x <= 3.
        ([({"x": 1}, 3), ({"x": 2}, 2), ({"x": -1}, -2)], {1: Fraction(1, 2), 2: 1}),
        # A row whose smallest left side exceeds its bound, x + y <= 1 with
        # x >= 1 and y >= 1: the simplex's first conflict row, without a pivot.
        ([({"x": 1, "y": 1}, 1), ({"x": -1}, -1), ({"y": -2}, -2)], {0: 1, 1: 1, 2: Fraction(1, 2)}),
        # An exhausted budget, x - y <= -5 with 0 <= x <= 3 and 0 <= y <= 2:
        # the simplex pivots y in, y overshoots its upper bound, and that
        # row's conflict names the budget row and the bounds x >= 0, y <= 2.
        (
            [({"x": 1, "y": -1}, -5), ({"x": -1}, 0), ({"x": 1}, 3), ({"y": -1}, 0), ({"y": 1}, 2)],
            {0: 1, 1: 1, 4: 1},
        ),
        # Simplex conflicts without bounds: x + y <= 1 against x + y >= 2,
        # and the cycle x <= y <= z <= x - 1.
        ([({"x": 1, "y": 1}, 1), ({"x": -1, "y": -1}, -2)], {0: 1, 1: 1}),
        ([({"x": 1, "y": -1}, 0), ({"y": 1, "z": -1}, 0), ({"z": 1, "x": -1}, -1)], {0: 1, 1: 1, 2: 1}),
    ]
    for rows, y in cases:
        result = reach._solve_rows(rows)
        assert refuted(rows, result) and result.y == y


def test_farkas_checker_rejects_broken_certificates():
    # Each mutant breaks one condition of a certificate that the checker
    # accepted.  A row and its negation, appended to the rows, cancel out
    # under equal multipliers, so that negative ones are wrong only in sign.
    rng = random.Random(5150)
    unsat = 0
    for _ in range(200):
        rows = lp_rows(random_lp(rng, 8, 20))
        result = reach._solve_rows(rows)
        if not refuted(rows, result):
            continue
        unsat += 1
        y = result.y
        n = len(rows)
        coeffs, bound = rows[0]
        twice = rows + [rows[0], ({v: -k for v, k in coeffs.items()}, -bound)]
        assert reach._farkas_holds(twice, {**y, n: 1, n + 1: 1})
        assert not reach._farkas_holds(twice, {**y, n: -1, n + 1: -1})
        assert not reach._farkas_holds(rows, {**y, n: 1})  # no such row
        total = sum(m * rows[i][1] for i, m in y.items())
        for i, m in y.items():
            coeffs, bound = rows[i]
            if coeffs:  # a dropped support row leaves its variables over
                assert not reach._farkas_holds(rows, {j: w for j, w in y.items() if j != i})
            lifted = list(rows)
            lifted[i] = (coeffs, bound - total / m)  # y^T b == 0
            assert not reach._farkas_holds(lifted, y)
            stray = list(rows)
            stray[i] = ({**coeffs, "stray": Fraction(1)}, bound)
            assert not reach._farkas_holds(stray, y)
    assert unsat > 50


def test_certificates_on_every_unsat_check_of_the_pinned_rows(monkeypatch):
    # In the LP regime, every path LP that a check solves and finds UNSAT
    # carries a certificate that the checker accepts.  The explanations
    # decide 10,870 paths with 128 path LPs; a certificate that names a
    # later last row records a longer prefix, or none, and solves more.
    box_off(monkeypatch)
    solve = reach._solve_rows
    solved, unsat = [], []

    def checked(rows, *, stages=None):
        result = solve(rows, stages=stages)
        solved.append(1)
        if refuted(rows, result):
            unsat.append(len(rows))
        return result

    monkeypatch.setattr(reach, "_solve_rows", checked)
    for dirname, probname, _paths in LP_REGIME_ROWS:
        explain(load_benchmark(dirname, probname))
    assert len(unsat) > 50
    assert len(solved) <= 129


def corrupt_certificates(monkeypatch):
    """Drop the last support row of every certificate ``_solve_rows`` returns."""
    solve = reach._solve_rows

    def corrupted(rows, *, stages=None):
        result = solve(rows, stages=stages)
        if isinstance(result, reach.Farkas):
            result = reach.Farkas({i: m for i, m in result.y.items() if i != max(result.y)})
        return result

    monkeypatch.setattr(reach, "_solve_rows", corrupted)


def test_certificate_failing_its_check_is_an_internal_error(monkeypatch):
    box_off(monkeypatch)
    corrupt_certificates(monkeypatch)
    with pytest.raises(AssertionError, match="Farkas certificate fails its check"):
        bounded_reachable(hop_problem(goal="b", goal_region="{ x >= 100 }"))


def test_check_exits_internal_on_a_certificate_failing_its_check(monkeypatch, tmp_path, capsys):
    (tmp_path / "hop.lha").write_text(HOP)
    (tmp_path / "hop.prob").write_text("model hop.lha\ngoal b { x >= 100 }\ndepth 2\n")
    argv = ["check", "--problem", str(tmp_path / "hop.prob")]
    box_off(monkeypatch)
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == "UNSAT (paths_checked=1)\n"
    corrupt_certificates(monkeypatch)
    assert main(argv) == EXIT_INTERNAL
    assert "Farkas certificate fails its check" in capsys.readouterr().err


def random_reach_problem(rng, denominator, depth):
    """A random automaton at ``denominator`` with a random goal location and,
    most of the time, a one-variable goal row."""
    automaton = random_automaton(rng, denominator=denominator)
    region = Polyhedron()
    if rng.random() < 0.7:
        bound = LinearExpression.build(
            {"y": 1}, -Fraction(rng.randint(-2 * denominator, 6 * denominator), denominator)
        )
        region = Polyhedron((LinearConstraint(bound, rng.choice([Relation.LE, Relation.GE])),))
    goal = GoalSpec(location=rng.randrange(len(automaton.locations)), region=region)
    return PlanningProblem(automaton, automaton.initial, goal, depth)


def exhaustive_reference(problem):
    """``(paths_checked, first SAT path or None)`` as a per-path decision
    that records nothing: every path of ``recursive_concrete_paths``, in
    order, up to the first whose full encoding the Fraction-tableau
    reference finds feasible."""
    ends = (problem.init[0], problem.goal.location, problem.depth)
    count = 0
    for path in recursive_concrete_paths(problem.domain, *ends):
        count += 1
        if fraction_tableau_rows(lp_rows(full_encode_path(problem, path))) is not None:
            return count, path
    return count, None


def prefix_refutation_faults(monkeypatch, denominator, draws, shorten=0):
    """Decide ``draws`` random problems in the LP regime and count what
    disagrees with ``exhaustive_reference`` (status, ``paths_checked`` or
    the SAT run, which must be the one the path's own LP gives) and the
    recorded prefixes whose rows ``split_simplex_rows`` finds feasible.
    ``shorten=1`` is a mutant that records every prefix one stage too
    short.  Returns ``(faults, paths checked, paths solved)``."""
    rng = random.Random(6060 + denominator)
    record = reach._Refutations.refute
    check = reach._check_path
    recorded, solved = [], []

    def recording(self, path, stage, idx):
        if stage >= shorten:
            recorded.append((path, stage - shorten))
            record(self, path, stage - shorten, idx)

    def counted(*args):
        solved.append(1)
        return check(*args)

    with monkeypatch.context() as m:
        box_off(m)
        m.setattr(reach._Refutations, "refute", recording)
        m.setattr(reach, "_check_path", counted)
        faults = paths = 0
        for _ in range(draws):
            problem = random_reach_problem(rng, denominator, rng.randint(2, 5))
            recorded.clear()
            verdict = bounded_reachable(problem)
            count, path = exhaustive_reference(problem)
            want = None
            if path is not None:
                want = check(problem, path, *encode_path(problem, path)[:2])
            faults += (verdict.paths_checked, verdict.run) != (count, want)
            paths += verdict.paths_checked
            for path, stage in recorded:
                rows, _points, ends = encode_path(problem, path)
                faults += split_simplex_rows(rows[: ends[stage]]) is not None
    return faults, paths, len(solved)


@pytest.mark.parametrize("denominator", [1, 2, 3])
def test_prefix_refutation_agrees_with_an_exhaustive_reference(monkeypatch, denominator):
    faults, paths, solved = prefix_refutation_faults(monkeypatch, denominator, 500)
    assert faults == 0
    assert paths - solved > paths // 10  # recorded prefixes decide some paths


def test_prefix_refutation_catches_a_prefix_recorded_one_stage_short(monkeypatch):
    faults, _paths, _solved = prefix_refutation_faults(monkeypatch, 1, 500, shorten=1)
    assert faults > 0


def test_bounded_reachable_sat_with_plan():
    problem = hop_problem()
    verdict = bounded_reachable(problem)
    assert verdict.is_sat
    assert verdict.paths_checked == 1
    run, plan = extract_witness(problem, verdict)
    assert check_witness(problem.domain, problem.init, problem.goal, run) == []
    assert plan.steps[-1][1] == "hop"
    assert plan.makespan == run.makespan()


def test_bounded_reachable_unsat_guard_conflict():
    # Guard x >= 3 with dwell bounded by t: depth 0 cannot leave a, and the
    # goal region below is unreachable in b.
    problem = hop_problem(goal="b", goal_region="{ x >= 100 }")
    verdict = bounded_reachable(problem)
    assert not verdict.is_sat
    assert verdict.run is None


def test_extract_witness_rejects_an_unsat_verdict():
    problem = hop_problem(goal="b", goal_region="{ x >= 100 }")
    with pytest.raises(ValueError, match="UNSAT verdict"):
        extract_witness(problem, bounded_reachable(problem))


def test_extract_witness_returns_the_run_check_witness_accepted(monkeypatch):
    accepted = []
    check = reach.check_witness

    def recording(automaton, init, goal, run):
        accepted.append(run)
        return check(automaton, init, goal, run)

    monkeypatch.setattr(reach, "check_witness", recording)
    problem = hop_problem()
    verdict = bounded_reachable(problem)
    assert extract_witness(problem, verdict)[0] is accepted[-1]
    report = explain(problem)
    assert report.outcome == OUTCOME_SOLVABLE
    assert extract_witness(problem, report.witness_verdict)[0] is accepted[-1]


def test_goal_region_conjoined_with_goal_invariant():
    # x can exceed 20 in a, but Inv(b) caps the final valuation.
    problem = hop_problem(goal="b", goal_region="{ x >= 21 }")
    assert not bounded_reachable(problem).is_sat
    problem2 = hop_problem(goal="b", goal_region="{ x >= 20 }")
    assert bounded_reachable(problem2).is_sat


def test_zero_length_goal_at_init():
    problem = hop_problem(goal="a", depth=0)
    verdict = bounded_reachable(problem)
    assert verdict.is_sat
    run, plan = extract_witness(problem, verdict)
    assert plan.steps == ()
    assert check_witness(problem.domain, problem.init, problem.goal, run) == []


def test_interval_preanalysis_agrees_with_enumeration(monkeypatch):
    rng = random.Random(77)
    checked = unsat_boxes = 0
    for _ in range(250):
        automaton = random_automaton(rng)
        goal = rng.randrange(len(automaton.locations))
        problem = PlanningProblem(
            domain=automaton,
            init=automaton.initial,
            goal=GoalSpec(location=goal, region=Polyhedron()),
            depth=rng.randint(0, 4),
        )
        with monkeypatch.context() as m:
            box_off(m)
            exact = bounded_reachable(problem).status
        fast = bounded_reachable(problem).status
        assert fast == exact
        checked += 1
        if fast == "UNSAT" and reach._interval_unreachable(problem, reach.BoxSteps(problem)):
            unsat_boxes += 1
    assert checked == 250
    assert unsat_boxes > 0  # the pre-analysis actually fires sometimes


# Bundled rows whose box-decided UNSAT verdicts the LP regime re-decides,
# with the LP regime's ``paths_checked`` at the explanation.  The last five
# decide thousands of paths; recorded prefixes keep them to seconds.
LP_REGIME_ROWS = [
    ("wlm", "depth20.prob", 5),
    ("wlm", "depth50.prob", 13),
    ("rover", "depth12.prob", 2),
    ("rover", "depth20.prob", 92),
    ("nrs", "depth15.prob", 8),
    ("nrs", "depth20.prob", 14),
    ("wa6x4", "depth8.prob", 5),
    ("wa10x10", "depth12.prob", 25),
    ("cr", "depth8.prob", 660),
    ("cr", "depth10.prob", 6548),
    ("nav", "depth10.prob", 2325),
    ("wa6x6", "depth12.prob", 916),
    ("wa8x8", "depth12.prob", 209),
]


@pytest.mark.parametrize(
    "dirname,probname,paths_checked",
    LP_REGIME_ROWS,
    ids=["%s/%s" % row[:2] for row in LP_REGIME_ROWS],
)
def test_box_unsat_verdicts_agree_with_the_lp_regime(
    monkeypatch, dirname, probname, paths_checked
):
    problem = load_benchmark(dirname, probname)
    default = explain(problem)
    box_off(monkeypatch)
    lp = explain(problem)
    assert [(v.location_name, v.status) for v in lp.verdicts] == [
        (v.location_name, v.status) for v in default.verdicts
    ]
    assert (lp.outcome, lp.explanation_name) == (default.outcome, default.explanation_name)
    assert default.verdicts[-1].status == "UNSAT"
    assert default.verdicts[-1].paths_checked == 0  # the box decided it
    assert lp.verdicts[-1].paths_checked == paths_checked


def test_recorded_prefixes_leave_few_paths_to_solve(monkeypatch):
    # cr d10 in the LP regime decides 6,550 paths over its three checks;
    # solving each of them would be a regression to per-path decisions.
    solve = reach._solve_rows
    solved = []

    def counted(rows, *, stages=None):
        solved.append(1)
        return solve(rows, stages=stages)

    box_off(monkeypatch)
    monkeypatch.setattr(reach, "_solve_rows", counted)
    report = explain(load_benchmark("cr", "depth10.prob"))
    decided = sum(v.paths_checked for v in report.verdicts)
    assert [v.paths_checked for v in report.verdicts] == [1, 1, 6548]
    assert 0 < len(solved) <= decided // 100


def test_wpx_log_debug_names_the_path_whose_certificate_refuted(monkeypatch, caplog):
    # nav d10's explanation check solves its first path, whose certificate
    # refutes a prefix that every later path shares: one debug line per
    # path decided, each later one naming path 0.
    box_off(monkeypatch)
    with caplog.at_level(logging.DEBUG, logger="wpx"):
        report = explain(load_benchmark("nav", "depth10.prob"))
    assert [v.paths_checked for v in report.verdicts] == [1, 2325]
    lines = [r.getMessage() for r in caplog.records if r.levelno == logging.DEBUG]
    assert len(lines) == 1 + 2325
    assert lines[1].startswith("path 0 ") and lines[1].endswith(": UNSAT")
    refuted = [line for line in lines[2:] if line.endswith(": UNSAT by the certificate of path 0")]
    assert len(refuted) == 2324
    assert refuted[-1].startswith("path 2324 locations=(")


def test_box_preanalysis_stops_when_its_state_repeats(monkeypatch):
    # wa6x6's per-location boxes start to cycle within a few steps, so a
    # deeper bound adds no box work and changes no verdict.
    dwell = reach._box_dwell
    calls = []

    def counted(*args):
        calls.append(1)
        return dwell(*args)

    monkeypatch.setattr(reach, "_box_dwell", counted)
    outcomes = []
    for depth in (40, 400):
        problem = load_benchmark("wa6x6", "depth12.prob", depth=depth)
        calls.clear()
        report = explain(problem)
        outcomes.append((len(calls), report.explanation_name, report.verdicts))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][1] == "l28"


@pytest.mark.parametrize(
    "rate,guard", [("[0, 1]", "x <= 3"), ("[-1, 0]", "x >= 7")], ids=["rising", "falling"]
)
def test_box_refutes_a_guard_that_a_zero_rate_bound_keeps_out_of_reach(
    monkeypatch, rate, guard
):
    # From x = 5, a rate whose bound on the guard's side is 0 never brings
    # x to the guard, however long a dwells.
    automaton = parse_model(
        "vars x\n"
        "location a { rate x in %s; }\n"
        "location b { rate x in [0, 0]; }\n"
        "trans a -> b { guard: %s; }\n"
        "init a { x = 5; }\n" % (rate, guard)
    )
    problem = parse_problem("goal b\ndepth 1\n", automaton).problem
    assert per_check_box_unreachable(problem)
    verdict = bounded_reachable(problem)
    assert (verdict.status, verdict.paths_checked) == ("UNSAT", 0)
    box_off(monkeypatch)
    verdict = bounded_reachable(problem)
    assert (verdict.status, verdict.paths_checked) == ("UNSAT", 1)


def random_box_problem(rng: random.Random, denominator: int = 1) -> PlanningProblem:
    """A ``random_automaton`` draw with a random goal location, a goal
    region that asks for the resource about half the time, and depth 0-8;
    its numbers are multiples of ``1/denominator``."""
    automaton = random_automaton(rng, denominator=denominator)
    n = len(automaton.locations)
    region = Polyhedron()
    if rng.random() < 0.6:
        # y >= k, against a resource that the draw may drain
        k = Fraction(rng.randint(-2 * denominator, 6 * denominator), denominator)
        need = LinearExpression.build({"y": -1}, k)
        region = Polyhedron((LinearConstraint(need, Relation.LE),))
    return PlanningProblem(
        domain=automaton,
        init=automaton.initial,
        goal=GoalSpec(location=rng.randrange(n), region=region),
        depth=rng.randint(0, 8),
    )


def test_shared_box_pass_agrees_with_the_per_check_reference():
    # One pass per draw decides every location's alpha sub-problem and the
    # exact goal, in shuffled order, as the per-check analysis does.
    rng = random.Random(1212)
    checks = unsat = 0
    for _ in range(1000):
        problem = random_box_problem(rng)
        automaton = problem.domain
        n = len(automaton.locations)
        subproblems = [alpha(problem, loc) for loc in range(n)] + [problem]
        rng.shuffle(subproblems)
        box = reach.BoxSteps(problem)
        assert box.maps == []  # building the pass does no step work
        for sub in subproblems:
            want = per_check_box_unreachable(sub)
            assert reach._interval_unreachable(sub, box) == want
            checks += 1
            unsat += want
        # The list stops at the depth and at the first repeated map.
        assert len(box.maps) <= problem.depth + 1
        keys = [
            tuple((loc, tuple(b[v] for v in automaton.variables)) for loc, b in sorted(m.items()))
            for m in box.maps[1:]
        ]
        assert len(set(keys)) == len(keys)
    assert checks > 3000 and unsat > 1000


def test_box_maps_match_the_lazy_reference_and_step_only_when_asked(monkeypatch):
    # Driven to their ends, the generator and the step-by-step reference
    # hold the same maps once the reference's empty (None) boxes are
    # dropped.  After map(k), no _box_dwell call has taken a box of map k as
    # its entry, so the walk never steps past the map it was asked for.
    dwell = reach._box_dwell
    entries = []

    def recorded(entry, rates, exit_box):
        entries.append(entry)  # kept alive, so ids are not reused
        return dwell(entry, rates, exit_box)

    monkeypatch.setattr(reach, "_box_dwell", recorded)
    rng = random.Random(1515)
    problems = [load_benchmark(d, p) for d, p in benchmark_problems()]
    problems += [random_box_problem(rng) for _ in range(1000)]
    stepped = 0
    for problem in problems:
        box = reach.BoxSteps(problem)
        entries.clear()
        step = 0
        while (current := box.map(step)) is not None:
            assert not {id(b) for b in current.values()} & {id(e) for e in entries}
            step += 1
        stepped += step > 1
        lazy = LazyBoxSteps(problem)
        lazy.map(problem.depth)
        assert box.maps == [
            {loc: b for loc, b in m.items() if b is not None} for m in lazy.maps
        ]
    assert len(problems) == 1014 and stepped > 500


def random_fractional_box_problem(rng: random.Random) -> PlanningProblem:
    """A ``random_box_problem`` draw whose numbers are halves or thirds."""
    return random_box_problem(rng, denominator=rng.choice((2, 3)))


def map_bounds(box):
    """Every bound of every map of a pass, None included."""
    return [bound for m in box.maps for b in m.values() for pair in b.values() for bound in pair]


def test_box_agrees_with_its_references_on_non_integral_data():
    # Rate bounds, region constants and interval-reset bounds in halves or
    # thirds exercise the Fraction side of the box's bounds: the pass holds
    # the step-by-step reference's maps and decides every check as the
    # per-check reference does.
    rng = random.Random(1717)
    unsat = non_integral = 0
    for _ in range(300):
        problem = random_fractional_box_problem(rng)
        n = len(problem.domain.locations)
        box = reach.BoxSteps(problem)
        for sub in [alpha(problem, loc) for loc in range(n)] + [problem]:
            want = per_check_box_unreachable(sub)
            assert reach._interval_unreachable(sub, box) == want
            unsat += want
        box.map(problem.depth)
        lazy = LazyBoxSteps(problem)
        lazy.map(problem.depth)
        assert box.maps == [
            {loc: b for loc, b in m.items() if b is not None} for m in lazy.maps
        ]
        non_integral += any(
            type(bound) is Fraction and bound.denominator != 1 for bound in map_bounds(box)
        )
    assert unsat > 300 and non_integral > 100


def test_box_bounds_are_ints_when_integral_and_never_floats():
    # Region boxes and rate tables normalise the model's Fractions, so the
    # box steps in int arithmetic wherever the data is integral.  A bound
    # computed from a non-integral one may stay a Fraction; none is a float.
    rng = random.Random(1818)
    problems = [load_benchmark(d, p) for d, p in benchmark_problems()]
    problems += [random_box_problem(rng) for _ in range(200)]
    problems += [random_fractional_box_problem(rng) for _ in range(200)]
    ints = fractions = 0
    for problem in problems:
        automaton = problem.domain
        box = reach.BoxSteps(problem)
        box.map(problem.depth)
        assert all(type(b) in (int, Fraction) for b in map_bounds(box) if b is not None)
        regions = [problem.init[1], problem.goal.region]
        regions += [loc.invariant for loc in automaton.locations]
        regions += [t.guard for t in automaton.transitions]
        normalised = [b for r in regions for pair in box.region_box(r).values() for b in pair]
        for loc in automaton.locations:
            normalised += [b for _var, lower, upper in box.rates(loc.id) for b in (lower, upper)]
        for b in normalised:
            if b is None:
                continue
            assert type(b) is int or (type(b) is Fraction and b.denominator != 1), b
            ints += type(b) is int
            fractions += type(b) is Fraction
    assert len(problems) == 414 and ints > 1000 and fractions > 100


def test_a_dropped_box_pass_is_freed_at_once():
    # A pass whose walk is suspended mid-way is freed when its last
    # reference goes, without waiting for the cyclic garbage collector.
    box = reach.BoxSteps(load_benchmark("wa6x6", "depth12.prob"))
    assert box.map(2) is not None
    ref = weakref.ref(box)
    gc.disable()
    try:
        del box
        assert ref() is None
    finally:
        gc.enable()


def test_shared_box_pass_at_step_zero_and_depth_zero():
    # init location == goal location: the goal is hit before any step.
    problem = hop_problem(goal="a", depth=2)
    box = reach.BoxSteps(problem)
    assert not reach._interval_unreachable(problem, box)
    assert len(box.maps) == 1
    # Depth 0 with the goal elsewhere: only the init map is ever built.
    problem = hop_problem(goal="b", depth=0)
    box = reach.BoxSteps(problem)
    assert reach._interval_unreachable(problem, box)
    assert len(box.maps) == 1 and box.map(1) is None


def test_shared_box_pass_stops_on_an_empty_map():
    # b has no outgoing transition, so the map after b's is empty and the
    # list ends there, well before the depth.
    problem = hop_problem(goal="b", depth=9, goal_region="{ x >= 100 }")
    box = reach.BoxSteps(problem)
    assert reach._interval_unreachable(problem, box)
    assert [sorted(m) for m in box.maps] == [[0], [1]]
    assert box.map(2) is None
    assert not reach._interval_unreachable(alpha(problem, 1), box)
    assert len(box.maps) == 2


def test_bounded_reachable_rejects_a_box_pass_of_another_problem():
    problem = hop_problem(depth=2)
    box = reach.BoxSteps(problem)
    assert bounded_reachable(alpha(problem, 0), box=box).is_sat
    for other in (
        dataclasses.replace(problem, depth=3),
        dataclasses.replace(problem, init=(1, Polyhedron())),
    ):
        with pytest.raises(ValueError, match="box pass"):
            bounded_reachable(other, box=box)


def test_one_explain_builds_each_box_once(monkeypatch):
    # On wa10x10 d12 the 11 checks of one explain share one box pass: each
    # invariant and guard box is built once, and the step maps are stepped
    # once between all of them.  Its 100 locations share one invariant and
    # its 178 transitions one guard and one reset, so the pass boxes 3
    # regions (the init's, the invariant and the guard) and each step
    # dwells once per distinct entry box of the one exit group: 39 dwells,
    # where one dwell per location and transition would be 250.
    problem = load_benchmark("wa10x10", "depth12.prob")
    dwell, from_region = reach._box_dwell, reach._box_from_region
    dwells = []
    regions = []

    def counted_dwell(*args):
        dwells.append(1)
        return dwell(*args)

    def counted_from_region(region, variables):
        regions.append(region)
        return from_region(region, variables)

    monkeypatch.setattr(reach, "_box_dwell", counted_dwell)
    monkeypatch.setattr(reach, "_box_from_region", counted_from_region)
    report = explain(problem)
    assert (report.explanation_name, len(report.verdicts)) == ("l63", 11)
    assert (len(dwells), len(regions)) == (39, 3)
    automaton = problem.domain
    shared = [loc.invariant for loc in automaton.locations]
    shared += [t.guard for t in automaton.transitions]
    for region in shared:
        assert sum(1 for r in regions if r is region) <= 1


def unshared(problem: PlanningProblem) -> PlanningProblem:
    """``problem`` with every region, reset and rate table of its
    automaton, init and goal a fresh copy of its own, so that no two of
    them are one object."""
    automaton = problem.domain
    fresh = dataclasses.replace(
        automaton,
        locations=tuple(
            dataclasses.replace(
                loc, invariant=copy.deepcopy(loc.invariant), rates=copy.deepcopy(loc.rates)
            )
            for loc in automaton.locations
        ),
        transitions=tuple(
            dataclasses.replace(t, guard=copy.deepcopy(t.guard), reset=copy.deepcopy(t.reset))
            for t in automaton.transitions
        ),
        initial=copy.deepcopy(automaton.initial),
    )
    objects = [fresh.initial[1]] + [loc.invariant for loc in fresh.locations]
    objects += [loc.rates for loc in fresh.locations]
    objects += [t.guard for t in fresh.transitions] + [t.reset for t in fresh.transitions]
    assert len({id(o) for o in objects}) == len(objects)
    return dataclasses.replace(
        problem,
        domain=fresh,
        init=copy.deepcopy(problem.init),
        goal=copy.deepcopy(problem.goal),
    )


def report_text(problem: PlanningProblem) -> str:
    doc = json.loads(serialize_report(explain(problem)))
    del doc["timings_ms"]
    return json.dumps(doc)


def reparsed(problem: PlanningProblem, one_class: bool) -> PlanningProblem:
    """``problem`` with its automaton round-tripped through the parser, so
    that its equal regions, resets and rate tables are one object; with
    ``one_class``, every location first takes location 0's invariant and
    rates and every transition transition 0's guard and reset, as in the
    bundled grid families."""
    automaton = problem.domain
    if one_class:
        loc, trans = automaton.locations[0], automaton.transitions[0]
        automaton = dataclasses.replace(
            automaton,
            locations=tuple(
                dataclasses.replace(other, invariant=loc.invariant, rates=loc.rates)
                for other in automaton.locations
            ),
            transitions=tuple(
                dataclasses.replace(other, guard=trans.guard, reset=trans.reset)
                for other in automaton.transitions
            ),
        )
    return dataclasses.replace(problem, domain=parse_model(serialize_model(automaton)))


def test_shared_and_unshared_model_objects_give_the_same_boxes(monkeypatch):
    # The box walk keys its work by model object, which is sound whatever
    # the sharing: each of the 14 rows (parsed, so equal values are one
    # object) and each random draw, shared by a round trip through the
    # parser, with its own classes of locations and transitions or with one
    # class of each, gives the same maps, box answers and report as its
    # rebuilt copy with no object shared.  The shared one never dwells
    # more.
    dwell = reach._box_dwell
    dwells = [0]

    def counted(*args):
        dwells[0] += 1
        return dwell(*args)

    monkeypatch.setattr(reach, "_box_dwell", counted)
    rng = random.Random(3030)
    problems = [load_benchmark(d, p) for d, p in benchmark_problems()]
    for _ in range(300):
        draw = random_box_problem(rng)
        problems += [reparsed(draw, False), reparsed(draw, True)]
    fewer = 0
    for problem in problems:
        fresh = unshared(problem)
        seen = []
        for side in (problem, fresh):
            dwells[0] = 0
            box = reach.BoxSteps(side)
            box.map(side.depth)
            walked = dwells[0]
            n = len(side.domain.locations)
            answers = [reach._interval_unreachable(alpha(side, loc), box) for loc in range(n)]
            answers.append(reach._interval_unreachable(side, box))
            seen.append((walked, box.maps, answers, report_text(side)))
        (shared_dwells, *shared), (fresh_dwells, *rebuilt) = seen
        assert shared == rebuilt
        assert shared_dwells <= fresh_dwells
        fewer += shared_dwells < fresh_dwells
    assert len(problems) == 614 and fewer > 100


def counted_shared_work(monkeypatch):
    """Count the positions encoded onto a stage stack and the predecessor
    maps built, in two lists that grow by one entry each."""
    pushes, preds = [], []
    push, predecessors = reach._Stages.push, graph._predecessors

    def counted_push(self, path):
        pushes.append(1)
        return push(self, path)

    def counted_predecessors(succ):
        preds.append(1)
        return predecessors(succ)

    monkeypatch.setattr(reach._Stages, "push", counted_push)
    monkeypatch.setattr(graph, "_predecessors", counted_predecessors)
    return pushes, preds


def test_one_explain_encodes_each_position_once(monkeypatch):
    # On wa10x10 d12 the ten SAT checks' first paths nest, with 0 to 9
    # transitions, so the pass's stack encodes 10 positions between them
    # (55 when every path was encoded from its first position).  The pass
    # builds one predecessor map and lcs_multi one (21 when each distance
    # table built its own).
    pushes, preds = counted_shared_work(monkeypatch)
    report = explain(load_benchmark("wa10x10", "depth12.prob"))
    assert (report.explanation_name, len(report.verdicts)) == ("l63", 11)
    assert (len(pushes), len(preds)) == (10, 2)


@pytest.mark.parametrize(
    "workload,positions",
    [("bundle", 58), ("relational_sat", 744), ("relational_unsat", 660)],
)
def test_one_benchmark_pass_encodes_each_shared_position_once(monkeypatch, workload, positions):
    # One seed-1 pass of each benchmark workload: before the stack, the
    # passes encoded 184, 2,040 and 1,420 positions.  Every explain here
    # builds two predecessor maps: its pass's, and lcs_multi's.
    if workload == "bundle":
        problems = [load_benchmark(*row) for row in benchmark_problems()]
    else:
        problems = pool_problems(workload, 1)
    pushes, preds = counted_shared_work(monkeypatch)
    for problem in problems:
        explain(problem)
    assert (len(pushes), len(preds)) == (positions, 2 * len(problems))


def resumed_encodings(monkeypatch):
    """Have every ``encode_path`` call that ``bounded_reachable`` makes
    checked against a fresh encoding of its path, byte for byte, and its
    stack against the depth; returns the stack of each call."""
    stacks = []

    def checked(problem, path, *, stages=None):
        got = encode_path(problem, path, stages=stages)
        assert repr(got) == repr(encode_path(problem, path)), path
        assert stages is not None and len(stages.states) <= problem.depth + 1
        stacks.append(stages)
        return got

    monkeypatch.setattr(reach, "encode_path", checked)
    return stacks


def explain_on_one_stack(stacks, problem):
    """Explain ``problem`` and assert that its checks resumed one stack."""
    before = len(stacks)
    explain(problem)
    assert all(s is stacks[before] for s in stacks[before:])


@pytest.mark.parametrize("regime", ["default", "box_off"])
def test_resumed_encodings_equal_fresh_ones_on_the_pinned_rows(monkeypatch, regime):
    if regime == "box_off":
        box_off(monkeypatch)
    stacks = resumed_encodings(monkeypatch)
    for row in benchmark_problems():
        explain_on_one_stack(stacks, load_benchmark(*row))
    assert len(stacks) > 14


@pytest.mark.parametrize("workload", ["relational_sat", "relational_unsat"])
def test_resumed_encodings_equal_fresh_ones_on_a_pool_cycle(monkeypatch, workload):
    stacks = resumed_encodings(monkeypatch)
    for problem in pool_problems(workload, 1, cycles=1):
        explain_on_one_stack(stacks, problem)
    assert stacks


def test_resumed_encodings_equal_fresh_ones_when_goals_share_a_pass(monkeypatch, tmp_path):
    # Several goals of one automaton checked over one pass, half of them
    # with every path encoded (--dump-lp); then every path to every goal
    # encoded on one stack in a shuffled order, so that a call may pop
    # back to any prefix length, down to position 0.
    box_off(monkeypatch)
    stacks = resumed_encodings(monkeypatch)
    rng = random.Random(2626)
    shuffled = resumed = 0
    for case in range(300):
        automaton = random_automaton(rng)
        init_loc = automaton.initial[0]
        problem = PlanningProblem(
            domain=automaton, init=automaton.initial,
            goal=GoalSpec(location=init_loc, region=Polyhedron()), depth=4,
        )
        box = reach.BoxSteps(problem)
        goals = list(range(len(automaton.locations)))
        rng.shuffle(goals)
        for goal in goals:
            dump = str(tmp_path / ("%d_%d" % (case, goal))) if rng.random() < 0.5 else None
            bounded_reachable(alpha(problem, goal), dump_dir=dump, box=box)
        assert all(s is box.stages for s in stacks)
        resumed += len(stacks)
        del stacks[:]
        every = [
            (goal, path) for goal in goals
            for path in enumerate_concrete_paths(automaton, init_loc, goal, 4)
        ]
        rng.shuffle(every)
        stack = reach._Stages(problem)
        earlier = None
        for goal, path in every:
            sub = alpha(problem, goal)
            got = encode_path(sub, path, stages=stack)
            assert repr(got) == repr(encode_path(sub, path)), (case, path)
            assert len(stack.states) == len(path.locations)
            # A later call leaves what an earlier one returned as it was.
            if earlier is not None:
                assert repr(earlier[0]) == earlier[1]
            earlier = got, repr(got)
        shuffled += len(every)
    assert resumed > 500 and shuffled > 2000


def test_a_stage_stack_of_another_automaton_is_rejected():
    problem = hop_problem()
    path = next(enumerate_concrete_paths(problem.domain, problem.init[0], 1, 2))
    other = reach.BoxSteps(half_problem())
    with pytest.raises(ValueError, match="another automaton or init"):
        encode_path(problem, path, stages=other.stages)


def test_the_stack_keeps_the_stages_a_path_shares_by_key(monkeypatch):
    # nrs d20's first two paths to its goal take disjoint transitions whose
    # guards and resets, and whose locations' invariants and rates, are
    # equal in turn: the second is encoded on the first's stages without a
    # push, and its rows are the ones a fresh stack gives.
    problem = load_benchmark("nrs", "depth20.prob")
    stages = reach.BoxSteps(problem).stages
    ends = (problem.init[0], problem.goal.location, problem.depth)
    first, second = itertools.islice(enumerate_concrete_paths(problem.domain, *ends), 2)
    assert not set(first.transitions) & set(second.transitions)
    assert stages.keys(first) == stages.keys(second)
    fresh = repr(encode_path(problem, second))
    encode_path(problem, first, stages=stages)
    pushes = []
    push = reach._Stages.push
    monkeypatch.setattr(reach._Stages, "push", lambda self, path: pushes.append(path) or push(self, path))
    assert repr(encode_path(problem, second, stages=stages)) == fresh
    assert pushes == []


def test_dump_lp_writes_one_file_per_path(tmp_path):
    problem = hop_problem()
    bounded_reachable(problem, dump_dir=str(tmp_path))
    files = sorted(os.listdir(tmp_path))
    assert files and all(f.endswith(".lp") for f in files)
    text = (tmp_path / files[0]).read_text()
    assert "# path 0" in text and "<= 0" in text
    # The box pre-analysis decides this goal, so no path is checked or dumped.
    boxed = hop_problem(goal="b", goal_region="{ x >= 100 }", depth=2)
    boxed_dir = tmp_path / "boxed"
    assert bounded_reachable(boxed, dump_dir=str(boxed_dir)) == bounded_reachable(boxed)
    assert list(boxed_dir.rglob("*.lp")) == []


def witness_number_kinds(problem, verdict):
    """Count the numbers of a SAT verdict's run and plan, as ``(ints,
    fractions)``, after checking that each is in canonical form: the entry
    and exit values and dwell of every segment, each plan step's time and
    the makespan."""
    run, plan = extract_witness(problem, verdict)
    numbers = [plan.makespan, *(t for t, _label in plan.steps)]
    for seg in run.segments:
        numbers += [seg.dwell, *(v for _var, v in seg.entry + seg.exit)]
    ints = sum(assert_canonical(x) for x in numbers)
    return ints, len(numbers) - ints


def test_witness_values_are_canonical():
    # hop dwells 3/2 in a, so x exits at 3 (an int) and t at 3/2.
    problem = hop_problem()
    assert witness_number_kinds(problem, bounded_reachable(problem)) == (8, 4)
    # golden/half dwells 3/2 then 5/2: the second plan step and the makespan
    # are 4, an integral sum of non-integral parts, and come out as ints.
    problem = half_problem()
    verdict = bounded_reachable(problem)
    ints, fractions = witness_number_kinds(problem, verdict)
    assert ints > 0 and fractions > 0
    run, plan = extract_witness(problem, verdict)
    assert [seg.dwell for seg in run.segments] == [Fraction(3, 2), Fraction(5, 2), 0]
    assert plan.steps == ((Fraction(3, 2), "go"), (4, "stop"))
    assert [type(t) for t, _label in plan.steps] == [Fraction, int]
    assert type(plan.makespan) is int and plan.makespan == 4
    # Dwells 1/3 and 2/3 on a run built by hand: the step time and the
    # makespan are 1, an int.
    thirds = dataclasses.replace(
        run,
        segments=tuple(
            dataclasses.replace(seg, dwell=d)
            for seg, d in zip(run.segments, (Fraction(1, 3), Fraction(2, 3), 0))
        ),
    )
    _run, plan = extract_witness(problem, reach.Verdict(1, thirds))
    assert [type(t) for t, _label in plan.steps] == [Fraction, int]
    assert type(plan.makespan) is int and plan.makespan == 1


def test_witness_values_are_canonical_on_bundled_sat_checks(monkeypatch):
    # Every reachable chain entry of every bundled problem: the LP regime's
    # witnesses are the default regime's, since the box decides only UNSAT.
    checks = []

    def recorded(problem, *args, **kwargs):
        verdict = bounded_reachable(problem, *args, **kwargs)
        if verdict.is_sat:
            checks.append((problem, verdict))
        return verdict

    monkeypatch.setattr(sys.modules["wpx.explain"], "bounded_reachable", recorded)
    for dirname, probname in benchmark_problems():
        explain(load_benchmark(dirname, probname))
    kinds = [witness_number_kinds(problem, verdict) for problem, verdict in checks]
    assert len(kinds) == 52 and all(ints for ints, _ in kinds)
    assert any(fractions for _, fractions in kinds)


def encoding_number_kinds(rows, points):
    """Count the numbers ``encode_path`` emitted, as ``(ints, fractions)``,
    after checking that each is in canonical form (``assert_canonical``)
    and that no coefficient is 0."""
    ints = fractions = 0
    exprs = list(rows) + [expr for entry, exit_ in points for expr in entry + exit_]
    for coeffs, const in exprs:
        assert all(k != 0 for k in coeffs.values())
        for number in (const, *coeffs.values()):
            if assert_canonical(number):
                ints += 1
            else:
                fractions += 1
    return ints, fractions


def encoded_random_automata(seed, denominator, count):
    """``encoding_number_kinds`` summed over every concrete path of
    ``count`` random automata whose numbers are multiples of
    ``1/denominator``, with a two-variable goal row."""
    rng = random.Random(seed)
    ints = fractions = paths = 0
    for _ in range(count):
        automaton = random_automaton(rng, denominator=denominator)
        goal = rng.randrange(len(automaton.locations))
        bound = LinearExpression.build(
            {"x": 1, "y": rng.choice((-1, 2))},
            -Fraction(rng.randint(-2 * denominator, 6 * denominator), denominator),
        )
        problem = PlanningProblem(
            domain=automaton,
            init=automaton.initial,
            goal=GoalSpec(location=goal, region=Polyhedron((LinearConstraint(bound, Relation.LE),))),
            depth=3,
        )
        for path in enumerate_concrete_paths(automaton, automaton.initial[0], goal, 3):
            i, f = encoding_number_kinds(*encode_path(problem, path)[:2])
            ints += i
            fractions += f
            paths += 1
    return ints, fractions, paths


def test_encode_path_emits_canonical_numbers_on_bundled_rows():
    # The first paths of each pinned row, encoded as the LP regime encodes
    # every path the box pre-analysis would have settled.  Only nav's init
    # (f = 5/2) is not integral.
    with open(os.path.join(os.path.dirname(reach.__file__), "benchmarks", "expectations.json")) as fh:
        table = json.load(fh)["rows"]
    assert len(table) == 14
    for row in table:
        problem = load_benchmark(row["dir"], row["problem"])
        paths = enumerate_concrete_paths(
            problem.domain, problem.init[0], problem.goal.location, problem.depth
        )
        kinds = [
            encoding_number_kinds(*encode_path(problem, path)[:2])
            for path in itertools.islice(paths, 30)
        ]
        assert kinds and all(ints for ints, _ in kinds), row["name"]
        assert any(fractions for _, fractions in kinds) == (row["name"] == "nav"), row["name"]


def test_encode_path_emits_only_ints_on_integral_random_automata():
    ints, fractions, paths = encoded_random_automata(2121, 1, 100)
    assert paths > 200 and ints > 0 and fractions == 0


@pytest.mark.parametrize("denominator", [2, 3])
def test_encode_path_emits_canonical_numbers_on_non_integral_random_automata(denominator):
    # Multiples of 1/2 or 1/3: some numbers stay Fractions, and the integral
    # ones, products such as 2 * (1/2) included, come out as ints.
    ints, fractions, paths = encoded_random_automata(2122 + denominator, denominator, 100)
    assert paths > 200 and ints > 0 and fractions > 0


def test_solve_rows_is_exact_on_int_rows_with_non_integral_quotients():
    # Int rows whose single-variable bounds, such as 3*x <= 1 and
    # -2*y <= -1, do not divide evenly: with ``/`` they would become floats.
    rows = [({"x": 3}, 1), ({"x": -3}, -1), ({"y": -2}, -1), ({"x": 1, "y": 1}, 2)]
    assert same_as_fraction_tableau(rows)
    assert reach._solve_rows(rows) == {"x": Fraction(1, 3), "y": Fraction(1, 2)}
    rng = random.Random(1818)
    sat = 0
    for _ in range(200):
        rows = [
            ({v: int(k) * rng.choice((1, 2, 3)) for v, k in coeffs.items()}, rng.randint(-7, 7))
            for coeffs, _ in lp_rows(random_lp(rng, 6, 14))
        ]
        sat += same_as_fraction_tableau(rows)
    assert 20 < sat < 180


def oracle_numbers(problem, paths):
    """Every number that an oracle returns for ``problem`` and for the
    first ``paths`` of its concrete paths: the box references' maps and
    region boxes, the full encoding and its rows, and the assignments of
    ``split_simplex_rows`` and ``fraction_tableau_rows`` on the library's
    rows and of ``fraction_tableau_rows`` and ``lp_feasible`` on the full
    encoding's (the split simplex is dense there, and slow).  Fourier-Motzkin,
    which returns only a verdict, decides the paths of at most two
    transitions and must agree with the library."""
    automaton = problem.domain
    lazy = LazyBoxSteps(problem)
    lazy.map(problem.depth)
    boxes = [b for m in lazy.maps for b in m.values() if b is not None]
    regions = [problem.init[1], problem.goal.region]
    regions += [loc.invariant for loc in automaton.locations]
    regions += [t.guard for t in automaton.transitions]
    boxes += [oracles._box_from_region(r, automaton.variables) for r in regions]
    numbers = [x for b in boxes for pair in b.values() for x in pair if x is not None]
    assert all(type(x) is Fraction for x in numbers)
    assert per_check_box_unreachable(problem) in (True, False)
    ends = (problem.init[0], problem.goal.location, problem.depth)
    for path in itertools.islice(enumerate_concrete_paths(automaton, *ends), paths):
        rows = encode_path(problem, path)[0]
        lp = full_encode_path(problem, path)
        numbers += [c.expression.constant for c in lp.constraints]
        numbers += [k for c in lp.constraints for _v, k in c.expression.coefficients]
        full_rows = lp_rows(lp)
        read = [x for coeffs, bound in full_rows for x in (bound, *coeffs.values())]
        assert all(type(x) is Fraction for x in read)
        numbers += read
        for solve, rs in (
            (split_simplex_rows, rows),
            (fraction_tableau_rows, rows),
            (fraction_tableau_rows, full_rows),
        ):
            numbers += (solve(rs) or {}).values()
        assignment = lp_feasible(lp)
        numbers += (assignment or {}).values()
        if len(path.transitions) <= 2:
            assert fm_feasible(lp) == (assignment is not None)
    return numbers


def test_no_oracle_returns_a_float():
    # The model holds an integral number as an int, and ``/`` on two ints
    # gives a float: each oracle must read the model's numbers as Fractions.
    problems = [load_benchmark(d, p) for d, p in benchmark_problems()]
    problems.append(half_problem())
    rng = random.Random(1919)
    for _ in range(60):
        automaton = random_automaton(rng, denominator=1)
        goal = GoalSpec(location=rng.randrange(len(automaton.locations)))
        problems.append(PlanningProblem(automaton, automaton.initial, goal, 3))
    count = 0
    for problem in problems:
        numbers = oracle_numbers(problem, 3)
        assert all(type(x) in (int, Fraction) for x in numbers), problem
        count += len(numbers)
    assert len(problems) == 75 and count > 10000


def test_encode_path_agrees_with_full_encoding_oracle():
    # Both directions: the solver's rows are infeasible exactly when the full
    # encoding is, and a SAT witness expanded through ``points`` satisfies
    # every constraint of the full encoding.
    rng = random.Random(8080)
    sat = unsat = 0
    for case in range(200):
        automaton = random_automaton(rng)
        goal = rng.randrange(len(automaton.locations))
        region = Polyhedron()
        if rng.random() < 0.6:
            bound = LinearExpression.build({"y": 1}, -rng.randint(-2, 6))
            region = Polyhedron(
                (LinearConstraint(bound, rng.choice([Relation.LE, Relation.GE])),)
            )
        problem = PlanningProblem(
            domain=automaton,
            init=automaton.initial,
            goal=GoalSpec(location=goal, region=region),
            depth=3,
        )
        for path in enumerate_concrete_paths(automaton, automaton.initial[0], goal, 3):
            rows, points, _ends = encode_path(problem, path)
            assignment = reach._solve_rows(rows)
            lp = full_encode_path(problem, path)
            want = fm_feasible(lp) if len(path.transitions) <= 2 else lp_feasible(lp) is not None
            assert (not refuted(rows, assignment)) == want, (case, path)
            if not want:
                unsat += 1
                continue
            sat += 1
            def value(expr):
                coeffs, const = expr
                return const + sum(k * assignment.get(v, 0) for v, k in coeffs.items())

            valuation = {}
            for i, (entry, exit_) in enumerate(points):
                valuation["d%d" % i] = assignment["d%d" % i]
                for var, e_in, e_out in zip(automaton.variables, entry, exit_):
                    valuation["%s@%din" % (var, i)] = value(e_in)
                    valuation["%s@%dout" % (var, i)] = value(e_out)
            assert set(valuation) == set(lp.variables)
            for c in lp.constraints:
                assert c.holds(valuation), (case, path, c)
    assert sat > 100 and unsat > 100


def shift_first_dwell(monkeypatch):
    solve = reach._solve_rows

    def shifted(rows, *, stages=None):
        assignment = solve(rows, stages=stages)
        if not isinstance(assignment, reach.Farkas):
            assignment["d0"] += 2
        return assignment

    monkeypatch.setattr(reach, "_solve_rows", shifted)


def test_witness_failing_check_witness_is_an_internal_error(monkeypatch):
    shift_first_dwell(monkeypatch)
    with pytest.raises(AssertionError, match="check_witness: segment 0 variable 'x' displacement"):
        bounded_reachable(hop_problem())


def test_check_exits_internal_on_a_witness_failing_check_witness(monkeypatch, tmp_path, capsys):
    (tmp_path / "hop.lha").write_text(HOP)
    (tmp_path / "hop.prob").write_text("model hop.lha\ngoal b\ndepth 2\n")
    argv = ["check", "--problem", str(tmp_path / "hop.prob")]
    assert main(argv) == EXIT_OK
    shift_first_dwell(monkeypatch)
    assert main(argv) == EXIT_INTERNAL
    assert "check_witness" in capsys.readouterr().err


def parse_dump_row(line):
    terms, const = line[: -len(" <= 0")].rsplit(" + ", 1)
    coeffs = {}
    for term in terms.split(" + "):
        if term != "0":
            k, v = term.split("*")
            coeffs[v] = Fraction(k)
    return coeffs, -Fraction(const)


def test_dump_lp_lists_the_rows_the_solver_decides(monkeypatch, tmp_path):
    # With the box pre-analysis off every path is encoded, exactly once, and
    # its dump holds the rows that encoding handed to the solver.
    problem = load_benchmark("wlm", "depth20.prob")
    encoded = []

    def encode(problem, path, *, stages=None):
        encoded.append(encode_path(problem, path, stages=stages))
        return encoded[-1]

    box_off(monkeypatch)
    monkeypatch.setattr(reach, "encode_path", encode)
    verdict = bounded_reachable(problem, dump_dir=str(tmp_path))
    assert not verdict.is_sat and verdict.paths_checked == len(encoded) > 1
    assert sorted(os.listdir(tmp_path)) == ["path_%05d.lp" % i for i in range(len(encoded))]
    for idx, (rows, _points, _ends) in enumerate(encoded):
        lines = (tmp_path / ("path_%05d.lp" % idx)).read_text().splitlines()
        assert lines[0] == "# path %d" % idx and lines[1].startswith("# locations: l1 ")
        assert [parse_dump_row(line) for line in lines[2:]] == rows
