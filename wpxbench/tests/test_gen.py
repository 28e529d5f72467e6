"""The generator's inputs are reproducible and its answers hold."""

from fractions import Fraction

import pytest

import gen
import workloads
from wpx import GoalSpec, check_witness, parse_model, parse_problem
from wpx.model import ResetKind, RunSegment, WitnessRun

SEEDS = (1, 2, 3, 17, 2024)
SHAPES = [
    (workload, i, slot)
    for workload, (shapes, _copies) in sorted(workloads.POOLS.items())
    for i, slot in enumerate(shapes)
]


def build(slot, seed, i):
    g = gen.generate(slot, seed, "p%02d" % i)
    problem = parse_problem(g.problem_text, parse_model(g.model_text)).problem
    return g, problem


def to_witness(automaton, run):
    ids = {loc.name: loc.id for loc in automaton.locations}
    edges = {(t.source, t.target): t.id for t in automaton.transitions}
    segments = tuple(
        RunSegment(ids[s.location], s.entry, s.dwell, s.exit) for s in run.segments
    )
    transitions = tuple(edges[ids[a], ids[b]] for a, b in run.edges)
    return WitnessRun(segments, transitions)


@pytest.mark.parametrize("workload", sorted(workloads.POOLS))
def test_same_seed_gives_identical_inputs(workload):
    for seed in SEEDS:
        first = workloads.generated_cases(workload, seed)
        again = workloads.generated_cases(workload, seed)
        assert [(c.model_text, c.problem_text) for c in first] == [
            (c.model_text, c.problem_text) for c in again
        ]
    other = workloads.generated_cases(workload, SEEDS[1])
    assert [c.model_text for c in first] != [c.model_text for c in other]


@pytest.mark.parametrize("workload,i,slot", SHAPES)
def test_constructed_runs_pass_check_witness(workload, i, slot):
    for seed in SEEDS:
        g, problem = build(slot, seed, i)
        automaton = problem.domain
        if slot.kind == "sat":
            run = to_witness(automaton, g.run)
            assert check_witness(automaton, problem.init, problem.goal, run) == []
        for name in g.reachable:
            loc = automaton.location_by_name(name)
            goal = GoalSpec(loc.id, loc.invariant)
            run = to_witness(automaton, g.run.prefix(name))
            assert check_witness(automaton, problem.init, goal, run) == []


def _blocking_rows(problem, slot):
    automaton = problem.domain
    if slot.kind == "goal":
        return [problem.goal.region.constraints]
    if slot.kind == "mid":
        first = "a1_" if slot.block_segment == "A" else "b1_"
        return [
            t.guard.constraints
            for t in automaton.transitions
            if automaton.location(t.source).name.startswith(first)
        ]
    return []


@pytest.mark.parametrize("workload,i,slot", [p for p in SHAPES if p[2].kind != "sat"])
def test_unsat_invariant_premises_hold(workload, i, slot):
    """a*x - b*y never increases and the blocking row needs it above z0."""
    for seed in SEEDS:
        g, problem = build(slot, seed, i)
        a, b = g.weights
        automaton = problem.domain
        for loc in automaton.locations:
            assert a * loc.rates.interval("x").upper <= b * loc.rates.interval("y").lower
        for t in automaton.transitions:
            assert t.reset.action("x").kind is ResetKind.KEEP
            assert t.reset.action("y").kind is ResetKind.KEEP
        start = dict(g.run.segments[0].entry)
        assert a * start["x"] - b * start["y"] == g.z0
        init_loc, init_region = problem.init
        assert init_region.contains(start)
        rows = _blocking_rows(problem, slot)
        assert rows
        blocking = {((("x", Fraction(a)), ("y", Fraction(-b))), Fraction(-(g.z0 + 1)))}
        for constraints in rows:
            relational = [c for c in constraints if len(c.expression.coefficients) == 2]
            assert {(c.expression.coefficients, c.expression.constant) for c in relational} == blocking
            assert all(c.relation.value == ">=" for c in relational)


def test_sat_goal_needs_the_constructed_extreme():
    """The SAT goal is tight: the constructed run meets it with equality."""
    for i, slot in enumerate(workloads.SAT_SHAPES):
        g, problem = build(slot, 1, i)
        a, b = g.weights
        final = dict(g.run.segments[-1].exit)
        (row,) = problem.goal.region.constraints
        assert row.expression.evaluate(final) == 0
