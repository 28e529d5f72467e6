"""Core type behavior: validation, goal widening, and the run checker."""

import copy
import dataclasses
import itertools
import pickle
import random
from fractions import Fraction

import pytest

from conftest import assert_canonical, benchmark_problems, half_problem, load_benchmark
from oracles import random_automaton, random_lp, serialize_model
from wpx.model import (
    GoalSpec,
    HybridAutomaton,
    LinearConstraint,
    LinearExpression,
    Location,
    Plan,
    PlanningProblem,
    Polyhedron,
    RateInterval,
    RateSpec,
    Relation,
    Reset,
    ResetAction,
    ResetKind,
    RunSegment,
    Transition,
    WitnessRun,
    alpha,
    check_witness,
    rat,
    validate_model,
)
from wpx.reach import bounded_reachable
from wpx.textio import parse_model


def le(coeffs, const=0):
    return LinearConstraint(LinearExpression.build(coeffs, const), Relation.LE)


def ge(coeffs, const=0):
    return LinearConstraint(LinearExpression.build(coeffs, const), Relation.GE)


def make_automaton(**overrides):
    locations = (
        Location(0, "a", Polyhedron((ge({"x": 1}),)), RateSpec.build({"x": (1, 1)})),
        Location(1, "b", Polyhedron(), RateSpec.build({"x": (-1, 0)})),
    )
    transitions = (
        Transition(0, 0, 1, "go", Polyhedron((ge({"x": 1}, -2),)), Reset.build({})),
    )
    fields = dict(
        locations=locations,
        variables=("x",),
        transitions=transitions,
        labels=("go",),
        initial=(0, Polyhedron((LinearConstraint(LinearExpression.build({"x": 1}), Relation.EQ),))),
    )
    fields.update(overrides)
    return HybridAutomaton(**fields)


def test_rat_accepts_int_decimal_and_fraction_strings():
    assert rat(3) == Fraction(3)
    assert rat("-1.25") == Fraction(-5, 4)
    assert rat("7/2") == Fraction(7, 2)
    # The canonical form: an int when integral, from a bool too; else a
    # Fraction.
    for value, want in ((3, 3), ("6/2", 3), (Fraction(4, 2), 2), (True, 1), ("-2.0", -2)):
        assert type(rat(value)) is int and rat(value) == want, value
    for value in ("1/2", Fraction(-5, 4), "0.75"):
        assert type(rat(value)) is Fraction and rat(value) == Fraction(value), value
    # A malformed literal raises as Fraction does, which the parser reports
    # as an input error (exit 2, tests/test_cli.py).
    with pytest.raises(ZeroDivisionError):
        rat("1/0")
    with pytest.raises(ValueError):
        rat("1.5/2")


def model_number_kinds(problem):
    """Count the numbers that a problem's model holds, as ``(ints,
    fractions)``, after checking that each is in canonical form: expression
    coefficients and constants of every invariant, guard, init and goal
    region, rate interval bounds and interval-reset bounds."""
    automaton = problem.domain
    regions = [automaton.initial[1], problem.init[1], problem.goal.region]
    regions += [loc.invariant for loc in automaton.locations]
    regions += [t.guard for t in automaton.transitions]
    numbers = []
    for region in regions:
        for c in region.constraints:
            numbers += [c.expression.constant, *(k for _v, k in c.expression.coefficients)]
    for loc in automaton.locations:
        numbers += [b for _v, iv in loc.rates.intervals for b in (iv.lower, iv.upper)]
    for t in automaton.transitions:
        for _v, act in t.reset.actions:
            if act.kind is ResetKind.ASSIGN_INTERVAL:
                numbers += [act.lower, act.upper]
    ints = sum(assert_canonical(x) for x in numbers)
    return ints, len(numbers) - ints


def test_parsed_models_hold_canonical_numbers():
    # Every bundled problem and golden/half, as the parser builds them.  Only
    # nav holds a non-integral number (its init has f = 5/2).
    kinds = {(d, p): model_number_kinds(load_benchmark(d, p)) for d, p in benchmark_problems()}
    assert len(kinds) == 14 and all(ints for ints, _ in kinds.values())
    assert {d for (d, _p), (_i, fractions) in kinds.items() if fractions} == {"nav"}
    assert model_number_kinds(half_problem()) == (28, 0)


@pytest.mark.parametrize("denominator", [1, 2, 3])
def test_built_models_hold_canonical_numbers(denominator):
    # The model builders normalise what they are given: random automata
    # drawn in multiples of 1/denominator hold ints wherever a draw is
    # integral, and Fractions elsewhere.
    rng = random.Random(1900 + denominator)
    ints = fractions = 0
    for _ in range(100):
        automaton = random_automaton(rng, denominator=denominator)
        i, f = model_number_kinds(PlanningProblem(automaton, automaton.initial, GoalSpec(0), 3))
        ints += i
        fractions += f
    assert ints > 0 and (fractions > 0) == (denominator > 1)


def model_keys(automaton):
    return automaton.loc_keys, automaton.trans_keys


def test_model_keys_name_distinct_values_whatever_the_sharing():
    # A model built in code from equal but unshared regions, resets and rate
    # tables gets the keys of its parsed text, in which equal values are
    # one object.  Keys are equal exactly where the values are, location
    # keys never equal transition keys, ``dataclasses.replace`` computes
    # them afresh, and equality ignores them.
    rng = random.Random(3131)
    shared = 0
    for _ in range(200):
        drawn = random_automaton(rng, max_locs=6)
        built = HybridAutomaton(
            locations=tuple(
                Location(
                    loc.id, loc.name, copy.deepcopy(loc.invariant), copy.deepcopy(loc.rates)
                )
                for loc in drawn.locations
            ),
            variables=drawn.variables,
            transitions=tuple(
                Transition(
                    t.id, t.source, t.target, t.label,
                    copy.deepcopy(t.guard), copy.deepcopy(t.reset),
                )
                for t in drawn.transitions
            ),
            labels=drawn.labels,
            initial=drawn.initial,
        )
        objects = [loc.invariant for loc in built.locations]
        objects += [loc.rates for loc in built.locations]
        objects += [t.guard for t in built.transitions] + [t.reset for t in built.transitions]
        assert len({id(o) for o in objects}) == len(objects)
        parsed = parse_model(serialize_model(built))
        assert parsed == built and repr(parsed) == repr(built)
        assert model_keys(built) == model_keys(parsed) == model_keys(drawn)

        loc_keys, trans_keys = model_keys(built)
        values = [(loc.invariant, loc.rates) for loc in built.locations]
        values += [(t.guard, t.reset) for t in built.transitions]
        keys = loc_keys + trans_keys
        assert sorted(set(keys)) == list(range(len(set(values))))
        for i, j in itertools.combinations(range(len(keys)), 2):
            assert (keys[i] == keys[j]) == (values[i] == values[j])
        assert set(loc_keys).isdisjoint(trans_keys)
        shared += len(set(keys)) < len(keys)

        first_loc, first_trans = built.locations[0], built.transitions[0]
        one_class = dataclasses.replace(
            built,
            locations=tuple(
                dataclasses.replace(loc, invariant=first_loc.invariant, rates=first_loc.rates)
                for loc in built.locations
            ),
            transitions=tuple(
                dataclasses.replace(t, guard=first_trans.guard, reset=first_trans.reset)
                for t in built.transitions
            ),
        )
        n = len(built.locations)
        assert model_keys(one_class) == ((0,) * n, (1,) * len(built.transitions))
    assert shared > 50


def test_regions_rate_tables_and_resets_hash_once_on_construction(monkeypatch):
    # Each random model's regions, rate tables and resets, rebuilt from
    # equal values (a Fraction for every int): equal objects hash alike,
    # a hash reads nothing the object holds once it is built, and a pickled
    # copy is built again, so it hashes as one built in that process does.
    rng = random.Random(3232)
    built = []
    for _ in range(50):
        automaton = random_automaton(rng, denominator=rng.choice((1, 2)))
        for loc in automaton.locations:
            built.append((loc.invariant, Polyhedron(tuple(
                LinearConstraint(LinearExpression(
                    tuple((v, Fraction(k)) for v, k in c.expression.coefficients),
                    Fraction(c.expression.constant),
                ), c.relation)
                for c in loc.invariant.constraints
            ))))
            built.append((loc.rates, RateSpec.build({
                v: (Fraction(iv.lower), Fraction(iv.upper)) for v, iv in loc.rates.intervals
            })))
        for t in automaton.transitions:
            built.append((t.reset, Reset(tuple(t.reset.actions))))
    for cls in (LinearConstraint, LinearExpression, RateInterval, ResetAction):
        monkeypatch.setattr(cls, "__hash__", None)
    for a, b in built:
        assert a == b and a is not b and hash(a) == hash(b)
        pickled = pickle.dumps(a)
        assert b"_hash" not in pickled
        copied = pickle.loads(pickled)
        assert copied == a and hash(copied) == hash(a)
    assert {type(a) for a, _b in built} == {Polyhedron, RateSpec, Reset}


def test_linear_expression_drops_zero_coefficients():
    expr = LinearExpression.build({"x": 0, "y": 2}, 1)
    assert expr.coefficients == (("y", Fraction(2)),)
    assert expr.evaluate({"y": Fraction(3)}) == Fraction(7)


def test_constraint_holds_on_each_relation():
    expr = LinearExpression.build({"x": 1}, -2)  # x - 2
    val_lo = {"x": Fraction(1)}
    val_hi = {"x": Fraction(3)}
    assert LinearConstraint(expr, Relation.LE).holds(val_lo)
    assert not LinearConstraint(expr, Relation.LE).holds(val_hi)
    assert LinearConstraint(expr, Relation.GE).holds(val_hi)
    assert LinearConstraint(expr, Relation.EQ).holds({"x": Fraction(2)})


def test_validate_model_accepts_wellformed():
    assert validate_model(make_automaton()) == []


def test_validate_model_reports_missing_rate():
    bad_loc = Location(1, "b", Polyhedron(), RateSpec.build({}))
    automaton = make_automaton(
        locations=(make_automaton().locations[0], bad_loc)
    )
    report = validate_model(automaton)
    assert any("missing rate interval" in msg for msg in report)


def test_validate_model_reports_dangling_target():
    bad = Transition(0, 0, 7, "go", Polyhedron(), Reset.build({}))
    report = validate_model(make_automaton(transitions=(bad,)))
    assert any("dangling target" in msg for msg in report)


def test_validate_model_reports_undeclared_variable():
    loc = Location(0, "a", Polyhedron((ge({"z": 1}),)), RateSpec.build({"x": (0, 0)}))
    automaton = make_automaton(locations=(loc, make_automaton().locations[1]))
    report = validate_model(automaton)
    assert any("undeclared variable 'z'" in msg for msg in report)


def _base(field, i=0):
    return getattr(make_automaton(), field)[i]


@pytest.mark.parametrize(
    "overrides,message",
    [
        ({"locations": (_base("locations"), dataclasses.replace(_base("locations", 1), id=2))},
         "location ids must be dense integers 0..1 in order"),
        ({"locations": (_base("locations"), dataclasses.replace(_base("locations", 1), name="a"))},
         "duplicate location name 'a'"),
        ({"variables": ("x", "x")}, "duplicate variable declaration"),
        ({"locations": (_base("locations"), dataclasses.replace(
            _base("locations", 1), rates=RateSpec.build({"x": (2, 1)})))},
         "location b rate interval for 'x' has lower > upper"),
        ({"transitions": (dataclasses.replace(_base("transitions"), id=1),)},
         "transition ids must be dense integers in declaration order"),
        ({"transitions": (dataclasses.replace(_base("transitions"), source=5),)},
         "transition 0 has dangling source location id 5"),
        ({"transitions": (dataclasses.replace(_base("transitions"), label="fly"),)},
         "transition 0 uses undeclared label 'fly'"),
        ({"transitions": (dataclasses.replace(_base("transitions"), reset=Reset.build({"x": (3, 1)})),)},
         "transition 0 reset interval for 'x' has lower > upper"),
        ({"initial": (9, Polyhedron())}, "initial location id 9 does not exist"),
    ],
    ids=[
        "sparse-location-ids", "duplicate-location", "duplicate-variable", "empty-rate",
        "sparse-transition-ids", "dangling-source", "undeclared-label", "empty-reset",
        "missing-initial",
    ],
)
def test_validate_model_reports_each_violation(overrides, message):
    assert validate_model(make_automaton(**overrides)) == [message]


def test_alpha_widens_goal_to_invariant():
    automaton = make_automaton()
    problem = PlanningProblem(
        domain=automaton,
        init=automaton.initial,
        goal=GoalSpec(location=1, region=Polyhedron((ge({"x": 1}, -5),))),
        depth=3,
    )
    sub = alpha(problem, 0)
    assert sub.goal.location == 0
    assert sub.goal.region == automaton.locations[0].invariant
    assert sub.depth == problem.depth
    assert sub.init == problem.init


def test_alpha_unknown_location_raises():
    automaton = make_automaton()
    problem = PlanningProblem(automaton, automaton.initial, GoalSpec(1), 3)
    with pytest.raises(KeyError):
        alpha(problem, 9)


def good_run():
    zero, one, three = Fraction(0), Fraction(1), Fraction(3)
    return WitnessRun(
        segments=(
            RunSegment(0, (("x", zero),), three, (("x", three),)),
            RunSegment(1, (("x", three),), one, (("x", three),)),
        ),
        transitions=(0,),
    )


def test_check_witness_accepts_valid_run():
    automaton = make_automaton()
    goal = GoalSpec(location=1, region=Polyhedron((ge({"x": 1}, -2),)))
    assert check_witness(automaton, automaton.initial, goal, good_run()) == []


def test_check_witness_flags_guard_and_rate_violations():
    automaton = make_automaton()
    goal = GoalSpec(location=1, region=Polyhedron())
    run = good_run()
    bad = WitnessRun(
        segments=(
            RunSegment(0, (("x", Fraction(0)),), Fraction(1), (("x", Fraction(5)),)),
            run.segments[1],
        ),
        transitions=(0,),
    )
    report = check_witness(automaton, automaton.initial, goal, bad)
    assert any("displacement outside rate interval" in m for m in report)
    bad2 = WitnessRun(
        segments=(
            RunSegment(0, (("x", Fraction(0)),), Fraction(1), (("x", Fraction(1)),)),
            RunSegment(1, (("x", Fraction(1)),), Fraction(0), (("x", Fraction(1)),)),
        ),
        transitions=(0,),
    )
    report2 = check_witness(automaton, automaton.initial, goal, bad2)
    assert any("guard violated" in m for m in report2)


def test_check_witness_flags_keep_reset_break():
    automaton = make_automaton()
    goal = GoalSpec(location=1, region=Polyhedron())
    run = WitnessRun(
        segments=(
            RunSegment(0, (("x", Fraction(0)),), Fraction(3), (("x", Fraction(3)),)),
            RunSegment(1, (("x", Fraction(2)),), Fraction(0), (("x", Fraction(2)),)),
        ),
        transitions=(0,),
    )
    report = check_witness(automaton, automaton.initial, goal, run)
    assert any("keeps 'x' but value changed" in m for m in report)


def test_witness_run_makespan():
    assert good_run().makespan() == Fraction(4)


def test_plan_fields():
    plan = Plan(steps=((Fraction(3), "go"),), makespan=Fraction(4))
    assert plan.steps[0][1] == "go"


# --- check_witness, one broken clause at a time ---------------------------

def half_run():
    """The SAT run of ``golden/half``: a for 3/2, b for 5/2, then c."""
    run = bounded_reachable(half_problem()).run
    assert [seg.dwell for seg in run.segments] == [Fraction(3, 2), Fraction(5, 2), 0]
    return run


def with_segment(run, index, **fields):
    """``run`` with fields of segment ``index`` replaced; ``entry`` and
    ``exit`` are given as the value of x."""
    for key in ("entry", "exit"):
        if key in fields:
            fields[key] = (("x", Fraction(fields[key])),)
    segments = list(run.segments)
    segments[index] = dataclasses.replace(segments[index], **fields)
    return dataclasses.replace(run, segments=tuple(segments))


A_INV = "location a {\n  inv: x >= 0; x <= 10;"
B_INV = "location b {\n  inv: x >= 0; x <= 10;"

# (case, model edit, problem edit, run edit, messages)
WITNESS_BREAKS = [
    ("empty run", None, None, lambda r: WitnessRun((), ()), ["empty run"]),
    ("count mismatch", None, None,
     lambda r: dataclasses.replace(r, transitions=(0,)),
     ["segment/transition count mismatch"]),
    ("start location", None, ("goal", "init b { x = 0; }\ngoal"), None,
     ["run starts at location 0, expected 1"]),
    ("init region", None, ("goal", "init a { x = 1; }\ngoal"), None,
     ["initial valuation violates the init region"]),
    ("negative dwell", None, None, lambda r: with_segment(r, 2, dwell=Fraction(-1)),
     ["segment 2 has negative dwell"]),
    ("entry invariant", (B_INV, B_INV.replace("x >= 0", "x >= 4")), None, None,
     ["segment 1 entry violates invariant of b"]),
    ("exit invariant", (B_INV, B_INV.replace("x <= 10", "x <= 7")), None, None,
     ["segment 1 exit violates invariant of b"]),
    ("rate displacement", None, None, lambda r: with_segment(r, 0, dwell=Fraction(1)),
     ["segment 0 variable 'x' displacement outside rate interval"]),
    ("wrong join", None, None, lambda r: dataclasses.replace(r, transitions=(1, 1)),
     ["transition 1 does not join segments 0 and 1"]),
    ("guard", None, None,
     lambda r: with_segment(with_segment(r, 0, dwell=Fraction(1), exit=2),
                            1, entry=2, dwell=Fraction(3)),
     ["transition 0 guard violated at segment 0 exit"]),
    ("changed keep", None, None, lambda r: with_segment(r, 1, entry=4, dwell=Fraction(2)),
     ["transition 0 keeps 'x' but value changed"]),
    ("reset interval", ("label: go;", "label: go;\n  reset x in [4, 5];"), None, None,
     ["transition 0 reset of 'x' lands outside its interval"]),
    ("end location", None, ("goal c { x >= 8; }", "goal b"), None,
     ["run ends at location 2, expected 1"]),
    ("goal region", None, ("x >= 8", "x >= 9"), None,
     ["final valuation violates the goal region"]),
    # The run ends in c, so a goal location whose invariant the final
    # valuation breaks is also the wrong end location.
    ("goal invariant", (A_INV, A_INV.replace("x <= 10", "x <= 7")),
     ("goal c { x >= 8; }", "goal a"), None,
     ["run ends at location 2, expected 0",
      "final valuation violates the goal location invariant"]),
]


def test_check_witness_accepts_the_half_run():
    problem = half_problem()
    assert check_witness(problem.domain, problem.init, problem.goal, half_run()) == []


@pytest.mark.parametrize(
    "model_edit,problem_edit,run_edit,messages",
    [case[1:] for case in WITNESS_BREAKS],
    ids=[case[0] for case in WITNESS_BREAKS],
)
def test_check_witness_names_the_broken_clause(model_edit, problem_edit, run_edit, messages):
    problem = half_problem(model_edit, problem_edit)
    run = half_run()
    if run_edit is not None:
        run = run_edit(run)
    assert check_witness(problem.domain, problem.init, problem.goal, run) == messages


# --- Polyhedron.rows --------------------------------------------------------


def row_holds(terms, b, valuation):
    """Whether the row ``F(x) <= b`` with F's ``terms`` holds at ``valuation``."""
    return sum((k * valuation[v] for v, k in terms), 0) <= b


def random_valuations(rng, region, variables):
    """Random rational valuations of ``variables``, and one on each
    constraint's hyperplane ``expr = 0``, where all three relations hold."""
    def value():
        return rat(Fraction(rng.randint(-12, 12), rng.choice([1, 2, 3])))

    points = [{v: value() for v in variables} for _ in range(6)]
    for c in region.constraints:
        point = {v: value() for v in variables}
        if c.expression.coefficients:
            (v0, k0), *rest = c.expression.coefficients
            point[v0] = -(c.expression.constant + sum(k * point[v] for v, k in rest)) / k0
        points.append(point)
    return points


def poison(region, rows):
    """Overwrite ``region.rows``, which no model method may read."""
    object.__setattr__(region, "rows", rows)


def test_polyhedron_rows_read_each_constraint_as_rows_f_le_b():
    # Regions of random LPs (every relation, several variables, half-integral
    # constants) and of random automata.  A constraint's rows all hold
    # exactly where it does, EQ giving its LE row and then its GE row; the
    # numbers are canonical; ``rows`` is left out of ==, hash and repr and
    # recomputed by ``dataclasses.replace``; parsing a serialized model
    # gives the same rows.  The run checker evaluates each constraint
    # itself: with every region's rows overwritten by rows that hold
    # nowhere, or by none at all, it gives the answers it gave before, on
    # valid and broken runs alike.
    rng = random.Random(3333)
    outcomes = set()
    ints = fractions = eqs = 0
    for _ in range(150):
        lp = random_lp(rng)
        automaton = random_automaton(rng, denominator=rng.choice([1, 2]))
        parsed = parse_model(serialize_model(automaton))
        assert parsed == automaton
        pairs = [(parsed.initial[1], automaton.initial[1])]
        pairs += [(p.invariant, a.invariant) for p, a in zip(parsed.locations, automaton.locations)]
        pairs += [(p.guard, a.guard) for p, a in zip(parsed.transitions, automaton.transitions)]
        assert all(p.rows == a.rows for p, a in pairs)
        regions = [(Polyhedron(lp.constraints), lp.variables)]
        regions += [(a, automaton.variables) for _p, a in pairs]
        for region, variables in regions:
            per = [Polyhedron((c,)).rows for c in region.constraints]
            assert region.rows == sum(per, ())
            for c, rows in zip(region.constraints, per):
                assert all(row[0] is c for row in rows)
                assert len(rows) == (2 if c.relation is Relation.EQ else 1)
                if c.relation is Relation.EQ:
                    eqs += 1
                    halves = [LinearConstraint(c.expression, r) for r in (Relation.LE, Relation.GE)]
                    assert [row[1:] for row in rows] == [
                        Polyhedron((h,)).rows[0][1:] for h in halves
                    ]
                for _c, terms, b in rows:
                    assert all(k != 0 for _v, k in terms)
                    assert [v for v, _k in terms] == sorted(v for v, _k in terms)
                    for x in (b, *(k for _v, k in terms)):
                        is_int = assert_canonical(x)
                        ints += is_int
                        fractions += not is_int
            for point in random_valuations(rng, region, variables):
                for c, rows in zip(region.constraints, per):
                    holds = c.holds(point)
                    assert all(row_holds(t, b, point) for _c, t, b in rows) == holds
                    outcomes.add((c.relation, holds))

            unrowed = Polyhedron(region.constraints)
            poison(unrowed, ())
            assert unrowed == region and hash(unrowed) == hash(region)
            assert repr(unrowed) == repr(region) and "rows" not in repr(region)
            assert dataclasses.replace(unrowed).rows == region.rows
            flipped = dataclasses.replace(region, constraints=region.constraints[::-1])
            assert flipped.rows == sum(per[::-1], ())
    assert outcomes == {(r, h) for r in Relation for h in (True, False)}
    assert ints > 1000 and fractions > 100 and eqs > 100

    cases = []
    for _case, model_edit, problem_edit, run_edit, _messages in WITNESS_BREAKS:
        problem = half_problem(model_edit, problem_edit)
        run = half_run()
        cases.append((problem, run if run_edit is None else run_edit(run)))
    while len(cases) < 150:
        automaton = random_automaton(rng, denominator=rng.choice([1, 2]))
        goal = GoalSpec(rng.randrange(len(automaton.locations)))
        problem = PlanningProblem(automaton, automaton.initial, goal, 3)
        run = bounded_reachable(problem).run
        if run is not None:
            moved = tuple((v, x + 1) for v, x in run.segments[-1].exit)
            last = dataclasses.replace(run.segments[-1], exit=moved)
            cases.append((problem, run))
            cases.append((problem, dataclasses.replace(run, segments=run.segments[:-1] + (last,))))
    before = [check_witness(p.domain, p.init, p.goal, run) for p, run in cases]
    assert sum(not answer for answer in before) > 30 and sum(map(bool, before)) > 30
    for nowhere in (True, False):
        for problem, _run in cases:
            automaton = problem.domain
            regions = [problem.init[1], automaton.initial[1], problem.goal.region]
            regions += [loc.invariant for loc in automaton.locations]
            regions += [t.guard for t in automaton.transitions]
            for region in regions:
                poison(region, tuple((c, (), -1) for c in region.constraints) if nowhere else ())
        assert [check_witness(p.domain, p.init, p.goal, run) for p, run in cases] == before
