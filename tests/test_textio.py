"""Grammar, round-trip, and report serialization tests."""

import json
import os
from fractions import Fraction

import pytest

from conftest import BENCH_ROOT, benchmark_problems, load_benchmark
from oracles import serialize_model
from wpx.explain import explain
from wpx.model import Relation, validate_model
from wpx.textio import (
    ParseError,
    format_rational,
    parse_model,
    parse_problem,
    serialize_report,
)

MINI = """
# comment line
vars x t
location a {
  inv: x >= 0; x <= 10;
  rate x in [1, 2];
  rate t in [1, 1];
}
location b {
  rate x in [-1/2, 0];
  rate t in [1, 1];
}
trans a -> b {
  label: hop;
  guard: 2*x - t >= 1;
  reset t in [0, 0];
}
init a { x = 1.5; t = 0; }
"""


def test_parse_minimal_model():
    automaton = parse_model(MINI)
    assert [l.name for l in automaton.locations] == ["a", "b"]
    assert automaton.variables == ("x", "t")
    assert automaton.initial[0] == 0
    (t,) = automaton.transitions
    assert t.label == "hop"
    assert automaton.location(1).rates.interval("x").lower == Fraction(-1, 2)
    init_region = automaton.initial[1]
    assert init_region.constraints[0].relation is Relation.EQ
    assert init_region.constraints[0].expression.constant == Fraction(-3, 2)


def test_strict_inequality_rejected_with_message():
    with pytest.raises(ParseError) as err:
        parse_model(MINI.replace("x >= 0", "x > 0"))
    assert "only closed constraints" in str(err.value)


def test_unknown_initial_location_rejected():
    with pytest.raises(ParseError):
        parse_model(MINI.replace("init a", "init zz"))


def test_missing_init_rejected():
    text = MINI[: MINI.index("init a")]
    with pytest.raises(ParseError) as err:
        parse_model(text)
    assert "missing 'init'" in str(err.value)


def test_validation_failure_surfaces_as_parse_error():
    with pytest.raises(ParseError) as err:
        parse_model(MINI.replace("rate t in [1, 1];\n}\nlocation b", "}\nlocation b", 1))
    assert "missing rate interval" in str(err.value)


@pytest.mark.parametrize("literal", ["1/0", "0/0", "1.5/2"])
def test_malformed_number_literal_rejected(literal):
    with pytest.raises(ParseError) as err:
        parse_model(MINI.replace("rate x in [1, 2]", "rate x in [%s, 2]" % literal))
    assert (err.value.line, err.value.column) == (6, 14)
    assert err.value.message == "malformed number %r" % literal


@pytest.mark.parametrize(
    "old,new,where,message",
    [
        ("rate x in [1, 2];", "rate x in [1, 2]; rate x in [5, 5];", (6, 21),
         "repeated rate for variable 'x'"),
        ("reset t in [0, 0];", "reset t in [0, 0]; reset t in [7, 7];", (16, 22),
         "repeated reset for variable 't'"),
        ("label: hop;", "label: hop; label: stop;", (14, 15), "repeated 'label' clause"),
        ("init a { x = 1.5; t = 0; }", "init a { x = 1.5; t = 0; }\ninit b { x = 0; t = 0; }",
         (19, 1), "repeated 'init' section"),
    ],
    ids=["rate", "reset", "label", "init"],
)
def test_model_rejects_repeated_clause(old, new, where, message):
    with pytest.raises(ParseError) as err:
        parse_model(MINI.replace(old, new), "m.lha")
    assert (err.value.line, err.value.column) == where
    assert err.value.message == message
    assert str(err.value) == "m.lha: line %d, column %d: %s" % (where + (message,))


@pytest.mark.parametrize(
    "old,new,where,message",
    [
        ("vars x t", "vars x t x", (3, 10), "duplicate variable declaration 'x'"),
        ("rate x in [-1/2, 0];\n  rate t in [1, 1];", "rate x in [-1/2, 0];", (9, 1),
         "location b missing rate interval for variable 't'"),
    ],
    ids=["duplicate-var", "missing-rate"],
)
def test_model_validation_errors_point_at_their_cause(old, new, where, message):
    assert MINI.count(old) == 1
    with pytest.raises(ParseError) as err:
        parse_model(MINI.replace(old, new), "m.lha")
    assert (err.value.line, err.value.column) == where
    assert str(err.value) == "m.lha: line %d, column %d: %s" % (where + (message,))


def test_other_model_violations_print_no_position():
    with pytest.raises(ParseError) as err:
        parse_model(MINI.replace("rate x in [1, 2];", "rate x in [1, 2]; rate z in [0, 0];"),
                    "m.lha")
    assert err.value.line is None
    assert str(err.value) == "m.lha: location a rate for undeclared variable 'z'"


def test_repeated_inv_and_guard_clauses_are_conjoined():
    one = MINI.replace("guard: 2*x - t >= 1;", "guard: 2*x - t >= 1; x <= 9;")
    split = MINI.replace("inv: x >= 0; x <= 10;", "inv: x >= 0;\n  inv: x <= 10;").replace(
        "guard: 2*x - t >= 1;", "guard: 2*x - t >= 1;\n  guard: x <= 9;"
    )
    assert parse_model(split) == parse_model(one)


def test_problem_parsing_with_override_and_depth():
    automaton = parse_model(MINI)
    prob = parse_problem(
        "model some/file.lha\ninit b { x = 2; }\ngoal b { x >= 1; }\ndepth 7\n", automaton
    ).problem
    assert prob.depth == 7
    assert prob.init[0] == 1
    assert prob.goal.location == 1
    assert len(prob.goal.region.constraints) == 1


def test_problem_requires_goal_and_depth():
    automaton = parse_model(MINI)
    with pytest.raises(ParseError):
        parse_problem("depth 3\n", automaton)
    with pytest.raises(ParseError):
        parse_problem("goal b\n", automaton)


@pytest.mark.parametrize(
    "text,section",
    [
        ("init a { x = 0; }\ninit b { x = 2; }\ngoal b\ndepth 3\n", "init"),
        ("goal a\ngoal b\ndepth 3\n", "goal"),
        ("goal b\ndepth 3\ndepth 4\n", "depth"),
    ],
    ids=["init", "goal", "depth"],
)
def test_problem_rejects_repeated_section(text, section):
    automaton = parse_model(MINI)
    with pytest.raises(ParseError) as err:
        parse_problem(text, automaton)
    assert err.value.message == "repeated %r section" % section


def test_mini_roundtrip():
    automaton = parse_model(MINI)
    assert parse_model(serialize_model(automaton)) == automaton


@pytest.mark.parametrize("dirname,probname", benchmark_problems())
def test_benchmark_roundtrip_and_validation(dirname, probname):
    automaton = load_benchmark(dirname, probname).domain
    assert validate_model(automaton) == []
    assert parse_model(serialize_model(automaton)) == automaton


def test_format_rational():
    assert format_rational(Fraction(3)) == "3"
    assert format_rational(Fraction(-7, 2)) == "-7/2"


def test_serialize_report_schema_keys():
    problem = load_benchmark("wlm", "depth20.prob")
    report = explain(problem, name="wlm")
    doc = json.loads(serialize_report(report))
    assert set(doc) >= {
        "problem", "path_count", "chain", "verdicts", "explanation", "timings_ms"
    }
    assert doc["chain"] == ["l1", "l5", "l6"]
    assert doc["verdicts"][-1]["status"] == "unreachable"
    assert set(doc["timings_ms"]) == {"path_enumeration", "lcs", "reachability"}


def test_serialize_report_validates_against_shipped_schema():
    jsonschema = pytest.importorskip("jsonschema")
    schema_path = os.path.join(
        os.path.dirname(BENCH_ROOT), "report.schema.json"
    )
    with open(schema_path, encoding="utf-8") as fh:
        schema = json.load(fh)
    problem = load_benchmark("rover", "depth12.prob")
    report = explain(problem, name="rover")
    jsonschema.validate(json.loads(serialize_report(report)), schema)
