"""Grammar, round-trip, and report serialization tests."""

import bisect
import json
import os
import random
from fractions import Fraction

import pytest

from conftest import BENCH_ROOT, benchmark_problems, load_benchmark
from oracles import random_automaton, reference_tokens, serialize_model
from wpx.explain import explain
from wpx.model import Relation, validate_model
from wpx.reach import bounded_reachable
from wpx.textio import (
    ParseError,
    _scan,
    parse_model,
    parse_problem,
    serialize_report,
    split_model_line,
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

STRICT = "strict comparison %r is not supported; only closed constraints (<=, >=, =) are accepted"


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


def test_parsed_numbers_are_ints_when_integral():
    # Literals such as 2.0 and 6/2, and sums of halves on either side of a
    # relation, are held as ints; a non-integral sum stays a Fraction.
    text = MINI.replace("guard: 2*x - t >= 1;", "guard: 1/2*x + 3/2*x + 1/2 >= 6/2 - 1/2 + t;")
    text = text.replace("rate x in [1, 2];", "rate x in [2.0, 5/2];")
    automaton = parse_model(text)
    (guard,) = automaton.transitions[0].guard.constraints
    assert guard.expression.coefficients == (("t", -1), ("x", 2))
    assert guard.expression.constant == -2
    rate = automaton.location(0).rates.interval("x")
    assert (rate.lower, rate.upper) == (2, Fraction(5, 2))
    numbers = [guard.expression.constant, rate.lower, rate.upper]
    numbers += [k for _v, k in guard.expression.coefficients]
    assert [type(x) for x in numbers] == [int, int, Fraction, int, int]


def test_strict_inequality_rejected_with_message():
    with pytest.raises(ParseError) as err:
        parse_model(MINI.replace("x >= 0", "x > 0"))
    assert "only closed constraints" in str(err.value)


def test_unknown_initial_location_rejected():
    with pytest.raises(ParseError):
        parse_model(MINI.replace("init a", "init zz"))


def test_init_may_come_before_its_location():
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "half", "half.lha")
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    init = "init a { x = 0; }\n"
    assert text.endswith(init)
    assert parse_model(init + text[: -len(init)]) == parse_model(text)


def test_unknown_initial_location_named_first_is_reported_at_its_name():
    init = "init a { x = 1.5; t = 0; }\n"
    text = init.replace("init a", "init zz") + MINI.replace(init, "")
    with pytest.raises(ParseError) as err:
        parse_model(text, "m.lha")
    assert str(err.value) == "m.lha: line 1, column 6: unknown initial location 'zz'"


def test_missing_init_rejected():
    text = MINI[: MINI.index("init a")]
    with pytest.raises(ParseError) as err:
        parse_model(text)
    assert "missing 'init'" in str(err.value)


def test_validation_failure_surfaces_as_parse_error():
    with pytest.raises(ParseError) as err:
        parse_model(MINI.replace("rate t in [1, 1];\n}\nlocation b", "}\nlocation b", 1))
    assert "missing rate interval" in str(err.value)


@pytest.mark.parametrize(
    "literal,value",
    # A literal of digits only is read by int; U+0663 is the Arabic-Indic
    # digit three, which the tokenizer's \d accepts as Fraction does.
    [("007", 7), ("\u0663", 3), ("\u0663\u0660/\u0665", 6), ("1.50", Fraction(3, 2)),
     ("6/3", 2), ("2.0", 2)],
)
def test_number_literals_parse_to_canonical_numbers(literal, value):
    automaton = parse_model(MINI.replace("rate x in [1, 2]", "rate x in [%s, 9]" % literal))
    lower = automaton.location(0).rates.interval("x").lower
    assert lower == value and type(lower) is type(value)
    assert lower == Fraction(literal)


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
        ("x >= 0;", "x >= 0 $;", (5, 15), "unexpected character '$'"),
        ("x >= 0;", "x != 0;", (5, 10), STRICT % "!="),
        ("t = 0; }", "t = 1/0; }", (18, 23), "malformed number '1/0'"),
        ("trans a -> b", "trans a b", (13, 9), "expected 'arrow', found 'b'"),
        ("rate x in [1, 2]", "rate x on [1, 2]", (6, 10), "expected 'in'"),
        ("x <= 10;", "x 10;", (5, 18), "expected a relation (<=, >=, =)"),
        ("x <= 10;", "x <= ;", (5, 21), "expected a number or variable"),
        ("vars x t", "vars x t 3", (3, 10), "expected 'vars', 'location', 'trans' or 'init'"),
        ("label: hop;", "label: hop; lable: hop;", (14, 15),
         "expected 'label', 'guard', 'reset' or '}'"),
        ("rate x in [1, 2];", "rate x in [1, 2]; rat t in [1, 1];", (6, 21),
         "expected 'inv', 'rate' or '}'"),
        ("rate x in [1, 2];", "rate x in [1, 2]; label: go;", (6, 21),
         "expected 'inv', 'rate' or '}'"),
        ("guard: 2*x - t >= 1;", "guard: 2*x - t >= 1; inv: x <= 3;", (15, 24),
         "expected 'label', 'guard', 'reset' or '}'"),
        ("reset t in [0, 0];", "reset t in [0, 0]; rate x in [0, 0];", (16, 22),
         "expected 'label', 'guard', 'reset' or '}'"),
        ("location b {", "location a {", (9, 10), "duplicate location 'a'"),
        ("trans a -> b", "trans a -> zz", (13, 7), "unknown location 'zz' in transition"),
        ("trans a -> b", "trans zz -> b", (13, 7), "unknown location 'zz' in transition"),
        ("init a", "init zz", (18, 6), "unknown initial location 'zz'"),
        ("init a { x = 1.5; t = 0; }\n", "", (18, 1), "missing 'init' section"),
        ("}\ninit a { x = 1.5; t = 0; }\n", "}", (17, 2), "missing 'init' section"),
        ("\n# comment", "bogus\n# comment", (1, 1),
         "expected 'vars', 'location', 'trans' or 'init'"),
        ("\n# comment", "$\n# comment", (1, 1), "unexpected character '$'"),
        ("# comment line", "# { > -> }\n$", (3, 1), "unexpected character '$'"),
        ("vars x t", "vars x\u00e9 t", (3, 7), "unexpected character '\u00e9'"),
        ("rate x in [1, 2]", "rate x in [1, 2\u00b2]", (6, 18),
         "unexpected character '\u00b2'"),
    ],
    ids=["duplicate-var", "missing-rate", "unexpected-character", "strict", "malformed-number",
         "expected-token", "expected-in", "expected-relation", "expected-term",
         "expected-section", "expected-clause", "location-misspelt-clause",
         "location-trans-clause", "trans-location-clause", "trans-rate-clause",
         "duplicate-location", "unknown-target",
         "unknown-source", "unknown-init", "missing-init", "missing-init-at-end-without-newline",
         "first-token", "first-character", "comment-then-bad", "non-ascii-name",
         "superscript-digit"],
)
def test_model_validation_errors_point_at_their_cause(old, new, where, message):
    assert MINI.count(old) == 1
    with pytest.raises(ParseError) as err:
        parse_model(MINI.replace(old, new), "m.lha")
    assert (err.value.line, err.value.column) == where
    assert str(err.value) == "m.lha: line %d, column %d: %s" % (where + (message,))


@pytest.mark.parametrize("word", ["inv", "rate", "label", "guard", "reset"])
def test_clause_words_cannot_name_variables(word):
    # A constraint list stops before a clause word, so ``inv: x <= 5; rate
    # <= 3;`` could not read a variable named ``rate``.
    with pytest.raises(ParseError) as err:
        parse_model(MINI.replace("vars x t", "vars x %s t" % word))
    assert (err.value.line, err.value.column) == (3, 8)
    assert err.value.message == "reserved word %r cannot name a variable" % word


@pytest.mark.parametrize(
    "newline,indent,where",
    [("\r\n", "  ", (15, 14)), ("\n", "\t", (15, 13))],
    ids=["crlf", "tab"],
)
def test_model_error_columns_count_characters_on_their_line(newline, indent, where):
    text = MINI.replace("guard: 2*x", "guard: 2*x >").replace("  ", indent)
    with pytest.raises(ParseError) as err:
        parse_model(text.replace("\n", newline))
    assert (err.value.line, err.value.column, err.value.message) == where + (STRICT % ">",)


@pytest.mark.parametrize(
    "text,where,message",
    [
        ("depth 3\n", (2, 1), "missing 'goal' section"),
        ("goal b", (1, 7), "missing 'depth' section"),
        ("goal zz\ndepth 3\n", (1, 6), "unknown location 'zz'"),
        ("init a { y = 0; }\ngoal b\ndepth 3\n", (1, 6),
         "init region references undeclared variable 'y'"),
        ("goal b { z >= 1; }\ndepth 3\n", (1, 6),
         "goal region references undeclared variable 'z'"),
        ("goal b\ndepth 1.5\n", (2, 7), "depth must be a non-negative integer"),
        ("goal b\ndepth x\n", (2, 7), "expected 'number', found 'x'"),
        ("goal b\n  depth 3\ndepth 4\n", (3, 1), "repeated 'depth' section"),
        ("goal b\ndepth 3\nbudget 4\n", (3, 1), "expected 'model', 'init', 'goal' or 'depth'"),
        ("model a.lha\ngoal b\n  model b.lha\ndepth 3\n", (3, 3), "repeated 'model' section"),
        ("model a.lha\r\ngoal b\r\ndepth 3\r\ngoal a\r\n", (4, 1), "repeated 'goal' section"),
        ("goal b\n\tdepth 2.0\n", (2, 8), "depth must be a non-negative integer"),
    ],
    ids=["missing-goal", "missing-depth", "unknown-goal", "init-variable", "goal-variable",
         "fractional-depth", "expected-number", "repeated-depth", "expected-section",
         "repeated-model", "crlf", "tab"],
)
def test_problem_errors_point_at_their_cause(text, where, message):
    with pytest.raises(ParseError) as err:
        parse_problem(text, parse_model(MINI), "p.prob")
    assert str(err.value) == "p.prob: line %d, column %d: %s" % (where + (message,))


@pytest.mark.parametrize(
    "text,where,message",
    [
        ("\x0bmodel m.lha\ngoal b\ndepth 2\n", (1, 1), "unexpected character '\\x0b'"),
        ("\xa0model m.lha\ngoal b\ndepth 2\n", (1, 1), "unexpected character '\\xa0'"),
        ("\u2003model m.lha\ngoal b\ndepth 2\n", (1, 1), "unexpected character '\\u2003'"),
        ("goal b\n\x0bdepth 2\n", (2, 1), "unexpected character '\\x0b'"),
    ],
    ids=["vt-model", "nbsp-model", "em-space-model", "vt-depth"],
)
def test_the_model_line_splits_only_on_the_blanks_the_scan_skips(text, where, message):
    # A blank the scan rejects fails the document wherever it stands: it
    # does not make a model line of the words around it.
    with pytest.raises(ParseError) as err:
        parse_problem(text, parse_model(MINI), "p.prob")
    assert (err.value.message, err.value.line, err.value.column) == (message,) + where
    assert str(err.value) == "p.prob: line %d, column %d: %s" % (where + (message,))


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


MODEL_VAR = """
vars model t
location a {
  inv: model <= 10;
  rate model in [1, 1];
  rate t in [1, 1];
}
init a { model = 0; t = 0; }
"""


@pytest.mark.parametrize("model_line", ["", "model m.lha\n"], ids=["no-model-line", "model-line"])
def test_a_braced_line_is_never_the_model_line(model_line):
    # Inside { ... }, a line that starts with ``model`` is a constraint on
    # the variable ``model``, with or without a model line above it.
    automaton = parse_model(MODEL_VAR)
    one_line = parse_problem("goal a { model >= 30; }\ndepth 2\n", automaton).problem
    text = model_line + "goal a {\nmodel >= 30;\n}\ndepth 2\n"
    problem = parse_problem(text, automaton).problem
    assert len(problem.goal.region.constraints) == 1
    assert problem == one_line


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


def test_random_automata_roundtrip():
    rng = random.Random(500)
    for _ in range(500):
        automaton = random_automaton(rng)
        assert parse_model(serialize_model(automaton)) == automaton


# Grammar pieces, and characters no token matches, that a mutation splices in.
_PIECES = [
    "{", "}", ";", ":", ",", "[", "]", "(", ")", "=", "<=", ">=", "<", "!=", "->", "-", "+",
    "*", "2", "-3/4", "1/0", "1.5/2", "0.", "x", "in", "vars", "location", "trans", "init",
    "inv", "rate", "label", "guard", "reset", "model", "goal", "depth", "#", "\n", "\r",
    "\t", " ", "$", "\u00e9", ">", "\u0663", "\u00b2", "# { > ->",
]


def _mutate(rng, text):
    """``text`` with one to three random deletions, splices or duplications."""
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(text) + 1)
        j = min(len(text), i + rng.randint(0, 8))
        edit = rng.randrange(3)
        if edit == 0:
            text = text[:i] + text[j:]
        elif edit == 1:
            text = text[:i] + rng.choice(_PIECES) + text[j:]
        else:
            text = text[:i] + text[i:j] + text[i:]
    return text


def _bundled_documents(model_limit=None):
    """``(text, automaton)`` for every bundled problem, with the automaton
    its text is parsed against, and ``(text, None)`` for every bundled model
    of fewer than ``model_limit`` characters (every model if None)."""
    docs = {}
    for dirname, probname in benchmark_problems():
        automaton = load_benchmark(dirname, probname).domain
        for name, parsed_model in ((probname, automaton), (dirname + ".lha", None)):
            with open(os.path.join(BENCH_ROOT, dirname, name), encoding="utf-8") as fh:
                text = fh.read()
            if parsed_model is not None or model_limit is None or len(text) < model_limit:
                docs[dirname, name] = (text, parsed_model)
    return list(docs.values())


def _parse(text, automaton):
    return parse_model(text) if automaton is None else parse_problem(text, automaton)


def test_mutated_inputs_raise_only_parse_errors():
    # Every bundled problem, and every bundled model under 7 KB: wa6x6,
    # wa8x8 and wa10x10 repeat wa6x4's clauses over more locations and would
    # take most of the time.
    docs = _bundled_documents(7000)
    rng = random.Random(13)
    for _ in range(2000):
        text, automaton = rng.choice(docs)
        mutated = _mutate(rng, text)
        try:
            _parse(mutated, automaton)
        except ParseError:
            pass
        except Exception as exc:  # anything else is a parser fault
            pytest.fail("%r on input %r" % (exc, mutated))


def _token_starts(text):
    """The (line, column) at which each reference token of ``text`` starts."""
    line_offsets = [0] + [i + 1 for i, char in enumerate(text) if char == "\n"]
    starts = set()
    for _kind, _text, offset in reference_tokens(text):
        line = bisect.bisect_right(line_offsets, offset)
        starts.add((line, offset - line_offsets[line - 1] + 1))
    return starts


def test_scan_and_error_positions_agree_with_the_reference_tokenizer():
    # The one scan must split each text into the reference's tokens, and a
    # positioned error, whose offset is found only when it is raised, must
    # point where a reference token starts: in the text as read or, for a
    # problem, in the text with its model line blanked, which the parser
    # scans.
    small = _bundled_documents(7000)
    rng = random.Random(25)
    corpus = _bundled_documents() + [(_mutate(rng, text), automaton) for text, automaton in
                                     (rng.choice(small) for _ in range(1500))]
    positioned = 0
    for text, automaton in corpus:
        kinds, texts = _scan(text)
        assert list(zip(kinds, texts)) == [(k, t) for k, t, _ in reference_tokens(text)]
        try:
            _parse(text, automaton)
        except ParseError as err:
            if err.line is None:
                continue
            starts = _token_starts(text)
            if automaton is not None and err.message != "repeated 'model' section":
                starts |= _token_starts(split_model_line(text)[1])
            assert (err.line, err.column) in starts, (err, text)
            positioned += 1
    assert positioned > 1000


def test_strict_comparison_on_the_last_line_of_the_largest_model():
    with open(os.path.join(BENCH_ROOT, "wa10x10", "wa10x10.lha"), encoding="utf-8") as fh:
        head, last = fh.read().rstrip("\n").rsplit("\n", 1)
    assert last == "init l18 { b = 10; t = 0; }"
    with pytest.raises(ParseError) as err:
        parse_model(head + "\n" + last.replace("b = 10", "b < 10") + "\n")
    assert (err.value.line, err.value.column, err.value.message) == (1773, 14, STRICT % "<")


def test_lp_listing_prints_numbers_as_ints_or_fractions(tmp_path):
    # x starts at 3/2 and, in b, changes at a rate in [-1/2, 0].
    problem = parse_problem("goal b\ndepth 1\n", parse_model(MINI)).problem
    assert bounded_reachable(problem, dump_dir=str(tmp_path)).is_sat
    lines = (tmp_path / "path_00000.lp").read_text().splitlines()
    assert "1*x@0in + -3/2 <= 0" in lines
    assert "-1/2*d1 + 1*x@0out + -1*x@1out + 0 <= 0" in lines


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
