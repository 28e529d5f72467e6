"""CLI behavior: subcommands, output modes, exit codes."""

import importlib
import json
import logging
import os
import re

import pytest

from conftest import BENCH_ROOT, HALF
from wpx.cli import EXIT_CAP, EXIT_INPUT, EXIT_OK, main


def bench(*parts):
    return os.path.join(BENCH_ROOT, *parts)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_paths_prints_count(capsys):
    code, out, _ = run(capsys, "paths", "--problem", bench("wlm", "depth50.prob"))
    assert code == EXIT_OK
    assert out.strip() == "13"


def test_paths_verbose_lists_paths(capsys):
    code, out, _ = run(
        capsys, "paths", "--problem", bench("wlm", "depth20.prob"), "--verbose"
    )
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0] == "5"
    assert lines[1] == "l1 l5 l6"


def test_paths_depth_override(capsys):
    code, out, _ = run(
        capsys, "paths", "--problem", bench("wlm", "depth50.prob"), "--depth", "20"
    )
    assert code == EXIT_OK
    assert out.strip() == "5"


def write_problem(tmp_path, model_text, problem_text):
    """Write ``m.lha`` and ``p.prob``, which names it, and return the
    problem's path."""
    (tmp_path / "m.lha").write_text(model_text)
    prob = tmp_path / "p.prob"
    prob.write_text("model m.lha\n" + problem_text)
    return str(prob)


# Two locations and no transition: the goal b is cut off from a.
DISCONNECTED = (
    "vars x\nlocation a { rate x in [0,0]; }\n"
    "location b { rate x in [0,0]; }\ninit a {}\n"
)


def test_paths_disconnected_goal_prints_zero(capsys, tmp_path):
    prob = write_problem(tmp_path, DISCONNECTED, "goal b\ndepth 5\n")
    code, out, _ = run(capsys, "paths", "--problem", prob)
    assert code == EXIT_OK
    assert out.strip() == "0"


def test_waypoints_chain_output(capsys):
    code, out, _ = run(capsys, "waypoints", "--problem", bench("rover", "depth12.prob"))
    assert code == EXIT_OK
    assert out.split("\n")[0] == "l11 l6 l1 l2 l3 l8 l13 l14 l25"


def test_waypoints_trivial_note(capsys):
    code, out, _ = run(capsys, "waypoints", "--problem", bench("nrs", "depth15.prob"))
    assert code == EXIT_OK
    assert "trivial chain" in out


def test_waypoints_of_a_discrete_infeasible_problem(capsys, tmp_path):
    prob = write_problem(tmp_path, DISCONNECTED, "goal b\ndepth 5\n")
    code, out, _ = run(capsys, "waypoints", "--problem", prob)
    assert code == EXIT_OK
    assert out == "discrete-infeasible: no bounded path reaches the goal location\n"
    code, out, _ = run(capsys, "waypoints", "--problem", prob, "--json")
    assert code == EXIT_OK
    assert out == '{"chain": [], "note": "discrete-infeasible"}\n'


def test_paths_verbose_json_lists_paths(capsys, tmp_path):
    model = (
        "vars x\nlocation a { rate x in [0,0]; }\n"
        "location b { rate x in [0,0]; }\nlocation c { rate x in [0,0]; }\n"
        "trans a -> b {}\ntrans a -> c {}\ntrans c -> b {}\ninit a {}\n"
    )
    prob = write_problem(tmp_path, model, "goal b\ndepth 2\n")
    code, out, _ = run(capsys, "paths", "--problem", prob, "-v", "--json")
    assert code == EXIT_OK
    assert out == (
        "{\n"
        '  "path_count": 2,\n'
        '  "paths": [\n'
        "    [\n"
        '      "a",\n'
        '      "b"\n'
        "    ],\n"
        "    [\n"
        '      "a",\n'
        '      "c",\n'
        '      "b"\n'
        "    ]\n"
        "  ]\n"
        "}\n"
    )


def test_explain_text_output(capsys):
    code, out, _ = run(capsys, "explain", "--problem", bench("wlm", "depth20.prob"))
    assert code == EXIT_OK
    assert "outcome: FirstUnreachableWaypoint" in out
    assert "explanation: l6" in out
    assert "timings_ms:" in out


def test_explain_json_output(capsys):
    code, out, _ = run(
        capsys, "explain", "--problem", bench("wa6x6", "depth12.prob"), "--json"
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["explanation"]["location"] == "l28"
    assert doc["chain"] == ["l5", "l6", "l12", "l18", "l28", "l27", "l26", "l19"]


def test_check_unsat(capsys):
    code, out, _ = run(capsys, "check", "--problem", bench("rover", "depth12.prob"))
    assert code == EXIT_OK
    assert out.startswith("UNSAT")


def test_check_sat_prints_plan(capsys, tmp_path):
    model = tmp_path / "m.lha"
    model.write_text(
        "vars x\nlocation a { rate x in [1,1]; }\n"
        "location b { rate x in [0,0]; }\n"
        "trans a -> b { label: hop; guard: x >= 2; }\n"
        "init a { x = 0; }\n"
    )
    prob = tmp_path / "p.prob"
    prob.write_text("model m.lha\ngoal b\ndepth 3\n")
    code, out, _ = run(capsys, "check", "--problem", str(prob))
    assert code == EXIT_OK
    assert out.startswith("SAT")
    assert "plan step t=2 hop" in out


def test_parse_error_exit_code(capsys, tmp_path):
    model = tmp_path / "m.lha"
    model.write_text("vars x\nlocation a { inv: x < 1; rate x in [0,0]; }\ninit a {}\n")
    prob = tmp_path / "p.prob"
    prob.write_text("model m.lha\ngoal a\ndepth 1\n")
    code, _, err = run(capsys, "paths", "--problem", str(prob))
    assert code == EXIT_INPUT
    assert "only closed constraints" in err


def test_missing_file_exit_code(capsys):
    code, _, err = run(capsys, "paths", "--problem", "/nonexistent/x.prob")
    assert code == EXIT_INPUT


def test_cap_exit_code(capsys):
    code, _, err = run(
        capsys, "paths", "-v", "--problem", bench("nav", "depth10.prob"),
        "--max-paths", "10",
    )
    assert code == EXIT_CAP
    assert "cap" in err


def test_invalid_cap_rejected(capsys):
    code, _, err = run(
        capsys, "paths", "--problem", bench("wlm", "depth20.prob"),
        "--max-paths", "0",
    )
    assert code == EXIT_INPUT
    assert "--max-paths" in err


@pytest.mark.parametrize("subcommand", ["paths", "explain", "check", "bench"])
def test_nonpositive_cap_is_an_input_error(capsys, subcommand):
    argv = [subcommand, "--max-paths", "0"]
    if subcommand != "bench":
        argv += ["--problem", bench("wlm", "depth20.prob")]
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (EXIT_INPUT, "", "input error: --max-paths must be positive\n")


def test_parallel_flag_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["explain", "--problem", bench("wlm", "depth20.prob"), "--parallel", "2"])
    assert exc.value.code == EXIT_INPUT


# Every (subcommand, flag) pair that the subcommand would not honour.
UNHONOURED_FLAGS = [
    ("paths", ["--dump-lp", "D"]),
    ("waypoints", ["--dump-lp", "D"]),
    ("waypoints", ["-v"]),
    ("explain", ["-v"]),
    ("check", ["-v"]),
    ("bench", ["--model", "M"]),
    ("bench", ["--problem", "P"]),
    ("bench", ["--depth", "3"]),
    ("bench", ["--json"]),
    ("bench", ["--dump-lp", "D"]),
    ("bench", ["-v"]),
    ("waypoints", ["--max-paths", "10"]),
]


@pytest.mark.parametrize("subcommand,flag", UNHONOURED_FLAGS)
def test_subcommand_rejects_flags_it_does_not_honour(subcommand, flag):
    argv = [subcommand] + flag
    if subcommand != "bench":
        argv += ["--problem", bench("wlm", "depth20.prob")]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_INPUT


@pytest.mark.parametrize(
    "subcommand,section",
    [
        ("check", "goal l6 { zz >= 1 }"),
        ("check", "init l1 { qq = 1; }\ngoal l6"),
        ("explain", "init l1 { qq = 1; }\ngoal l6"),
    ],
    ids=["check-goal", "check-init", "explain-init"],
)
def test_undeclared_problem_variable_is_an_input_error(capsys, tmp_path, subcommand, section):
    prob = tmp_path / "p.prob"
    prob.write_text("model %s\n%s\ndepth 20\n" % (bench("wlm", "wlm.lha"), section))
    code, _, err = run(capsys, subcommand, "--problem", str(prob))
    assert code == EXIT_INPUT
    assert "undeclared variable" in err


def test_repeated_problem_section_is_an_input_error(capsys, tmp_path):
    prob = tmp_path / "p.prob"
    prob.write_text("model %s\ngoal l1\ngoal l6\ndepth 5\n" % bench("wlm", "wlm.lha"))
    code, out, err = run(capsys, "explain", "--problem", str(prob))
    assert code == EXIT_INPUT and out == ""
    assert "repeated 'goal' section" in err


def test_repeated_model_clause_is_an_input_error(capsys, tmp_path):
    with open(bench("wlm", "wlm.lha"), encoding="utf-8") as fh:
        text = fh.read()
    model = tmp_path / "m.lha"
    model.write_text(text.replace("rate x in [2, 2];", "rate x in [2, 2]; rate x in [5, 5];", 1))
    prob = tmp_path / "p.prob"
    prob.write_text("model %s\ngoal l6\ndepth 20\n" % model)
    code, out, err = run(capsys, "check", "--problem", str(prob))
    assert code == EXIT_INPUT and out == ""
    assert "m.lha: line 7, column 21: repeated rate for variable 'x'" in err


@pytest.mark.parametrize(
    "old,new,want",
    [
        ("vars x t", "vars x t x", "line 3, column 10: duplicate variable declaration 'x'"),
        ("rate x in [2, 2];\n  rate t in [1, 1];\n}\n\nlocation l2",
         "rate x in [2, 2];\n}\n\nlocation l2",
         "line 5, column 1: location l1 missing rate interval for variable 't'"),
        ("vars x t", "vars x t rate", "line 3, column 10: reserved word 'rate' cannot name a variable"),
    ],
    ids=["duplicate-var", "missing-rate", "clause-word"],
)
def test_model_validation_error_names_its_position(capsys, tmp_path, old, new, want):
    with open(bench("wlm", "wlm.lha"), encoding="utf-8") as fh:
        text = fh.read()
    assert text.count(old) == 1
    model = tmp_path / "m.lha"
    model.write_text(text.replace(old, new))
    prob = tmp_path / "p.prob"
    prob.write_text("model %s\ngoal l6\ndepth 20\n" % model)
    code, out, err = run(capsys, "explain", "--problem", str(prob))
    assert code == EXIT_INPUT and out == ""
    assert err == "input error: %s: %s\n" % (model, want)


def test_model_line_may_end_in_a_comment(capsys, tmp_path):
    prob = tmp_path / "p.prob"
    prob.write_text("model %s  # the model\ngoal l6\ndepth 20\n" % bench("wlm", "wlm.lha"))
    code, out, _ = run(capsys, "paths", "--problem", str(prob))
    assert code == EXIT_OK
    assert out.strip() == "5"


def test_repeated_model_line_is_an_input_error(capsys, tmp_path):
    model = bench("wlm", "wlm.lha")
    prob = tmp_path / "p.prob"
    prob.write_text("model %s\nmodel %s\ngoal l6\ndepth 20\n" % (model, model))
    code, out, err = run(capsys, "paths", "--problem", str(prob))
    assert code == EXIT_INPUT and out == ""
    assert "line 2, column 1: repeated 'model' section" in err


@pytest.mark.parametrize("model_line", [False, True], ids=["model-flag", "model-line"])
def test_a_variable_named_model_may_start_a_goal_line(capsys, tmp_path, model_line):
    # The goal model >= 30 is unreachable under the invariant model <= 10;
    # dropped as a model line, it would leave the goal trivially reachable.
    (tmp_path / "m.lha").write_text(
        "vars model t\nlocation a {\n  inv: model <= 10;\n  rate model in [1, 1];\n"
        "  rate t in [1, 1];\n}\ninit a { model = 0; t = 0; }\n"
    )
    prob = tmp_path / "r.prob"
    prob.write_text(
        ("model m.lha\n" if model_line else "") + "goal a {\nmodel >= 30;\n}\ndepth 2\n"
    )
    flags = [] if model_line else ["--model", str(tmp_path / "m.lha")]
    code, out, err = run(capsys, "check", "--problem", str(prob), *flags)
    assert (code, out, err) == (EXIT_OK, "UNSAT (paths_checked=0)\n", "")


@pytest.mark.parametrize(
    "value,code", [("basic_format", EXIT_INPUT), ("bogus", EXIT_INPUT), ("INFO", EXIT_OK)]
)
def test_wpx_log_accepts_only_level_names(capsys, monkeypatch, value, code):
    monkeypatch.setenv("WPX_LOG", value)
    got, out, err = run(capsys, "paths", "--problem", bench("wlm", "depth20.prob"))
    assert got == code
    if code == EXIT_INPUT:
        assert out == ""
        assert err.startswith("input error: WPX_LOG must be one of debug, info, warning")
    else:
        assert out.strip() == "5"


def test_wpx_log_info_names_each_check(caplog, capsys):
    with caplog.at_level(logging.DEBUG, logger="wpx"):
        code, _, _ = run(capsys, "explain", "--problem", bench("wlm", "depth20.prob"))
    assert code == EXIT_OK
    infos = [r.getMessage() for r in caplog.records if r.levelno == logging.INFO]
    assert [m.split(":")[0] for m in infos] == ["check 0 l1", "check 1 l5", "check 2 l6"]
    assert infos[-1] == "check 2 l6: UNSAT paths_checked=0"
    # One debug line per concrete path decided: l1 and l5 take one each, and
    # the box decides l6.
    debugs = [r for r in caplog.records if r.levelno == logging.DEBUG]
    assert [r.name for r in debugs] == ["wpx.reach", "wpx.reach"]


def test_paths_prints_counts_of_any_size(capsys, tmp_path):
    # Every location pair is an edge, so 2**depth - 1 walks reach b: at
    # depth 15000 a count of 4,516 digits, past Python's default 4,300-digit
    # limit on int-to-str conversion.
    model = tmp_path / "m.lha"
    model.write_text(
        "vars x\nlocation a { rate x in [0,0]; }\nlocation b { rate x in [0,0]; }\n"
        "trans a -> a { label: s; }\ntrans a -> b { label: s; }\n"
        "trans b -> a { label: s; }\ntrans b -> b { label: s; }\ninit a {}\n"
    )
    prob = tmp_path / "p.prob"
    prob.write_text("model m.lha\ngoal b\ndepth 15000\n")
    code, out, _ = run(capsys, "paths", "--problem", str(prob))
    assert code == EXIT_OK
    assert len(out.strip()) == 4516
    code, out, _ = run(capsys, "explain", "--problem", str(prob), "--json")
    assert code == EXIT_OK
    assert json.loads(out)["path_count"] == 2**15000 - 1


def test_bench_reports_rows(capsys):
    code, out, _ = run(capsys, "bench")
    assert code == EXIT_OK
    lines = [l for l in out.strip().split("\n")]
    assert sum(1 for l in lines if " ok" in l or "MISMATCH" in l) == 14
    # The single documented divergence: the depth-50 monitor path count.
    assert sum(1 for l in lines if "MISMATCH" in l) == 1
    assert "path_count: expected 12, got 13" in out


def test_dump_lp_directory(capsys, tmp_path):
    dump = tmp_path / "lps"
    problem = bench("wlm", "depth20.prob")
    code, out, _ = run(capsys, "explain", "--problem", problem, "--json")
    code_dump, out_dump, _ = run(
        capsys, "explain", "--problem", problem, "--json", "--dump-lp", str(dump),
    )
    assert code == code_dump == EXIT_OK
    doc, doc_dump = json.loads(out), json.loads(out_dump)
    doc.pop("timings_ms")
    doc_dump.pop("timings_ms")
    assert doc == doc_dump
    # One subdirectory per checked waypoint; l6 is decided by the box.
    assert (dump / "0_l1" / "path_00000.lp").is_file()
    assert (dump / "1_l5" / "path_00000.lp").is_file()
    assert sorted(os.listdir(dump)) == ["0_l1", "1_l5"]


def test_exact_goal_goes_through_the_same_check(caplog, capsys, monkeypatch, tmp_path):
    # half is solvable: every chain entry is reachable, so the exact goal is
    # checked last, logged, dumped and looked up like the entries before it.
    explain_module = importlib.import_module("wpx.explain")
    original = explain_module.bounded_reachable
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(explain_module, "bounded_reachable", counting)
    dump = tmp_path / "lps"
    with caplog.at_level(logging.INFO, logger="wpx"):
        code, _, _ = run(
            capsys, "explain", "--problem", os.path.join(HALF, "half.prob"),
            "--dump-lp", str(dump),
        )
    assert code == EXIT_OK
    infos = [r.getMessage() for r in caplog.records if r.levelno == logging.INFO]
    checks = ["0 a", "1 b", "2 c", "goal c"]
    assert infos == ["check %s: SAT paths_checked=1" % c for c in checks]
    assert sorted(os.listdir(dump)) == ["0_a", "1_b", "2_c", "goal"]
    for sub in os.listdir(dump):
        assert os.listdir(dump / sub) == ["path_00000.lp"]
    assert len(calls) == 4


def test_timing_keys_in_one_order(capsys, tmp_path):
    keys = ["path_enumeration", "lcs", "reachability"]
    problems = {
        "FirstUnreachableWaypoint": bench("wlm", "depth20.prob"),
        "DiscreteInfeasible": write_problem(tmp_path, DISCONNECTED, "goal b\ndepth 5\n"),
    }
    for outcome, prob in problems.items():
        code, out, _ = run(capsys, "explain", "--problem", prob, "--json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["explanation"]["outcome"] == outcome
        assert list(doc["timings_ms"]) == keys
        code, out, _ = run(capsys, "explain", "--problem", prob)
        assert code == EXIT_OK
        line = out.splitlines()[-1]
        assert re.fullmatch(" ".join(["timings_ms:"] + [k + r"=\d+\.\d\d" for k in keys]), line)
    # Nothing is enumerated for a discrete-infeasible problem.
    assert line.endswith(" lcs=0.00 reachability=0.00")


def test_paths_deep_depth_counts_and_lists(capsys):
    problem = bench("wlm", "depth20.prob")
    code, out, _ = run(capsys, "paths", "--problem", problem, "--depth", "1200")
    assert code == EXIT_OK
    count = int(out.strip())
    code, out, _ = run(capsys, "paths", "--problem", problem, "--depth", "1200", "-v")
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert int(lines[0]) == count
    assert len(lines) - 1 == count


def test_input_errors_name_their_file(capsys, tmp_path):
    # With two input files, each error says which one is at fault.
    with open(bench("wlm", "wlm.lha"), encoding="utf-8") as fh:
        model = fh.read()
    (tmp_path / "good.lha").write_text(model)
    (tmp_path / "bad.lha").write_text(model.replace("inv: x <= 12;", "inv: x < 12;"))
    bad_prob = tmp_path / "bad.prob"
    bad_prob.write_text("model good.lha\ngoal l6 { x >> 1 }\ndepth 3\n")
    code, out, err = run(capsys, "check", "--problem", str(bad_prob))
    assert code == EXIT_INPUT and out == ""
    assert err.startswith(
        "input error: %s: line 2, column 13: strict comparison '>'" % bad_prob
    )
    bad_model_prob = tmp_path / "p.prob"
    bad_model_prob.write_text("model bad.lha\ngoal l6\ndepth 3\n")
    code, out, err = run(capsys, "check", "--problem", str(bad_model_prob))
    assert code == EXIT_INPUT and out == ""
    assert err.startswith(
        "input error: %s: line 6, column 10: strict comparison '<'" % (tmp_path / "bad.lha")
    )


def test_input_errors_without_a_position_print_none(capsys, tmp_path):
    no_model = tmp_path / "p.prob"
    no_model.write_text("goal l6\ndepth 3\n")
    cases = [
        (("check",), "input error: a --problem file is required\n"),
        (
            ("check", "--problem", str(no_model)),
            "input error: %s: no --model given and the problem file has no 'model' line\n"
            % no_model,
        ),
        (
            ("check", "--problem", bench("wlm", "depth20.prob"), "--depth", "-1"),
            "input error: depth must be non-negative\n",
        ),
    ]
    for argv, want in cases:
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (EXIT_INPUT, "", want), argv


MALFORMED_NUMBERS = ("1/0", "0/0", "1.5/2")
SMALL_MODEL = (
    "vars x\n"
    "location a { rate x in [RATE, 1]; }\n"
    "location b { rate x in [0, 0]; }\n"
    "trans a -> b { label: hop; reset x in [RESET, 3]; }\n"
    "init a { x = 0; }\n"
)


@pytest.mark.parametrize("literal", MALFORMED_NUMBERS)
@pytest.mark.parametrize("place", ["rate", "reset", "goal"])
def test_malformed_number_is_an_input_error(capsys, tmp_path, place, literal):
    model = SMALL_MODEL.replace("RATE", literal if place == "rate" else "1")
    model = model.replace("RESET", literal if place == "reset" else "2")
    goal = "goal b { x <= %s }" % (literal if place == "goal" else "1")
    (tmp_path / "m.lha").write_text(model)
    prob = tmp_path / "p.prob"
    prob.write_text("model m.lha\n%s\ndepth 3\n" % goal)
    bad, text = (prob, prob.read_text()) if place == "goal" else (tmp_path / "m.lha", model)
    line = next(i for i, l in enumerate(text.split("\n"), 1) if literal in l)
    column = text.split("\n")[line - 1].index(literal) + 1
    code, out, err = run(capsys, "check", "--problem", str(prob))
    assert (code, out) == (EXIT_INPUT, "")
    assert err == "input error: %s: line %d, column %d: malformed number %r\n" % (
        bad, line, column, literal
    )


@pytest.mark.parametrize("bad", ["p.prob", "m.lha"])
def test_non_utf8_file_is_an_input_error(capsys, tmp_path, bad):
    (tmp_path / "m.lha").write_text(SMALL_MODEL.replace("RATE", "1").replace("RESET", "2"))
    (tmp_path / "p.prob").write_text("model m.lha\ngoal b\ndepth 3\n")
    path = tmp_path / bad
    path.write_bytes(path.read_bytes() + b"# \xff\n")
    code, out, err = run(capsys, "check", "--problem", str(tmp_path / "p.prob"))
    assert (code, out) == (EXIT_INPUT, "")
    assert err == "input error: %s: not UTF-8 text (invalid start byte)\n" % path


@pytest.mark.parametrize(
    "old,new,message",
    [
        ("[RATE, 1]", "[2, 1]", "location a rate interval for 'x' has lower > upper"),
        ("[RESET, 3]", "[3, 1]", "transition 0 reset interval for 'x' has lower > upper"),
    ],
    ids=["rate", "reset"],
)
def test_an_empty_interval_is_an_input_error(capsys, tmp_path, old, new, message):
    model = tmp_path / "m.lha"
    model.write_text(SMALL_MODEL.replace(old, new).replace("RATE", "1").replace("RESET", "2"))
    (tmp_path / "p.prob").write_text("model m.lha\ngoal b\ndepth 3\n")
    code, out, err = run(capsys, "check", "--problem", str(tmp_path / "p.prob"))
    assert (code, out, err) == (EXIT_INPUT, "", "input error: %s: %s\n" % (model, message))
