"""What the benchmark harness under ``wpxbench/`` reads from wpx.

``wpxbench/run.py`` parses each input with ``parse_problem(text,
parse_model(text, source)).problem``; ``wpxbench/spans.py`` wraps the
stage functions in ``wpx.explain``'s globals and ``wpx.reach``'s
``extract_witness`` by name, and reads ``.count`` of the path set,
``len(.paths)`` of the path set it is given, ``.sequence`` of the LCS and
``len`` of the chain.  It also wraps ``wpx.reach.enumerate_concrete_paths``
and ``wpx.reach.encode_path`` by name, passing keyword arguments through,
and times a check's box from its start to its enumeration.
``wpxbench/tests/test_gen.py`` reads, from ``wpx.model``, each location's
``rates.interval(v).lower`` and ``.upper`` and each transition's
``reset.action(v).kind`` against ``ResetKind.KEEP``, and builds
``RunSegment`` and ``WitnessRun`` from positional fields.  A change that
breaks one of these reads fails here, not only in the harness.
"""

import importlib
import os

import pytest

import wpx
import wpx.graph
import wpx.reach
from conftest import box_off, load_benchmark, pool_problems
from oracles import recursive_walks
from wpx.cli import _load
from wpx.model import ResetKind, RunSegment, WitnessRun

# ``wpx.explain`` is the re-exported function; the harness, like this
# file, takes the module from ``sys.modules``.
EXPLAIN = importlib.import_module("wpx.explain")
HALF = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "half")


def wlm_paths():
    problem = load_benchmark("wlm", "depth50.prob")
    graph = wpx.build_graph(problem.domain)
    paths = wpx.enumerate_paths(graph, problem.init[0], problem.goal.location, problem.depth)
    return problem, graph, paths


def test_path_set_count_is_the_walk_count():
    problem, graph, paths = wlm_paths()
    walks = recursive_walks(graph, problem.init[0], problem.goal.location, problem.depth)
    assert paths.count == len(walks) == 13


def test_len_of_paths_lists_no_walk(monkeypatch):
    _problem, _graph, paths = wlm_paths()

    def listing(*args, **kwargs):
        raise AssertionError("a walk was listed")

    monkeypatch.setattr(wpx.graph, "iter_walks", listing)
    assert len(paths.paths) == paths.count


def test_lcs_sequence_and_chain_length():
    problem, _graph, paths = wlm_paths()
    lcs = wpx.lcs_multi(paths)
    assert lcs.sequence == (0, 4, 5)
    assert len(wpx.chain_from_lcs(problem, lcs)) == 3


def test_parse_problem_of_parse_model_has_a_problem():
    with open(os.path.join(HALF, "half.lha"), encoding="utf-8") as fh:
        model_text = fh.read()
    with open(os.path.join(HALF, "half.prob"), encoding="utf-8") as fh:
        problem_text = fh.read()
    problem = wpx.parse_problem(problem_text, wpx.parse_model(model_text, "half.lha")).problem
    assert problem.depth == 2
    assert problem.domain.location(problem.goal.location).name == "c"


@pytest.mark.parametrize(
    "name", ["enumerate_paths", "lcs_multi", "chain_from_lcs", "bounded_reachable"]
)
def test_explain_calls_its_stages_through_module_globals(monkeypatch, name):
    calls = []
    original = getattr(EXPLAIN, name)

    def counting(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(EXPLAIN, name, counting)
    wpx.explain(load_benchmark("wlm", "depth20.prob"))
    assert calls


def test_witness_plan_looks_up_extract_witness_at_call_time(monkeypatch):
    problem, _name = _load(os.path.join(HALF, "half.prob"))
    report = wpx.explain(problem)
    calls = []
    original = wpx.reach.extract_witness

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(wpx.reach, "extract_witness", counting)
    assert [str(t) for t, _label in report.witness_plan.steps] == ["3/2", "4"]
    assert len(calls) == 1



@pytest.mark.parametrize("row", ["half", "wlm-d20-box-off"])
def test_bounded_reachable_enumerates_and_encodes_through_module_globals(monkeypatch, row):
    # Each check that the box does not decide makes one enumeration call,
    # and each path it solves one encoding call, through ``wpx.reach``'s
    # globals with the positional arguments the harness's wrappers see;
    # the shared pass goes by keyword.
    if row == "half":
        problem, _name = _load(os.path.join(HALF, "half.prob"))
    else:
        box_off(monkeypatch)
        problem = load_benchmark("wlm", "depth20.prob")
    calls = {"enumerate_concrete_paths": [], "encode_path": [], "_check_path": []}
    checks = []

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls[name].append((args, sorted(kwargs)))
            return original(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(wpx.reach, name, counting(name, getattr(wpx.reach, name)))
    reachable = EXPLAIN.bounded_reachable

    def check(sub, **kwargs):
        checks.append((sub, reachable(sub, **kwargs)))
        return checks[-1][1]

    monkeypatch.setattr(EXPLAIN, "bounded_reachable", check)
    wpx.explain(problem)
    enumerated = [(sub, v) for sub, v in checks if v.paths_checked]
    assert len(checks) > 1 and len(enumerated) == len(calls["enumerate_concrete_paths"])
    for (sub, _verdict), (args, keywords) in zip(enumerated, calls["enumerate_concrete_paths"]):
        assert args == (sub.domain, sub.init[0], sub.goal.location, sub.depth)
        assert keywords == ["index"]
    assert len(calls["encode_path"]) == len(calls["_check_path"]) > 0
    for (args, keywords), (solved, _none) in zip(calls["encode_path"], calls["_check_path"]):
        assert args == solved[:2] and isinstance(args[1], wpx.reach.ConcretePath)
        assert keywords == ["stages"]


def test_generator_tests_read_rates_resets_and_runs():
    # The generator's tests read the rate bounds of x and y in each location
    # and their reset kind on each transition (no transition resets them in
    # an UNSAT pool), and rebuild runs positionally, segment by segment.
    automaton = pool_problems("relational_unsat", 1, cycles=1)[0].domain
    for loc in automaton.locations:
        for var in ("x", "y"):
            iv = loc.rates.interval(var)
            assert iv.lower <= iv.upper
    for t in automaton.transitions:
        assert all(t.reset.action(var).kind is ResetKind.KEEP for var in ("x", "y"))
    for problem in pool_problems("relational_sat", 1, cycles=1):
        run = wpx.reach.bounded_reachable(problem).run
        rebuilt = WitnessRun(
            tuple(RunSegment(s.location, s.entry, s.dwell, s.exit) for s in run.segments),
            run.transitions,
        )
        assert rebuilt == run
        assert wpx.check_witness(problem.domain, problem.init, problem.goal, rebuilt) == []
