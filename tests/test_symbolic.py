"""The symbolic discrete stage against the explicit oracles: walk count,
kept alphabet and the full LCS result, tie-break included; and, on the
bundled problems, against a product check that needs no listing and the
all-vertex cut scan."""

import random

import wpx.graph
from conftest import benchmark_problems, load_benchmark
from oracles import (
    ExplicitPathSet,
    disconnecting_articulation_points,
    explicit_lcs,
    graph_from_succ,
    misses,
    prune_alphabet,
    random_digraph,
    recursive_walks,
)
from wpx.explain import explain
from wpx.graph import build_graph, enumerate_paths, lcs_multi


def test_symbolic_stage_matches_explicit_oracles():
    rng = random.Random(4242)
    nonempty = 0
    for case in range(1200):
        n, succ = random_digraph(rng)
        graph = graph_from_succ(succ)
        source, target = rng.randrange(n), rng.randrange(n)
        depth = rng.randint(0, 7)
        walks = recursive_walks(succ, source, target, depth)
        paths = enumerate_paths(graph, source, target, depth)
        assert paths.count == len(walks), case
        if not walks:
            continue
        nonempty += 1
        explicit = ExplicitPathSet(tuple(walks))
        _reduced, kept = prune_alphabet(explicit)
        assert set(lcs_multi(paths).sequence) == kept, case
        assert lcs_multi(paths) == explicit_lcs(explicit), case
    assert nonempty > 500  # the suite must actually exercise the LCS


def test_misses_detects_the_one_walk_that_skips_a_waypoint():
    # 0 -> 1 -> 3 and 0 -> 2 -> 3; only the second walk misses (0, 1, 3).
    graph = graph_from_succ({0: [1, 2], 1: [3], 2: [3]})
    paths = enumerate_paths(graph, 0, 3, 2)
    assert misses(paths, (0, 1, 3))
    assert misses(paths, (0, 1))
    assert misses(paths, (1,))
    assert not misses(paths, (0, 3))
    assert not misses(paths, (3,))
    assert not misses(paths, ())


def test_bundled_lcs_is_common_to_every_walk():
    # Up to 78,408 walks per row: the product check decides without
    # listing them.  The LCS holds every kept location once, so nothing
    # longer is common to all walks.
    for dirname, probname in benchmark_problems():
        problem = load_benchmark(dirname, probname)
        init_loc, goal_loc = problem.init[0], problem.goal.location
        graph = build_graph(problem.domain)
        paths = enumerate_paths(graph, init_loc, goal_loc, problem.depth)
        if paths.count == 0:
            continue
        lcs = lcs_multi(paths)
        assert not misses(paths, lcs.sequence), (dirname, probname)
        assert len(set(lcs.sequence)) == len(lcs.sequence), (dirname, probname)
        cuts = disconnecting_articulation_points(graph, init_loc, goal_loc, problem.depth)
        assert set(lcs.sequence) == cuts | {init_loc, goal_loc}, (dirname, probname)


def test_explain_draws_one_walk(monkeypatch):
    problem = load_benchmark("wa6x6", "depth17.prob")
    drawn = []
    original = wpx.graph.iter_walks

    def counting(*args, **kwargs):
        for walk in original(*args, **kwargs):
            drawn.append(walk)
            yield walk

    monkeypatch.setattr(wpx.graph, "iter_walks", counting)
    report = explain(problem)
    assert report.path_count == 78408
    assert report.explanation_name == "l28"
    assert len(drawn) == 1
