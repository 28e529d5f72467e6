"""Discrete abstraction: enumeration order, counting, caps, articulation."""

import random

import pytest

from oracles import (
    disconnecting_articulation_points,
    graph_from_succ,
    random_digraph,
    recursive_walks,
)
from wpx.graph import (
    ResourceCapExceeded,
    build_graph,
    count_paths,
    enumerate_paths,
    iter_walks,
)
from wpx.reach import bounded_reachable
from wpx.textio import parse_model, parse_problem
from conftest import load_benchmark


DIAMOND = graph_from_succ({0: [1, 2], 1: [3], 2: [3], 3: [0]})


def test_walks_bfs_order_and_lexicographic_ties():
    walks = list(iter_walks(DIAMOND, 0, 3, 6))
    assert walks[0] == (0, 1, 3)
    assert walks[1] == (0, 2, 3)
    lengths = [len(w) - 1 for w in walks]
    assert lengths == sorted(lengths)


def test_zero_length_walk_when_source_is_target():
    walks = list(iter_walks(DIAMOND, 0, 0, 4))
    assert walks[0] == (0,)


def test_no_walks_beyond_depth():
    assert list(iter_walks(DIAMOND, 0, 3, 1)) == []


def test_self_loop_consumes_depth():
    g = graph_from_succ({0: [0, 1]})
    walks = list(iter_walks(g, 0, 1, 3))
    assert (0, 0, 1) in walks and (0, 0, 0, 1) in walks


# The graph {0: [0, 1]} as an automaton whose goal only a relational
# constraint rules out, so the box pre-analysis cannot decide it and every
# one of its 30 concrete paths at depth 30 goes to the solver.
LOOP = """
vars x y
location a { rate x in [1, 1]; rate y in [1, 1]; }
location b { rate x in [0, 0]; rate y in [0, 0]; }
trans a -> a { label: loop; }
trans a -> b { label: hop; }
init a { x = 0; y = 0; }
"""


def test_enumerate_paths_cap():
    problem = parse_problem("goal b { x - y >= 1 }\ndepth 30\n", parse_model(LOOP)).problem
    # Counting walks costs nothing and is never capped; solving concrete
    # paths is.
    assert enumerate_paths(build_graph(problem.domain), 0, 1, 30).count == 30
    assert bounded_reachable(problem, cap=30).paths_checked == 30
    with pytest.raises(ResourceCapExceeded):
        bounded_reachable(problem, cap=5)


def test_count_paths_matches_enumeration():
    rng = random.Random(7)
    for _ in range(200):
        n, succ = random_digraph(rng)
        g = graph_from_succ(succ)
        src, tgt = rng.randrange(n), rng.randrange(n)
        depth = rng.randint(0, 5)
        walks = list(iter_walks(g, src, tgt, depth))
        assert len(walks) == count_paths(g, src, tgt, depth)


def test_enumeration_matches_recursive_oracle():
    rng = random.Random(11)
    for _ in range(300):
        n, succ = random_digraph(rng)
        g = graph_from_succ(succ)
        src, tgt = rng.randrange(n), rng.randrange(n)
        depth = rng.randint(0, 5)
        assert list(iter_walks(g, src, tgt, depth)) == recursive_walks(
            succ, src, tgt, depth
        )


def test_build_graph_collapses_parallel_transitions():
    problem = load_benchmark("wlm", "depth20.prob")
    g = build_graph(problem.domain)
    assert set(g) <= set(range(len(problem.domain.locations)))
    assert sum(len(targets) for targets in g.values()) == 6
    assert all(list(targets) == sorted(set(targets)) for targets in g.values())


def test_articulation_line_graph():
    g = graph_from_succ({0: [1], 1: [2], 2: [3]})
    assert disconnecting_articulation_points(g, 0, 3, 5) == {1, 2}


def test_articulation_depth_sensitive():
    # Short route through 1; long detour 0-2-3-4; depth forbids the detour.
    g = graph_from_succ({0: [1, 2], 1: [4], 2: [3], 3: [4]})
    assert disconnecting_articulation_points(g, 0, 4, 2) == {1}
    assert disconnecting_articulation_points(g, 0, 4, 3) == set()


def test_articulation_empty_when_disconnected():
    g = graph_from_succ({0: [1]})
    assert disconnecting_articulation_points(g, 0, 2, 5) == set()
