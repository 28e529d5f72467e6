"""Chain construction from the LCS and the abstract chain check."""

import pytest

from conftest import load_benchmark
from oracles import ExplicitPathSet, verify_chain_abstract
from wpx.explain import chain_from_lcs
from wpx.graph import LcsResult, build_graph, enumerate_paths, iter_walks, lcs_multi


def wlm_problem():
    return load_benchmark("wlm", "depth20.prob")


def test_chain_entries_carry_widened_subproblems():
    problem = wlm_problem()
    chain = chain_from_lcs(problem, LcsResult(sequence=(0, 4, 5)))
    assert tuple(e.location for e in chain) == (0, 4, 5)
    assert [e.location_name for e in chain] == ["l1", "l5", "l6"]
    for entry in chain:
        assert entry.problem.goal.location == entry.location
        assert entry.problem.goal.region == problem.domain.location(entry.location).invariant
        assert entry.problem.depth == problem.depth


def test_chain_rejects_repeated_symbols():
    # The library LCS holds each location once (lcs_multi), so a repeat is
    # a caller error, consecutive or not.
    problem = wlm_problem()
    for sequence in ((0, 0, 4, 5), (0, 4, 0, 5)):
        with pytest.raises(ValueError, match="repeats"):
            chain_from_lcs(problem, LcsResult(sequence=sequence))


def test_empty_lcs_rejected():
    with pytest.raises(ValueError):
        chain_from_lcs(wlm_problem(), LcsResult(sequence=()))


def test_verify_chain_abstract_on_benchmark():
    problem = wlm_problem()
    graph = build_graph(problem.domain)
    ends = (problem.init[0], problem.goal.location, problem.depth)
    chain = chain_from_lcs(problem, lcs_multi(enumerate_paths(graph, *ends)))
    assert verify_chain_abstract(ExplicitPathSet(tuple(iter_walks(graph, *ends))), chain)


def test_verify_chain_abstract_rejects_noncovering_chain():
    problem = wlm_problem()
    chain = chain_from_lcs(problem, LcsResult(sequence=(0, 1, 5)))
    paths = ExplicitPathSet(((0, 4, 5),))
    assert not verify_chain_abstract(paths, chain)
