"""LCS over listed strings: oracle agreement, pruning, determinism,
tie-breaks.  The explicit engine lives in ``oracles``; the symbolic one in
``wpx.graph.lcs_multi`` is checked against it in ``test_symbolic``."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    ExplicitPathSet,
    brute_lcs_length,
    common_subsequences_pair,
    explicit_lcs,
    is_subsequence,
    prune_alphabet,
)
from wpx.graph import ResourceCapExceeded, enumerate_paths, lcs_multi


def path_set(*strings):
    return ExplicitPathSet(tuple(tuple(s) for s in strings))


def test_is_subsequence():
    assert is_subsequence((1, 3), (1, 2, 3))
    assert not is_subsequence((3, 1), (1, 2, 3))
    assert is_subsequence((), (1,))


def test_prune_alphabet_removes_noncommon_symbols():
    reduced, kept = prune_alphabet(path_set((1, 2, 3), (1, 3, 4)))
    assert kept == {1, 3}
    assert reduced == ((1, 3), (1, 3))


def test_pair_candidates_include_short_common_subsequences():
    # A maximal pair-LCS can die against a third string while a shorter
    # common subsequence survives; all of them must be produced.
    cands = common_subsequences_pair((1, 2, 3), (1, 2, 3))
    assert (1, 3) in cands and (2,) in cands and (1, 2, 3) in cands


def test_candidate_cap_enforced():
    s = tuple(range(18))
    with pytest.raises(ResourceCapExceeded):
        common_subsequences_pair(s, s, cap=100)


def test_lcs_single_string_is_the_string():
    result = explicit_lcs(path_set((1, 2, 3)))
    assert result.sequence == (1, 2, 3)
    assert len(result.sequence) != 2


def test_lcs_trivial_flag_on_endpoints_only():
    result = explicit_lcs(path_set((0, 1, 5), (0, 2, 5), (0, 3, 5)))
    assert result.sequence == (0, 5)
    assert len(result.sequence) == 2


def test_lcs_known_value():
    result = explicit_lcs(path_set((0, 1, 2, 3, 9), (0, 2, 1, 3, 9), (0, 1, 3, 2, 9)))
    # Common subsequences of all three: (0,1,3,9)? third has 1 before 3,
    # second has 1 after 2 but before 3 -> (0,1,3,9) works for 1,3 order.
    assert result.sequence == (0, 1, 3, 9)


def test_lcs_deterministic_tiebreak_prefers_leftmost_embedding():
    # Both (0,1,9) and (0,2,9) are maximal; the first BFS string embeds
    # (0,1,9) leftmost.
    result = explicit_lcs(path_set((0, 1, 2, 9), (0, 2, 1, 9)))
    assert result.sequence == (0, 1, 9)


def test_lcs_oracle_small_random():
    rng = random.Random(23)
    for _ in range(300):
        k = rng.randint(2, 5)
        head, tail = 90, 91
        strings = []
        for _ in range(k):
            mid = [rng.randint(0, 7) for _ in range(rng.randint(0, 8))]
            strings.append(tuple([head] + mid + [tail]))
        got = explicit_lcs(path_set(*strings))
        want = brute_lcs_length(strings)
        assert len(got.sequence) == want
        for s in strings:
            assert is_subsequence(got.sequence, s)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(min_value=0, max_value=7), min_size=0, max_size=8),
        min_size=1,
        max_size=6,
    )
)
def test_lcs_property_matches_bruteforce(mids):
    strings = [tuple([90] + mid + [91]) for mid in mids]
    got = explicit_lcs(path_set(*strings))
    assert len(got.sequence) == brute_lcs_length(strings)
    assert got.sequence[0] == 90 and got.sequence[-1] == 91


def test_lcs_multi_rejects_an_empty_path_set():
    # No walk from 0 reaches 1, so there is no first walk to reduce.
    paths = enumerate_paths({0: (), 1: ()}, 0, 1, 3)
    assert paths.count == 0
    with pytest.raises(ValueError, match="empty path set"):
        lcs_multi(paths)
