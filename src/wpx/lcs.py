"""Longest common subsequence of all walks in a path set.

The LCS of a bounded walk set is its first BFS walk reduced to the kept
alphabet (the locations every walk visits), so it is read off one walk
without listing the rest.

Why: the first BFS walk A is a shortest walk, hence simple, and each of its
prefixes is a shortest path.  Let c_1 .. c_m be A's kept symbols in order.
Suppose some walk B within the bound does not contain them as a
subsequence, and greedy matching in B stops after c_i.  Then A's prefix up
to c_i, followed by B's suffix after its match of c_i, is a walk no longer
than B that avoids c_{i+1}, contradicting that every walk visits c_{i+1}.
So A's reduction is common to all walks; and since only kept symbols can
occur in a common subsequence, and A holds each once, nothing longer is,
and no other sequence of the same length exists to tie with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .graph import PathSet


# Kept for wpxbench/spans.py, which reads ``.sequence``.
@dataclass(frozen=True)
class LcsResult:
    sequence: Tuple[int, ...]


def lcs_multi(paths: PathSet) -> LcsResult:
    """LCS of every walk in the path set: the first BFS walk reduced to the
    kept alphabet."""
    if paths.count == 0:
        raise ValueError("empty path set")
    kept = paths.kept_alphabet
    sequence = tuple(sym for sym in paths.first_walk() if sym in kept)
    return LcsResult(sequence=sequence)
