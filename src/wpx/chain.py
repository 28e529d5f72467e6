"""Turn an LCS into the ordered chain of sub-problems, one per inevitable
waypoint.  The chain is a tuple of entries; an entry's position is its
index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .lcs import LcsResult
from .model import PlanningProblem, alpha


@dataclass(frozen=True)
class ChainEntry:
    location: int
    location_name: str
    problem: PlanningProblem


def chain_from_lcs(problem: PlanningProblem, lcs: LcsResult) -> Tuple[ChainEntry, ...]:
    """Entry i is the sub-problem whose goal is the invariant of symbol i.

    The LCS holds each location once (see ``wpx.lcs``); a repeated symbol
    would give duplicate sub-problems and is rejected.
    """
    if not lcs.sequence:
        raise ValueError("empty LCS")
    if len(set(lcs.sequence)) != len(lcs.sequence):
        raise ValueError("LCS repeats a location: %r" % (lcs.sequence,))
    return tuple(
        ChainEntry(
            location=sym,
            location_name=problem.domain.location(sym).name,
            problem=alpha(problem, sym),
        )
        for sym in lcs.sequence
    )
