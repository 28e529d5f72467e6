"""Turn an LCS into the ordered chain of sub-problems, one per inevitable
waypoint.
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
    position: int
    problem: PlanningProblem


@dataclass(frozen=True)
class WaypointChain:
    entries: Tuple[ChainEntry, ...]

    def __len__(self) -> int:
        return len(self.entries)


def chain_from_lcs(problem: PlanningProblem, lcs: LcsResult) -> WaypointChain:
    """Entry i is the sub-problem whose goal is the invariant of symbol i.

    The LCS holds each location once (see ``wpx.lcs``); a repeated symbol
    would give duplicate sub-problems and is rejected.
    """
    if not lcs.sequence:
        raise ValueError("empty LCS")
    if len(set(lcs.sequence)) != len(lcs.sequence):
        raise ValueError("LCS repeats a location: %r" % (lcs.sequence,))
    return WaypointChain(
        entries=tuple(
            ChainEntry(
                location=sym,
                location_name=problem.domain.location(sym).name,
                position=i,
                problem=alpha(problem, sym),
            )
            for i, sym in enumerate(lcs.sequence)
        )
    )
