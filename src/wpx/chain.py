"""Turn an LCS into the ordered chain of sub-problems, one per inevitable
waypoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

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
    source_lcs: Tuple[int, ...]
    deduplicated_repeats: bool

    @property
    def locations(self) -> Tuple[int, ...]:
        return tuple(e.location for e in self.entries)

    def __len__(self) -> int:
        return len(self.entries)


def chain_from_lcs(problem: PlanningProblem, lcs: LcsResult) -> WaypointChain:
    """Entry i is the sub-problem whose goal is the invariant of symbol i.

    Consecutive repeats of a location in the LCS (possible because path
    strings are walks) would create duplicate sub-problems and break the
    antisymmetry of the chain order, so they are collapsed to one entry; the
    report carries a flag when that happened.
    """
    if not lcs.sequence:
        raise ValueError("empty LCS")
    symbols: List[int] = []
    deduped = False
    for sym in lcs.sequence:
        if symbols and symbols[-1] == sym:
            deduped = True
            continue
        symbols.append(sym)
    entries = tuple(
        ChainEntry(
            location=sym,
            location_name=problem.domain.location(sym).name,
            position=i,
            problem=alpha(problem, sym),
        )
        for i, sym in enumerate(symbols)
    )
    return WaypointChain(
        entries=entries, source_lcs=lcs.sequence, deduplicated_repeats=deduped
    )

