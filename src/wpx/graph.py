"""Discrete abstraction: the location graph, bounded walk counting and
enumeration, and disconnecting articulation points.

The location graph is a successor map, ``{location: sorted targets}``,
with one edge per connected location pair; a location with no outgoing
transition has no key.

"Path" throughout means a walk: vertex repetition is allowed, and a
self-loop consumes one depth unit.  Enumeration order is breadth first by
length with ties broken by location id at every expansion, which makes the
resulting path set (and everything derived from it downstream) fully
deterministic.  The same enumerator, ``iter_labelled_walks``, lists the
concrete transition paths of the reachability stage, with ties broken by
transition id.

A ``PathSet`` is symbolic: it holds the successor map, the endpoints, the
depth and the walk count, and answers the two questions the LCS stage asks
(which locations every walk visits, and the first walk in BFS order)
without listing the walks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Mapping, Sequence, Tuple

from .model import HybridAutomaton


class ResourceCapExceeded(RuntimeError):
    """Raised when an enumeration exceeds its configured cap."""

    def __init__(self, stage: str, cap: int):
        super().__init__("%s exceeded the configured cap of %d" % (stage, cap))
        self.stage = stage
        self.cap = cap


DEFAULT_PATH_CAP = 1 << 22


LocationGraph = Mapping[int, Tuple[int, ...]]


@dataclass(frozen=True)
class PathSet:
    """Every source-to-target walk of ``graph`` with edge count <= depth,
    held symbolically; ``count`` is the number of such walks."""

    graph: LocationGraph
    source: int
    target: int
    depth: int
    count: int

    # Kept for wpxbench/spans.py, which takes ``len(paths.paths)``.
    @property
    def paths(self) -> "WalkView":
        return WalkView(self)

    def first_walk(self) -> Tuple[int, ...]:
        """The first walk in BFS order: a shortest one.  Requires a
        non-empty set."""
        return next(iter_walks(self.graph, self.source, self.target, self.depth))

    @property
    def kept_alphabet(self) -> FrozenSet[int]:
        """The locations visited by every walk: the endpoints and the
        disconnecting articulation points.  Requires a non-empty set."""
        cuts = disconnecting_articulation_points(
            self.graph, self.source, self.target, self.depth
        )
        return frozenset(cuts | {self.source, self.target})


# Kept for wpxbench/spans.py (see ``PathSet.paths``).
class WalkView:
    """Lazy view of a path set's walks: ``len`` is the count, iteration
    lists the walks, as tuples of location ids, in BFS order."""

    def __init__(self, paths: PathSet):
        self._paths = paths

    def __len__(self) -> int:
        return self._paths.count

    def __iter__(self) -> Iterator[Tuple[int, ...]]:
        p = self._paths
        return iter_walks(p.graph, p.source, p.target, p.depth)


def build_graph(automaton: HybridAutomaton) -> LocationGraph:
    """The successor map of the location graph: parallel transitions between
    the same location pair collapse into one edge; self-loops are
    preserved."""
    succ: Dict[int, set] = {}
    for t in automaton.transitions:
        succ.setdefault(t.source, set()).add(t.target)
    return {v: tuple(sorted(ts)) for v, ts in sorted(succ.items())}


Successors = Mapping[int, Sequence[Tuple[int, int]]]


def _reverse_distances(succ: Successors, target: int) -> Dict[int, int]:
    """Shortest edge-count distance from every vertex to the target."""
    pred: Dict[int, List[int]] = {}
    for u, hops in succ.items():
        for _label, v in hops:
            pred.setdefault(v, []).append(u)
    dist = {target: 0}
    frontier = [target]
    while frontier:
        nxt = []
        for v in frontier:
            for u in pred.get(v, ()):
                if u not in dist:
                    dist[u] = dist[v] + 1
                    nxt.append(u)
        frontier = nxt
    return dist


def iter_labelled_walks(
    succ: Successors, source: int, target: int, depth: int
) -> Iterator[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    """Yield ``(locations, labels)`` for every source-to-target walk with
    edge count <= depth over the labelled successor map
    ``{vertex: ((label, next), ...)}``, where ``labels[i]`` names the edge
    from ``locations[i]`` to ``locations[i + 1]``.

    Order is breadth first by length, then depth first in the map's own
    successor order, so the caller fixes the tie-break.  Implemented as
    iterative deepening with distance-to-target pruning over an explicit
    stack, so memory stays proportional to the depth and no walk length
    is limited by recursion; only prefixes that can still complete within
    the remaining budget are explored.  The zero-length walk is yielded
    first iff source = target.
    """
    dist = _reverse_distances(succ, target)
    missing = depth + 1
    if dist.get(source, missing) > depth:
        return
    if source == target:
        yield (source,), ()
    for length in range(max(dist[source], 1), depth + 1):
        # Depth-first over prefixes of exactly ``length`` edges, with one
        # successor iterator per prefix vertex in place of recursion.
        walk = [source]
        labels: List[int] = []
        stack = [iter(succ.get(source, ()))]
        while stack:
            edges_left = length - len(walk)
            for label, nxt in stack[-1]:
                if dist.get(nxt, missing) <= edges_left:
                    break
            else:
                stack.pop()
                walk.pop()
                if labels:
                    labels.pop()
                continue
            walk.append(nxt)
            labels.append(label)
            if edges_left == 0:
                yield tuple(walk), tuple(labels)  # distance 0: the target
                walk.pop()
                labels.pop()
            else:
                stack.append(iter(succ.get(nxt, ())))


def iter_walks(
    graph: LocationGraph, source: int, target: int, depth: int
) -> Iterator[Tuple[int, ...]]:
    """Yield every source-to-target walk with edge count <= depth in BFS
    (length, then lexicographic-by-location-id) order."""
    succ = {v: tuple((w, w) for w in ws) for v, ws in graph.items()}
    for walk, _labels in iter_labelled_walks(succ, source, target, depth):
        yield walk


def enumerate_paths(graph: LocationGraph, source: int, target: int, depth: int) -> PathSet:
    """PS: all bounded walks from source to target, counted, not listed."""
    return PathSet(graph, source, target, depth, count_paths(graph, source, target, depth))


def count_paths(graph: LocationGraph, source: int, target: int, depth: int) -> int:
    """Walk count by dynamic programming over the depth-unrolled graph."""
    current: Dict[int, int] = {source: 1}
    total = 1 if source == target else 0
    for _ in range(depth):
        nxt: Dict[int, int] = {}
        for v, k in current.items():
            for w in graph.get(v, ()):
                nxt[w] = nxt.get(w, 0) + k
        current = nxt
        total += current.get(target, 0)
        if not current:
            break
    return total


def _bounded_connected(
    graph: LocationGraph, source: int, target: int, depth: int, removed: int
) -> bool:
    if source == removed or target == removed:
        return False
    reached = {source}
    frontier = [source]
    for _ in range(depth):
        if target in reached:
            return True
        nxt = []
        for v in frontier:
            for w in graph.get(v, ()):
                if w != removed and w not in reached:
                    reached.add(w)
                    nxt.append(w)
        frontier = nxt
        if not frontier:
            break
    return target in reached


def disconnecting_articulation_points(
    graph: LocationGraph, source: int, target: int, depth: int
) -> set[int]:
    """Vertices (other than the endpoints) whose removal leaves no
    source-to-target walk of length <= depth; brute force by removal.

    Only vertices with an outgoing edge are tried: any other one lies on no
    walk to the target, so removing it disconnects nothing."""
    if not _bounded_connected(graph, source, target, depth, removed=-1):
        return set()
    result = set()
    for v in graph:
        if v in (source, target):
            continue
        if not _bounded_connected(graph, source, target, depth, removed=v):
            result.add(v)
    return result
