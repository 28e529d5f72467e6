"""Discrete abstraction: the location graph, bounded walk counting and
enumeration, and the longest common subsequence of every walk.

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
depth and the walk count.  ``lcs_multi`` reads the LCS of all its walks off
the first one, so no stage lists the walks.

A walk's pruning reads the distance to its target from every vertex, found
by a breadth-first search over the predecessor map.  A ``SuccessorIndex``
holds a labelled successor map with its predecessor map and its distances
per target, so that the walks over one map build each once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

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


# Kept for wpxbench/spans.py (see ``PathSet.paths``).
class WalkView:
    """A path set's walks, unlisted: ``len`` is the count."""

    def __init__(self, paths: PathSet):
        self._paths = paths

    def __len__(self) -> int:
        return self._paths.count


def build_graph(automaton: HybridAutomaton) -> LocationGraph:
    """The successor map of the location graph: parallel transitions between
    the same location pair collapse into one edge; self-loops are
    preserved."""
    succ: Dict[int, set] = {}
    for t in automaton.transitions:
        succ.setdefault(t.source, set()).add(t.target)
    return {v: tuple(sorted(ts)) for v, ts in sorted(succ.items())}


Successors = Mapping[int, Sequence[Tuple[int, int]]]


def _predecessors(succ: Successors) -> Dict[int, List[int]]:
    """The predecessor map of a labelled successor map: ``{vertex: [u,
    ...]}`` with one ``u`` per edge ``u -> vertex``."""
    pred: Dict[int, List[int]] = {}
    for u, hops in succ.items():
        for _label, v in hops:
            pred.setdefault(v, []).append(u)
    return pred


def _reverse_distances(
    pred: Mapping[int, Sequence[int]], target: int, without: Optional[int] = None
) -> Dict[int, int]:
    """Shortest edge-count distance from every vertex to the target over
    the predecessor map ``pred``; ``without``, when given, is a vertex
    other than the target whose outgoing edges are taken away, so it gets
    no distance."""
    dist = {target: 0}
    frontier = [target]
    while frontier:
        nxt = []
        for v in frontier:
            for u in pred.get(v, ()):
                if u not in dist and u != without:
                    dist[u] = dist[v] + 1
                    nxt.append(u)
        frontier = nxt
    return dist


class SuccessorIndex:
    """A labelled successor map with what walks over it read: its
    predecessor map, built once on first use, and its reverse distances,
    computed once per target.  Nothing here is mutated after it is built,
    so every walk over the map may share them."""

    def __init__(self, succ: Successors) -> None:
        self.succ = succ
        self._dist: Dict[int, Dict[int, int]] = {}

    @cached_property
    def pred(self) -> Dict[int, List[int]]:
        return _predecessors(self.succ)

    def distances(self, target: int) -> Dict[int, int]:
        """``_reverse_distances`` to ``target``, computed on first use."""
        hit = self._dist.get(target)
        if hit is None:
            hit = self._dist[target] = _reverse_distances(self.pred, target)
        return hit


def iter_labelled_walks(
    succ: Successors,
    source: int,
    target: int,
    depth: int,
    *,
    dist: Optional[Mapping[int, int]] = None,
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
    first iff source = target.  ``dist`` is the map's ``_reverse_distances``
    to ``target`` when the caller has it; it is only read.
    """
    if dist is None:
        dist = _reverse_distances(_predecessors(succ), target)
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
    graph: LocationGraph,
    source: int,
    target: int,
    depth: int,
    *,
    dist: Optional[Mapping[int, int]] = None,
) -> Iterator[Tuple[int, ...]]:
    """Yield every source-to-target walk with edge count <= depth in BFS
    (length, then lexicographic-by-location-id) order; ``dist`` is as
    ``iter_labelled_walks`` takes it."""
    succ = {v: tuple((w, w) for w in ws) for v, ws in graph.items()}
    for walk, _labels in iter_labelled_walks(succ, source, target, depth, dist=dist):
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


# Kept for wpxbench/spans.py, which reads ``.sequence``.
@dataclass(frozen=True)
class LcsResult:
    sequence: Tuple[int, ...]


def lcs_multi(paths: PathSet) -> LcsResult:
    """LCS of every walk in the path set: the first BFS walk reduced to the
    locations that every walk visits.

    Only the first walk's locations are tested: every walk visits each
    inevitable location, and the first walk is a walk.  An interior
    location v is inevitable iff, with v removed from the graph, the
    source is farther than the depth from the target (or unreached).

    Why this is the LCS: the first BFS walk A is a shortest walk, hence
    simple, and each of its prefixes is a shortest path.  Let c_1 .. c_m be
    A's inevitable locations in order.  Suppose some walk B within the
    bound does not contain them as a subsequence, and greedy matching in B
    stops after c_i.  Then A's prefix up to c_i, followed by B's suffix
    after its match of c_i, is a walk no longer than B that avoids
    c_{i+1}, contradicting that every walk visits c_{i+1}.  So A's
    reduction is common to all walks; and since only inevitable locations
    can occur in a common subsequence, and A holds each once, nothing
    longer is, and no other sequence of the same length exists to tie with
    it.
    """
    if paths.count == 0:
        raise ValueError("empty path set")
    # One predecessor map serves the first walk and every cut test.
    index = SuccessorIndex({u: tuple((w, w) for w in ws) for u, ws in paths.graph.items()})
    dist = index.distances(paths.target)
    walk = next(iter_walks(paths.graph, paths.source, paths.target, paths.depth, dist=dist))

    def inevitable(v: int) -> bool:
        if v in (paths.source, paths.target):
            return True
        # Without its outgoing edges, v reaches no target: this removes it.
        cut = _reverse_distances(index.pred, paths.target, without=v)
        return cut.get(paths.source, paths.depth + 1) > paths.depth

    return LcsResult(sequence=tuple(v for v in walk if inevitable(v)))
