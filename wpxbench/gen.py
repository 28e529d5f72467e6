"""Seeded generator of relational planning problems with answers known by
construction.

Every problem is a layered location graph: the initial location ``l0``, a
lattice segment ``A`` of layers ``a<i>_<j>`` (every location of one layer
connects to every location of the next), a merge location ``m``, a second
lattice segment ``B`` of layers ``b<i>_<j>`` and the goal location ``g``.  Every walk passes
``l0``, ``m`` and ``g`` and no other location, so the waypoint chain is
``l0 m g`` and the walk count is the product of the layer widths.

Variables: ``x`` and ``y`` with interval rates, an optional third interval
variable ``w`` that only widens the per-path LPs, and a clock ``t`` (rate 1,
reset on every transition) whose guards ``t >= dmin`` impose a minimum dwell
and whose invariants ``t <= dmax`` bound every dwell.  Only single-variable
constraints appear outside the relational ``a*x - b*y`` rows, so the box
pre-analysis, which drops multi-variable constraints, is never conclusive.

Answers, derived without running wpx:

* UNSAT (``goal`` and ``mid`` kinds), by an invariant over the rate bounds.
  Every location has ``a*hi(x) <= b*lo(y)`` and no transition resets ``x``
  or ``y``, so ``z = a*x - b*y`` never increases along a run and stays at
  most its initial value ``z0``.  The blocking row ``a*x - b*y >= z0 + 1``
  therefore holds in no reachable state.  ``goal`` problems put it in the
  goal region only; ``mid`` problems put it on every edge leaving the first
  layer of one segment, so every path is infeasible from that prefix on.
* SAT (``sat`` kind), by an explicit run.  Along the first walk in
  enumeration order the run dwells ``dmax`` in every location with ``x`` at
  its lowest and ``y`` at its highest rate, which maximises ``b*y - a*x``.
  The goal region requires exactly that final value, so the run reaches the
  goal and the first walk is the first feasible path.

The module depends on the standard library only, so the answers it states
do not come from the program under test.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

OUTCOME_FIRST_UNREACHABLE = "FirstUnreachableWaypoint"
OUTCOME_NO_WAYPOINT = "NoWaypointExplanation"
OUTCOME_SOLVABLE = "SolvableContradiction"

WEIGHTS = ((1, 1), (1, 2), (2, 1), (2, 3), (3, 2))


@dataclass(frozen=True)
class Slot:
    """The seed-independent shape of one generated problem."""

    kind: str  # "sat" | "goal" | "mid"
    a_widths: Tuple[int, ...]
    b_widths: Tuple[int, ...]
    extra_var: bool
    block_segment: str = ""  # "A" | "B" for the "mid" kind


@dataclass(frozen=True)
class Segment:
    """One dwell of a constructed run: location, entry values, dwell, exit values."""

    location: str
    entry: Tuple[Tuple[str, Fraction], ...]
    dwell: Fraction
    exit: Tuple[Tuple[str, Fraction], ...]


@dataclass(frozen=True)
class Run:
    """A constructed run: the dwells and the (source, target) edge between each."""

    segments: Tuple[Segment, ...]
    edges: Tuple[Tuple[str, str], ...]

    def prefix(self, location: str) -> "Run":
        """The run cut at the first dwell in ``location``."""
        for i, seg in enumerate(self.segments):
            if seg.location == location:
                return Run(self.segments[: i + 1], self.edges[:i])
        raise KeyError(location)


@dataclass(frozen=True)
class Generated:
    model_text: str
    problem_text: str
    expected: Dict[str, object]
    # Runs that reach each chain entry named in ``reachable`` (within its
    # invariant) and, for SAT problems, the goal region.
    run: Run
    reachable: Tuple[str, ...]
    weights: Tuple[int, int]
    z0: int


def _fmt(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return "%d/%d" % (value.numerator, value.denominator)


def _affine(a: int, b: int) -> str:
    ax = "x" if a == 1 else "%d*x" % a
    by = "y" if b == 1 else "%d*y" % b
    return "%s - %s" % (ax, by)


def _layers(slot: Slot) -> List[List[str]]:
    """Location names per layer, from ``l0`` to ``g``."""
    layers = [["l0"]]
    for i, width in enumerate(slot.a_widths, 1):
        layers.append(["a%d_%d" % (i, j) for j in range(width)])
    layers.append(["m"])
    for i, width in enumerate(slot.b_widths, 1):
        layers.append(["b%d_%d" % (i, j) for j in range(width)])
    layers.append(["g"])
    return layers


def _blocked_layer(slot: Slot) -> Optional[int]:
    """Index of the layer whose outgoing edges carry the blocking guard."""
    if slot.kind != "mid":
        return None
    return 1 if slot.block_segment == "A" else len(slot.a_widths) + 2


def generate(slot: Slot, seed: int, name: str) -> Generated:
    """Build one problem of shape ``slot``; the same seed gives the same text."""
    rng = random.Random("%d/%s" % (seed, name))
    a, b = rng.choice(WEIGHTS)
    layers = _layers(slot)
    variables = ["x", "y"] + (["w"] if slot.extra_var else []) + ["t"]

    rates: Dict[str, Dict[str, Tuple[int, int]]] = {}
    dwell: Dict[str, Tuple[int, int]] = {}
    for layer in layers:
        for loc in layer:
            lo_x = rng.randint(0, 2)
            hi_x = lo_x + rng.randint(1, 2)
            lo_y = -(-a * hi_x // b) + rng.randint(0, 1)
            hi_y = lo_y + rng.randint(1, 2)
            r = {"x": (lo_x, hi_x), "y": (lo_y, hi_y), "t": (1, 1)}
            if slot.extra_var:
                lo_w = rng.randint(-2, 0)
                r["w"] = (lo_w, lo_w + rng.randint(1, 2))
            rates[loc] = r
            dmin = rng.randint(1, 2)
            dwell[loc] = (dmin, dmin + rng.randint(1, 2))

    x0, y0 = rng.randint(0, 3), rng.randint(0, 3)
    w0 = rng.randint(0, 3)
    z0 = a * x0 - b * y0

    def inv(loc: str) -> str:
        return "t <= %d;" % dwell[loc][1]

    # Constructed run along the first walk: every layer's first location.
    first_walk = [layer[0] for layer in layers]
    state = {"x": Fraction(x0), "y": Fraction(y0), "t": Fraction(0)}
    if slot.extra_var:
        state["w"] = Fraction(w0)
    segments: List[Segment] = []
    for loc in first_walk:
        r = rates[loc]
        if slot.kind == "sat":
            d = Fraction(dwell[loc][1])
            chosen = {"x": r["x"][0], "y": r["y"][1]}
        else:
            d = Fraction(dwell[loc][0])
            chosen = {"x": r["x"][0], "y": r["y"][0]}
        chosen["t"] = 1
        if slot.extra_var:
            chosen["w"] = r["w"][0]
        entry = tuple((v, state[v]) for v in variables)
        exit_ = {v: state[v] + chosen[v] * d for v in variables}
        segments.append(Segment(loc, entry, d, tuple((v, exit_[v]) for v in variables)))
        state = dict(exit_, t=Fraction(0))
    run = Run(tuple(segments), tuple(zip(first_walk, first_walk[1:])))
    final = dict(segments[-1].exit)
    k_goal = b * final["y"] - a * final["x"]

    blocking = "%s >= %d" % (_affine(a, b), z0 + 1)
    blocked = _blocked_layer(slot)
    lines = ["# generated %s problem %s" % (slot.kind, name), "vars " + " ".join(variables), ""]
    for layer in layers:
        for loc in layer:
            lines.append("location %s {" % loc)
            lines.append("  inv: %s" % inv(loc))
            for v in variables:
                lo, hi = rates[loc][v]
                lines.append("  rate %s in [%d, %d];" % (v, lo, hi))
            lines.append("}")
    lines.append("")
    for index, layer in enumerate(layers[:-1]):
        for src in layer:
            for dst in layers[index + 1]:
                guard = "t >= %d;" % dwell[src][0]
                if index == blocked:
                    guard += " %s;" % blocking
                lines.append("trans %s -> %s {" % (src, dst))
                lines.append("  label: go_%s;" % dst)
                lines.append("  guard: %s" % guard)
                lines.append("  reset t in [0, 0];")
                lines.append("}")
    lines.append("")
    init = "x = %d; y = %d; t = 0;" % (x0, y0)
    if slot.extra_var:
        init += " w = %d;" % w0
    lines.append("init l0 { %s %s }" % (init, inv("l0")))
    model_text = "\n".join(lines) + "\n"

    if slot.kind == "sat":
        goal_region = "%s <= %s" % (_affine(a, b), _fmt(-k_goal))
    elif slot.kind == "goal":
        goal_region = blocking
    else:
        goal_region = ""
    depth = len(layers) - 1
    problem_text = "model %s.lha\n\ngoal g%s\ndepth %d\n" % (
        name,
        " { %s; }" % goal_region if goal_region else "",
        depth,
    )

    walks = math.prod(slot.a_widths + slot.b_widths)
    chain = ["l0", "m", "g"]
    expected = {"path_count": walks, "chain": chain}
    if slot.kind == "mid":
        explanation = "m" if slot.block_segment == "A" else "g"
        cut = chain.index(explanation)
        reachable = tuple(chain[1:cut])
        # Every walk to the unreachable entry is checked, and none is feasible.
        widths = slot.a_widths if explanation == "m" else slot.a_widths + slot.b_widths
        expected.update(
            outcome=OUTCOME_FIRST_UNREACHABLE,
            statuses=["TRIVIAL"] + ["SAT"] * (cut - 1) + ["UNSAT"],
            explanation=explanation,
            exhaustive_paths=math.prod(widths),
        )
    else:
        reachable = ("m", "g")
        expected.update(
            outcome=OUTCOME_SOLVABLE if slot.kind == "sat" else OUTCOME_NO_WAYPOINT,
            statuses=["TRIVIAL", "SAT", "SAT"],
            explanation=None,
        )
    return Generated(
        model_text=model_text,
        problem_text=problem_text,
        expected=expected,
        run=run,
        reachable=reachable,
        weights=(a, b),
        z0=z0,
    )
