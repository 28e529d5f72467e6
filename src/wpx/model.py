"""Core domain types for linear hybrid automata and bounded planning problems.

Every number is an exact rational in canonical form: an ``int`` when it is
integral and a ``fractions.Fraction`` only when it is not, as ``canonical``,
the one normaliser, puts it; so integral data runs in native int arithmetic.
There is no floating point anywhere in the pipeline.  Every type in this
module is immutable after construction and safe to share across threads or
processes.  A region's rows, the hash of a region, a rate table or a
reset, and an automaton's model keys are computed on construction, and the
parser makes one ``Polyhedron`` per distinct region of a document, so each
distinct region's rows and hash are built once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Dict, Mapping, Optional, Sequence, Tuple, Union

# A number in canonical form: an int when integral, else a Fraction.  Ints
# and Fractions compare and hash alike, so the form changes no answer.
Rational = Union[int, Fraction]

RationalLike = Union[int, Fraction, str]

# F of a row ``F(x) <= b``: its ``(variable, k)`` terms, in name order, no k 0.
Terms = Tuple[Tuple[str, Rational], ...]


def canonical(x: Rational) -> Rational:
    """``x`` as an int when it is integral, else as the Fraction it is."""
    return x.numerator if x.denominator == 1 else x


def rat(value: RationalLike) -> Rational:
    """Coerce an int, string (``3``, ``-1.25``, ``7/2``) or Fraction to
    canonical form."""
    if type(value) is int:
        return value
    return canonical(value if isinstance(value, Fraction) else Fraction(value))


class Relation(Enum):
    """Non-strict comparison relations; strict forms are rejected at parse time."""

    LE = "<="
    GE = ">="
    EQ = "="


@dataclass(frozen=True)
class LinearExpression:
    """Sum of coefficient * variable terms plus a constant.

    Zero coefficients are never stored; ``coefficients`` is kept as a sorted
    tuple of (variable, coefficient) pairs so instances hash and compare
    deterministically.
    """

    coefficients: Terms
    constant: Rational = 0

    @staticmethod
    def build(coeffs: Mapping[str, RationalLike], constant: RationalLike = 0) -> "LinearExpression":
        coerced = ((v, rat(c)) for v, c in coeffs.items())
        items = tuple(sorted((v, k) for v, k in coerced if k != 0))
        return LinearExpression(items, rat(constant))

    def variables(self) -> Tuple[str, ...]:
        return tuple(v for v, _ in self.coefficients)

    def evaluate(self, valuation: Mapping[str, Rational]) -> Rational:
        total = self.constant
        for var, coeff in self.coefficients:
            total += coeff * valuation[var]
        return total


@dataclass(frozen=True)
class LinearConstraint:
    """``expression REL 0`` with REL in {<=, >=, =}."""

    expression: LinearExpression
    relation: Relation

    def holds(self, valuation: Mapping[str, Rational]) -> bool:
        value = self.expression.evaluate(valuation)
        if self.relation is Relation.LE:
            return value <= 0
        if self.relation is Relation.GE:
            return value >= 0
        return value == 0

    def variables(self) -> Tuple[str, ...]:
        return self.expression.variables()

    def __str__(self) -> str:
        """The constraint in the input syntax, its constant on the right:
        ``2*x - 3*y >= 4``."""
        text = ""
        for var, k in self.expression.coefficients:
            term = var if abs(k) == 1 else "%s*%s" % (abs(k), var)
            if text:
                text += (" - " if k < 0 else " + ") + term
            else:
                text = ("-" if k < 0 else "") + term
        return "%s %s %s" % (text or "0", self.relation.value, -self.expression.constant)


@dataclass(frozen=True)
class Polyhedron:
    """A conjunction of closed linear constraints; the empty list means the
    universal set of valuations.  ``rows`` (left out of equality and
    ``repr``) reads it as rows ``F(x) <= b``, one ``(constraint, F, b)``
    each, in constraint order: ``expr <= 0`` gives expr's terms and
    ``-constant``, ``expr >= 0`` the negated terms and ``constant``, and
    ``expr = 0`` both, LE first.  Its hash is computed once, on
    construction, from the rows' ``(F, b)``: equal constraints give equal
    rows."""

    constraints: Tuple[LinearConstraint, ...] = ()
    rows: Tuple[Tuple[LinearConstraint, Terms, Rational], ...] = field(
        init=False, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        rows = []
        for c in self.constraints:
            terms, constant = c.expression.coefficients, c.expression.constant
            if c.relation is not Relation.GE:
                rows.append((c, terms, -constant))
            if c.relation is not Relation.LE:
                rows.append((c, tuple((v, -k) for v, k in terms), constant))
        object.__setattr__(self, "rows", tuple(rows))
        object.__setattr__(self, "_hash", hash(tuple((t, b) for _c, t, b in rows)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self) -> tuple:
        # Unpickled by construction, so the hash is computed again: a str
        # hashes differently in another process.
        return Polyhedron, (self.constraints,)

    def contains(self, valuation: Mapping[str, Rational]) -> bool:
        return all(c.holds(valuation) for c in self.constraints)

    def variables(self) -> Tuple[str, ...]:
        seen = []
        for c in self.constraints:
            for v in c.variables():
                if v not in seen:
                    seen.append(v)
        return tuple(seen)


@dataclass(frozen=True)
class RateInterval:
    lower: Rational
    upper: Rational


@dataclass(frozen=True)
class RateSpec:
    """Per-variable derivative intervals for one location.  Its hash is
    computed once, on construction, from plain tuples of the intervals."""

    intervals: Tuple[Tuple[str, RateInterval], ...]

    def __post_init__(self) -> None:
        key = tuple((v, iv.lower, iv.upper) for v, iv in self.intervals)
        object.__setattr__(self, "_hash", hash(key))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self) -> tuple:
        return RateSpec, (self.intervals,)

    @staticmethod
    def build(rates: Mapping[str, Tuple[RationalLike, RationalLike]]) -> "RateSpec":
        items = tuple(
            sorted((v, RateInterval(rat(lo), rat(hi))) for v, (lo, hi) in rates.items())
        )
        return RateSpec(items)

    def interval(self, var: str) -> Optional[RateInterval]:
        for v, iv in self.intervals:
            if v == var:
                return iv
        return None


class ResetKind(Enum):
    KEEP = "keep"
    ASSIGN_INTERVAL = "assign"


@dataclass(frozen=True)
class ResetAction:
    kind: ResetKind
    lower: Optional[Rational] = None
    upper: Optional[Rational] = None


@dataclass(frozen=True)
class Reset:
    """Per-variable reset map; variables absent from the map default to
    Keep.  Its hash is computed once, on construction, from plain tuples of
    the actions' bounds."""

    actions: Tuple[Tuple[str, ResetAction], ...] = ()

    def __post_init__(self) -> None:
        key = tuple((v, act.lower, act.upper) for v, act in self.actions)
        object.__setattr__(self, "_hash", hash(key))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self) -> tuple:
        return Reset, (self.actions,)

    @staticmethod
    def build(assigns: Mapping[str, Tuple[RationalLike, RationalLike]]) -> "Reset":
        items = tuple(
            sorted(
                (v, ResetAction(ResetKind.ASSIGN_INTERVAL, rat(lo), rat(hi)))
                for v, (lo, hi) in assigns.items()
            )
        )
        return Reset(items)

    def action(self, var: str) -> ResetAction:
        for v, act in self.actions:
            if v == var:
                return act
        return ResetAction(ResetKind.KEEP)


@dataclass(frozen=True)
class Location:
    id: int
    name: str
    invariant: Polyhedron
    rates: RateSpec


@dataclass(frozen=True)
class Transition:
    id: int
    source: int
    target: int
    label: str
    guard: Polyhedron
    reset: Reset


@dataclass(frozen=True)
class HybridAutomaton:
    """The seven-tuple (Loc, Var, Flow, Init, Lab, Edge, Inv).

    Flows and invariants live on the Location records; Init is the
    ``initial`` pair (location id, polyhedron over Var).

    The model keys, computed from values on construction and left out of
    equality and ``repr``, are dense ints from one dict: ``loc_keys`` names
    each location's distinct ``(invariant, rates)`` and ``trans_keys`` each
    transition's distinct ``(guard, reset)``, so the two never collide.
    """

    locations: Tuple[Location, ...]
    variables: Tuple[str, ...]
    transitions: Tuple[Transition, ...]
    labels: Tuple[str, ...]
    initial: Tuple[int, Polyhedron]
    loc_keys: Tuple[int, ...] = field(init=False, compare=False, repr=False)
    trans_keys: Tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        ids: Dict[tuple, int] = {}
        locs = tuple(ids.setdefault((loc.invariant, loc.rates), len(ids)) for loc in self.locations)
        trans = tuple(ids.setdefault((t.guard, t.reset), len(ids)) for t in self.transitions)
        object.__setattr__(self, "loc_keys", locs)
        object.__setattr__(self, "trans_keys", trans)

    def location(self, loc_id: int) -> Location:
        return self.locations[loc_id]

    def location_by_name(self, name: str) -> Optional[Location]:
        for loc in self.locations:
            if loc.name == name:
                return loc
        return None


@dataclass(frozen=True)
class GoalSpec:
    location: int
    region: Polyhedron = field(default_factory=Polyhedron)


@dataclass(frozen=True)
class PlanningProblem:
    """The triple (Dom, Prob, Depth); Depth bounds the number of discrete
    transitions in any plan."""

    domain: HybridAutomaton
    init: Tuple[int, Polyhedron]
    goal: GoalSpec
    depth: int


@dataclass(frozen=True)
class Plan:
    steps: Tuple[Tuple[Rational, str], ...]
    makespan: Rational


@dataclass(frozen=True)
class RunSegment:
    location: int
    entry: Tuple[Tuple[str, Rational], ...]
    dwell: Rational
    exit: Tuple[Tuple[str, Rational], ...]


@dataclass(frozen=True)
class WitnessRun:
    """Alternating timed/discrete execution: segments joined by transition ids."""

    segments: Tuple[RunSegment, ...]
    transitions: Tuple[int, ...]

    def makespan(self) -> Rational:
        return canonical(sum(seg.dwell for seg in self.segments))


def validate_model(automaton: HybridAutomaton) -> list[str]:
    """Structural validation; returns a list of violation messages (empty = valid).

    Violations are data, not exceptions: the report enumerates every problem
    found rather than stopping at the first.
    """
    report: list[str] = []
    declared = set(automaton.variables)
    n = len(automaton.locations)

    ids = [loc.id for loc in automaton.locations]
    if ids != list(range(n)):
        report.append("location ids must be dense integers 0..%d in order" % (n - 1))
    names = [loc.name for loc in automaton.locations]
    for name in sorted({x for x in names if names.count(x) > 1}):
        report.append("duplicate location name %r" % name)

    if len(set(automaton.variables)) != len(automaton.variables):
        report.append("duplicate variable declaration")

    for loc in automaton.locations:
        for c in loc.invariant.constraints:
            for v in c.variables():
                if v not in declared:
                    report.append(
                        "location %s invariant references undeclared variable %r" % (loc.name, v)
                    )
        rate_vars = [v for v, _ in loc.rates.intervals]
        for v in rate_vars:
            if v not in declared:
                report.append("location %s rate for undeclared variable %r" % (loc.name, v))
        for v in automaton.variables:
            if v not in rate_vars:
                report.append("location %s missing rate interval for variable %r" % (loc.name, v))
        for v, iv in loc.rates.intervals:
            if iv.lower > iv.upper:
                report.append(
                    "location %s rate interval for %r has lower > upper" % (loc.name, v)
                )

    tids = [t.id for t in automaton.transitions]
    if tids != list(range(len(tids))):
        report.append("transition ids must be dense integers in declaration order")
    label_set = set(automaton.labels)
    for t in automaton.transitions:
        if not (0 <= t.source < n):
            report.append("transition %d has dangling source location id %d" % (t.id, t.source))
        if not (0 <= t.target < n):
            report.append("transition %d has dangling target location id %d" % (t.id, t.target))
        if t.label not in label_set:
            report.append("transition %d uses undeclared label %r" % (t.id, t.label))
        for c in t.guard.constraints:
            for v in c.variables():
                if v not in declared:
                    report.append(
                        "transition %d guard references undeclared variable %r" % (t.id, v)
                    )
        for v, act in t.reset.actions:
            if v not in declared:
                report.append("transition %d resets undeclared variable %r" % (t.id, v))
            if act.kind is ResetKind.ASSIGN_INTERVAL and act.lower > act.upper:
                report.append(
                    "transition %d reset interval for %r has lower > upper" % (t.id, v)
                )

    init_loc, init_region = automaton.initial
    if not (0 <= init_loc < n):
        report.append("initial location id %d does not exist" % init_loc)
    for c in init_region.constraints:
        for v in c.variables():
            if v not in declared:
                report.append("initial region references undeclared variable %r" % v)

    return report


def alpha(problem: PlanningProblem, loc: int) -> PlanningProblem:
    """Widen the goal to the invariant of ``loc``: the sub-problem whose goal
    is reaching ``loc`` anywhere inside its invariant.

    Domain, init and depth are shared untouched; only the goal changes.
    """
    if not (0 <= loc < len(problem.domain.locations)):
        raise KeyError("unknown location id %d" % loc)
    location = problem.domain.location(loc)
    return PlanningProblem(
        domain=problem.domain,
        init=problem.init,
        goal=GoalSpec(location=loc, region=location.invariant),
        depth=problem.depth,
    )


def check_witness(
    automaton: HybridAutomaton,
    init: Tuple[int, Polyhedron],
    goal: GoalSpec,
    run: WitnessRun,
) -> list[str]:
    """Replay a run against the executable-plan semantics, clause by clause.

    Checks, for each segment: invariant at entry and exit, dwell >= 0, and
    per-variable displacement within [lower*dwell, upper*dwell]; for each
    joining transition: source/target consistency, guard satisfaction at the
    exit valuation, and reset linking into the next entry valuation; plus
    initial-region membership and final goal membership.  Returns violation
    messages, empty when the run is a valid execution.
    """
    report: list[str] = []
    if not run.segments:
        return ["empty run"]
    if len(run.transitions) != len(run.segments) - 1:
        return ["segment/transition count mismatch"]

    init_loc, init_region = init
    first = run.segments[0]
    if first.location != init_loc:
        report.append("run starts at location %d, expected %d" % (first.location, init_loc))
    entry0 = dict(first.entry)
    if not init_region.contains(entry0):
        report.append("initial valuation violates the init region")

    for i, seg in enumerate(run.segments):
        loc = automaton.location(seg.location)
        entry = dict(seg.entry)
        exit_ = dict(seg.exit)
        if seg.dwell < 0:
            report.append("segment %d has negative dwell" % i)
        if not loc.invariant.contains(entry):
            report.append("segment %d entry violates invariant of %s" % (i, loc.name))
        if not loc.invariant.contains(exit_):
            report.append("segment %d exit violates invariant of %s" % (i, loc.name))
        for var in automaton.variables:
            iv = loc.rates.interval(var)
            if iv is None:
                continue
            delta = exit_[var] - entry[var]
            if not (iv.lower * seg.dwell <= delta <= iv.upper * seg.dwell):
                report.append(
                    "segment %d variable %r displacement outside rate interval" % (i, var)
                )

    for i, tid in enumerate(run.transitions):
        trans = automaton.transitions[tid]
        src_seg = run.segments[i]
        dst_seg = run.segments[i + 1]
        if trans.source != src_seg.location or trans.target != dst_seg.location:
            report.append("transition %d does not join segments %d and %d" % (tid, i, i + 1))
            continue
        exit_ = dict(src_seg.exit)
        if not trans.guard.contains(exit_):
            report.append("transition %d guard violated at segment %d exit" % (tid, i))
        entry = dict(dst_seg.entry)
        for var in automaton.variables:
            act = trans.reset.action(var)
            if act.kind is ResetKind.KEEP:
                if entry.get(var) != exit_.get(var):
                    report.append(
                        "transition %d keeps %r but value changed" % (tid, var)
                    )
            else:
                if not (act.lower <= entry[var] <= act.upper):
                    report.append(
                        "transition %d reset of %r lands outside its interval" % (tid, var)
                    )

    last = run.segments[-1]
    if last.location != goal.location:
        report.append("run ends at location %d, expected %d" % (last.location, goal.location))
    final = dict(last.exit)
    if not goal.region.contains(final):
        report.append("final valuation violates the goal region")
    if not automaton.location(goal.location).invariant.contains(final):
        report.append("final valuation violates the goal location invariant")
    return report
