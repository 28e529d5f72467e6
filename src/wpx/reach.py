"""Path-oriented bounded reachability for linear hybrid automata.

Each concrete transition path is encoded once, by ``encode_path``, as one
linear-constraint feasibility problem over entry/exit valuations and dwell
times, then decided exactly over the rationals.  Like the box and the
dead-constraint tests, it reads each region as its rows ``F(x) <= b``
(``Polyhedron.rows``), built with the region, so once per distinct region
of a document, whose parser makes one ``Polyhedron`` per constraint list.
It substitutes exact rates, Keep resets and point resets away in one
forward pass, leaving systems in roughly the dwell variables only.  ``_solve_rows`` turns
single-variable rows into bounds, each remembering the row that set it,
settles crossed bounds at once, and decides the rest with a
bounded-variable simplex: one slack per multi-variable row and Bland's
rule, which never reads the row of a basic variable with no bound, so no
pivot updates one.  The simplex does only integer arithmetic: its
tableau rows are ints over a positive int denominator, pivoted by integer
cross-multiplication, and the variables' values and bounds are ints over
one common denominator.  Every number, from the model through the rows,
the returned assignment and the witnesses to the plan, is an int when it
is integral and a ``Fraction`` only when it is not (``model.canonical``),
so an integral model encodes, solves and replays in native int
arithmetic; ``_quotient`` is the LP layer's one division.  A SAT witness
is accepted only after it replays as a valid run through
``model.check_witness``, and a SAT ``Verdict`` carries that checked run.
An infeasible LP is accepted only with exact Farkas multipliers that
``_farkas_holds`` checks against its rows (``_solve_checked``).  Each
check keeps one record, ``_Refutations``, which it asks about each path
and tells each checked certificate.  When the last row a certificate uses
comes before the goal rows, the path's stages up to it are a refuted
prefix, and a later path of the check that begins with the same stages
is UNSAT without being encoded or solved.  A stage has one key, which the
stage stack and the record both read: a transition's stands for its
guard and reset, a location's for its invariant and rates, and the rows
up to a stage depend only on the keys up to it.  When the last row lies
in the goal or in a transition, each goal or guard constraint there that
the certificate uses is a candidate: its row ``F(x) <= b`` is dead
when ``F(x) > b`` is inductive, which three exact tests show (no reset of
F's variables, no rate that lowers F, and an init LP, itself certified).
A dead constraint holds in no reachable state at any depth, so a later
path whose goal or guards hold one is UNSAT without being solved either.
So each path a check decides is either solved with a checked
certificate, or refuted by a recorded prefix or a dead constraint that
one covers.  ``bounded_reachable(..., dump_dir=...)`` (the CLI's
``--dump-lp``) lists the rows of each path a check decides.

Before any path is enumerated, a box (interval) abstraction may prove the
goal unreachable.  Its step maps hold one nonempty box per location entered
and depend only on the automaton, the init and the depth.  A ``BoxSteps``
pass is one generator of these maps, stepped lazily as checks ask for them:
``explain`` builds one pass, which every check of that run, each differing
only in its goal, reads and extends; a direct ``bounded_reachable`` call
builds its own.  The pass also holds what the checks' paths share: the
transition successor index, with its predecessor map and its distances
per goal location, which the box walk and every enumeration read; the
dead-constraint tests, memoised per row; and the stage stack of the last
path encoded, with the stage keys, from which ``encode_path`` resumes a
path at the longest prefix of stage keys it shares with that one.  When a
check's first path extends the path the check before it ended on, as the
chain's checks do on the bundled rows and the benchmark's pools, the
stages they share are encoded once.  Beside the stack's rows the pass
keeps the final simplex state of their last feasible LP whose goal rows
changed none of its pivots.  When the exact goal's first path is the path
the last chain entry was satisfied on, its LP resumes that state with only
its own goal rows added; Bland's rule makes that the very solve a cold
start makes, so the witness and any certificate are the same
(``_solve_rows``).  The stack also flags each entry invariant row that
repeats the exit invariant before it, and an LP's start state leaves out
those rows and goal rows that repeat the last exit invariant, which under
Bland's rule never move a pivot.  No pass outlives the call that built it.
"""

from __future__ import annotations

import logging
import os
import weakref
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import islice
from math import gcd, lcm
from operator import eq
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

from .graph import DEFAULT_PATH_CAP, ResourceCapExceeded, SuccessorIndex, iter_labelled_walks
from .model import (
    HybridAutomaton,
    LinearConstraint,
    Plan,
    PlanningProblem,
    Polyhedron,
    RateSpec,
    Rational,
    ResetKind,
    RunSegment,
    Terms,
    Transition,
    WitnessRun,
    canonical,
    check_witness,
)

# A number of the path LPs and of the box is a ``model.Rational``: an int
# when it is integral and a Fraction only when it is not, as the model holds
# it.  ``_quotient`` is their one division: ``/`` on two ints gives a float.
# A row ``(coeffs, bound)`` means ``sum(coeffs*x) <= bound``; an affine
# expression ``(coeffs, const)`` stands for ``sum(coeffs*x) + const``.  Each
# holds its numbers in that form, and no coefficient is 0.
_Row = Tuple[Dict[str, Rational], Rational]
_Expr = Tuple[Dict[str, Rational], Rational]
# A valuation: one expression per automaton variable, in declaration order.
_Point = Tuple[_Expr, ...]
# A row ``F(x) <= b`` of a region over the model's variables, as
# ``Polyhedron.rows`` holds it, in hashable form: ``(F, b)``.
_RowKey = Tuple[Terms, Rational]

log = logging.getLogger(__name__)


def _quotient(n: Rational, d: Rational) -> Rational:
    """``n / d`` exactly, for d != 0: an int when it is integral, else a
    Fraction."""
    num = n.numerator * d.denominator
    den = n.denominator * d.numerator
    q, r = divmod(num, den)
    return Fraction(num, den) if r else q


@dataclass(frozen=True)
class ConcretePath:
    """Transition-level walk: locations[i] --transitions[i]--> locations[i+1]."""

    locations: Tuple[int, ...]
    transitions: Tuple[int, ...]


@dataclass(frozen=True)
class Verdict:
    """A bounded reachability answer: SAT exactly when ``run`` holds the
    witness run that ``check_witness`` accepted.  An UNSAT answer that
    checked paths refuted each by a checked Farkas certificate, its own, a
    recorded prefix's, or a dead constraint's; one with ``paths_checked`` 0
    is the box pre-analysis's, which carries no certificate.

    ``dead`` is set on an UNSAT answer each of whose paths holds a dead
    constraint: a model constraint that no reachable state satisfies, at
    any depth.  It lists the ones the check found, in the order found,
    each as ``(where, constraint)``: ``where`` is None for a constraint of
    the goal region, else the id of a transition whose guard holds it."""

    paths_checked: int
    run: Optional[WitnessRun] = None
    dead: Tuple[Tuple[Optional[int], LinearConstraint], ...] = ()

    @property
    def is_sat(self) -> bool:
        return self.run is not None

    @property
    def status(self) -> str:
        return "SAT" if self.run is not None else "UNSAT"


def _transition_index(automaton: HybridAutomaton) -> SuccessorIndex:
    """The transition successor index ``{source: ((transition id, target),
    ...)}``, each source's transitions in declaration order."""
    succ: Dict[int, List[Tuple[int, int]]] = {}
    for t in automaton.transitions:
        succ.setdefault(t.source, []).append((t.id, t.target))
    return SuccessorIndex(succ)


def enumerate_concrete_paths(
    automaton: HybridAutomaton,
    source: int,
    goal_loc: int,
    depth: int,
    *,
    index: Optional[SuccessorIndex] = None,
) -> Iterator[ConcretePath]:
    """Every transition-level walk of length <= depth from source to
    goal_loc, BFS by length with transition-id tie-break.  Transition ids
    follow declaration order, not location ids: with ``trans a -> c``
    declared before ``trans a -> b``, the walk through c comes first, where
    ``graph.iter_walks`` lists the one through b first.  ``index`` is the
    automaton's ``_transition_index``, shared with other walks over it;
    without one a fresh one is built."""
    if index is None:
        index = _transition_index(automaton)
    dist = index.distances(goal_loc)
    for locations, transitions in iter_labelled_walks(
        index.succ, source, goal_loc, depth, dist=dist
    ):
        yield ConcretePath(locations, transitions)


def _var_in(var: str, pos: int) -> str:
    return "%s@%din" % (var, pos)


def _var_out(var: str, pos: int) -> str:
    return "%s@%dout" % (var, pos)


def _dwell(pos: int) -> str:
    return "d%d" % pos


# --- exact feasibility ----------------------------------------------------


@dataclass(frozen=True)
class Farkas:
    """A proof that rows ``sum(coeffs*x) <= bound`` have no solution: exact
    multipliers ``y[i] > 0``, keyed by row index (a row not named has 0),
    whose combination of the rows has every coefficient 0 and a bound
    below 0, so it reads ``0 <= negative`` (Farkas' lemma)."""

    y: Dict[int, Rational]


def _farkas_holds(rows: Sequence[_Row], y: Dict[int, Rational]) -> bool:
    """Whether ``y`` proves ``rows`` infeasible, checked exactly and apart
    from how the solver found it: every multiplier names a row and is
    >= 0, ``sum(y[i]*coeffs_i)`` has every coefficient 0, and
    ``sum(y[i]*bound_i) < 0``."""
    combined: Dict[str, Rational] = {}
    total: Rational = 0
    for i, m in y.items():
        if m < 0 or not 0 <= i < len(rows):
            return False
        coeffs, bound = rows[i]
        for v, k in coeffs.items():
            combined[v] = combined.get(v, 0) + m * k
        total += m * bound
    return total < 0 and not any(combined.values())


def _over_nonbasic(
    den: int, terms: List[Tuple[int, int, int]], basic: Dict[int, Tuple[int, Dict[int, int]]]
) -> Tuple[int, Dict[int, int]]:
    """``(den, row)``, gcd-reduced with den > 0, such that ``den*x =
    sum(row[m]*x_m)`` over nonbasic variables, for ``x = sum(p/q * x_j)``
    over ``terms`` ``(j, p, q)``; ``den`` comes in as a positive multiple
    of every q, and ``basic`` maps each basic variable to its row over
    nonbasic ones."""
    # den*x = sum(row[m]*x_m) + den*(the terms not yet read), in ints: a
    # basic term c*x_j, with bden*x_j = sum(brow[m]*x_m), multiplies the
    # equation by bden before brow is added.
    row: Dict[int, int] = {}
    for j, p, q in terms:
        c = p * (den // q)
        b = basic.get(j)
        if b is None:
            row[j] = row.get(j, 0) + c
            continue
        bden, brow = b
        if bden != 1:
            den *= bden
            for m in row:
                row[m] *= bden
        for m, e in brow.items():
            row[m] = row.get(m, 0) + c * e
    row = {m: e for m, e in row.items() if e}
    g = gcd(den, *row.values())
    if g != 1:
        den //= g
        row = {m: e // g for m, e in row.items()}
    return den, row


def _solve_rows(
    rows: List[_Row], *, stages: Optional[_Stages] = None
) -> Union[Dict[str, Rational], Farkas]:
    """Decide {sum(coeffs*x) <= bound} over free rational variables.

    Single-variable rows become bounds, each the exact ``_quotient(bound,
    k)`` whether the row holds ints or Fractions, and each bound keeps the
    first row that set it at its final value.  A variable whose bounds
    cross is refuted without a pivot.  A bounded-variable simplex (Dutertre
    and de Moura, CAV 2006) decides the rest.  Each multi-variable row gets
    one slack: a basic variable whose tableau row is the row's coefficients
    and whose upper bound is the row's bound.  Every variable starts
    nonbasic at a value within its bounds.  While some basic variable
    violates a bound, the smallest such one is pivoted with the smallest
    nonbasic variable of its row that can move it back, and set to the
    violated bound; when no nonbasic variable can, the rows are infeasible.
    Variables are ordered by name, then slacks by row; taking the smallest
    on both sides is Bland's rule, which ends the loop.  Returns an
    assignment covering every variable that appears in any row, or a
    ``Farkas`` certificate when infeasible: a constant row below 0 alone;
    for crossed bounds, the two rows that set them; for a simplex conflict,
    the conflict row of the final tableau (Dutertre and de Moura, section
    4), whose int entries are exact multipliers of the bounds that block
    it, each put on the row that set that bound.  A row whose smallest
    possible left side already exceeds its bound needs no pass of its own:
    the simplex refutes it like any other conflict.

    The simplex does only integer arithmetic.  A tableau row is held
    fraction-free, as a positive int ``den`` and int ``nums`` with
    ``den*x_b = sum(nums[j]*x_j)`` and no common factor; a pivot
    cross-multiplies rows and divides out their gcd.  A nonbasic variable
    always sits at 0 or at one of its bounds, so with D the lcm of the
    denominators of every finite bound its value is an int ``V`` over D,
    and bounds are held as ints over D too; a basic variable's value is an
    int ``N = sum(nums[j]*V_j)`` over ``den*D``.  These represent the same
    rationals as a Fraction tableau, and every decision reads only signs
    and exact comparisons, so the pivots and the assignment come out the
    same.  The returned assignment is in canonical form, each value the
    ``_quotient`` of its int over its denominator.

    A variable with no bound never violates one, so Bland's rule never
    picks it to leave and never reads its row.  When such a variable
    enters, its row is parked as it is, and no later pivot updates it.
    Bounds do not change during a solve, so only entering variables are
    parked, never a slack; no other row names a parked variable, and the
    pivots read only the leaving row and nonbasic values, so they are the
    same.  At the end each parked row, still a valid equation over
    variables that were nonbasic when it was parked, gives its value from
    the final ones; an earlier row may name a later-parked variable, never
    the reverse, so they are evaluated last-parked-first, in ints.  A resume
    brings each parked row its goal rows reach over the nonbasic
    variables, in new rows.

    ``stages`` is the stage stack whose rows ``rows`` begin with, the
    rest being a path's goal rows (``encode_path``).  The stack keeps the
    final simplex state of the last feasible LP solved on its current rows
    whose goal rows were inert: they set no bound, named no variable that
    the stack's rows do not, and their slacks never left the basis.  Such
    a solve made exactly the pivots of the stack's rows alone, so dropping
    the goal slacks leaves the stack rows' own final tableau, its values
    over D or a multiple of D, which stand for the same rationals.  A later
    call on the same stack rows resumes from a copy of that state
    (``_Simplex.extended``): each multi-variable goal row becomes a new
    slack with the next index, its row written gcd-reduced over the
    nonbasic variables of the kept tableau.  This is exact, not a warm
    start.  Solved cold, the rows have the same columns and bounds, so the
    same start; the goal slacks have the largest indices, and Bland's rule
    pivots the smallest violated basic variable, so while a stack row's
    basic variable is violated the cold solve makes the pivot the stack
    rows alone make, leaving each goal slack basic.  The cold solve thus
    makes exactly the kept pivots first, reaches the resumed start state
    (a reduced row over the nonbasic variables is unique), and continues
    from there as the resumed solve does: the two return the same
    assignment, or the same Farkas y.  A goal row that would set a bound,
    name a new variable, refute itself as an empty row, or need a bound
    denominator that does not divide D is solved cold instead.

    A path LP repeats rows.  Where a transition changes none of its target
    invariant's variables and the invariant is its source's, the target's
    entry invariant rows equal the exit invariant rows before them; the
    stack flags them (``_Stages.repeats``).  A waypoint's goal is its
    location's invariant, so its goal rows equal the last exit invariant.
    A cold build leaves out the flagged rows, and the goal rows when they
    equal the last stack rows (``_Simplex.build``): a row equal to an
    earlier one never sets a bound, and its slack never leaves the basis,
    so the answer and the kept state are those of the build of all rows.
    """
    if stages is None:
        simplex = _Simplex.build(rows, len(rows), None)
    else:
        simplex = None if stages.kept is None else stages.kept.extended(rows, len(stages.rows))
        if simplex is None:
            simplex = _Simplex.build(rows, len(stages.rows), stages.repeats)
    if isinstance(simplex, Farkas):
        return simplex
    return simplex.solve(stages)


class _Simplex:
    """The state ``_solve_rows`` pivots: the columns (the variables in name
    order, then one slack per multi-variable row), the bounds read from the
    single-variable rows with the row that set each, and the integer
    tableau, bounds and values over the common denominator ``scale``.
    ``general[s]`` is the row of slack ``len(names) + s``.  ``parked``
    holds ``(n, k, row)``, k*x_n = sum(row[j]*x_j), for each basic
    variable with no bound, in the order they entered.  ``first`` is
    the first goal slack while the state may still be kept on a stage
    stack, and None once it may not (``_solve_rows``)."""

    __slots__ = (
        "names", "index", "lower", "upper", "setter", "general", "scale",
        "low", "high", "value", "tableau", "parked", "first",
    )

    @classmethod
    def build(
        cls, rows: List[_Row], goal: int, repeats: Optional[Sequence[bool]]
    ) -> Union["_Simplex", Farkas]:
        """The start state of ``rows``, or a Farkas certificate when a
        constant row or a pair of bounds refutes them.  The rows from
        ``goal`` on are the goal rows: the state may be kept when they set
        no bound and name no variable that the rows before them do not.

        ``repeats`` flags rows before ``goal`` that equal an earlier row of
        ``rows`` (``_Stages.repeats``; a row past its end is not flagged).
        Those rows, and the goal rows when they equal the last stack rows
        one for one, are left out; None leaves out nothing.  This is exact:
        a row equal to an earlier one never matters.  As an empty row it is
        refuted by the earlier one first.  As a bound it never replaces the
        earlier row, which set the bound first.  As a slack
        it has the earlier slack's row and a larger index.  While both are
        basic they keep equal rows and values, so Bland's rule picks the
        earlier one first; once the earlier one is nonbasic at its bound,
        the later one's row is that slack alone, and it holds.  So the
        later slack never leaves the basis, never enters a row and never
        appears in a certificate, and no other row names it.  Therefore
        the pivots, the assignment, every Farkas y, the parked rows and the
        kept state are those of the cold build of all rows, with the same
        columns less the left-out slacks."""
        lower: Dict[str, Rational] = {}
        upper: Dict[str, Rational] = {}
        # (var, is_upper) -> (i, k): rows[i] is k*var <= bound, the first row
        # to set that bound at its final value.
        setter: Dict[Tuple[str, bool], Tuple[int, Rational]] = {}
        general: List[int] = []  # the index of each multi-variable row
        all_vars: set = set()
        inert = True
        path_vars = None
        n = len(rows)
        if repeats is None:
            repeats = ()
        elif 0 < n - goal <= goal and rows[goal:] == rows[2 * goal - n:goal]:
            n = goal
        flagged = len(repeats)
        for i in range(n):
            if i < flagged and repeats[i]:
                continue
            coeffs, bound = rows[i]
            if i == goal:
                path_vars = len(all_vars)
            all_vars.update(coeffs)
            if not coeffs:
                if bound < 0:
                    return Farkas({i: 1})
                continue
            if len(coeffs) == 1:
                (var, k), = coeffs.items()
                b = _quotient(bound, k)
                if k > 0:
                    if var not in upper or b < upper[var]:
                        upper[var] = b
                        setter[var, True] = (i, k)
                        inert = inert and i < goal
                else:
                    if var not in lower or b > lower[var]:
                        lower[var] = b
                        setter[var, False] = (i, k)
                        inert = inert and i < goal
                continue
            general.append(i)

        state = cls()
        state.names = names = sorted(all_vars)
        state.index = index = {v: i for i, v in enumerate(names)}
        state.lower, state.upper, state.setter, state.general = lower, upper, setter, general
        state.parked = []
        for var, lo in lower.items():
            if var in upper and lo > upper[var]:
                # x = x, with x held at its upper bound, below its lower one.
                j = index[var]
                return state.conflict(j, 1, {j: 1}, True)
        state.first = (
            len(names) + bisect_left(general, goal)
            if inert and path_vars in (None, len(all_vars)) else None
        )

        # Every finite bound, scaled to an int over the common denominator.
        state.scale = scale = lcm(
            *(b.denominator for b in lower.values()),
            *(b.denominator for b in upper.values()),
            *(rows[i][1].denominator for i in general),
        )

        def scaled(b: Optional[Rational]) -> Optional[int]:
            return None if b is None else b.numerator * (scale // b.denominator)

        state.low = low = [scaled(lower.get(v)) for v in names]
        state.high = high = [scaled(upper.get(v)) for v in names]
        # value[i] is V_i for a nonbasic variable and N_i for a basic one.
        state.value = value = [
            lo if lo is not None else 0 if hi is None else min(hi, 0)
            for lo, hi in zip(low, high)
        ]
        # tableau[b] = (den, nums) expresses the basic variable b over
        # nonbasic ones as den*x_b = sum(nums[j]*x_j), in ints with den > 0
        # and no common factor.  A row scaled by the lcm of its denominators
        # starts that way; a row of ints is already scaled.
        state.tableau = tableau = {}
        for i in general:
            coeffs, bound = rows[i]
            if Fraction in map(type, coeffs.values()):
                den = lcm(*(k.denominator for k in coeffs.values()))
                row = {index[v]: k.numerator * (den // k.denominator) for v, k in coeffs.items()}
            else:
                den = 1
                row = {index[v]: k for v, k in coeffs.items()}
            tableau[len(value)] = (den, row)
            value.append(sum(c * value[j] for j, c in row.items()))
            low.append(None)
            high.append(scaled(bound))
        return state

    def extended(self, rows: List[_Row], goal: int) -> Optional["_Simplex"]:
        """A copy of this kept state with the goal rows, ``rows[goal:]``,
        appended: each multi-variable one as a new slack, written over the
        nonbasic variables, through the parked rows it reaches; or None
        when one must be solved cold.  The copy shares the parked rows."""
        index, lower, upper, scale = self.index, self.lower, self.upper, self.scale
        goals = []
        for i in range(goal, len(rows)):
            coeffs, bound = rows[i]
            if len(coeffs) < 2:
                if not coeffs:
                    if bound >= 0:
                        continue
                    return None
                (var, k), = coeffs.items()
                b = _quotient(bound, k)
                if k > 0:
                    if var not in upper or b < upper[var]:
                        return None
                elif var not in lower or b > lower[var]:
                    return None
                continue
            if scale % bound.denominator or not all(v in index for v in coeffs):
                return None
            terms = [(index[v], k.numerator, k.denominator) for v, k in coeffs.items()]
            goals.append((i, lcm(*(q for _, _, q in terms)), terms, bound))
        # A parked row names variables that were nonbasic when it was
        # parked: nonbasic, tableau or later-parked ones now.  Find the
        # parked rows the goal rows reach, first to last, and bring them
        # over the nonbasic variables last-parked-first, into new rows.
        tableau = basic = self.tableau
        reached = {j for _, _, terms, _ in goals for j, _, _ in terms}
        for n, _, row in self.parked:
            if n in reached:
                reached.update(row)
        brought = [(n, k, row) for n, k, row in self.parked if n in reached]
        if brought:
            basic = dict(tableau)
            for n, k, row in reversed(brought):
                basic[n] = _over_nonbasic(k, [(m, e, k) for m, e in row.items()], basic)
        slacks = [
            (i, *_over_nonbasic(den, terms, basic), bound.numerator * (scale // bound.denominator))
            for i, den, terms, bound in goals
        ]

        copy = _Simplex()
        copy.names, copy.index, copy.setter = self.names, index, self.setter
        copy.lower, copy.upper, copy.scale = lower, upper, scale
        copy.first = len(self.value)
        copy.general = self.general[:]
        copy.low, copy.high, copy.value = self.low[:], self.high[:], self.value[:]
        copy.tableau = {b: (den, dict(row)) for b, (den, row) in tableau.items()}
        copy.parked = self.parked[:]
        value = copy.value
        for i, den, row, high in slacks:
            copy.general.append(i)
            copy.tableau[len(value)] = (den, row)
            value.append(sum(c * value[j] for j, c in row.items()))
            copy.low.append(None)
            copy.high.append(high)
        return copy

    def conflict(self, b: int, den: int, row: Dict[int, int], rise: bool) -> Farkas:
        """The certificate of a conflict row: den*x_b = sum(row[j]*x_j),
        where x_b must rise above its lower bound (or fall below its upper
        one) and every x_j sits at the bound that stops it from moving x_b
        that way."""
        # Adding den times x_b's bound inequality (-x_b <= -lower, or
        # x_b <= upper) to |row[j]| times each x_j's cancels every variable
        # and leaves 0 <= a negative number.  A slack's bound inequality is
        # its own row; a variable's is the row k*x <= bound that set that
        # bound, scaled by 1/|k|.
        names, general, setter = self.names, self.general, self.setter
        y: Dict[int, Rational] = {}
        for j, at_upper, weight in [(b, not rise, den)] + [
            (j, (c > 0) == rise, abs(c)) for j, c in row.items()
        ]:
            if j >= len(names):
                y[general[j - len(names)]] = weight
            else:
                i, k = setter[names[j], at_upper]
                y[i] = _quotient(weight, abs(k))
        return Farkas(y)

    def solve(self, stages: Optional[_Stages]) -> Union[Dict[str, Rational], Farkas]:
        """Pivot by Bland's rule to a feasible assignment or a conflict;
        when feasible and ``first`` is still set, keep the state on
        ``stages`` without its goal slacks."""
        names, tableau, value, low, high = self.names, self.tableau, self.value, self.low, self.high
        scale, first, parked = self.scale, self.first, self.parked
        while True:
            for b in sorted(tableau):
                den = tableau[b][0]
                if low[b] is not None and value[b] < den * low[b]:
                    target, rise = low[b], True
                    break
                if high[b] is not None and value[b] > den * high[b]:
                    target, rise = high[b], False
                    break
            else:
                break
            den, row = tableau.pop(b)
            if first is not None and b >= first:
                first = None  # a goal slack leaves the basis
            for n in sorted(row):
                if (row[n] > 0) == rise:
                    if high[n] is None or value[n] < high[n]:
                        break
                elif low[n] is None or value[n] > low[n]:
                    break
            else:
                return self.conflict(b, den, row, rise)
            # Set b to target and solve b's row, den*x_b = k*x_n + rest, for
            # n as k*x_n = den*x_b - rest, negated if need be so that k > 0;
            # then substitute it into every other row.  The solved row has
            # the entries of b's row, so it has no common factor either.
            k = row.pop(n)
            moved = value[n]
            rest = value[b] - k * moved
            value[b] = target
            if k > 0:
                for j in row:
                    row[j] = -row[j]
                row[b] = den
                value[n] = den * target - rest
            else:
                row[b] = -den
                k = -k
                value[n] = rest - den * target
            entered = value[n]
            for other, (oden, orow) in tableau.items():
                c = orow.pop(n, None)
                if c is None:
                    continue
                # oden*x_o = c*x_n + r  becomes  k*oden*x_o = c*(k*x_n) + k*r,
                # where r's value is N_o - c*V_n at n's old value.
                value[other] = k * (value[other] - c * moved) + c * entered
                if k != 1:
                    oden *= k
                    for j in orow:
                        orow[j] *= k
                for j, d in row.items():
                    e = orow.get(j, 0) + c * d
                    if e:
                        orow[j] = e
                    else:
                        del orow[j]
                if oden != 1:
                    g = gcd(oden, *orow.values())
                    if g != 1:
                        oden //= g
                        for j in orow:
                            orow[j] //= g
                        value[other] //= g
                tableau[other] = (oden, orow)
            if low[n] is None and high[n] is None:
                parked.append((n, k, row))
            else:
                tableau[n] = (k, row)
        # x_i = value[i] / (den[i]*scale), den[i] being 1 for a nonbasic
        # variable; a parked row names only nonbasic variables, tableau
        # ones and later-parked ones, so those come first.
        den = {b: d for b, (d, _) in tableau.items()}
        for n, k, row in reversed(parked):
            num, d = 0, 1
            for j, c in row.items():
                e = den.get(j, 1)
                if d % e:
                    g = gcd(d, e)
                    num *= e // g
                    d *= e // g
                num += c * value[j] * (d // e)
            value[n] = num
            den[n] = k * d
        assignment = {v: _quotient(value[i], den.get(i, 1) * scale) for i, v in enumerate(names)}
        if stages is not None and first is not None:
            # Every goal slack is still basic, so no other row names one.
            for b in range(first, len(value)):
                del tableau[b]
            del low[first:], high[first:], value[first:], self.general[first - len(names):]
            self.first = first
            stages.kept = self
        return assignment


# --- interval pre-analysis ------------------------------------------------
#
# A step-indexed box (interval) abstraction of the path semantics.  Each
# box maps every variable, in declaration order, to closed rational bounds
# (None = unbounded).  Every operation overapproximates the LP semantics,
# so an empty goal box at every step proves UNSAT without enumerating a
# single path; any nonempty goal box is merely inconclusive and falls
# through to the exact check.
#
# A bound is a ``Rational``, so an all-integer box steps in native int
# arithmetic.  The model holds its numbers in canonical form; a bound
# computed from a Fraction stays one, even when integral.  The box's only
# divisions go through ``_quotient``, so no float appears.

_Box = Dict[str, Tuple[Optional[Rational], Optional[Rational]]]


def _box_from_region(region: Polyhedron, variables: Sequence[str]) -> _Box:
    """Relax a polyhedron to per-variable bounds, which may be empty (lo > hi);
    multi-variable rows are dropped (sound for overapproximation)."""
    box: _Box = {v: (None, None) for v in variables}
    for _c, terms, b in region.rows:
        if len(terms) != 1:
            continue
        # k*x <= b bounds x above when k > 0, else below.
        (var, k), = terms
        bound = _quotient(b, k)
        lo, hi = box[var]
        if k > 0:
            if hi is None or bound < hi:
                box[var] = (lo, bound)
        elif lo is None or bound > lo:
            box[var] = (bound, hi)
    return box


def _box_intersect(a: _Box, b: _Box) -> Optional[_Box]:
    """The intersection of two boxes, or None when it is empty."""
    out: _Box = {}
    for v in a:
        alo, ahi = a[v]
        blo, bhi = b[v]
        lo = alo if blo is None else (blo if alo is None else max(alo, blo))
        hi = ahi if bhi is None else (bhi if ahi is None else min(ahi, bhi))
        if lo is not None and hi is not None and lo > hi:
            return None
        out[v] = (lo, hi)
    return out


def _box_join(a: Optional[_Box], b: _Box) -> _Box:
    """The smallest box holding both; ``a`` None stands for no box yet."""
    if a is None:
        return b
    out: _Box = {}
    for v in a:
        alo, ahi = a[v]
        blo, bhi = b[v]
        lo = None if alo is None or blo is None else min(alo, blo)
        hi = None if ahi is None or bhi is None else max(ahi, bhi)
        out[v] = (lo, hi)
    return out


def _box_dwell(entry: _Box, rates: RateSpec, exit_box: _Box) -> Optional[_Box]:
    """Possible exit valuations after some dwell t >= 0 whose endpoint lies
    in ``exit_box``, or None when there are none; per-variable dwell
    coupling is relaxed to a shared dwell interval.  ``rates`` is the
    location's ``RateSpec``."""
    t_lo: Rational = 0
    t_hi: Optional[Rational] = None

    def tighten(const: Rational, slope: Rational) -> None:
        # Require const + slope*t <= 0 for some t in [t_lo, t_hi].  A zero
        # slope leaves t free: when const > 0 the variable's band misses
        # exit_box, and the final intersection refutes it.
        nonlocal t_lo, t_hi
        if slope > 0:
            bound = _quotient(-const, slope)
            if t_hi is None or bound < t_hi:
                t_hi = bound
        elif slope < 0:
            bound = _quotient(-const, slope)
            if bound > t_lo:
                t_lo = bound

    for var, iv in rates.intervals:
        a_lo, a_hi = entry[var]
        e_lo, e_hi = exit_box[var]
        # Reachable band at dwell t: [a_lo + lower*t, a_hi + upper*t].
        if e_hi is not None and a_lo is not None:
            tighten(a_lo - e_hi, iv.lower)
        if e_lo is not None and a_hi is not None:
            tighten(e_lo - a_hi, -iv.upper)
    if t_hi is not None and t_lo > t_hi:
        return None

    # A variable without a rate interval keeps its entry bounds.
    out = dict(entry)
    for var, iv in rates.intervals:
        a_lo, a_hi = entry[var]
        if a_lo is None:
            lo = None
        elif iv.lower >= 0:
            lo = a_lo + iv.lower * t_lo
        else:
            lo = None if t_hi is None else a_lo + iv.lower * t_hi
        if a_hi is None:
            hi = None
        elif iv.upper <= 0:
            hi = a_hi + iv.upper * t_lo
        else:
            hi = None if t_hi is None else a_hi + iv.upper * t_hi
        out[var] = (lo, hi)
    return _box_intersect(out, exit_box)


class BoxSteps:
    """One pass over an automaton, init and depth, shared by every check of
    problems that have them: the box abstraction's forward step maps, the
    transition successor index and the stage stack of the last path
    encoded.

    Map i holds, per location, the nonempty box of the valuations on
    entering it after i transitions; a location that no run enters has no
    key.  One generator steps the maps in order and ``map`` pulls from it,
    so building a pass does no step work, a map is stepped only when a
    check first asks for it, and checks that differ only in their goal
    (``model.alpha``) share every map.  The walk stops at an empty map, at
    a map that repeats an earlier one (the next map depends only on the
    current one, so every later map repeats a goal test that already
    failed), or at the depth.

    The pass keys its work by the automaton's ``loc_keys`` and
    ``trans_keys``, one int per distinct element (``model``).  The
    invariant box of each location key and the guard box of each
    transition key are built once per pass, on first use.  A step
    groups a location's exits by transition key and dwells once per group,
    memoised for that step by the location key, the transition key and
    the entry bounds, so locations of one class that enter with equal
    boxes share one dwell; a group lands once per target location key.
    No box is changed once built, so one may sit under several locations
    of a map, but none is kept from one step to the next.

    ``index`` is the automaton's ``_transition_index``: the box walk steps
    over it and every check enumerates its paths over it, so its
    predecessor map is built once and its distances once per goal
    location.  ``stages`` is the stack ``encode_path`` resumes, in this
    check or a later one, with the simplex state ``_solve_rows`` kept for
    its rows, which the exact goal's LP resumes.  It holds one path's
    stages and one tableau over them, so it grows with the depth only.
    """

    def __init__(self, problem: PlanningProblem) -> None:
        self.domain = problem.domain
        self.init = problem.init
        self.depth = problem.depth
        self.maps: List[Dict[int, _Box]] = []
        # Per location key, its invariant's box, and per transition key, its
        # guard's box; no two keys collide (``model``).
        self._box_of: Dict[int, _Box] = {}
        # Per row F(x) <= b, whether it holds in no reachable state
        # (``_inductive_above``); that depends only on the automaton and init.
        self.dead: Dict[_RowKey, bool] = {}
        self.index = _transition_index(problem.domain)
        self.stages = _Stages(problem)
        # Through a proxy, a suspended walk forms no reference cycle with its
        # pass, so a dropped pass is freed at once, not by the cycle collector.
        self._steps = BoxSteps._walk(weakref.proxy(self))

    def _keyed_box(self, key: int, region: Polyhedron) -> _Box:
        """The box of ``region``, the invariant or guard of model key ``key``."""
        if key not in self._box_of:
            self._box_of[key] = _box_from_region(region, self.domain.variables)
        return self._box_of[key]

    def inv_box(self, loc_id: int) -> _Box:
        return self._keyed_box(self.domain.loc_keys[loc_id], self.domain.location(loc_id).invariant)

    def map(self, step: int) -> Optional[Dict[int, _Box]]:
        """Map ``step``, stepping the walk up to it on first use; None when
        the walk stops before it."""
        self.maps += islice(self._steps, max(0, step + 1 - len(self.maps)))
        return self.maps[step] if step < len(self.maps) else None

    def _walk(self) -> Iterator[Dict[int, _Box]]:
        """The maps in order, each stepped from the last only when pulled."""
        domain = self.domain
        outgoing = self.index.succ

        @cache
        def exits(loc_id: int) -> List[Tuple[tuple, _Box, _Box, List[Tuple[int, List[int]]]]]:
            # The outgoing transitions grouped by transition key, each group
            # whose exit requirement inv(source) & guard is nonempty as: its
            # memo key (the location and transition keys), that
            # requirement, the bounds its interval resets assign, and its
            # targets grouped by location key.
            groups: Dict[int, Tuple[Transition, Dict[int, List[int]]]] = {}
            for tid, target in outgoing.get(loc_id, ()):
                _, lands = groups.setdefault(domain.trans_keys[tid], (domain.transitions[tid], {}))
                lands.setdefault(domain.loc_keys[target], []).append(target)
            out = []
            for key, (trans, lands) in groups.items():
                req = _box_intersect(self.inv_box(loc_id), self._keyed_box(key, trans.guard))
                if req is not None:
                    resets = {
                        var: (act.lower, act.upper)
                        for var, act in trans.reset.actions
                        if act.kind is not ResetKind.KEEP
                    }
                    out.append(((domain.loc_keys[loc_id], key), req, resets, list(lands.items())))
            return out

        init_loc, init_region = self.init
        init_box = _box_from_region(init_region, domain.variables)
        first = _box_intersect(init_box, self.inv_box(init_loc))
        current = {} if first is None else {init_loc: first}
        seen: set = set()
        for _ in range(self.depth):
            yield current
            nxt: Dict[int, _Box] = {}
            # Per exit group's key and entry bounds, the exit box with its
            # resets merged in (None if empty) and the box it lands in per
            # target location key.  It is kept for this step only, so no
            # box of one map is an entry of a dwell before it.
            memo: Dict[tuple, Optional[Tuple[_Box, Dict[int, Optional[_Box]]]]] = {}
            for loc_id, entry in current.items():
                bounds = tuple(entry.values())
                for key, req, resets, targets in exits(loc_id):
                    key = key, bounds
                    if key not in memo:
                        exit_box = _box_dwell(entry, domain.locations[loc_id].rates, req)
                        # Merging keeps exit_box's key order, the declaration order.
                        memo[key] = None if exit_box is None else ({**exit_box, **resets}, {})
                    dwelt = memo[key]
                    if dwelt is None:
                        continue
                    merged, landed = dwelt
                    for target_key, group in targets:
                        if target_key not in landed:
                            landed[target_key] = _box_intersect(merged, self.inv_box(group[0]))
                        box = landed[target_key]
                        if box is not None:
                            # A box is never changed once built, so one may
                            # sit under several locations.
                            for target in group:
                                nxt[target] = _box_join(nxt.get(target), box)
            state = tuple((loc_id, tuple(box.values())) for loc_id, box in sorted(nxt.items()))
            if not nxt or state in seen:
                return
            seen.add(state)
            current = nxt
        yield current


def _interval_unreachable(problem: PlanningProblem, box: BoxSteps) -> bool:
    """True when the box abstraction proves no bounded run reaches the
    goal; False is inconclusive.  ``box`` is a pass for ``problem``'s
    automaton, init and depth; the goal is tested on each of its maps."""
    goal_loc = problem.goal.location
    rates = box.domain.location(goal_loc).rates
    goal_inv = box.inv_box(goal_loc)
    goal_box = _box_from_region(problem.goal.region, box.domain.variables)
    step = 0
    while (current := box.map(step)) is not None:
        # The goal is tested at the exit of a final dwell in the goal
        # location; that exit already lies in the goal invariant.
        if goal_loc in current:
            exit_box = _box_dwell(current[goal_loc], rates, goal_inv)
            if exit_box is not None and _box_intersect(exit_box, goal_box) is not None:
                return False
        step += 1
    return True


# --- bounded reachability -------------------------------------------------

def _solve_checked(
    rows: List[_Row], stages: Optional[_Stages], lp: str
) -> Union[Dict[str, Rational], Farkas]:
    """``_solve_rows(rows, stages=stages)``, whose Farkas certificate is
    accepted only after ``_farkas_holds`` checks it against ``rows``; a
    certificate that fails is an internal error, which names ``lp``."""
    solved = _solve_rows(rows, stages=stages)
    if isinstance(solved, Farkas) and not _farkas_holds(rows, solved.y):
        raise AssertionError(
            "internal error: %s's Farkas certificate fails its check: y=%r" % (lp, solved.y)
        )
    return solved


def _inductive_above(
    automaton: HybridAutomaton, init: Tuple[int, Polyhedron], row: _RowKey
) -> bool:
    """Whether ``F(x) > b`` holds at init and no flow or jump breaks it,
    for ``row`` = ``(F, b)``, by three exact tests, the cheapest first:
    every transition keeps F's variables; in every location the least
    rate of F over the rate box, ``sum(k*r)`` with each rate at the bound
    that lowers it and a variable without a rate at 0, is >= 0; and the
    init region with its location's invariant refutes ``F(x) <= b``, by a
    ``_solve_rows`` certificate that ``_farkas_holds`` checks."""
    terms, bound = row
    f = dict(terms)
    for trans in automaton.transitions:
        if any(act.kind is not ResetKind.KEEP and var in f for var, act in trans.reset.actions):
            return False
    for loc in automaton.locations:
        rates = dict(loc.rates.intervals)
        least = 0
        for var, k in terms:
            iv = rates.get(var)
            if iv is not None:
                least += k * (iv.lower if k > 0 else iv.upper)
        if least < 0:
            return False
    init_loc, init_region = init
    regions = (init_region, automaton.location(init_loc).invariant)
    rows = [(dict(t), b) for r in regions for _c, t, b in r.rows] + [(f, bound)]
    return isinstance(_solve_checked(rows, None, "init LP"), Farkas)


def _emit_region(rows: List[_Row], state: Dict[str, _Expr], region: Polyhedron) -> None:
    """Append ``region.rows`` over the valuation ``state``, in their order."""
    for _c, terms, bound in region.rows:
        coeffs: Dict[str, Rational] = {}
        for var, k in terms:
            scoeffs, sconst = state[var]
            for v, sk in scoeffs.items():
                if v in coeffs:
                    coeffs[v] += k * sk
                else:
                    coeffs[v] = k * sk
            if sconst:
                bound -= k * sconst
        # Fractions can sum to an integer, which becomes an int again.
        rows.append(({v: canonical(k) for v, k in coeffs.items() if k}, canonical(bound)))


class _Stages:
    """The stage stack of ``encode_path``: the stages of each position of
    the last path it encoded for one automaton and init, without the goal.

    Position i's stages are transition i-1's (none for position 0, which
    has the init rows instead) and its own.  Per position the stack holds
    the row count after them (``ends[2*i]``), the position's entry and exit
    valuations, its stage ends, and the substitution state after them, from
    which the next position is encoded.  The rows are kept in the order
    they were emitted, and no row is changed once emitted.

    ``prefix`` holds the key of each stage on the stack (``keys``): the
    automaton's ``trans_keys`` and ``loc_keys``, so that equal transitions
    and locations (sibling edges with equal guards, copies of a location)
    share one key.

    ``repeats`` flags each row that equals an earlier one, which
    ``_Simplex.build`` leaves out: where a position has the invariant
    object of the one before it, each entry invariant row equal to the row
    at the same offset of that position's exit invariant.

    ``kept`` is the final state of the last feasible LP that
    ``_solve_rows`` solved on these rows with inert goal rows, with its goal
    slacks dropped, or None.  ``push`` and ``pop_to`` clear it whenever they
    change the rows.
    """

    def __init__(self, problem: PlanningProblem) -> None:
        self.automaton = problem.domain
        self.init = problem.init
        self.prefix: List[int] = []
        self.rows: List[_Row] = []
        self.points: List[Tuple[_Point, _Point]] = []
        self.ends: List[int] = []
        self.repeats: List[bool] = []
        # Per position, each automaton variable's value after its stages,
        # as (coeffs, const).
        self.states: List[Dict[str, _Expr]] = []
        # The simplex state ``_solve_rows`` kept for ``rows`` as they are.
        self.kept: Optional[_Simplex] = None

    def keys(self, path: ConcretePath) -> List[int]:
        """The key of each stage of ``path``, in order: -1 for stage 0, the
        same on every path from the init, then each transition's and the
        next location's in turn."""
        keys = [-1] * (2 * len(path.transitions) + 1)
        keys[1::2] = map(self.automaton.trans_keys.__getitem__, path.transitions)
        keys[2::2] = map(self.automaton.loc_keys.__getitem__, path.locations[1:])
        return keys

    def pop_to(self, path: ConcretePath) -> None:
        """Pop the positions past the longest prefix of stage keys that
        ``path`` shares with the stack."""
        shared = 0
        for old, new in zip(self.prefix, self.keys(path)):
            if old != new:
                break
            shared += 1
        if shared == len(self.prefix):
            return
        self.kept = None
        # Position 0 stays, and one more per transition and location shared.
        positions = (shared + 1) // 2
        del self.prefix[2 * positions - 1:]
        del self.rows[self.ends[2 * positions - 2]:]
        del self.repeats[self.ends[2 * positions - 2]:]
        del self.ends[2 * positions - 1:]
        del self.points[positions:]
        del self.states[positions:]

    def push(self, path: ConcretePath) -> None:
        """Encode the stages of ``path``'s next position onto the stack."""
        self.kept = None
        automaton = self.automaton
        rows = self.rows
        i = len(self.states)
        if i == 0:
            state: Dict[str, _Expr] = {
                var: ({_var_in(var, 0): 1}, 0) for var in automaton.variables
            }
            _emit_region(rows, state, self.init[1])
            self.prefix.append(-1)
        else:
            state = dict(self.states[-1])
            tid = path.transitions[i - 1]
            trans = automaton.transitions[tid]
            _emit_region(rows, state, trans.guard)
            resets = dict(trans.reset.actions)
            for var in automaton.variables:
                act = resets.get(var)
                if act is None or act.kind is ResetKind.KEEP:
                    continue
                lower, upper = act.lower, act.upper
                if lower == upper:
                    state[var] = ({}, lower)
                else:
                    fresh = _var_in(var, i)
                    rows.append(({fresh: -1}, -lower))
                    rows.append(({fresh: 1}, upper))
                    state[var] = ({fresh: 1}, 0)
            self.ends.append(len(rows))
            self.prefix += automaton.trans_keys[tid], automaton.loc_keys[path.locations[i]]

        loc = automaton.location(path.locations[i])
        rates = dict(loc.rates.intervals)
        entry = tuple(state[var] for var in automaton.variables)
        start = len(rows)
        _emit_region(rows, state, loc.invariant)
        repeats = self.repeats
        repeats += [False] * (start - len(repeats))
        if i and loc.invariant is automaton.location(path.locations[i - 1]).invariant:
            # Where transition i-1 changed none of its variables, an entry
            # invariant row equals the row at the same offset of position
            # i-1's exit invariant, which ends that position.
            end = self.ends[2 * i - 2]
            repeats += map(eq, rows[start:], rows[end + start - len(rows):end])
        # d_i, x@iout and x@i+1in are fresh here: no expression holds them yet.
        d = _dwell(i)
        rows.append(({d: -1}, 0))  # d_i >= 0
        for var in automaton.variables:
            iv = rates.get(var)
            if iv is None:
                continue
            lower, upper = iv.lower, iv.upper
            coeffs, const = state[var]
            if lower == upper:
                if lower:
                    coeffs = dict(coeffs)
                    coeffs[d] = lower
                    state[var] = (coeffs, const)
            else:
                out = _var_out(var, i)
                # lower*d <= out - in <= upper*d
                lo_row = dict(coeffs)
                lo_row[out] = -1
                if lower:
                    lo_row[d] = lower
                rows.append((lo_row, -const))
                hi_row = {v: -k for v, k in coeffs.items()}
                hi_row[out] = 1
                if upper:
                    hi_row[d] = -upper
                rows.append((hi_row, const))
                state[var] = ({out: 1}, 0)
        self.points.append((entry, tuple(state[var] for var in automaton.variables)))
        _emit_region(rows, state, loc.invariant)
        repeats += [False] * (len(rows) - len(repeats))
        self.ends.append(len(rows))
        self.states.append(state)


def encode_path(
    problem: PlanningProblem,
    path: ConcretePath,
    *,
    stages: Optional[_Stages] = None,
) -> Tuple[List[_Row], List[Tuple[_Point, _Point]], List[int]]:
    """Encode one concrete path as rows ``sum(coeffs*x) <= bound``.

    The system speaks of the entry value ``x@iin`` and exit value
    ``x@iout`` of every automaton variable x at every position i, and of the
    dwell ``di >= 0``: init region at position 0; invariant at both
    endpoints of every position; ``lower*di <= x@iout - x@iin <= upper*di``
    for each rate interval; guard at the exit of each transition's source;
    Keep/interval reset linking; goal region at the final exit (the goal
    location's invariant there is the last position's exit invariant).
    Exact rates, Keep resets and point resets are substituted away in one
    forward pass: the valuation at each point is tracked as an affine
    expression over the surviving variables (dwells, interval-rate exits,
    interval-reset entries).  Returns the rows; per position, its entry
    and exit valuations as expressions over the survivors in
    ``automaton.variables`` order, from which a solution of the rows
    rebuilds the run; and the stage ends.  The rows come in stages: stage 0
    holds the init rows and position 0's, then each transition's rows and
    the next position's are a stage in turn (stage 2i-1 is transition i-1,
    stage 2i position i), and the goal rows close the list; ``ends[s]`` is
    the number of rows in stages 0 to s.  A variable is named by its
    position only, so the rows up to a stage depend only on the init and
    on the invariant and rates of each location and the guard and reset of
    each transition up to that stage.  The model's numbers are canonical
    and every sum formed here passes through ``canonical``, so every number
    emitted is a ``Rational`` and an integral model encodes in native int
    arithmetic; nothing here divides.

    ``stages`` is the stage stack of a pass for the problem's automaton and
    init (``BoxSteps.stages``).  Since the rows up to a stage depend only
    on the keys of the stages up to it (``_Stages.keys``), the stack keeps
    those of the last path encoded: this call pops back to the longest
    prefix of stage keys the two paths share and encodes only the
    positions after it, then emits the goal rows, which the stack never
    keeps.  Without ``stages`` the same code runs on a fresh stack.  Each call returns fresh ``rows``,
    ``points`` and ``ends`` lists, but the row dicts and the expressions of
    ``points`` may be shared with other calls on the same stack, so they
    are read-only: ``_solve_rows``, ``_farkas_holds``, ``_check_path``,
    ``_Refutations`` and the ``--dump-lp`` writer only read them.
    """
    automaton = problem.domain
    init_loc, _init_region = problem.init
    if path.locations[0] != init_loc or path.locations[-1] != problem.goal.location:
        raise ValueError("path endpoints do not match the problem")
    if stages is None:
        stages = _Stages(problem)
    elif (stages.automaton, stages.init) != (automaton, problem.init):
        raise ValueError("the stage stack is for another automaton or init")
    stages.pop_to(path)
    while len(stages.states) < len(path.locations):
        stages.push(path)
    rows = stages.rows[:]
    _emit_region(rows, stages.states[-1], problem.goal.region)
    return rows, stages.points[:], stages.ends[:]


def _check_path(
    problem: PlanningProblem,
    path: ConcretePath,
    rows: List[_Row],
    points: List[Tuple[_Point, _Point]],
    stages: Optional[_Stages] = None,
) -> Union[WitnessRun, Farkas]:
    """Decide ``path`` from its encoding.  Returns the solver's Farkas
    certificate when the rows are infeasible, after ``_farkas_holds``
    accepts it, else the run the solver's assignment describes, after it
    replays as a valid run under the model semantics.  Every value of the
    run is in canonical form: each valuation's sum starts from its
    expression's constant and is normalised, so an integral run replays in
    native ints.  ``stages`` is the stack ``encode_path`` made the rows on,
    whose kept simplex state ``_solve_rows`` may resume."""
    full = _solve_checked(rows, stages, "path LP")
    if isinstance(full, Farkas):
        return full

    def valuation(point: _Point) -> Tuple[Tuple[str, Rational], ...]:
        return tuple(
            (var, canonical(sum((k * full.get(v, 0) for v, k in coeffs.items()), const)))
            for var, (coeffs, const) in zip(problem.domain.variables, point)
        )

    segments = tuple(
        RunSegment(loc_id, valuation(entry), full[_dwell(i)], valuation(exit_))
        for i, (loc_id, (entry, exit_)) in enumerate(zip(path.locations, points))
    )
    run = WitnessRun(segments=segments, transitions=path.transitions)
    violations = check_witness(problem.domain, problem.init, problem.goal, run)
    if violations:
        raise AssertionError(
            "internal error: path witness fails check_witness: " + "; ".join(violations)
        )
    return run


class _Refutations:
    """What the checked certificates of one check refute (``learn``),
    asked about each path the check decides (``lookup``).

    ``trie`` holds the refuted prefixes by their stage keys: a node maps a
    key to the next node, or, where a refuted prefix ends, to the reason
    that names the path whose certificate refuted it.  A dead constraint
    is a set of states, whatever holds it, so a path is UNSAT when its goal
    region holds one or it takes a transition whose guard holds one.
    ``at`` maps each such place, None for the goal or a transition id, to
    the reason that names the first dead constraint there; ``found`` lists
    ``(where, constraint)`` for each one found, in the order found; and
    ``every_dead`` is whether every path decided so far held one when it
    was decided.
    """

    def __init__(self, problem: PlanningProblem, box: BoxSteps) -> None:
        self.problem = problem
        self.box = box
        self.trie: Dict[int, object] = {}
        self.rows: Set[_RowKey] = set()
        self.at: Dict[Optional[int], str] = {}
        self.found: List[Tuple[Optional[int], LinearConstraint]] = []
        self.every_dead = True

    @property
    def dead(self) -> Tuple[Tuple[Optional[int], LinearConstraint], ...]:
        """``Verdict.dead`` of the check, once it is UNSAT."""
        # Every path holds the goal region, so a dead goal constraint covers
        # the paths decided before it was found, too.
        return tuple(self.found) if self.every_dead or None in self.at else ()

    def _dead_on(self, path: ConcretePath) -> Optional[str]:
        if self.at:
            for where in (None, *path.transitions):
                if where in self.at:
                    return self.at[where]
        return None

    def lookup(self, path: ConcretePath) -> Optional[str]:
        """Why ``path`` is UNSAT without an LP: the dead constraint that its
        goal or one of its guards holds, else the certificate that refuted
        a prefix of it, in which case it holds none (``every_dead``); None
        when neither is known."""
        reason = self._dead_on(path)
        if reason is not None:
            return reason
        if not self.trie:
            return None
        node: object = self.trie
        for key in self.box.stages.keys(path):
            node = node.get(key)
            if type(node) is not dict:
                break
        if type(node) is str:
            self.every_dead = False
            return node
        return None

    def refute(self, path: ConcretePath, stage: int, idx: int) -> None:
        """Record that the certificate of path ``idx`` refutes ``path``'s
        rows up to stage ``stage``, which subsumes any longer prefix."""
        node = self.trie
        *inner, last = self.box.stages.keys(path)[: stage + 1]
        for key in inner:
            node = node.setdefault(key, {})
        node[last] = "certificate of path %d" % idx

    def learn(self, path: ConcretePath, idx: int, y: Dict[int, Rational], ends: List[int]) -> None:
        """Learn from the checked certificate ``y`` of path ``idx``, whose
        stage ends are ``ends``.  When its last row comes before the goal
        rows, the stages up to that row are a refuted prefix.  When it lies
        in the goal or a transition, each goal or guard constraint there
        whose row has a positive multiplier is tested: row j of the region
        sits at the stage's start plus j (``Polyhedron.rows``)."""
        stage = bisect_right(ends, max(y))
        if stage < len(ends):
            self.refute(path, stage, idx)
        if stage % 2:  # the goal stage, or a transition's
            problem, box = self.problem, self.box
            if stage == len(ends):
                where, region = None, problem.goal.region
            else:
                where = path.transitions[stage // 2]
                region = problem.domain.transitions[where].guard
            start = ends[stage - 1]
            found = len(self.found)
            for j, (c, terms, b) in enumerate(region.rows):
                row = terms, b
                if y.get(start + j, 0) <= 0 or row in self.rows:
                    continue
                dead = box.dead.get(row)
                if dead is None:
                    dead = box.dead[row] = _inductive_above(box.domain, box.init, row)
                if dead:
                    log.debug(
                        "dead constraint %s of %s: it holds in no reachable state", c,
                        "the goal" if where is None else "transition %d" % where,
                    )
                    self.rows.add(row)
                    self.found.append((where, c))
            if len(self.found) > found:
                places = [(None, problem.goal.region)]
                places += [(t.id, t.guard) for t in problem.domain.transitions]
                for where, region in places:
                    if where not in self.at:
                        for c, terms, b in region.rows:
                            if (terms, b) in self.rows:
                                self.at[where] = "dead constraint %s" % c
                                break
        if self._dead_on(path) is None:
            self.every_dead = False


def bounded_reachable(
    problem: PlanningProblem,
    cap: int = DEFAULT_PATH_CAP,
    dump_dir: Optional[str] = None,
    box: Optional[BoxSteps] = None,
) -> Verdict:
    """SAT iff some concrete path's LP is feasible; the first SAT path in
    enumeration order wins.

    Each path is decided in enumeration order.  The check's one
    ``_Refutations`` record is asked whether a dead constraint or a
    refuted prefix already refutes it; if not, it is solved, and the
    checked certificate of an UNSAT path is the record's to learn from: it
    may refute a prefix, whose stages are named by the keys the stage
    stack uses, or name dead constraints.  A path refuted without an LP is
    still counted, and encoded under ``dump_dir``.  When every path the
    check decided holds a dead constraint, the UNSAT verdict lists them
    (``Verdict.dead``, read off the record): a path counts when it holds
    one found by the time it is decided, and every path holds a dead goal
    constraint.  The record never outlives the call; the tests behind a
    dead constraint are memoised on ``box``.

    Raises ResourceCapExceeded before deciding more than ``cap`` paths.
    ``dump_dir`` writes, per decided path, the rows its encoding holds as a
    plain-text listing; a verdict the box pre-analysis decides checks no
    path and writes none.  ``box`` is the box pass to share with other
    checks of the same automaton, init and depth; without one the call
    builds its own.
    """
    if box is None:
        box = BoxSteps(problem)
    elif (problem.domain, problem.init, problem.depth) != (box.domain, box.init, box.depth):
        raise ValueError("the box pass is for another automaton, init or depth")
    if _interval_unreachable(problem, box):
        return Verdict(paths_checked=0)

    init_loc, _ = problem.init
    paths = enumerate_concrete_paths(
        problem.domain, init_loc, problem.goal.location, problem.depth, index=box.index
    )
    if dump_dir is not None:
        os.makedirs(dump_dir, exist_ok=True)

    def dump(idx: int, path: ConcretePath, rows: List[_Row]) -> None:
        lines = ["# path %d" % idx]
        lines.append(
            "# locations: "
            + " ".join(problem.domain.location(l).name for l in path.locations)
        )
        for coeffs, bound in rows:
            terms = " + ".join("%s*%s" % (k, v) for v, k in sorted(coeffs.items()))
            lines.append("%s + %s <= 0" % (terms or "0", -bound))
        with open(os.path.join(dump_dir, "path_%05d.lp" % idx), "w") as fh:
            fh.write("\n".join(lines) + "\n")

    refutations = _Refutations(problem, box)
    checked = 0
    for idx, path in enumerate(paths):
        if idx >= cap:
            raise ResourceCapExceeded("concrete path enumeration", cap)
        checked += 1
        by = refutations.lookup(path)
        if by is None or dump_dir is not None:
            rows, points, ends = encode_path(problem, path, stages=box.stages)
            if dump_dir is not None:
                dump(idx, path, rows)
        if by is not None:
            log.debug(
                "path %d locations=%s transitions=%s: UNSAT by the %s",
                idx, path.locations, path.transitions, by,
            )
            continue
        outcome = _check_path(problem, path, rows, points, box.stages)
        sat = not isinstance(outcome, Farkas)
        log.debug(
            "path %d locations=%s transitions=%s: %s",
            idx, path.locations, path.transitions, "SAT" if sat else "UNSAT",
        )
        if sat:
            return Verdict(checked, outcome)
        refutations.learn(path, idx, outcome.y, ends)
    return Verdict(checked, dead=refutations.dead)


def extract_witness(
    problem: PlanningProblem, verdict: Verdict
) -> Tuple[WitnessRun, Plan]:
    """The run a SAT verdict carries, and the timed plan it describes."""
    run = verdict.run
    if run is None:
        raise ValueError("cannot extract a witness from an UNSAT verdict")
    steps: List[Tuple[Rational, str]] = []
    elapsed: Rational = 0
    for seg, tid in zip(run.segments, run.transitions):
        elapsed = canonical(elapsed + seg.dwell)
        steps.append((elapsed, problem.domain.transitions[tid].label))
    return run, Plan(steps=tuple(steps), makespan=run.makespan())
