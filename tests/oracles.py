"""Independent reference implementations used to cross-check the library.

Everything here is deliberately naive: exponential eliminations, exhaustive
enumerations, and direct recursions whose correctness is evident from their
shape.  The library must agree with these on randomized inputs.
"""

from __future__ import annotations

import itertools
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from wpx.graph import LcsResult, LocationGraph, PathSet, ResourceCapExceeded
from wpx.model import (
    HybridAutomaton,
    LinearConstraint,
    LinearExpression,
    Location,
    PlanningProblem,
    Polyhedron,
    Rational,
    RateSpec,
    Relation,
    Reset,
    ResetKind,
    Transition,
)
from wpx.reach import (
    ConcretePath,
    Farkas,
    _dwell,
    _farkas_holds,
    _solve_rows,
    _var_in,
    _var_out,
)


# --- full path encoding ---------------------------------------------------


@dataclass(frozen=True)
class LpProblem:
    variables: Tuple[str, ...]
    constraints: Tuple[LinearConstraint, ...]


def _shift_constraint(c: LinearConstraint, rename: Dict[str, str]) -> LinearConstraint:
    coeffs = {rename[v]: k for v, k in c.expression.coefficients}
    return LinearConstraint(
        LinearExpression.build(coeffs, c.expression.constant), c.relation
    )


def full_encode_path(problem: PlanningProblem, path: ConcretePath) -> LpProblem:
    """Encode one concrete path as a feasibility system, with every
    entry/exit valuation and dwell a variable and nothing substituted away.

    Variables per position i: entry value ``x@iin`` and exit value
    ``x@iout`` for every automaton variable x, and the dwell ``di``.
    Constraints: init region at position 0; invariant at both endpoints of
    every position; dwell nonnegativity; interval rate displacement bounds;
    guard at the exit of each transition's source; Keep/interval reset
    linking; goal region and goal-location invariant at the final exit.
    """
    automaton = problem.domain
    init_loc, init_region = problem.init
    if path.locations[0] != init_loc or path.locations[-1] != problem.goal.location:
        raise ValueError("path endpoints do not match the problem")

    variables: List[str] = []
    constraints: List[LinearConstraint] = []
    n = len(path.locations)

    for i, loc_id in enumerate(path.locations):
        for var in automaton.variables:
            variables.append(_var_in(var, i))
            variables.append(_var_out(var, i))
        variables.append(_dwell(i))

    def add_region(region: Polyhedron, pos: int, which: str) -> None:
        rename = {v: ("%s@%d%s" % (v, pos, which)) for v in automaton.variables}
        for c in region.constraints:
            constraints.append(_shift_constraint(c, rename))

    add_region(init_region, 0, "in")

    for i, loc_id in enumerate(path.locations):
        loc = automaton.location(loc_id)
        add_region(loc.invariant, i, "in")
        add_region(loc.invariant, i, "out")
        # d_i >= 0  encoded as  -d_i <= 0
        constraints.append(
            LinearConstraint(LinearExpression.build({_dwell(i): -1}), Relation.LE)
        )
        for var in automaton.variables:
            iv = loc.rates.interval(var)
            if iv is None:
                continue
            vin, vout, d = _var_in(var, i), _var_out(var, i), _dwell(i)
            if iv.lower == iv.upper:
                # exact rate: out - in - r*d = 0
                constraints.append(
                    LinearConstraint(
                        LinearExpression.build({vout: 1, vin: -1, d: -iv.lower}),
                        Relation.EQ,
                    )
                )
            else:
                constraints.append(
                    LinearConstraint(
                        LinearExpression.build({vout: -1, vin: 1, d: iv.lower}),
                        Relation.LE,
                    )
                )
                constraints.append(
                    LinearConstraint(
                        LinearExpression.build({vout: 1, vin: -1, d: -iv.upper}),
                        Relation.LE,
                    )
                )

    for i, tid in enumerate(path.transitions):
        trans = automaton.transitions[tid]
        add_region(trans.guard, i, "out")
        for var in automaton.variables:
            act = trans.reset.action(var)
            vin_next = _var_in(var, i + 1)
            if act.kind is ResetKind.KEEP:
                constraints.append(
                    LinearConstraint(
                        LinearExpression.build({vin_next: 1, _var_out(var, i): -1}),
                        Relation.EQ,
                    )
                )
            else:
                if act.lower == act.upper:
                    constraints.append(
                        LinearConstraint(
                            LinearExpression.build({vin_next: 1}, -act.lower),
                            Relation.EQ,
                        )
                    )
                else:
                    constraints.append(
                        LinearConstraint(
                            LinearExpression.build({vin_next: -1}, act.lower),
                            Relation.LE,
                        )
                    )
                    constraints.append(
                        LinearConstraint(
                            LinearExpression.build({vin_next: 1}, -act.upper),
                            Relation.LE,
                        )
                    )

    add_region(problem.goal.region, n - 1, "out")
    add_region(automaton.location(problem.goal.location).invariant, n - 1, "out")

    return LpProblem(variables=tuple(variables), constraints=tuple(constraints))


# --- Fourier-Motzkin feasibility oracle ----------------------------------


def lp_rows(lp: LpProblem) -> List[Tuple[Dict[str, Fraction], Fraction]]:
    """The constraints as (coeffs, bound) rows meaning
    sum(coeffs*x) <= bound; an equality becomes two rows.  The model holds
    an integral number as an int, so each is read as a Fraction here and
    every division by the oracles that read these rows stays exact."""
    rows: List[Tuple[Dict[str, Fraction], Fraction]] = []
    for c in lp.constraints:
        coeffs = {v: Fraction(k) for v, k in c.expression.coefficients}
        const = Fraction(c.expression.constant)
        if c.relation in (Relation.LE, Relation.EQ):
            rows.append((dict(coeffs), -const))
        if c.relation in (Relation.GE, Relation.EQ):
            rows.append(({v: -k for v, k in coeffs.items()}, const))
    return rows


def lp_feasible(lp: LpProblem) -> Optional[Dict[str, Rational]]:
    """Decide ``lp`` with the production solver ``_solve_rows``.

    Returns None when infeasible, else an assignment to every variable of
    ``lp``, which must satisfy every constraint; variables no row mentions
    are set to 0.
    """
    rows = lp_rows(lp)
    full = _solve_rows(rows)
    if isinstance(full, Farkas):
        if not _farkas_holds(rows, full.y):
            raise AssertionError("certificate fails its check: %r" % (full.y,))
        return None
    valuation = {v: full.get(v, Fraction(0)) for v in lp.variables}
    for c in lp.constraints:
        if not c.holds(valuation):
            raise AssertionError("witness fails a constraint: %r" % (c,))
    return valuation


def fm_feasible(lp: LpProblem) -> bool:
    """Decide feasibility by Fourier-Motzkin elimination over
    ``lp_rows(lp)``."""
    rows = lp_rows(lp)

    def compact(rows):
        # Normalize scaling, drop exact duplicates, keep the tightest bound
        # per direction; essential to keep elimination from blowing up.
        best: Dict[Tuple[Tuple[str, Fraction], ...], Fraction] = {}
        for coeffs, bound in rows:
            coeffs = {v: k for v, k in coeffs.items() if k != 0}
            if not coeffs:
                if bound < 0:
                    return None
                continue
            scale = abs(next(iter(sorted(coeffs.items())))[1])
            key = tuple(sorted((v, k / scale) for v, k in coeffs.items()))
            nb = bound / scale
            if key not in best or nb < best[key]:
                best[key] = nb
        return [(dict(key), bound) for key, bound in best.items()]

    remaining = sorted({v for coeffs, _ in rows for v in coeffs})
    while remaining:
        rows = compact(rows)
        if rows is None:
            return False
        # Greedy: eliminate the variable with the fewest pos*neg pairings.
        def cost(var):
            p = sum(1 for coeffs, _ in rows if coeffs.get(var, 0) > 0)
            n = sum(1 for coeffs, _ in rows if coeffs.get(var, 0) < 0)
            return p * n - (p + n)

        var = min(remaining, key=cost)
        remaining.remove(var)
        pos, neg, rest = [], [], []
        for coeffs, bound in rows:
            k = coeffs.get(var, Fraction(0))
            if k > 0:
                pos.append((coeffs, bound))
            elif k < 0:
                neg.append((coeffs, bound))
            else:
                rest.append((coeffs, bound))
        new_rows = rest
        for pcoeffs, pbound in pos:
            pk = pcoeffs[var]
            for ncoeffs, nbound in neg:
                nk = -ncoeffs[var]
                combined: Dict[str, Fraction] = {}
                for v, k in pcoeffs.items():
                    if v != var:
                        combined[v] = combined.get(v, Fraction(0)) + k / pk
                for v, k in ncoeffs.items():
                    if v != var:
                        combined[v] = combined.get(v, Fraction(0)) + k / nk
                combined = {v: k for v, k in combined.items() if k != 0}
                new_rows.append((combined, pbound / pk + nbound / nk))
        rows = new_rows
    rows = compact(rows)
    return rows is not None


# --- split-and-shift simplex reference ------------------------------------
#
# A second exact solver, built differently from the library's bounded-
# variable simplex: bounds shift variables to nonnegative ones, then a dense
# phase-I tableau over split variables, slacks and artificial columns
# decides the rows.  Fourier-Motzkin blows up above about six variables, so
# larger LPs are cross-checked against this instead.

_Row = Tuple[Dict[str, Rational], Rational]


def _phase_one_simplex(
    variables: List[str], rows: List[_Row]
) -> Optional[Dict[str, Rational]]:
    """Decide feasibility of {sum(coeffs*x) <= bound} with free variables.

    Free variables are split into nonnegative pairs; phase-I minimizes the
    sum of artificial variables with Bland's rule.  Returns a satisfying
    assignment or None.
    """
    n = len(variables)
    index = {v: i for i, v in enumerate(variables)}
    m = len(rows)
    # Columns: 0..n-1 positive parts, n..2n-1 negative parts,
    # 2n..2n+m-1 slacks, then artificials.
    ncols = 2 * n + m
    tableau: List[List[Rational]] = []
    rhs: List[Rational] = []
    basis: List[int] = []
    artificial_cols: List[int] = []

    for r, (coeffs, bound) in enumerate(rows):
        row = [Fraction(0)] * ncols
        for v, k in coeffs.items():
            row[index[v]] = k
            row[n + index[v]] = -k
        row[2 * n + r] = Fraction(1)
        b = bound
        if b < 0:
            row = [-x for x in row]
            b = -b
            col = ncols + len(artificial_cols)
            artificial_cols.append(col)
            basis.append(col)
        else:
            basis.append(2 * n + r)
        tableau.append(row)
        rhs.append(b)

    if not artificial_cols:
        assignment = {v: Fraction(0) for v in variables}
        return assignment

    total_cols = ncols + len(artificial_cols)
    for i, row in enumerate(tableau):
        row.extend(Fraction(0) for _ in range(len(artificial_cols)))
        if basis[i] >= ncols:
            row[basis[i]] = Fraction(1)

    # Objective: minimize sum of artificials; reduced costs start as
    # -(sum of artificial rows) over non-artificial columns.
    cost = [Fraction(0)] * total_cols
    cost_const = Fraction(0)
    for i, b in enumerate(basis):
        if b >= ncols:
            for j in range(total_cols):
                cost[j] -= tableau[i][j]
            cost_const += rhs[i]
    for col in artificial_cols:
        cost[col] += Fraction(1)

    while True:
        entering = -1
        for j in range(total_cols):
            if cost[j] < 0:
                entering = j
                break
        if entering < 0:
            break
        leaving = -1
        best_ratio: Optional[Rational] = None
        for i in range(m):
            a = tableau[i][entering]
            if a > 0:
                ratio = rhs[i] / a
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[leaving])
                ):
                    best_ratio = ratio
                    leaving = i
        if leaving < 0:
            # Unbounded phase-I objective cannot happen (bounded below by 0);
            # defensive guard.
            break
        pivot = tableau[leaving][entering]
        prow = tableau[leaving]
        inv = Fraction(1) / pivot
        for j in range(total_cols):
            prow[j] *= inv
        rhs[leaving] *= inv
        for i in range(m):
            if i == leaving:
                continue
            factor = tableau[i][entering]
            if factor != 0:
                row = tableau[i]
                for j in range(total_cols):
                    if prow[j] != 0:
                        row[j] -= factor * prow[j]
                rhs[i] -= factor * rhs[leaving]
        factor = cost[entering]
        if factor != 0:
            for j in range(total_cols):
                if prow[j] != 0:
                    cost[j] -= factor * prow[j]
            cost_const -= factor * rhs[leaving]
        basis[leaving] = entering

    # Optimum value of sum(artificials) is -cost_const ... track via basis:
    objective = Fraction(0)
    for i, b in enumerate(basis):
        if b >= ncols:
            objective += rhs[i]
    if objective != 0:
        return None

    values = [Fraction(0)] * total_cols
    for i, b in enumerate(basis):
        values[b] = rhs[i]
    assignment = {}
    for v, i in index.items():
        assignment[v] = values[i] - values[n + i]
    return assignment


def split_simplex_rows(
    rows: List[_Row]
) -> Optional[Dict[str, Rational]]:
    """Decide {sum(coeffs*x) <= bound} over free rational variables.

    Pipeline: single-variable rows become bounds, an interval-arithmetic
    pass refutes rows whose smallest possible left side already exceeds the
    bound (which settles the common exhausted-budget pattern without any
    pivoting), lower-bounded variables are shifted to nonnegative ones, and
    a phase-I simplex decides the rest.  Returns an assignment covering
    every variable that appears in any row, or None when infeasible.

    The rows are read as Fractions, whatever mix of ints and Fractions they
    hold, so every value and division here is exact.
    """
    rows = [
        ({v: Fraction(k) for v, k in coeffs.items()}, Fraction(bound))
        for coeffs, bound in rows
    ]
    lower: Dict[str, Rational] = {}
    upper: Dict[str, Rational] = {}
    general: List[_Row] = []
    all_vars: set = set()
    for coeffs, bound in rows:
        all_vars.update(coeffs)
        if not coeffs:
            if bound < 0:
                return None
            continue
        if len(coeffs) == 1:
            (var, k), = coeffs.items()
            b = bound / k
            if k > 0:
                if var not in upper or b < upper[var]:
                    upper[var] = b
            else:
                if var not in lower or b > lower[var]:
                    lower[var] = b
            continue
        general.append((coeffs, bound))

    for var, lo in lower.items():
        if var in upper and lo > upper[var]:
            return None

    # Interval propagation: minimal possible left side vs the bound.
    for coeffs, bound in general:
        minimum = Fraction(0)
        for var, k in coeffs.items():
            if k > 0:
                if var not in lower:
                    break
                minimum += k * lower[var]
            else:
                if var not in upper:
                    break
                minimum += k * upper[var]
        else:
            if minimum > bound:
                return None

    # Shift lower-bounded variables to nonnegative ones: x = lo + x'.
    shifted_rows: List[_Row] = []
    remaining_vars: set = set()
    for coeffs, bound in general:
        nb = bound
        for var, k in coeffs.items():
            if var in lower:
                nb -= k * lower[var]
            remaining_vars.add(var)
        shifted_rows.append((dict(coeffs), nb))
    for var, ub in upper.items():
        nb = ub - lower[var] if var in lower else ub
        shifted_rows.append(({var: Fraction(1)}, nb))
        remaining_vars.add(var)

    var_order = sorted(remaining_vars)
    # Shifted variables carry an explicit nonnegativity row; the simplex
    # splits every variable, which is sound either way.
    solver_rows = list(shifted_rows)
    for v in var_order:
        if v in lower:
            solver_rows.append(({v: Fraction(-1)}, Fraction(0)))

    assignment = _phase_one_simplex(var_order, solver_rows)
    if assignment is None:
        return None

    full: Dict[str, Rational] = {}
    for v in var_order:
        full[v] = assignment[v] + lower.get(v, Fraction(0))
    # Variables only seen in bound rows sit at a bound-respecting value.
    for v in all_vars:
        if v not in full:
            if v in lower:
                full[v] = lower[v]
            elif v in upper:
                full[v] = min(upper[v], Fraction(0))
            else:
                full[v] = Fraction(0)
    return full


# --- Fraction-tableau reference -------------------------------------------
#
# The bounded-variable simplex as it was before its tableau rows became
# fraction-free: the same algorithm with every tableau entry a Fraction.
# The library's integer tableau must pick the same pivots and so return
# exactly the same assignment.  This reference keeps an interval pass that
# the library does without: it only refutes, so it changes no assignment,
# and the two are compared only on feasibility and assignments.


def fraction_tableau_rows(
    rows: List[_Row]
) -> Optional[Dict[str, Rational]]:
    """Decide {sum(coeffs*x) <= bound} over free rational variables.

    Single-variable rows become bounds.  A bound conflict, and an interval
    pass that refutes a row whose smallest possible left side already
    exceeds its bound, settle the common exhausted-budget pattern without a
    tableau.  A bounded-variable simplex (Dutertre and de Moura, CAV 2006)
    decides the rest.  Each multi-variable row gets one slack: a basic
    variable whose tableau row is the row's coefficients and whose upper
    bound is the row's bound.  Every variable starts nonbasic at a value
    within its bounds.  While some basic variable violates a bound, the
    smallest such one is pivoted with the smallest nonbasic variable of its
    row that can move it back, and set to the violated bound; when no
    nonbasic variable can, the rows are infeasible.  Variables are ordered
    by name, then slacks by row; taking the smallest on both sides is
    Bland's rule, which ends the loop.  Returns an assignment covering every
    variable that appears in any row, or None when infeasible.

    The rows are read as Fractions, whatever mix of ints and Fractions they
    hold, so every value and division here is exact.
    """
    rows = [
        ({v: Fraction(k) for v, k in coeffs.items()}, Fraction(bound))
        for coeffs, bound in rows
    ]
    lower: Dict[str, Rational] = {}
    upper: Dict[str, Rational] = {}
    general: List[_Row] = []
    all_vars: set = set()
    for coeffs, bound in rows:
        all_vars.update(coeffs)
        if not coeffs:
            if bound < 0:
                return None
            continue
        if len(coeffs) == 1:
            (var, k), = coeffs.items()
            b = bound / k
            if k > 0:
                if var not in upper or b < upper[var]:
                    upper[var] = b
            else:
                if var not in lower or b > lower[var]:
                    lower[var] = b
            continue
        general.append((coeffs, bound))

    for var, lo in lower.items():
        if var in upper and lo > upper[var]:
            return None

    # Interval propagation: minimal possible left side vs the bound.
    for coeffs, bound in general:
        minimum = Fraction(0)
        for var, k in coeffs.items():
            if k > 0:
                if var not in lower:
                    break
                minimum += k * lower[var]
            else:
                if var not in upper:
                    break
                minimum += k * upper[var]
        else:
            if minimum > bound:
                return None

    # Columns: the variables in name order, then one slack per general row.
    names = sorted(all_vars)
    index = {v: i for i, v in enumerate(names)}
    low: List[Optional[Rational]] = [lower.get(v) for v in names]
    high: List[Optional[Rational]] = [upper.get(v) for v in names]
    value: List[Rational] = [
        lo if lo is not None else Fraction(0) if hi is None else min(hi, Fraction(0))
        for lo, hi in zip(low, high)
    ]
    # tableau[b] expresses the basic variable b over nonbasic ones.
    tableau: Dict[int, Dict[int, Rational]] = {}
    for coeffs, bound in general:
        tableau[len(value)] = {index[v]: k for v, k in coeffs.items()}
        value.append(sum(k * value[index[v]] for v, k in coeffs.items()))
        low.append(None)
        high.append(bound)

    while True:
        for b in sorted(tableau):
            if low[b] is not None and value[b] < low[b]:
                target, rise = low[b], True
                break
            if high[b] is not None and value[b] > high[b]:
                target, rise = high[b], False
                break
        else:
            return {v: value[i] for i, v in enumerate(names)}
        row = tableau.pop(b)
        for n in sorted(row):
            if (row[n] > 0) == rise:
                if high[n] is None or value[n] < high[n]:
                    break
            elif low[n] is None or value[n] > low[n]:
                break
        else:
            return None
        # Move n until b reaches target, then solve b's row for n and
        # substitute it into every other row.
        k = row[n]
        theta = (target - value[b]) / k
        value[b] = target
        value[n] += theta
        solved = {j: -c / k for j, c in row.items() if j != n}
        solved[b] = 1 / k
        for other, other_row in tableau.items():
            c = other_row.pop(n, None)
            if c is None:
                continue
            value[other] += c * theta
            for j, d in solved.items():
                e = other_row.get(j, 0) + c * d
                if e:
                    other_row[j] = e
                else:
                    del other_row[j]
        tableau[n] = solved


def random_lp(rng: random.Random, max_vars: int = 6, max_rows: int = 12) -> LpProblem:
    nvars = rng.randint(1, max_vars)
    variables = tuple("v%d" % i for i in range(nvars))
    nrows = rng.randint(1, max_rows)
    constraints = []
    for _ in range(nrows):
        coeffs = {}
        for v in variables:
            if rng.random() < 0.6:
                coeffs[v] = Fraction(rng.randint(-3, 3))
        const = Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2]))
        rel = rng.choice([Relation.LE, Relation.GE, Relation.EQ])
        constraints.append(
            LinearConstraint(LinearExpression.build(coeffs, const), rel)
        )
    return LpProblem(variables=variables, constraints=tuple(constraints))


# --- brute-force multi-string LCS ----------------------------------------


def brute_lcs_length(strings: Sequence[Sequence[int]]) -> int:
    """Longest common subsequence length by enumerating subsequences of the
    shortest string."""
    shortest = min(strings, key=len)
    rest = [s for s in strings if s is not shortest]
    if not rest:
        return len(shortest)

    def is_subseq(needle, haystack):
        it = iter(haystack)
        return all(sym in it for sym in needle)

    best = 0
    n = len(shortest)
    for length in range(n, 0, -1):
        if length <= best:
            break
        for combo in itertools.combinations(range(n), length):
            cand = tuple(shortest[i] for i in combo)
            if all(is_subseq(cand, s) for s in rest):
                best = length
                break
    return best


# --- explicit string-set LCS ---------------------------------------------


@dataclass(frozen=True)
class ExplicitPathSet:
    """A listed set of strings, in the role of a materialized path set."""

    paths: Tuple[Tuple[int, ...], ...]

    @property
    def count(self) -> int:
        return len(self.paths)


def is_subsequence(needle: Sequence[int], haystack: Sequence[int]) -> bool:
    it = iter(haystack)
    return all(sym in it for sym in needle)


def prune_alphabet(
    paths: ExplicitPathSet,
) -> Tuple[Tuple[Tuple[int, ...], ...], FrozenSet[int]]:
    """Delete from every string each symbol absent from at least one string.

    Returns the reduced strings (original order) and the kept symbol set.
    The LCS of the reduced set equals the LCS of the original set.
    """
    if not paths.paths:
        raise ValueError("empty path set")
    kept = frozenset.intersection(*(frozenset(p) for p in paths.paths))
    reduced = tuple(tuple(sym for sym in p if sym in kept) for p in paths.paths)
    return reduced, kept


DEFAULT_CANDIDATE_CAP = 1 << 20


def common_subsequences_pair(
    s1: Sequence[int], s2: Sequence[int], cap: int = DEFAULT_CANDIDATE_CAP
) -> Tuple[Tuple[int, ...], ...]:
    """Every distinct common subsequence of a pair, deduplicated.

    Completeness matters: a shorter common subsequence of the seed pair can
    be the longest one shared by the whole set, so nothing may be dropped
    before filtering.  Cell (i, j) of the DP table holds the common
    subsequences of s1[:i] and s2[:j]; the table is filled row by row,
    keeping two rows.  Raises a resource error past ``cap`` distinct
    sequences in any cell.
    """
    empty: FrozenSet[Tuple[int, ...]] = frozenset({()})
    prev = [empty] * (len(s2) + 1)
    for sym in s1:
        row = [empty]
        for j, other in enumerate(s2, start=1):
            results = set(prev[j])
            results |= row[j - 1]
            if sym == other:
                results.update(tail + (sym,) for tail in prev[j - 1])
            if len(results) > cap:
                raise ResourceCapExceeded("LCS candidate generation", cap)
            row.append(frozenset(results))
        prev = row
    return tuple(sorted(prev[-1]))


def _leftmost_embedding(candidate: Sequence[int], string: Sequence[int]) -> Tuple[int, ...]:
    indices: List[int] = []
    pos = 0
    for sym in candidate:
        while string[pos] != sym:
            pos += 1
        indices.append(pos)
        pos += 1
    return tuple(indices)


def explicit_lcs(paths: ExplicitPathSet, cap: int = DEFAULT_CANDIDATE_CAP) -> LcsResult:
    """LCS of every listed string with a deterministic tie-break, by
    filtering the pair candidates of the two shortest strings over every
    string.

    Seeds from the two shortest strings, filters against the rest in
    ascending length order, then among the longest survivors picks the one
    with the lexicographically smallest leftmost-embedding index sequence in
    the first string, breaking any remaining tie by symbol sequence.
    """
    if not paths.paths:
        raise ValueError("empty path set")
    reduced, _kept = prune_alphabet(paths)
    if len(reduced) == 1:
        seq = reduced[0]
        return LcsResult(sequence=seq)

    order = sorted(range(len(reduced)), key=lambda i: (len(reduced[i]), i))
    first, second = reduced[order[0]], reduced[order[1]]
    candidates = common_subsequences_pair(first, second, cap=cap)
    # Path strings all start at the initial location and end at the goal
    # location, so any maximal candidate is anchored at both; the filter is
    # skipped for inputs without that shape.
    if all(s and s[0] == first[0] and s[-1] == first[-1] for s in reduced):
        head, tail = first[0], first[-1]
        candidates = tuple(
            c for c in candidates if c and c[0] == head and c[-1] == tail
        )
    for idx in order[2:]:
        string = reduced[idx]
        candidates = tuple(c for c in candidates if is_subsequence(c, string))
        if not candidates:
            break

    if not candidates:
        return LcsResult(sequence=())

    best_len = max(len(c) for c in candidates)
    finalists = [c for c in candidates if len(c) == best_len]
    anchor = reduced[0]
    finalists.sort(key=lambda c: (_leftmost_embedding(c, anchor), c))
    chosen = finalists[0]
    return LcsResult(sequence=chosen)


def verify_chain_abstract(paths, chain) -> bool:
    """True iff every listed path string contains the chain's location
    sequence as a subsequence."""
    seq = tuple(e.location for e in chain)
    return all(is_subsequence(seq, p) for p in paths.paths)


def misses(paths: PathSet, needle: Sequence[int]) -> bool:
    """True iff some walk of a symbolic path set does not contain
    ``needle`` as a subsequence, decided without listing the walks.

    Breadth-first search over the product of the graph with the greedy
    matching automaton of ``needle``: state (v, j) means a walk prefix ends
    at v having matched needle[:j] leftmost.  A walk misses the needle iff
    its prefix ending at the target reaches a state with j < len(needle)
    within the depth bound; BFS gives the fewest edges to each state.
    """
    n = len(needle)

    def advance(j: int, v: int) -> int:
        return j + 1 if j < n and needle[j] == v else j

    start = (paths.source, advance(0, paths.source))
    seen = {start}
    frontier = [start]
    for _ in range(paths.depth + 1):
        if any(v == paths.target and j < n for v, j in frontier):
            return True
        nxt = []
        for v, j in frontier:
            for w in paths.graph.get(v, ()):
                state = (w, advance(j, w))
                if state not in seen:
                    seen.add(state)
                    nxt.append(state)
        frontier = nxt
    return False


# --- recursive bounded walk oracle ---------------------------------------


def recursive_walks(
    succ: Dict[int, List[int]], source: int, target: int, depth: int
) -> List[Tuple[int, ...]]:
    out: List[Tuple[int, ...]] = []

    def go(walk: Tuple[int, ...]) -> None:
        if walk[-1] == target:
            out.append(walk)
        if len(walk) - 1 == depth:
            return
        for nxt in sorted(succ.get(walk[-1], [])):
            go(walk + (nxt,))

    go((source,))
    out.sort(key=lambda w: (len(w), w))
    return out


# --- all-vertex forward-BFS cut reference ---------------------------------


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


# --- recursive concrete path oracle --------------------------------------


def recursive_concrete_paths(
    automaton: HybridAutomaton, source: int, goal_loc: int, depth: int
) -> Iterator[ConcretePath]:
    """Every transition-level walk of length <= depth from source to
    goal_loc, BFS by length with transition-id tie-break (which refines the
    location-id order because transitions are declared per edge)."""
    succ: Dict[int, List[Tuple[int, int]]] = {}
    for t in automaton.transitions:
        succ.setdefault(t.source, []).append((t.id, t.target))
    for v in succ:
        succ[v].sort()

    # Reverse shortest distances for pruning.
    pred: Dict[int, List[int]] = {}
    for t in automaton.transitions:
        pred.setdefault(t.target, []).append(t.source)
    dist = {goal_loc: 0}
    frontier = [goal_loc]
    while frontier:
        nxt = []
        for v in frontier:
            for u in pred.get(v, ()):
                if u not in dist:
                    dist[u] = dist[v] + 1
                    nxt.append(u)
        frontier = nxt
    missing = depth + 1
    if dist.get(source, missing) > depth:
        return

    def exact(locs: List[int], trans: List[int], edges_left: int) -> Iterator[ConcretePath]:
        vertex = locs[-1]
        if edges_left == 0:
            if vertex == goal_loc:
                yield ConcretePath(tuple(locs), tuple(trans))
            return
        for tid, nxt_loc in succ.get(vertex, ()):
            if dist.get(nxt_loc, missing) <= edges_left - 1:
                locs.append(nxt_loc)
                trans.append(tid)
                yield from exact(locs, trans, edges_left - 1)
                locs.pop()
                trans.pop()

    for length in range(depth + 1):
        if dist.get(source, missing) <= length:
            yield from exact([source], [], length)


# --- dead constraints -----------------------------------------------------
#
# A reference for ``wpx.reach``'s dead-constraint test that shares no code
# with it: a constraint holds in no reachable state when one of its halves
# is refuted at init and no flow or jump can bring a state into it.


def _rate_interval(location: Location, expr: LinearExpression) -> Tuple[Fraction, Fraction]:
    """The interval of d(expr)/dt over ``location``'s rate box, by interval
    arithmetic: ``k*[lo, hi]`` is its two products in order, a sum adds the
    ends, and a variable without a rate contributes ``[0, 0]``."""
    low = high = Fraction(0)
    for var, k in expr.coefficients:
        iv = location.rates.interval(var)
        if iv is None:
            continue
        ends = sorted((k * Fraction(iv.lower), k * Fraction(iv.upper)))
        low += ends[0]
        high += ends[1]
    return low, high


def never_holds(
    automaton: HybridAutomaton, init: Tuple[int, Polyhedron], c: LinearConstraint
) -> bool:
    """Whether some half of ``c`` (``expr <= 0`` for LE, ``expr >= 0`` for
    GE, either for EQ) is refuted by the ``init`` region and its location's
    invariant (``split_simplex_rows``), every location's rates move expr
    away from that half, and no transition assigns a variable of expr."""
    expr = c.expression
    if any(
        t.reset.action(v).kind is ResetKind.ASSIGN_INTERVAL
        for t in automaton.transitions
        for v in expr.variables()
    ):
        return False
    init_loc, init_region = init
    start = init_region.constraints + automaton.location(init_loc).invariant.constraints
    halves = {Relation.LE: [Relation.LE], Relation.GE: [Relation.GE]}.get(
        c.relation, [Relation.LE, Relation.GE]
    )
    rates = [_rate_interval(loc, expr) for loc in automaton.locations]
    for half in halves:
        # Outside ``expr <= 0`` means expr > 0, kept when expr never falls.
        if half is Relation.LE and any(low < 0 for low, _high in rates):
            continue
        if half is Relation.GE and any(high > 0 for _low, high in rates):
            continue
        lp = LpProblem(automaton.variables, start + (LinearConstraint(expr, half),))
        if split_simplex_rows(lp_rows(lp)) is None:
            return True
    return False


# --- box pre-analysis -----------------------------------------------------
#
# A reference for ``wpx.reach``'s box pass that shares no code with it.  Each
# box maps a variable to closed rational bounds (None = unbounded), each a
# Fraction: region and reset bounds are read as Fractions where they enter,
# so every bound and every difference of two is one, and a division here
# never meets two ints.  An empty box is None: map 0 holds None for an init
# outside its invariant, and every transition is kept with its exit
# requirement, empty or not.  The maps are stepped one ``_extend`` call at
# a time, not by a generator.

_Box = Dict[str, Tuple[Optional[Rational], Optional[Rational]]]


def _box_from_region(region: Polyhedron, variables: Sequence[str]) -> Optional[_Box]:
    """Relax a polyhedron to per-variable bounds; multi-variable
    constraints are dropped (sound for overapproximation).  Every bound is a
    Fraction, whatever form the model holds its numbers in."""
    box: _Box = {v: (None, None) for v in variables}
    for c in region.constraints:
        coeffs = c.expression.coefficients
        if len(coeffs) != 1:
            continue
        (var, k), = coeffs
        # k*x + const REL 0
        bound = -Fraction(c.expression.constant) / k
        lo, hi = box[var]
        if c.relation is Relation.EQ:
            relations = (Relation.LE, Relation.GE)
        else:
            relations = (c.relation,)
        for rel in relations:
            at_most = (rel is Relation.LE) == (k > 0)
            if at_most:
                if hi is None or bound < hi:
                    hi = bound
            else:
                if lo is None or bound > lo:
                    lo = bound
        box[var] = (lo, hi)
    return box


def _box_intersect(a: Optional[_Box], b: Optional[_Box]) -> Optional[_Box]:
    if a is None or b is None:
        return None
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


def _box_join(a: Optional[_Box], b: Optional[_Box]) -> Optional[_Box]:
    if a is None:
        return b
    if b is None:
        return a
    out: _Box = {}
    for v in a:
        alo, ahi = a[v]
        blo, bhi = b[v]
        lo = None if alo is None or blo is None else min(alo, blo)
        hi = None if ahi is None or bhi is None else max(ahi, bhi)
        out[v] = (lo, hi)
    return out


def _box_dwell(
    entry: _Box,
    rates,
    variables: Sequence[str],
    exit_box: Optional[_Box],
) -> Optional[_Box]:
    """Possible exit valuations after some dwell t >= 0 whose endpoint lies
    in ``exit_box``; per-variable dwell coupling is relaxed to a shared
    dwell interval."""
    if exit_box is None:
        return None
    intervals = dict(rates.intervals)
    t_lo = Fraction(0)
    t_hi: Optional[Rational] = None

    def tighten(const: Rational, slope: Rational) -> bool:
        # Require const + slope*t <= 0 for some t in [t_lo, t_hi].
        nonlocal t_lo, t_hi
        if slope == 0:
            return const <= 0
        bound = -const / slope
        if slope > 0:
            if t_hi is None or bound < t_hi:
                t_hi = bound
        else:
            if bound > t_lo:
                t_lo = bound
        return True

    for var in variables:
        iv = intervals.get(var)
        if iv is None:
            continue
        a_lo, a_hi = entry[var]
        e_lo, e_hi = exit_box[var]
        # Reachable band at dwell t: [a_lo + lower*t, a_hi + upper*t].
        if e_hi is not None and a_lo is not None:
            if not tighten(a_lo - e_hi, iv.lower):
                return None
        if e_lo is not None and a_hi is not None:
            if not tighten(e_lo - a_hi, -iv.upper):
                return None
    if t_hi is not None and t_lo > t_hi:
        return None

    out: _Box = {}
    for var in variables:
        iv = intervals.get(var)
        if iv is None:
            out[var] = entry[var]
            continue
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


class LazyBoxSteps:
    """The box abstraction's forward step maps for one automaton, init and
    depth, shared by every check of problems that have them.

    Map i holds, per location, the box of the valuations on entering it
    after i transitions.  Maps are computed on first use and kept, so
    checks that differ only in their goal (``model.alpha``) step the
    abstraction once between them, and building a pass does no step work.
    The list stops at an empty map, at a map that repeats an earlier one
    (the next map depends only on the current one, so every later map
    repeats a goal test that already failed), or at the depth.  The box of
    each region is built once per pass, on first use.
    """

    def __init__(self, problem: PlanningProblem) -> None:
        self.domain = problem.domain
        self.init = problem.init
        self.depth = problem.depth
        self.maps: List[Dict[int, Optional[_Box]]] = []
        self._stopped = False
        self._seen: set = set()
        # Keyed by id; the region is kept alongside so the id stays its own.
        self._boxes: Dict[int, Tuple[Polyhedron, Optional[_Box]]] = {}
        self._exits: Dict[int, List[Tuple[Transition, Optional[_Box]]]] = {}
        self._outgoing: Optional[Dict[int, List[Transition]]] = None

    def region_box(self, region: Polyhedron) -> Optional[_Box]:
        hit = self._boxes.get(id(region))
        if hit is None:
            hit = self._boxes[id(region)] = (
                region, _box_from_region(region, self.domain.variables)
            )
        return hit[1]

    def inv_box(self, loc_id: int) -> Optional[_Box]:
        return self.region_box(self.domain.location(loc_id).invariant)

    def exits(self, loc_id: int) -> List[Tuple[Transition, Optional[_Box]]]:
        """The outgoing transitions, each with its exit requirement
        inv(source) & guard."""
        out = self._exits.get(loc_id)
        if out is None:
            if self._outgoing is None:
                self._outgoing = {}
                for trans in self.domain.transitions:
                    self._outgoing.setdefault(trans.source, []).append(trans)
            out = self._exits[loc_id] = [
                (trans, _box_intersect(self.inv_box(loc_id), self.region_box(trans.guard)))
                for trans in self._outgoing.get(loc_id, ())
            ]
        return out

    def map(self, step: int) -> Optional[Dict[int, Optional[_Box]]]:
        """Map ``step``, computing the maps up to it on first use; None when
        the list stops before it."""
        while len(self.maps) <= step and not self._stopped:
            self._extend()
        return self.maps[step] if step < len(self.maps) else None

    def _extend(self) -> None:
        if not self.maps:
            init_loc, init_region = self.init
            nxt = {init_loc: _box_intersect(self.region_box(init_region), self.inv_box(init_loc))}
        else:
            nxt = self._successor(self.maps[-1])
            key = tuple(
                (loc_id, tuple(box[v] for v in self.domain.variables))
                for loc_id, box in sorted(nxt.items())
            )
            if not nxt or key in self._seen:
                self._stopped = True
                return
            self._seen.add(key)
        self.maps.append(nxt)
        self._stopped = len(self.maps) > self.depth

    def _successor(self, current: Dict[int, Optional[_Box]]) -> Dict[int, Optional[_Box]]:
        """The map one transition after ``current``."""
        variables = self.domain.variables
        nxt: Dict[int, Optional[_Box]] = {}
        for loc_id, entry in current.items():
            if entry is None:
                continue
            loc = self.domain.location(loc_id)
            for trans, exit_req in self.exits(loc_id):
                exit_box = _box_dwell(entry, loc.rates, variables, exit_req)
                if exit_box is None:
                    continue
                landed: _Box = {}
                for var in variables:
                    act = trans.reset.action(var)
                    if act.kind is ResetKind.KEEP:
                        landed[var] = exit_box[var]
                    else:
                        landed[var] = (Fraction(act.lower), Fraction(act.upper))
                landed2 = _box_intersect(landed, self.inv_box(trans.target))
                if landed2 is None:
                    continue
                nxt[trans.target] = _box_join(nxt.get(trans.target), landed2)
        return nxt


# --- per-check box pre-analysis ------------------------------------------


def per_check_box_unreachable(problem: PlanningProblem) -> bool:
    """True when the box abstraction proves no bounded run reaches the
    goal; False is inconclusive.  The box pre-analysis as one check ran it
    before ``wpx.reach.BoxSteps`` shared the step maps between checks:
    every box and every map is rebuilt in each call."""
    automaton = problem.domain
    variables = automaton.variables
    init_loc, init_region = problem.init
    goal_loc = problem.goal.location

    outgoing: Dict[int, List[Transition]] = {}
    for trans in automaton.transitions:
        outgoing.setdefault(trans.source, []).append(trans)

    # The boxes of the locations and transitions the walk reaches, each
    # built once per call, on first use.
    @cache
    def inv_box(loc_id: int) -> Optional[_Box]:
        return _box_from_region(automaton.location(loc_id).invariant, variables)

    @cache
    def exits(loc_id: int) -> List[Tuple[Transition, Optional[_Box]]]:
        """The outgoing transitions, each with its exit requirement
        inv(source) & guard."""
        return [
            (trans, _box_intersect(inv_box(loc_id), _box_from_region(trans.guard, variables)))
            for trans in outgoing.get(loc_id, ())
        ]

    goal_box = _box_intersect(
        _box_from_region(problem.goal.region, variables), inv_box(goal_loc)
    )

    def goal_hit(entry: Optional[_Box]) -> bool:
        if entry is None:
            return False
        # The goal is tested at the exit of a final dwell in the goal
        # location.
        loc = automaton.location(goal_loc)
        exit_box = _box_dwell(entry, loc.rates, variables, inv_box(goal_loc))
        return _box_intersect(exit_box, goal_box) is not None

    current: Dict[int, Optional[_Box]] = {
        init_loc: _box_intersect(
            _box_from_region(init_region, variables), inv_box(init_loc)
        )
    }
    if init_loc == goal_loc and goal_hit(current.get(init_loc)):
        return False
    # The next map depends only on the current one, so once a map repeats
    # every later step repeats a goal test that already failed.
    seen = set()
    for _ in range(problem.depth):
        nxt: Dict[int, Optional[_Box]] = {}
        for loc_id, entry in current.items():
            if entry is None:
                continue
            loc = automaton.location(loc_id)
            for trans, exit_req in exits(loc_id):
                exit_box = _box_dwell(entry, loc.rates, variables, exit_req)
                if exit_box is None:
                    continue
                landed: _Box = {}
                for var in variables:
                    act = trans.reset.action(var)
                    if act.kind is ResetKind.KEEP:
                        landed[var] = exit_box[var]
                    else:
                        landed[var] = (Fraction(act.lower), Fraction(act.upper))
                landed2 = _box_intersect(landed, inv_box(trans.target))
                if landed2 is None:
                    continue
                nxt[trans.target] = _box_join(nxt.get(trans.target), landed2)
        current = nxt
        if not current:
            break
        if goal_hit(current.get(goal_loc)):
            return False
        key = tuple(
            (loc_id, tuple(box[v] for v in variables))
            for loc_id, box in sorted(current.items())
        )
        if key in seen:
            return True
        seen.add(key)
    return True


def graph_from_succ(succ: Dict[int, List[int]]) -> LocationGraph:
    """The location graph of a successor map, as ``build_graph`` returns it."""
    return {u: tuple(sorted(set(vs))) for u, vs in sorted(succ.items()) if vs}


def random_digraph(rng: random.Random, max_vertices: int = 6):
    n = rng.randint(2, max_vertices)
    succ: Dict[int, List[int]] = {}
    for u in range(n):
        for v in range(n):
            if rng.random() < 0.35:
                succ.setdefault(u, []).append(v)
    return n, succ


# --- random small automata -----------------------------------------------


def random_automaton(
    rng: random.Random, max_locs: int = 4, denominator: int = 1
) -> HybridAutomaton:
    """A small automaton with one clock-like variable and one resource.

    Shapes chosen so that SAT and UNSAT both occur with useful frequency.
    The resource's rate bounds, the region constants and the resource's
    reset bounds are multiples of ``1/denominator``; with the default 1
    they are integers.
    """

    def draw(lo: int, hi: int) -> Fraction:
        return Fraction(rng.randint(lo * denominator, hi * denominator), denominator)

    n = rng.randint(2, max_locs)
    variables = ("x", "y")
    locations = []
    for i in range(n):
        inv = []
        if rng.random() < 0.7:
            inv.append(
                LinearConstraint(LinearExpression.build({"x": 1}, -draw(2, 8)), Relation.LE)
            )
        if rng.random() < 0.5:
            inv.append(
                LinearConstraint(LinearExpression.build({"y": -1}, draw(-2, 2)), Relation.LE)
            )
        lo = draw(-2, 1)
        hi = lo + draw(0, 2)
        locations.append(
            Location(
                id=i,
                name="n%d" % i,
                invariant=Polyhedron(tuple(inv)),
                rates=RateSpec.build({"x": (1, 1), "y": (lo, hi)}),
            )
        )
    transitions = []
    for _ in range(rng.randint(1, 2 * n)):
        src = rng.randrange(n)
        dst = rng.randrange(n)
        guard = []
        if rng.random() < 0.6:
            guard.append(
                LinearConstraint(
                    LinearExpression.build({"x": -1}, draw(0, 3)), Relation.LE
                )
            )
        resets = {}
        if rng.random() < 0.5:
            resets["x"] = (0, 0)
        if rng.random() < 0.3:
            a = draw(-1, 2)
            resets["y"] = (a, a + draw(0, 1))
        transitions.append(
            Transition(
                id=len(transitions),
                source=src,
                target=dst,
                label="go",
                guard=Polyhedron(tuple(guard)),
                reset=Reset.build(resets),
            )
        )
    init_region = Polyhedron(
        (
            LinearConstraint(LinearExpression.build({"x": 1}), Relation.EQ),
            LinearConstraint(
                LinearExpression.build({"y": 1}, -draw(0, 3)), Relation.EQ
            ),
        )
    )
    return HybridAutomaton(
        locations=tuple(locations),
        variables=variables,
        transitions=tuple(transitions),
        labels=("go",),
        initial=(0, init_region),
    )


# --- model serialization ---------------------------------------------------


def _format_expression(expr: LinearExpression) -> str:
    parts: List[str] = []
    for var, coeff in expr.coefficients:
        if coeff == 1:
            term = var
        elif coeff == -1:
            term = "-" + var
        else:
            term = "%s*%s" % (coeff, var)
        if parts and not term.startswith("-"):
            parts.append("+ " + term)
        elif parts:
            parts.append("- " + term.lstrip("-"))
        else:
            parts.append(term)
    if expr.constant != 0 or not parts:
        c = expr.constant
        if parts:
            parts.append(("+ " if c >= 0 else "- ") + str(abs(c)))
        else:
            parts.append(str(c))
    return " ".join(parts)


def _format_constraint(c: LinearConstraint) -> str:
    return "%s %s 0" % (_format_expression(c.expression), c.relation.value)


def serialize_model(automaton: HybridAutomaton) -> str:
    """Render an automaton back to the ``.lha`` grammar (round-trip stable)."""
    lines: List[str] = []
    lines.append("vars " + " ".join(automaton.variables))
    lines.append("")
    for loc in automaton.locations:
        lines.append("location %s {" % loc.name)
        for c in loc.invariant.constraints:
            lines.append("  inv: %s;" % _format_constraint(c))
        for var, iv in loc.rates.intervals:
            lines.append("  rate %s in [%s, %s];" % (var, iv.lower, iv.upper))
        lines.append("}")
    lines.append("")
    for t in automaton.transitions:
        src = automaton.location(t.source).name
        dst = automaton.location(t.target).name
        lines.append("trans %s -> %s {" % (src, dst))
        lines.append("  label: %s;" % t.label)
        for c in t.guard.constraints:
            lines.append("  guard: %s;" % _format_constraint(c))
        for var, act in t.reset.actions:
            if act.kind is ResetKind.ASSIGN_INTERVAL:
                lines.append("  reset %s in [%s, %s];" % (var, act.lower, act.upper))
        lines.append("}")
    lines.append("")
    init_loc, init_region = automaton.initial
    body = " ".join("%s;" % _format_constraint(c) for c in init_region.constraints)
    lines.append("init %s { %s }" % (automaton.location(init_loc).name, body))
    lines.append("")
    return "\n".join(lines)


# --- the eager tokenizer ----------------------------------------------------

# The parser's token grammar as one verbose pattern, tried at every offset in
# turn; it shares nothing with ``wpx.textio``.
_REFERENCE_TOKEN_RE = re.compile(
    r"""
      (?P<skip>(?:[ \t\r\n]+|\#[^\n]*)+)
    | (?P<number>\d+(?:\.\d+)?(?:/\d+)?)
    | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<arrow>->)
    | (?P<strict>!=|<(?!=)|>(?!=))
    | (?P<op><=|>=|=|\{|\}|\[|\]|\(|\)|,|;|:|\+|-|\*)
    | (?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL,
)


def reference_tokens(text: str) -> List[Tuple[str, str, int]]:
    """Every token of ``text`` as ``(kind, text, offset)``, found one match
    at a time, with an ``op`` token's kind its text, ``bad`` and ``strict``
    tokens kept, and a final ``("eof", "", len(text))``."""
    tokens: List[Tuple[str, str, int]] = []
    for m in _REFERENCE_TOKEN_RE.finditer(text):
        kind, value = m.lastgroup, m.group()
        if kind != "skip":
            tokens.append((value if kind == "op" else kind, value, m.start()))
    tokens.append(("eof", "", len(text)))
    return tokens
