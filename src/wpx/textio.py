"""Text formats: the ``.lha`` model grammar, the ``.prob`` problem grammar,
and the JSON explanation report.

The model grammar is line-oriented and sectioned::

    vars b t

    location loc1 {
      inv: b >= 0; b <= 10;
      rate b in [-2, -2];
      rate t in [1, 1];
    }

    trans loc1 -> loc2 {
      label: move;
      guard: t >= 1;
      reset t in [0, 0];
    }

    init loc1 { b = 10; t = 0; }

Constraints are conjunctions of closed linear comparisons
(``expr <= expr``, ``expr >= expr``, ``expr = expr``); strict comparisons
are rejected with a dedicated message.  Repeated ``inv:`` and ``guard:``
clauses are conjoined; a second ``init`` section, a second ``label:`` in
one transition, a second ``rate`` or ``reset`` for one variable in one
block, or a second declaration of one variable is a ParseError at the
repeat, and a location without a rate for every variable is one at its
``location`` keyword.  Rational literals may be integers, exact decimals
(``1.25``) or fractions of integers (``7/2``) with a nonzero denominator.
``#`` starts a comment.
"""

from __future__ import annotations

import json
import re
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .model import (
    GoalSpec,
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
    Transition,
    validate_model,
)


class ParseError(ValueError):
    """An input error.  Its text names the file (``source``) and the
    position (``line``, ``column``) that it refers to, where they are
    known."""

    def __init__(
        self,
        message: str,
        line: Optional[int] = None,
        column: Optional[int] = None,
        source: Optional[str] = None,
    ):
        super().__init__(message)
        self.message = message
        self.line = line
        self.column = column
        self.source = source

    def __str__(self) -> str:
        where = [] if self.source is None else [self.source]
        if self.line is not None:
            where.append("line %d, column %d" % (self.line, self.column))
        return ": ".join(where + [self.message])


@contextmanager
def reading(source: str) -> Iterator[None]:
    """Name ``source`` in a ParseError raised in the block."""
    try:
        yield
    except ParseError as exc:
        if exc.source is None:
            exc.source = source
        raise


# Kept for wpxbench/run.py and wpxbench/tests/test_gen.py, which read
# ``.problem``.
@dataclass(frozen=True)
class ProblemDocument:
    problem: PlanningProblem


_TOKEN_RE = re.compile(
    r"""
      (?P<ws>[ \t\r]+)
    | (?P<comment>\#[^\n]*)
    | (?P<newline>\n)
    | (?P<number>\d+(?:\.\d+)?(?:/\d+)?)
    | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<arrow>->)
    | (?P<strict_ne>!=|<(?!=)|>(?!=))
    | (?P<op><=|>=|=|\{|\}|\[|\]|\(|\)|,|;|:|\+|-|\*)
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    line: int
    column: int


def _tokenize(text: str) -> List[_Token]:
    tokens: List[_Token] = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError("unexpected character %r" % text[pos], line, col)
        kind = m.lastgroup or ""
        value = m.group()
        if kind == "newline":
            line += 1
            col = 1
        else:
            if kind == "strict_ne":
                raise ParseError(
                    "strict comparison %r is not supported; only closed constraints "
                    "(<=, >=, =) are accepted" % value,
                    line,
                    col,
                )
            if kind not in ("ws", "comment"):
                tokens.append(_Token(kind if kind != "op" else value, value, line, col))
            col += len(value)
        pos = m.end()
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.index = 0

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def next(self) -> _Token:
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def fail(self, message: str) -> "ParseError":
        tok = self.peek()
        return ParseError(message, tok.line, tok.column)

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise self.fail("expected %r, found %r" % (kind, tok.text or "end of input"))
        return self.next()

    def accept(self, kind: str) -> Optional[_Token]:
        if self.peek().kind == kind:
            return self.next()
        return None

    def number(self) -> Rational:
        """The next token, a number literal, as an exact rational."""
        tok = self.expect("number")
        try:
            return Fraction(tok.text)
        except (ValueError, ZeroDivisionError):
            raise ParseError("malformed number %r" % tok.text, tok.line, tok.column)

    # --- rationals and linear expressions -------------------------------

    def parse_rational(self) -> Rational:
        sign = 1
        while True:
            if self.accept("-"):
                sign = -sign
            elif self.accept("+"):
                pass
            else:
                break
        return sign * self.number()

    def parse_linear_expression(self) -> LinearExpression:
        coeffs: Dict[str, Rational] = {}
        constant = Fraction(0)
        first = True
        while True:
            tok = self.peek()
            if first:
                sign = Fraction(1)
                if tok.kind in ("+", "-"):
                    sign = Fraction(-1) if tok.kind == "-" else Fraction(1)
                    self.next()
            else:
                if tok.kind not in ("+", "-"):
                    break
                sign = Fraction(-1) if tok.kind == "-" else Fraction(1)
                self.next()
            first = False
            tok = self.peek()
            if tok.kind == "number":
                value = self.number()
                if self.accept("*"):
                    var = self.expect("name").text
                    coeffs[var] = coeffs.get(var, Fraction(0)) + sign * value
                else:
                    constant += sign * value
            elif tok.kind == "name":
                var = self.next().text
                coeffs[var] = coeffs.get(var, Fraction(0)) + sign
            else:
                raise self.fail("expected a number or variable")
        return LinearExpression.build(coeffs, constant)

    def parse_constraint(self) -> LinearConstraint:
        left = self.parse_linear_expression()
        tok = self.peek()
        if tok.kind == "<=":
            relation = Relation.LE
        elif tok.kind == ">=":
            relation = Relation.GE
        elif tok.kind == "=":
            relation = Relation.EQ
        else:
            raise self.fail("expected a relation (<=, >=, =)")
        self.next()
        right = self.parse_linear_expression()
        coeffs = dict(left.coefficients)
        for var, coeff in right.coefficients:
            coeffs[var] = coeffs.get(var, Fraction(0)) - coeff
        expr = LinearExpression.build(coeffs, left.constant - right.constant)
        return LinearConstraint(expr, relation)

    def parse_constraint_list(self) -> List[LinearConstraint]:
        """Semicolon-separated constraints, stopping before '}' or a keyword."""
        out: List[LinearConstraint] = []
        while True:
            out.append(self.parse_constraint())
            if not self.accept(";"):
                break
            if self.peek().kind in ("}", "eof"):
                break
            if self.peek().kind == "name" and self.peek().text in ("rate", "inv", "label", "guard", "reset"):
                break
        return out

    def parse_interval(self) -> Tuple[Rational, Rational]:
        self.expect("[")
        lo = self.parse_rational()
        self.expect(",")
        hi = self.parse_rational()
        self.expect("]")
        return lo, hi

    def parse_interval_clause(self, into: Dict[str, Tuple[Rational, Rational]]) -> None:
        """``rate|reset <var> in [lo, hi]`` with an optional ';', stored in
        ``into``; a second clause for the same variable is a ParseError."""
        clause = self.next()
        var = self.expect("name").text
        in_tok = self.expect("name")
        if in_tok.text != "in":
            raise ParseError("expected 'in'", in_tok.line, in_tok.column)
        if var in into:
            raise ParseError(
                "repeated %s for variable %r" % (clause.text, var), clause.line, clause.column
            )
        into[var] = self.parse_interval()
        self.accept(";")


def _keyword(parser: _Parser) -> Optional[str]:
    tok = parser.peek()
    if tok.kind == "name":
        return tok.text
    return None


def parse_model(text: str, source: str = "<string>") -> HybridAutomaton:
    """Parse an ``.lha`` document into a validated automaton; a ParseError
    names ``source``."""
    with reading(source):
        return _parse_automaton(text)


def _parse_automaton(text: str) -> HybridAutomaton:
    p = _Parser(text)
    variables: List[str] = []
    locations: List[Location] = []
    loc_ids: Dict[str, int] = {}
    transitions: List[Transition] = []
    labels: List[str] = []
    initial: Optional[Tuple[int, Polyhedron]] = None
    pending_transitions: List[Tuple[str, str, str, Polyhedron, Reset, int, int]] = []
    # The ``location`` keyword of each location, where its missing rates
    # are reported.
    loc_toks: List[_Token] = []

    while p.peek().kind != "eof":
        word = _keyword(p)
        if word == "vars":
            p.next()
            while p.peek().kind == "name" and p.peek().text not in (
                "vars", "location", "trans", "init"
            ):
                var_tok = p.next()
                if var_tok.text in variables:
                    raise ParseError(
                        "duplicate variable declaration %r" % var_tok.text,
                        var_tok.line, var_tok.column,
                    )
                variables.append(var_tok.text)
        elif word == "location":
            loc_toks.append(p.next())
            name_tok = p.expect("name")
            if name_tok.text in loc_ids:
                raise ParseError("duplicate location %r" % name_tok.text, name_tok.line, name_tok.column)
            p.expect("{")
            inv_constraints: List[LinearConstraint] = []
            rates: Dict[str, Tuple[Rational, Rational]] = {}
            while not p.accept("}"):
                inner = _keyword(p)
                if inner == "inv":
                    p.next()
                    p.expect(":")
                    inv_constraints.extend(p.parse_constraint_list())
                elif inner == "rate":
                    p.parse_interval_clause(rates)
                else:
                    raise p.fail("expected 'inv', 'rate' or '}'")
            loc_ids[name_tok.text] = len(locations)
            locations.append(
                Location(
                    id=len(locations),
                    name=name_tok.text,
                    invariant=Polyhedron(tuple(inv_constraints)),
                    rates=RateSpec.build(rates),
                )
            )
        elif word == "trans":
            p.next()
            src_tok = p.expect("name")
            p.expect("arrow")
            dst_tok = p.expect("name")
            p.expect("{")
            label: Optional[str] = None
            guard_constraints: List[LinearConstraint] = []
            resets: Dict[str, Tuple[Rational, Rational]] = {}
            while not p.accept("}"):
                inner = _keyword(p)
                if inner == "label":
                    if label is not None:
                        raise p.fail("repeated 'label' clause")
                    p.next()
                    p.expect(":")
                    label = p.expect("name").text
                    p.accept(";")
                elif inner == "guard":
                    p.next()
                    p.expect(":")
                    guard_constraints.extend(p.parse_constraint_list())
                elif inner == "reset":
                    p.parse_interval_clause(resets)
                else:
                    raise p.fail("expected 'label', 'guard', 'reset' or '}'")
            if label is None:
                label = "act"
            pending_transitions.append(
                (src_tok.text, dst_tok.text, label,
                 Polyhedron(tuple(guard_constraints)), Reset.build(resets),
                 src_tok.line, src_tok.column)
            )
            if label not in labels:
                labels.append(label)
        elif word == "init":
            if initial is not None:
                raise p.fail("repeated 'init' section")
            p.next()
            name_tok = p.expect("name")
            init_constraints: List[LinearConstraint] = []
            p.expect("{")
            if p.peek().kind != "}":
                init_constraints.extend(p.parse_constraint_list())
            p.expect("}")
            if name_tok.text not in loc_ids:
                raise ParseError("unknown initial location %r" % name_tok.text, name_tok.line, name_tok.column)
            initial = (loc_ids[name_tok.text], Polyhedron(tuple(init_constraints)))
        else:
            raise p.fail("expected 'vars', 'location', 'trans' or 'init'")

    if initial is None:
        raise ParseError("missing 'init' section", p.peek().line, p.peek().column)

    for src, dst, label, guard, reset, line, col in pending_transitions:
        if src not in loc_ids:
            raise ParseError("unknown location %r in transition" % src, line, col)
        if dst not in loc_ids:
            raise ParseError("unknown location %r in transition" % dst, line, col)
        transitions.append(
            Transition(
                id=len(transitions),
                source=loc_ids[src],
                target=loc_ids[dst],
                label=label,
                guard=guard,
                reset=reset,
            )
        )

    # Variables may be declared after a location, so its rates are checked
    # once every declaration is read.
    for loc, tok in zip(locations, loc_toks):
        for var in variables:
            if loc.rates.interval(var) is None:
                raise ParseError(
                    "location %s missing rate interval for variable %r" % (loc.name, var),
                    tok.line, tok.column,
                )

    automaton = HybridAutomaton(
        locations=tuple(locations),
        variables=tuple(variables),
        transitions=tuple(transitions),
        labels=tuple(labels),
        initial=initial,
    )
    violations = validate_model(automaton)
    if violations:
        raise ParseError("; ".join(violations))
    return automaton


def split_model_line(text: str) -> Tuple[Optional[str], str]:
    """The path a ``.prob`` document's ``model`` line names (None if none),
    and the text with that line blanked.  The path ends at the line's end or
    at a ``#`` comment; a second ``model`` line is a ParseError."""
    ref: Optional[str] = None
    seen = False
    lines = text.split("\n")
    for i, raw in enumerate(lines):
        words = raw.split("#", 1)[0].split(None, 1)
        if words[:1] == ["model"]:
            if seen:
                raise ParseError("repeated 'model' section", i + 1, raw.index("model") + 1)
            seen = True
            ref = words[1].strip() if len(words) > 1 else None
            lines[i] = ""
    return ref, "\n".join(lines)


def parse_problem(
    text: str, automaton: HybridAutomaton, source: str = "<string>"
) -> ProblemDocument:
    """Parse a ``.prob`` document against an already-parsed automaton; a
    ParseError names ``source``.

    Sections: optional ``model <path>``, optional ``init <loc> { ... }``
    override, mandatory ``goal <loc> [{ ... }]`` and ``depth <n>``.
    """
    with reading(source):
        return ProblemDocument(problem=_parse_problem(text, automaton))


def _parse_problem(text: str, automaton: HybridAutomaton) -> PlanningProblem:
    _ref, text = split_model_line(text)
    p = _Parser(text)
    init = automaton.initial
    goal: Optional[GoalSpec] = None
    depth: Optional[int] = None

    def resolve(name_tok: _Token) -> int:
        loc = automaton.location_by_name(name_tok.text)
        if loc is None:
            raise ParseError("unknown location %r" % name_tok.text, name_tok.line, name_tok.column)
        return loc.id

    def region(section: str, name_tok: _Token, constraints: List[LinearConstraint]) -> Polyhedron:
        poly = Polyhedron(tuple(constraints))
        for v in poly.variables():
            if v not in automaton.variables:
                raise ParseError(
                    "%s region references undeclared variable %r" % (section, v),
                    name_tok.line, name_tok.column,
                )
        return poly

    seen: Set[str] = set()
    while p.peek().kind != "eof":
        word = _keyword(p)
        if word in seen:
            raise p.fail("repeated %r section" % word)
        seen.add(word)
        if word == "init":
            p.next()
            name_tok = p.expect("name")
            constraints: List[LinearConstraint] = []
            p.expect("{")
            if p.peek().kind != "}":
                constraints.extend(p.parse_constraint_list())
            p.expect("}")
            init = (resolve(name_tok), region("init", name_tok, constraints))
        elif word == "goal":
            p.next()
            name_tok = p.expect("name")
            constraints = []
            if p.accept("{"):
                if p.peek().kind != "}":
                    constraints.extend(p.parse_constraint_list())
                p.expect("}")
            goal = GoalSpec(
                location=resolve(name_tok), region=region("goal", name_tok, constraints)
            )
        elif word == "depth":
            p.next()
            tok = p.expect("number")
            try:
                depth = int(tok.text)
            except ValueError:
                raise ParseError("depth must be a non-negative integer", tok.line, tok.column)
        else:
            raise p.fail("expected 'model', 'init', 'goal' or 'depth'")

    if goal is None:
        raise ParseError("missing 'goal' section", p.peek().line, p.peek().column)
    if depth is None:
        raise ParseError("missing 'depth' section", p.peek().line, p.peek().column)
    return PlanningProblem(domain=automaton, init=init, goal=goal, depth=depth)


# --- serialization -------------------------------------------------------


def format_rational(value: Rational) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return "%d/%d" % (value.numerator, value.denominator)


def _json_number(value: Rational):
    if value.denominator == 1:
        return value.numerator
    return format_rational(value)


def plan_json(steps: Sequence[Tuple[Rational, str]], makespan: Rational) -> dict:
    """A plan's ``steps`` (``(time, label)`` pairs) and makespan as JSON:
    integers as JSON integers, other rationals as ``p/q`` strings."""
    return {
        "steps": [[_json_number(t), label] for t, label in steps],
        "makespan": _json_number(makespan),
    }


def serialize_report(report) -> str:
    """Serialize an ExplanationReport to deterministic JSON.

    Non-integral rationals are emitted as exact ``p/q`` strings.
    """
    problem = report.problem
    domain = problem.domain
    doc = {
        "problem": {
            "name": report.problem_name,
            "init_location": domain.location(problem.init[0]).name,
            "goal_location": domain.location(problem.goal.location).name,
            "depth": problem.depth,
        },
        "path_count": report.path_count,
        "chain": [e.location_name for e in report.chain or ()],
        "verdicts": [
            {
                "location": v.location_name,
                "status": "unreachable" if v.status == "UNSAT" else "reachable",
                "paths_checked": v.paths_checked,
            }
            for v in report.verdicts
        ],
        "explanation": {"outcome": report.outcome, "location": report.explanation_name},
        "timings_ms": {
            "path_enumeration": report.timings_ms["path_enumeration"],
            "lcs": report.timings_ms["lcs"],
            "reachability": report.timings_ms["reachability"],
        },
    }
    if report.annotations:
        doc["annotations"] = list(report.annotations)
    if report.witness_plan is not None:
        doc["witness_plan"] = plan_json(
            report.witness_plan.steps, report.witness_plan.makespan
        )
    return json.dumps(doc, indent=2, sort_keys=False)
