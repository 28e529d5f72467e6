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

Sections may come in any order: a section may name a variable or a
location that a later one declares.  A ``location`` block takes ``inv:``
and ``rate`` clauses and a ``trans`` block ``label:``, ``guard:`` and
``reset`` clauses, each with an optional ``;``.  In a ``.prob`` document,
a line inside ``{ ... }`` is never the ``model`` line.

Constraints are conjunctions of closed linear comparisons
(``expr <= expr``, ``expr >= expr``, ``expr = expr``); strict comparisons
are rejected with a dedicated message.  Repeated ``inv:`` and ``guard:``
clauses are conjoined; a second ``init`` section, a second ``label:`` in
one transition, a second ``rate`` or ``reset`` for one variable in one
block, or a second declaration of one variable is a ParseError at the
repeat, and a location without a rate for every variable is one at its
``location`` keyword.  The clause words ``inv``, ``rate``, ``label``,
``guard`` and ``reset`` cannot name a variable.  Rational literals may be
integers, exact decimals (``1.25``) or fractions of integers (``7/2``) with
a nonzero denominator.  ``#`` starts a comment.

A token is its index in one scan of the text; its line and column are
found by scanning the text again, only when an error at it is raised.
Equal regions, resets and rate tables of one document are one object:
the parser keeps one ``Polyhedron`` per constraint list, one ``Reset`` per
reset map and one ``RateSpec`` per rate table, found by plain tuples of
their values, so a pass that keys its work by object (``reach.BoxSteps``)
does it once per distinct one.
"""

from __future__ import annotations

import json
import re
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import islice
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
    rat,
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


# The token grammar, stated once: ``(kind, pattern)`` alternatives in the
# order they are tried.  An ``op`` token's kind is its text, ``eof`` is the
# end of the text and ``bad`` is one character that no other kind matches.
_GRAMMAR = (
    ("number", r"\d+(?:\.\d+)?(?:/\d+)?"),
    ("name", r"[A-Za-z_][A-Za-z0-9_]*"),
    ("arrow", r"->"),
    ("strict", r"!=|<(?!=)|>(?!=)"),
    ("op", r"<=|>=|=|[{}\[\](),;:+*-]"),
    ("eof", r"\Z"),
    ("bad", r"."),
)
# The classifier: the group that matches a token's text names its kind.
_TOKEN_RE = re.compile("|".join("(?P<%s>%s)" % rule for rule in _GRAMMAR), re.DOTALL)
# The blanks between tokens: ASCII space, tab, CR and LF, and no other.
_BLANKS = " \t\r\n"
_BLANK_RUN = "[%s]+" % _BLANKS
# The scan: each match skips blanks and comments and captures one token.
_SCAN_RE = re.compile(
    r"(?:%s|#[^\n]*)*(%s)" % (_BLANK_RUN, "|".join(pattern for _, pattern in _GRAMMAR)),
    re.DOTALL,
)
# The kinds that fail a document at once, and their messages.
_REJECTED = {
    "bad": "unexpected character %r",
    "strict": "strict comparison %r is not supported; only closed constraints "
    "(<=, >=, =) are accepted",
}
_RELATIONS = {"<=": Relation.LE, ">=": Relation.GE, "=": Relation.EQ}

# The words that open a clause inside a ``location`` or ``trans`` block; a
# constraint list stops before one, so none can name a variable.
_CLAUSE_WORDS = frozenset(("inv", "rate", "label", "guard", "reset"))
_MODEL_SECTIONS = ("vars", "location", "trans", "init")


class _Kinds(dict):
    """One document's token kinds by text, each classified on first sight."""

    def __missing__(self, text: str) -> str:
        group = _TOKEN_RE.fullmatch(text).lastgroup
        kind = self[text] = text if group == "op" else group
        return kind


def _scan(text: str) -> Tuple[List[str], List[str]]:
    """The kinds and the texts of ``text``'s tokens, the last one ``eof``."""
    texts = _SCAN_RE.findall(text)
    if texts[-2:] == ["", ""]:
        # A text that ends in a blank or a comment scans to an end that
        # takes them and then to an empty one; one end is kept.
        del texts[-1]
    return list(map(_Kinds().__getitem__, texts)), texts


class _Parser:
    """A cursor over one document's tokens.  A token is its index into the
    parallel lists ``kinds`` and ``texts``."""

    def __init__(self, text: str):
        self.text = text
        self.kinds, self.texts = _scan(text)
        self.index = 0
        # The document's one object per distinct value, found by a plain
        # tuple of the value (``region``, ``interval_map``).
        self.regions: Dict[tuple, Polyhedron] = {}
        self.interval_maps: Dict[tuple, object] = {}
        if not _REJECTED.keys().isdisjoint(self.kinds):
            at = next(i for i, kind in enumerate(self.kinds) if kind in _REJECTED)
            raise self.error(_REJECTED[self.kinds[at]] % self.texts[at], at)

    def error(self, message: str, at: Optional[int] = None) -> ParseError:
        """A ParseError at token ``at`` (the next token if None), whose
        offset one re-scan of the text finds."""
        at = self.index if at is None else at
        offset = next(islice(_SCAN_RE.finditer(self.text), at, None)).start(1)
        line_start = self.text.rfind("\n", 0, offset) + 1
        return ParseError(message, self.text.count("\n", 0, offset) + 1, offset - line_start + 1)

    def peek(self) -> str:
        """The next token's kind."""
        return self.kinds[self.index]

    def next(self) -> int:
        self.index += 1
        return self.index - 1

    def expect(self, kind: str) -> int:
        at = self.index
        if self.kinds[at] != kind:
            raise self.error("expected %r, found %r" % (kind, self.texts[at] or "end of input"))
        self.index = at + 1
        return at

    def accept(self, kind: str) -> bool:
        if self.kinds[self.index] == kind:
            self.index += 1
            return True
        return False

    def number(self) -> Rational:
        """The next token, a number literal, in canonical form: a literal
        of digits only is read by ``int`` at once, any other by ``rat``."""
        at = self.expect("number")
        text = self.texts[at]
        if text.isdecimal():
            return int(text)
        try:
            return rat(text)
        except (ValueError, ZeroDivisionError):
            raise self.error("malformed number %r" % text, at)

    # --- rationals and linear expressions -------------------------------

    def parse_rational(self) -> Rational:
        sign = 1
        while self.kinds[self.index] in ("-", "+"):
            if self.kinds[self.index] == "-":
                sign = -sign
            self.index += 1
        return sign * self.number()

    def parse_terms(self, coeffs: Dict[str, Rational], side: int) -> Rational:
        """One side of a constraint: terms ``[sign] number``, ``[sign]
        number * name`` or ``[sign] name``, every term after the first with
        its sign.  Adds each coefficient times ``side`` to ``coeffs`` and
        returns the constant times ``side``."""
        kinds, texts = self.kinds, self.texts
        constant: Rational = 0
        while True:
            sign = -side if self.accept("-") else side
            if sign == side:
                self.accept("+")
            kind = kinds[self.index]
            if kind == "number":
                value = sign * self.number()
                if self.accept("*"):
                    var = texts[self.expect("name")]
                    coeffs[var] = coeffs.get(var, 0) + value
                else:
                    constant += value
            elif kind == "name":
                var = texts[self.next()]
                coeffs[var] = coeffs.get(var, 0) + sign
            else:
                raise self.error("expected a number or variable")
            if kinds[self.index] not in ("+", "-"):
                return constant

    def parse_constraint(self) -> LinearConstraint:
        coeffs: Dict[str, Rational] = {}
        constant = self.parse_terms(coeffs, 1)
        relation = _RELATIONS.get(self.peek())
        if relation is None:
            raise self.error("expected a relation (<=, >=, =)")
        self.next()
        constant += self.parse_terms(coeffs, -1)
        return LinearConstraint(LinearExpression.build(coeffs, constant), relation)

    def parse_constraint_list(self) -> List[LinearConstraint]:
        """Semicolon-separated constraints, stopping before '}', the end or
        a clause word."""
        out: List[LinearConstraint] = []
        while True:
            out.append(self.parse_constraint())
            if not self.accept(";"):
                break
            if self.peek() in ("}", "eof") or self.texts[self.index] in _CLAUSE_WORDS:
                break
        return out

    def region(self, constraints: List[LinearConstraint]) -> Polyhedron:
        """The document's one Polyhedron of ``constraints``, keyed by each
        constraint's coefficients, constant and relation."""
        key = tuple(
            (c.expression.coefficients, c.expression.constant, c.relation.value)
            for c in constraints
        )
        hit = self.regions.get(key)
        if hit is None:
            hit = self.regions[key] = Polyhedron(tuple(constraints))
        return hit

    def interval_map(self, cls, intervals: Dict[str, Tuple[Rational, Rational]]):
        """The document's one ``cls`` (``Reset`` or ``RateSpec``) of
        ``intervals``, keyed by its type and its sorted items."""
        key = (cls, tuple(sorted(intervals.items())))
        hit = self.interval_maps.get(key)
        if hit is None:
            hit = self.interval_maps[key] = cls.build(intervals)
        return hit

    def parse_block(self) -> Polyhedron:
        """``{ constraint; ... }``, possibly empty."""
        self.expect("{")
        constraints = [] if self.peek() == "}" else self.parse_constraint_list()
        self.expect("}")
        return self.region(constraints)

    def parse_clauses(
        self, words: Tuple[str, ...]
    ) -> Tuple[Polyhedron, Dict[str, Tuple[Rational, Rational]], Optional[str]]:
        """``{ clause ... }`` with clauses that open with ``words``, as the
        block's region (``inv:``/``guard:`` constraints, conjoined), its
        ``rate``/``reset`` intervals by variable and its ``label:`` (None
        if none)."""
        texts = self.texts
        self.expect("{")
        constraints: List[LinearConstraint] = []
        intervals: Dict[str, Tuple[Rational, Rational]] = {}
        label: Optional[str] = None
        while not self.accept("}"):
            word = texts[self.index]
            if word not in words:
                raise self.error("expected %s or '}'" % ", ".join(map(repr, words)))
            if word == "label" and label is not None:
                raise self.error("repeated 'label' clause")
            clause = self.next()
            if word in ("rate", "reset"):
                var = texts[self.expect("name")]
                in_at = self.expect("name")
                if texts[in_at] != "in":
                    raise self.error("expected 'in'", in_at)
                if var in intervals:
                    raise self.error("repeated %s for variable %r" % (word, var), clause)
                self.expect("[")
                lo = self.parse_rational()
                self.expect(",")
                hi = self.parse_rational()
                self.expect("]")
                intervals[var] = (lo, hi)
            else:
                self.expect(":")
                if word == "label":
                    label = texts[self.expect("name")]
                else:
                    constraints.extend(self.parse_constraint_list())
            self.accept(";")
        return self.region(constraints), intervals, label


def parse_model(text: str, source: str = "<string>") -> HybridAutomaton:
    """Parse an ``.lha`` document into a validated automaton; a ParseError
    names ``source``."""
    with reading(source):
        return _parse_automaton(text)


def _parse_automaton(text: str) -> HybridAutomaton:
    p = _Parser(text)
    texts = p.texts
    variables: List[str] = []
    locations: List[Location] = []
    loc_ids: Dict[str, int] = {}
    transitions: List[Transition] = []
    labels: List[str] = []
    initial: Optional[Tuple[int, Polyhedron]] = None
    pending_transitions: List[Tuple[int, str, str, Polyhedron, Reset]] = []
    # The ``location`` keyword of each location, where its missing rates
    # are reported.
    loc_toks: List[int] = []

    while p.peek() != "eof":
        tok = p.next()
        word = texts[tok]
        if word == "vars":
            while p.peek() == "name" and texts[p.index] not in _MODEL_SECTIONS:
                var_tok = p.next()
                var = texts[var_tok]
                if var in _CLAUSE_WORDS:
                    raise p.error("reserved word %r cannot name a variable" % var, var_tok)
                if var in variables:
                    raise p.error("duplicate variable declaration %r" % var, var_tok)
                variables.append(var)
        elif word == "location":
            loc_toks.append(tok)
            name_tok = p.expect("name")
            name = texts[name_tok]
            if name in loc_ids:
                raise p.error("duplicate location %r" % name, name_tok)
            invariant, rates, _label = p.parse_clauses(("inv", "rate"))
            loc_ids[name] = len(locations)
            rate_spec = p.interval_map(RateSpec, rates)
            locations.append(Location(len(locations), name, invariant, rate_spec))
        elif word == "trans":
            src_tok = p.expect("name")
            p.expect("arrow")
            dst = texts[p.expect("name")]
            guard, resets, label = p.parse_clauses(("label", "guard", "reset"))
            if label is None:
                label = "act"
            pending_transitions.append((src_tok, dst, label, guard, p.interval_map(Reset, resets)))
            if label not in labels:
                labels.append(label)
        elif word == "init":
            if initial is not None:
                raise p.error("repeated 'init' section", tok)
            initial = (p.expect("name"), p.parse_block())
        else:
            raise p.error("expected 'vars', 'location', 'trans' or 'init'", tok)

    # Locations may be declared after the sections that name them, so the
    # init location and the transition endpoints are resolved once every
    # section is read.
    if initial is None:
        raise p.error("missing 'init' section")
    init_tok, init_region = initial
    if texts[init_tok] not in loc_ids:
        raise p.error("unknown initial location %r" % texts[init_tok], init_tok)

    for src_tok, dst, label, guard, reset in pending_transitions:
        for name in (texts[src_tok], dst):
            if name not in loc_ids:
                raise p.error("unknown location %r in transition" % name, src_tok)
        source = loc_ids[texts[src_tok]]
        transitions.append(Transition(len(transitions), source, loc_ids[dst], label, guard, reset))

    # Variables may be declared after a location, so its rates are checked
    # once every declaration is read.
    for loc, tok in zip(locations, loc_toks):
        for var in variables:
            if loc.rates.interval(var) is None:
                raise p.error(
                    "location %s missing rate interval for variable %r" % (loc.name, var), tok
                )

    automaton = HybridAutomaton(
        locations=tuple(locations),
        variables=tuple(variables),
        transitions=tuple(transitions),
        labels=tuple(labels),
        initial=(loc_ids[texts[init_tok]], init_region),
    )
    violations = validate_model(automaton)
    if violations:
        raise ParseError("; ".join(violations))
    return automaton


def split_model_line(text: str) -> Tuple[Optional[str], str]:
    """The path a ``.prob`` document's ``model`` line names (None if none),
    and the text with that line blanked.  The model line is one whose first
    word is ``model`` outside every ``{ ... }``: inside one, ``model`` is a
    variable.  The path ends at the line's end or at a ``#`` comment; a
    second ``model`` line is a ParseError.  Words are split on the blanks
    the scan skips only, so a line that the scan rejects is never taken
    for the model line."""
    ref: Optional[str] = None
    seen = False
    depth = 0
    lines = text.split("\n")
    for i, raw in enumerate(lines):
        code = raw.split("#", 1)[0]
        words = re.split(_BLANK_RUN, code.strip(_BLANKS), maxsplit=1)
        if words[0] == "model" and depth <= 0:
            if seen:
                raise ParseError("repeated 'model' section", i + 1, raw.index("model") + 1)
            seen = True
            ref = words[1] if len(words) > 1 else None
            lines[i] = ""
        else:
            depth += code.count("{") - code.count("}")
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
    texts = p.texts
    init = automaton.initial
    goal: Optional[GoalSpec] = None
    depth: Optional[int] = None

    def located(section: str, name_tok: int, region: Polyhedron) -> Tuple[int, Polyhedron]:
        """The id of the location token ``name_tok`` names, and ``region``,
        whose variables the automaton must declare."""
        loc = automaton.location_by_name(texts[name_tok])
        if loc is None:
            raise p.error("unknown location %r" % texts[name_tok], name_tok)
        for v in region.variables():
            if v not in automaton.variables:
                raise p.error(
                    "%s region references undeclared variable %r" % (section, v), name_tok
                )
        return loc.id, region

    seen: Set[str] = set()
    while p.peek() != "eof":
        tok = p.next()
        word = texts[tok]
        if word in seen:
            raise p.error("repeated %r section" % word, tok)
        seen.add(word)
        if word == "init":
            name_tok = p.expect("name")
            init = located("init", name_tok, p.parse_block())
        elif word == "goal":
            name_tok = p.expect("name")
            region = p.parse_block() if p.peek() == "{" else p.region([])
            goal = GoalSpec(*located("goal", name_tok, region))
        elif word == "depth":
            depth_tok = p.expect("number")
            try:
                depth = int(texts[depth_tok])
            except ValueError:
                raise p.error("depth must be a non-negative integer", depth_tok)
        else:
            raise p.error("expected 'model', 'init', 'goal' or 'depth'", tok)

    if goal is None:
        raise p.error("missing 'goal' section")
    if depth is None:
        raise p.error("missing 'depth' section")
    return PlanningProblem(domain=automaton, init=init, goal=goal, depth=depth)


# --- serialization -------------------------------------------------------


def _json_number(value: Rational):
    if value.denominator == 1:
        return value.numerator
    return str(value)


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
                "status": v.reachability,
                "paths_checked": v.paths_checked,
            }
            for v in report.verdicts
        ],
        "explanation": {"outcome": report.outcome, "location": report.explanation_name},
        "timings_ms": dict(report.timings_ms),
    }
    if report.annotations:
        doc["annotations"] = list(report.annotations)
    if report.witness_plan is not None:
        doc["witness_plan"] = plan_json(
            report.witness_plan.steps, report.witness_plan.makespan
        )
    return json.dumps(doc, indent=2, sort_keys=False)
