"""Waypoint-chain explanations for unsolvable bounded planning problems on
linear hybrid automata."""

from .explain import ChainEntry, ExplanationReport, WaypointVerdict, chain_from_lcs, explain
from .graph import (
    LcsResult,
    PathSet,
    ResourceCapExceeded,
    build_graph,
    enumerate_paths,
    lcs_multi,
)
from .model import (
    GoalSpec,
    HybridAutomaton,
    LinearConstraint,
    LinearExpression,
    Location,
    Plan,
    PlanningProblem,
    Polyhedron,
    Rational,
    Relation,
    Transition,
    WitnessRun,
    alpha,
    check_witness,
    validate_model,
)
from .reach import ConcretePath, Verdict, bounded_reachable, encode_path
from .textio import ParseError, parse_model, parse_problem, serialize_report

__version__ = "0.1.0"
