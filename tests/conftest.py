import os
import sys
from fractions import Fraction

import pytest

import wpx.reach as reach
from wpx.cli import _load
from wpx.textio import parse_model, parse_problem

BENCH_ROOT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "src", "wpx", "benchmarks",
)


HALF = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "half")


def half_problem(model_edit=None, problem_edit=None):
    """``golden/half``, with at most one ``(old, new)`` text replacement in
    each of its files.  x grows at rate 2 through a and b, so the one
    witness dwells 3/2 in a and 5/2 in b."""
    texts = []
    for name, edit in (("half.lha", model_edit), ("half.prob", problem_edit)):
        with open(os.path.join(HALF, name), encoding="utf-8") as fh:
            text = fh.read()
        if edit is not None:
            assert edit[0] in text
            text = text.replace(*edit, 1)
        texts.append(text)
    return parse_problem(texts[1], parse_model(texts[0])).problem


def load_benchmark(dirname: str, probname: str, depth=None):
    """Parse a bundled benchmark problem, optionally overriding the depth."""
    problem, _name = _load(os.path.join(BENCH_ROOT, dirname, probname), depth=depth)
    return problem


def pool_problems(workload: str, seed: int, cycles=None):
    """The parsed problems of a ``wpxbench`` pool (``relational_sat`` or
    ``relational_unsat``) as the benchmark generates them from ``seed``, in
    its run order: a whole pass, or its first ``cycles`` cycles of one
    problem per shape."""
    bench = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "wpxbench")
    if bench not in sys.path:
        sys.path.insert(0, bench)
    import workloads

    cases, cycle = workloads.cases(workload, seed, os.path.dirname(bench))
    return [
        parse_problem(c.problem_text, parse_model(c.model_text, c.source)).problem
        for c in (cases if cycles is None else cases[: cycles * cycle])
    ]


def box_off(monkeypatch):
    """Turn the box pre-analysis off for the rest of ``monkeypatch``'s
    scope (the LP regime): every check enumerates and solves its concrete
    paths."""
    monkeypatch.setattr(reach, "_interval_unreachable", lambda problem, box: False)


def parked_rows(monkeypatch):
    """Count, for the rest of ``monkeypatch``'s scope, the rows that
    ``_Simplex.solve`` parks: one int in a list, added to as each solve
    returns.  A resumed solve counts only the rows it parks itself."""
    solve = reach._Simplex.solve
    parks = [0]

    def counted(self, stages):
        before = len(self.parked)
        result = solve(self, stages)
        parks[0] += len(self.parked) - before
        return result

    monkeypatch.setattr(reach._Simplex, "solve", counted)
    return parks


def assert_canonical(number) -> bool:
    """Assert that ``number`` is in canonical form: an int (not a bool) when
    it is integral, else a Fraction whose denominator is not 1, and never a
    float.  Returns whether it is an int."""
    if type(number) is int:
        return True
    assert type(number) is Fraction and number.denominator != 1, repr(number)
    return False


def benchmark_problems():
    """Every bundled (dirname, probname) pair."""
    out = []
    for d in sorted(os.listdir(BENCH_ROOT)):
        full = os.path.join(BENCH_ROOT, d)
        if not os.path.isdir(full):
            continue
        for p in sorted(os.listdir(full)):
            if p.endswith(".prob"):
                out.append((d, p))
    return out


@pytest.fixture
def bench_root():
    return BENCH_ROOT
