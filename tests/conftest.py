import os

import pytest

import wpx.reach as reach
from wpx.cli import _load

BENCH_ROOT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "src", "wpx", "benchmarks",
)


def load_benchmark(dirname: str, probname: str, depth=None):
    """Parse a bundled benchmark problem, optionally overriding the depth."""
    problem, _name = _load(os.path.join(BENCH_ROOT, dirname, probname), depth=depth)
    return problem


def box_off(monkeypatch):
    """Turn the box pre-analysis off for the rest of ``monkeypatch``'s
    scope (the LP regime): every check enumerates and solves its concrete
    paths."""
    monkeypatch.setattr(reach, "_interval_unreachable", lambda problem, box: False)


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
