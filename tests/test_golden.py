"""CLI renderings pinned byte for byte.

The files under ``golden/`` hold, for each of the 14 pinned rows:

- ``<row>.json``: ``explain --json`` without its ``timings_ms`` key, the one
  part that changes from run to run.  A report is re-serialised by
  ``json.dumps(..., indent=2)`` after that key is dropped, which reproduces
  every other byte of the CLI's output;
- ``<row>.explain.txt``: text ``explain`` without its ``timings_ms:`` line;
- ``<row>.waypoints.json`` and ``<row>.paths.json``: ``waypoints --json``
  and ``paths --json`` as printed;
- ``<row>.paths-v.txt``: text ``paths -v``, for the rows with at most
  ``LISTED_WALKS`` walks.

``golden/half/`` holds a small solvable problem whose plan has a
non-integer time, with its ``explain --json`` (without ``timings_ms``),
text ``explain``, ``check --json`` and text ``check``.  Both JSON outputs
write integer plan numbers as JSON integers and other rationals as ``p/q``
strings.  ``half/check.dump-lp.txt`` lists the files ``check --dump-lp``
writes for it, each under a ``== <file> ==`` line, so that an encoder change
that moves a row shows up.  ``half/explain.dump-lp.txt`` lists what
``explain --dump-lp`` writes, each file under its path below the dump
directory (``0_a/path_00000.lp``, ...): four checks whose paths nest, so
an encoder that carries stages from one check to the next must reproduce
every row.

``golden/blocked/`` holds two problems laid out like the benchmark's
relational pools, in which ``2*x - y >= 1`` holds in no reachable state:
``goal`` has it as its goal row, ``guard`` on every edge leaving the first
layer before the waypoint ``m``.  Each has its ``explain --json`` (without
``timings_ms``) and text ``explain``, both carrying the note that names
the dead constraint.  ``blocked/guard.check.dump-lp.txt`` lists what
``check --dump-lp`` writes for ``guard``: a path that a dead constraint
refutes is still encoded and written, so it is the listing of an engine
that solves every path.  ``blocked/goal.explain.dump-lp.txt`` lists what
``explain --dump-lp`` writes for ``goal``: four checks, the last of them
the exact goal's, with 12 consecutive paths.

``blocked/guard.check.debug.txt`` is the ``WPX_LOG=debug`` stream of
``check`` on ``guard``: the first path is solved, its certificate names
the dead constraint, and each later path is refuted by it.
``nrs_depth20.lp-regime.debug.txt`` is the debug stream of an
``explain`` of nrs d20 in the LP regime (the box turned off): each path
whose certificate refutes a prefix is followed by one that the prefix
refutes, named by the number of the path whose certificate did.

``wa6x4_l18.explain.json`` is ``explain --json`` (without ``timings_ms``)
of ``wa6x4_l18.prob``: the bundled wa6x4 model to l18 at depth 8, which is
solvable with a 6-step plan.  The LPs of its chain repeat rows: an entry
invariant equal to the exit invariant before it, and goal rows equal to
the last exit invariant, which the solver leaves out.

``golden/sat/`` holds a copy of the benchmark's first ``relational_sat``
problem at seed 1, ``sat_00``, with its ``explain --json`` (without
``timings_ms``) and ``check --json``.  Its witness LPs park the rows of
basic variables with no bound, whose values the replayed run reads.

Regenerate a file only for an intended change of output, and say so in
CHANGES.md.
"""

import contextlib
import io
import json
import logging
import os
import tempfile

import pytest

from conftest import BENCH_ROOT, box_off, load_benchmark
from wpx.cli import EXIT_OK, main
from wpx.explain import explain

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
HALF = os.path.join(GOLDEN, "half", "half.prob")
LISTED_WALKS = 200

with open(os.path.join(BENCH_ROOT, "expectations.json"), encoding="utf-8") as _fh:
    ROWS = [(row["dir"], row["problem"]) for row in json.load(_fh)["rows"]]


def run(argv):
    """The CLI's standard output for ``argv``; the exit code must be 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == EXIT_OK
    return out.getvalue()


def without_timings(argv):
    """``argv``'s output with its timings dropped (JSON key or text line)."""
    text = run(argv)
    if "--json" in argv:
        doc = json.loads(text)
        del doc["timings_ms"]
        return json.dumps(doc, indent=2) + "\n"
    return "".join(
        line for line in text.splitlines(True) if not line.startswith("timings_ms:")
    )


def row_file(dirname, probname, suffix):
    return "%s_%s%s" % (dirname, os.path.splitext(probname)[0], suffix)


def row_renderings():
    """``(golden file, render)`` for the rows' pinned renderings other than
    ``explain --json``."""
    out = []
    for dirname, probname in ROWS:
        prob = os.path.join(BENCH_ROOT, dirname, probname)
        out += [
            (row_file(dirname, probname, ".explain.txt"),
             lambda p=prob: without_timings(["explain", "--problem", p])),
            (row_file(dirname, probname, ".waypoints.json"),
             lambda p=prob: run(["waypoints", "--problem", p, "--json"])),
            (row_file(dirname, probname, ".paths.json"),
             lambda p=prob: run(["paths", "--problem", p, "--json"])),
        ]
        if int(run(["paths", "--problem", prob])) <= LISTED_WALKS:
            out.append((row_file(dirname, probname, ".paths-v.txt"),
                        lambda p=prob: run(["paths", "--problem", p, "-v"])))
    return out


def dump_listing(argv):
    """The files ``argv`` plus ``--dump-lp`` writes, each under its path
    relative to the dump directory, in sorted order of those paths."""
    with tempfile.TemporaryDirectory() as out:
        run(argv + ["--dump-lp", out])
        names = []
        for root, _dirs, files in os.walk(out):
            names += [os.path.relpath(os.path.join(root, f), out) for f in files]
        parts = []
        for name in sorted(names, key=lambda n: n.split(os.sep)):
            with open(os.path.join(out, name), encoding="utf-8") as fh:
                parts.append("== %s ==\n%s" % (name.replace(os.sep, "/"), fh.read()))
    return "".join(parts)


HALF_RENDERINGS = [
    ("half/explain.json", lambda: without_timings(["explain", "--problem", HALF, "--json"])),
    ("half/explain.txt", lambda: without_timings(["explain", "--problem", HALF])),
    ("half/check.json", lambda: run(["check", "--problem", HALF, "--json"])),
    ("half/check.txt", lambda: run(["check", "--problem", HALF])),
    ("half/check.dump-lp.txt", lambda: dump_listing(["check", "--problem", HALF])),
    ("half/explain.dump-lp.txt", lambda: dump_listing(["explain", "--problem", HALF])),
]

BLOCKED = os.path.join(GOLDEN, "blocked")
BLOCKED_RENDERINGS = [
    ("blocked/%s.explain%s" % (name, ext),
     lambda argv=["explain", "--problem", os.path.join(BLOCKED, name + ".prob")] + flags:
     without_timings(argv))
    for name in ("goal", "guard")
    for ext, flags in ((".json", ["--json"]), (".txt", []))
] + [
    ("blocked/guard.check.dump-lp.txt",
     lambda: dump_listing(["check", "--problem", os.path.join(BLOCKED, "guard.prob")])),
    ("blocked/goal.explain.dump-lp.txt",
     lambda: dump_listing(["explain", "--problem", os.path.join(BLOCKED, "goal.prob")])),
]

SAT = os.path.join(GOLDEN, "sat", "sat_00.prob")
SAT_RENDERINGS = [
    ("sat/explain.json", lambda: without_timings(["explain", "--problem", SAT, "--json"])),
    ("sat/check.json", lambda: run(["check", "--problem", SAT, "--json"])),
]

RENDERINGS = row_renderings() + HALF_RENDERINGS + BLOCKED_RENDERINGS + SAT_RENDERINGS


def read_golden(name):
    with open(os.path.join(GOLDEN, name), encoding="utf-8") as fh:
        return fh.read()


# (id, problem, golden file) of each pinned ``explain --json``.
EXPLAIN_JSON = [
    ("/".join((d, p)), os.path.join(BENCH_ROOT, d, p), row_file(d, p, ".json")) for d, p in ROWS
] + [("wa6x4/l18", os.path.join(GOLDEN, "wa6x4_l18.prob"), "wa6x4_l18.explain.json")]


@pytest.mark.parametrize(
    "prob,golden", [e[1:] for e in EXPLAIN_JSON], ids=[e[0] for e in EXPLAIN_JSON]
)
def test_explain_json_matches_golden(prob, golden):
    argv = ["explain", "--problem", prob, "--json"]
    assert without_timings(argv) == read_golden(golden)


@pytest.mark.parametrize("name,render", RENDERINGS, ids=[n for n, _r in RENDERINGS])
def test_rendering_matches_golden(name, render):
    assert render() == read_golden(name)


@contextlib.contextmanager
def debug_stream():
    """What the ``wpx`` loggers emit at ``WPX_LOG=debug`` within the block,
    one line per record in the CLI's format."""
    out = io.StringIO()
    handler = logging.StreamHandler(out)
    handler.setFormatter(logging.Formatter("%(name)s %(levelname)s %(message)s"))
    logger = logging.getLogger("wpx")
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    try:
        yield out
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


def test_check_debug_stream_matches_golden():
    with debug_stream() as out:
        run(["check", "--problem", os.path.join(BLOCKED, "guard.prob")])
    assert out.getvalue() == read_golden("blocked/guard.check.debug.txt")


def test_lp_regime_explain_debug_stream_matches_golden(monkeypatch):
    box_off(monkeypatch)
    with debug_stream() as out:
        explain(load_benchmark("nrs", "depth20.prob"))
    assert out.getvalue() == read_golden("nrs_depth20.lp-regime.debug.txt")
