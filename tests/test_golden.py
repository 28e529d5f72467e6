"""``explain --json`` on the 14 pinned rows, byte for byte.

The files under ``golden/`` hold each row's report without its
``timings_ms`` key, the one part that changes from run to run.  A report is
re-serialised by ``json.dumps(..., indent=2)`` after that key is dropped,
which reproduces every other byte of the CLI's output.  Regenerate a file
only for an intended change of output, and say so in CHANGES.md.
"""

import contextlib
import io
import json
import os

import pytest

from conftest import BENCH_ROOT
from wpx.cli import EXIT_OK, main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

with open(os.path.join(BENCH_ROOT, "expectations.json"), encoding="utf-8") as _fh:
    ROWS = [(row["dir"], row["problem"]) for row in json.load(_fh)["rows"]]


@pytest.mark.parametrize("dirname,probname", ROWS, ids=["/".join(r) for r in ROWS])
def test_explain_json_matches_golden(dirname, probname):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["explain", "--problem", os.path.join(BENCH_ROOT, dirname, probname), "--json"])
    assert code == EXIT_OK
    doc = json.loads(out.getvalue())
    del doc["timings_ms"]
    name = "%s_%s.json" % (dirname, os.path.splitext(probname)[0])
    with open(os.path.join(GOLDEN, name), encoding="utf-8") as fh:
        assert json.dumps(doc, indent=2) + "\n" == fh.read()
