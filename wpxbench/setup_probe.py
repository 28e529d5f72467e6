#!/usr/bin/env python3
"""Time one cold set-up of a workload in a fresh interpreter.

    python3 wpxbench/setup_probe.py <workload> <seed>

The set-up is the import of wpx, done first so that nothing it needs is
loaded yet, plus ``parse_model``/``parse_problem`` of every input.  The
inputs are generated between the two and that time is left out.  The import
and each group of parses of at least ``GROUP_S`` are timed at the reference
speed by the ``speed.calibrate`` runs next to them; the loop runs after wpx
is imported, so it loads nothing the import would.  Prints one JSON object
with ``setup_s`` and ``parse_s`` at the reference speed and their unscaled
values ``unscaled_setup_s`` and ``unscaled_parse_s``.  ``run.py`` starts
this several times and reports the median.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
GROUP_S = 0.05

t0 = time.perf_counter()
import wpx  # noqa: E402
t1 = time.perf_counter()

import speed  # noqa: E402

after_import = speed.calibrate()

import json  # noqa: E402

import workloads  # noqa: E402

cases, _cycle = workloads.cases(sys.argv[1], int(sys.argv[2]), ROOT)
before = speed.calibrate()
import_s = speed.scaled(t1 - t0, after_import)
parse_s = unscaled = group = 0.0
for i, c in enumerate(cases):
    t2 = time.perf_counter()
    wpx.parse_problem(c.problem_text, wpx.parse_model(c.model_text, c.source))
    group += time.perf_counter() - t2
    if group >= GROUP_S or i == len(cases) - 1:
        after = speed.calibrate()
        parse_s += speed.scaled(group, (before + after) / 2)
        unscaled += group
        before, group = after, 0.0
print(json.dumps({
    "setup_s": import_s + parse_s,
    "parse_s": parse_s,
    "unscaled_setup_s": t1 - t0 + unscaled,
    "unscaled_parse_s": unscaled,
}))
