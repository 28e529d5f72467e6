"""Spans recorded from outside wpx, around the public names its layers look
up at call time, and the per-layer metrics derived from them.

Wrapped names:

* ``wpx.explain`` module globals ``enumerate_paths`` (graph),
  ``lcs_multi`` (lcs), ``chain_from_lcs`` (chain) and ``bounded_reachable``
  (reach).  ``wpx.explain`` the attribute is the re-exported function, so
  the module is taken from ``sys.modules``.
* ``wpx.reach`` module globals ``enumerate_concrete_paths`` (every ``next()``
  on the returned iterator is a ``reach.concrete_enum`` span),
  ``encode_path`` (the replay of a SAT path's witness, ``reach.replay``) and
  ``extract_witness`` (``witness.extract``, looked up by
  ``ExplanationReport.witness_plan``).

``reach.box`` is synthesised: it runs from the entry to
``bounded_reachable`` until ``enumerate_concrete_paths`` is called, or
covers the whole call when it returns without enumerating.  What is left
of a ``reach`` span after its children is the time spent encoding and
solving path LPs.

Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import sys
import time
from dataclasses import asdict, dataclass, field
from typing import Dict, List


UNITS = {
    "graph.enumerate_s": "s/op",
    "graph.walks": "count/op",
    "graph.walks_per_s": "1/s",
    "lcs.s": "s/op",
    "lcs.strings": "count/op",
    "lcs.chain_len": "count/op",
    "chain.s": "s/op",
    "chain.waypoints": "count/op",
    "reach.calls": "count/op",
    "reach.sat": "count/op",
    "reach.unsat": "count/op",
    "reach.box_s": "s/op",
    "reach.box_decided": "count/op",
    "reach.concrete_enum_s": "s/op",
    "reach.lp_s": "s/op",
    "reach.paths_checked": "count/op",
    "reach.lp_ms_per_path": "ms",
    "reach.lp_share_mid_path": "ratio",
    "reach.replay_s": "s/op",
    "reach.replays": "count/op",
    "witness.extract_s": "s/op",
    "witness.extracts_per_report": "count",
    "textio.serialize_s": "s/op",
    "textio.parse_s": "s",
    "explain.self_s": "s/op",
    "share.graph_lcs": "ratio",
    "share.reach_lp": "ratio",
    "trace.explain_per_s_untraced": "1/s",
    "trace.explain_per_s_traced": "1/s",
    "trace.overhead_per_s": "1/s",
}


@dataclass
class Span:
    name: str
    op: int
    parent: int  # index of the parent span, -1 for a root
    start: float
    end: float = 0.0
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.op = -1
        self._stack: List[int] = []
        self._patches: List[tuple] = []

    def begin(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, self.op, parent, time.perf_counter())
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def finish(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        s = self.begin(name)
        try:
            yield s
        finally:
            self.finish(s)

    def add_child(self, name: str, start: float, end: float) -> None:
        """Record an already finished span under the current one."""
        self.spans.append(Span(name, self.op, self._stack[-1], start, end))

    def current(self) -> Span:
        return self.spans[self._stack[-1]]

    # --- wrappers -------------------------------------------------------

    def _patch(self, module, attr: str, wrapper) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def _wrap(self, module, attr: str, name: str, annotate=None) -> None:
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            with self.span(name) as s:
                result = original(*args, **kwargs)
                if annotate is not None:
                    s.attrs.update(annotate(args, result))
            return result

        self._patch(module, attr, wrapper)

    def install(self) -> None:
        explain_mod = sys.modules["wpx.explain"]
        reach_mod = sys.modules["wpx.reach"]
        self._wrap(explain_mod, "enumerate_paths", "graph", lambda a, r: {"walks": r.count})
        self._wrap(
            explain_mod,
            "lcs_multi",
            "lcs",
            lambda a, r: {"strings": len(a[0].paths), "chain_len": len(r.sequence)},
        )
        self._wrap(explain_mod, "chain_from_lcs", "chain", lambda a, r: {"waypoints": len(r)})
        self._wrap(reach_mod, "encode_path", "reach.replay")
        self._wrap(reach_mod, "extract_witness", "witness.extract")

        reachable = explain_mod.bounded_reachable

        def bounded_reachable(*args, **kwargs):
            with self.span("reach") as s:
                verdict = reachable(*args, **kwargs)
                s.attrs.update(status=verdict.status, paths_checked=verdict.paths_checked)
                if "enumerated" not in s.attrs:
                    self.add_child("reach.box", s.start, time.perf_counter())
            return verdict

        self._patch(explain_mod, "bounded_reachable", bounded_reachable)

        enumerate_paths = reach_mod.enumerate_concrete_paths

        def enumerate_concrete_paths(*args, **kwargs):
            reach_span = self.current()
            reach_span.attrs["enumerated"] = True
            self.add_child("reach.box", reach_span.start, time.perf_counter())
            return _TimedIterator(self, enumerate_paths(*args, **kwargs))

        self._patch(reach_mod, "enumerate_concrete_paths", enumerate_concrete_paths)

    def restore(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def dump(self) -> List[dict]:
        return [asdict(s) for s in self.spans]


class _TimedIterator:
    def __init__(self, tracer: Tracer, inner) -> None:
        self._tracer = tracer
        self._inner = inner

    def __iter__(self):
        return self

    def __next__(self):
        start = time.perf_counter()
        try:
            return next(self._inner)
        finally:
            self._tracer.add_child("reach.concrete_enum", start, time.perf_counter())


def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus the time its direct children cover."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.duration
    return out


def layer_metrics(spans: List[Span], kinds: Dict[int, str]) -> Dict[str, float]:
    """Per-operation layer metrics from the spans of one traced pass.

    ``kinds`` maps an op id to its case kind, which splits the LP time of
    the ``relational_unsat`` pool between goal-only and mid-path problems.
    """
    own = self_times(spans)
    total: Dict[str, float] = {}
    count: Dict[str, int] = {}
    attrs: Dict[str, float] = {}
    lp_mid = 0.0
    box_decided = 0
    sat_reports = set()
    for s, t in zip(spans, own):
        total[s.name] = total.get(s.name, 0.0) + t
        count[s.name] = count.get(s.name, 0) + 1
        for key, value in s.attrs.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                attrs[s.name + "." + key] = attrs.get(s.name + "." + key, 0) + value
        if s.name == "reach":
            attrs["reach." + s.attrs["status"]] = attrs.get("reach." + s.attrs["status"], 0) + 1
            if kinds.get(s.op) == "mid":
                lp_mid += t
            if not s.attrs.get("enumerated"):
                box_decided += 1
        if s.name == "witness.extract":
            sat_reports.add(s.op)
    ops = max(count.get("op", 0), 1)
    op_time = sum(s.duration for s in spans if s.name == "op")

    def per_op(name: str) -> float:
        return total.get(name, 0.0) / ops

    walks = attrs.get("graph.walks", 0)
    paths = attrs.get("reach.paths_checked", 0)
    lp = total.get("reach", 0.0)
    return {
        "graph.enumerate_s": per_op("graph"),
        "graph.walks": walks / ops,
        "graph.walks_per_s": walks / total["graph"] if total.get("graph") else 0.0,
        "lcs.s": per_op("lcs"),
        "lcs.strings": attrs.get("lcs.strings", 0) / ops,
        "lcs.chain_len": attrs.get("lcs.chain_len", 0) / ops,
        "chain.s": per_op("chain"),
        "chain.waypoints": attrs.get("chain.waypoints", 0) / ops,
        "reach.calls": count.get("reach", 0) / ops,
        "reach.sat": attrs.get("reach.SAT", 0) / ops,
        "reach.unsat": attrs.get("reach.UNSAT", 0) / ops,
        "reach.box_s": per_op("reach.box"),
        "reach.box_decided": box_decided / ops,
        "reach.concrete_enum_s": per_op("reach.concrete_enum"),
        "reach.lp_s": lp / ops,
        "reach.paths_checked": paths / ops,
        "reach.lp_ms_per_path": 1000.0 * lp / paths if paths else 0.0,
        "reach.lp_share_mid_path": lp_mid / lp if lp else 0.0,
        "reach.replay_s": per_op("reach.replay"),
        "reach.replays": count.get("reach.replay", 0) / ops,
        "witness.extract_s": per_op("witness.extract"),
        "witness.extracts_per_report": (
            count.get("witness.extract", 0) / len(sat_reports) if sat_reports else 0.0
        ),
        "textio.serialize_s": per_op("textio.serialize"),
        "explain.self_s": per_op("explain"),
        "share.graph_lcs": (total.get("graph", 0.0) + total.get("lcs", 0.0)) / op_time,
        "share.reach_lp": lp / op_time,
    }
