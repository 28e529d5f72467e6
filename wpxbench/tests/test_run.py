"""The correctness gate counts mismatches, and the helpers measure what
they claim to."""

import dataclasses
import sys
import time

import pytest

import run
import spans
import speed
import workloads


def setup_env(cases):
    wpx, problems = run.setup(cases)
    checker = workloads.Checker(sys.modules["wpx.reach"].extract_witness, wpx.check_witness)
    return wpx, checker, problems


def one_pass(cases):
    wpx, checker, problems = setup_env(cases)
    return run.run_ops(wpx, checker, cases, problems, len(cases), 0, len(cases))


def test_generated_pass_is_correct():
    cases = workloads.generated_cases("relational_sat", 1)[:3]
    cases += workloads.generated_cases("relational_unsat", 1)[:2]
    result = one_pass(cases)
    assert (result.attempted, result.failed) == (5, 0)


def test_corrupted_generated_reference_is_counted():
    cases = workloads.generated_cases("relational_sat", 1)[:3]
    bad = cases[1]
    cases[1] = dataclasses.replace(bad, expected=dict(bad.expected, path_count=bad.expected["path_count"] + 1))
    result = one_pass(cases)
    assert (result.attempted, result.failed) == (3, 1)
    assert "path_count" in result.messages[0]


def test_bundle_monitor_rows_match_including_documented_divergence():
    cases = [c for c in workloads.bundle_cases(run.ROOT) if c.name.startswith("wlm")]
    assert [c.expected["path_count"] for c in cases] == [5, 13]
    result = one_pass(cases)
    assert (result.attempted, result.failed) == (2, 0)


def test_corrupted_bundle_reference_is_counted():
    cases = [c for c in workloads.bundle_cases(run.ROOT) if c.name.startswith("wlm")]
    cases[0] = dataclasses.replace(cases[0], expected=dict(cases[0].expected, explanation="l5"))
    result = one_pass(cases)
    assert (result.attempted, result.failed) == (2, 1)


def test_bad_witness_is_counted():
    cases = workloads.generated_cases("relational_sat", 1)[:1]
    wpx, checker, problems = setup_env(cases)

    def shifted(problem, verdict):
        run_, plan = checker.extract_witness(problem, verdict)
        seg = run_.segments[0]
        late = dataclasses.replace(seg, dwell=seg.dwell + 1)
        return dataclasses.replace(run_, segments=(late,) + run_.segments[1:]), plan

    broken = dataclasses.replace(checker, extract_witness=shifted)
    result = run.run_ops(wpx, broken, cases, problems, 1, 0, 1)
    assert result.failed == 1
    assert "witness" in result.messages[0]


def test_latencies_are_scaled_to_the_reference_speed(monkeypatch):
    class HalfSpeed(speed.Sampler):
        def speed(self, t0, t1):
            return 2 * speed.REF_S_PER_ITERATION

    monkeypatch.setattr(speed, "Sampler", HalfSpeed)
    result = one_pass(workloads.generated_cases("relational_sat", 1)[:2])
    assert result.latencies == pytest.approx([t / 2 for t in result.raw_latencies])


def test_sampler_time_is_taken_out_of_latencies():
    result = one_pass(workloads.generated_cases("relational_sat", 1)[:3])
    spans_s = sum(t1 - t0 for t0, t1 in result.bounds)
    assert len(result.bounds) == 3
    assert 0 < spans_s - sum(result.raw_latencies) < 0.2 * spans_s


def test_sampler_speed_averages_the_samples_in_the_span_or_the_nearest():
    sampler = speed.Sampler()
    sampler.times = [1.0, 2.0, 3.0, 4.0, 5.0]
    sampler.loops = [1.0, 2.0, 3.0, 4.0, 6.0]
    assert sampler.speed(1.5, 4.5) == 3.0
    assert sampler.speed(4.9, 4.95) == pytest.approx(13.0 / 3)


def test_every_setup_probe_runs_and_its_time_is_not_measured():
    class Probe:
        results = []

        def __call__(self):
            time.sleep(0.05)
            self.results.append({})

    cases = workloads.generated_cases("relational_sat", 1)[:1]
    wpx, checker, problems = setup_env(cases)
    probe = Probe()
    t0 = time.perf_counter()
    result = run.run_ops(wpx, checker, cases, problems, 1, 0, 1, probe, 3)
    wall = time.perf_counter() - t0
    assert len(probe.results) == 3 and result.attempted == 1
    assert result.elapsed <= wall - 3 * 0.05


def test_tail_has_ten_samples_beyond():
    value, pct, n = run.tail(list(range(100)))
    assert (value, pct, n) == (89, 90.0, 100)
    assert run.tail([3, 1, 2]) == (3, 100.0, 3)


def test_self_time_subtracts_children():
    s = [
        spans.Span("op", 0, -1, 0.0, 10.0),
        spans.Span("explain", 0, 0, 1.0, 9.0),
        spans.Span("reach", 0, 1, 2.0, 7.0),
        spans.Span("reach.box", 0, 2, 2.0, 3.0),
    ]
    assert spans.self_times(s) == [2.0, 3.0, 4.0, 1.0]


def test_traced_run_reports_every_layer():
    cases = workloads.generated_cases("relational_sat", 1)[:2]
    wpx, checker, problems = setup_env(cases)
    explain_mod = sys.modules["wpx.explain"]
    original = explain_mod.bounded_reachable
    tracer = spans.Tracer()
    warm, plain, traced = run.run_traced(wpx, checker, cases, problems, 2, 0, tracer)
    # One warm-up cycle, then each operation once untraced and once traced.
    assert [r.attempted for r in (warm, plain, traced)] == [2, 2, 2]
    assert sum(r.failed for r in (warm, plain, traced)) == 0
    assert {s.op for s in tracer.spans} == {0, 1}
    assert explain_mod.bounded_reachable is original
    metrics = spans.layer_metrics(tracer.spans, {0: "sat", 1: "sat"})
    assert set(metrics) | {"textio.parse_s", "trace.explain_per_s_untraced",
                           "trace.explain_per_s_traced", "trace.overhead_per_s"} == set(spans.UNITS)
    assert metrics["witness.extracts_per_report"] == 3
    assert metrics["reach.replays"] > 0 and metrics["reach.box_decided"] == 0

