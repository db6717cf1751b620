"""Tests of the benchmark's own code: span arithmetic, checks, tracing on/off.

Run from the repository root:  python3 -m pytest benchmark/tests
"""

import dataclasses
import json
import os

import numpy as np
import pytest

import gammasum.cumulants
import gammasum.errors
import gammasum.finite_sum
import gammasum.pipeline
import run
import spans
import workloads
from gammasum.weights import make_power_law_normalized

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _tree():
    # root [0, 10] with children a [1, 4] and b [5, 9]; a has child c [2, 3]
    return [
        spans.Span("pipeline.z_cdf", 0.0, 10.0, None),
        spans.Span("finite_sum.invert_to_table", 1.0, 4.0, 0, work=300.0),
        spans.Span("cumulants.sigma_M", 2.0, 3.0, 1),
        spans.Span("finite_sum.invert_to_table", 5.0, 9.0, 0, work=100.0),
    ]


def test_self_time_is_span_minus_direct_children():
    assert spans.self_times(_tree()) == [3.0, 2.0, 1.0, 4.0]


def test_summary_aggregates_per_operation():
    tracer = spans.Tracer()
    tracer.spans.extend(_tree())
    tracer.spans[0].work = 200.0
    tracer.errors["cumulants"] = 1
    out = tracer.summary(n_ops=2)
    assert out["pipeline.z_cdf.self_s"] == pytest.approx(1.5)
    assert out["pipeline.z_cdf.wall_s"] == pytest.approx(5.0)
    assert out["finite_sum.invert_to_table.calls"] == pytest.approx(1.0)
    assert out["finite_sum.invert_to_table.self_s"] == pytest.approx(3.0)
    assert out["finite_sum.invert_to_table.points"] == pytest.approx(200.0)
    assert out["pipeline.head_points_ratio"] == pytest.approx(2.0)
    assert out["cumulants.errors"] == 1.0
    total_self = sum(v for k, v in out.items() if k.endswith(".self_s"))
    assert total_self == pytest.approx(out["pipeline.z_cdf.wall_s"])


def _perturbed(cdf):
    # F + c F (1 - F) stays monotone within [0, 1] and moves F = 1/2 by c / 4
    return cdf + 1e-5 * cdf * (1.0 - cdf)


def test_perturbed_head_table_counts_as_failure():
    heads = workloads.Heads(0, None)
    op = (0.5, 3)
    table = heads.run(op)
    assert heads.check(op, table)
    assert not heads.check(op, dataclasses.replace(table, cdf=_perturbed(table.cdf)))

    class PerturbedHeads(workloads.Heads):
        def run(self, op):
            tab = super().run(op)
            return dataclasses.replace(tab, cdf=_perturbed(tab.cdf))

    loop = run.Loop(PerturbedHeads(0, None))
    elapsed, ok = loop.execute(op)
    assert not ok and elapsed > 0.0
    assert (loop.attempted, loop.failed) == (1, 1)


def test_perturbed_sec6_table_fails_recorded_comparison():
    recorded = workloads.load_recorded()
    cdf = np.zeros(workloads.Z_GRID.size)
    cdf[:: workloads.STRIDE] = recorded["sec6_M10_cdf"]
    pdf = np.zeros(workloads.Z_GRID.size)
    pdf[:: workloads.STRIDE] = recorded["sec6_M10_pdf"]
    assert workloads.matches_recorded(recorded, "sec6_M10", cdf, pdf, 1e-6)
    assert not workloads.matches_recorded(recorded, "sec6_M10", _perturbed(cdf), pdf, 1e-6)
    assert not workloads.matches_recorded(recorded, "sec6_M10", cdf, None, 1e-6)


class _Probe:
    """Workload stub that records whether each call saw traced functions."""

    def __init__(self):
        self.seen = []
        self.spec = make_power_law_normalized(0.75, 0.5)

    def rounds(self):
        while True:
            yield [None]

    def items(self, op):
        return 1

    def run(self, op):
        fn = gammasum.pipeline.invert_to_table
        self.seen.append(hasattr(fn, "__wrapped__"))
        return gammasum.cumulants.sigma_M(self.spec, 3)

    def check(self, op, out):
        return out > 0.0


def test_tracing_off_leaves_timed_calls_untraced():
    original = gammasum.finite_sum.invert_to_table
    probe = _Probe()
    loop = run.Loop(probe).run(0.01)
    assert probe.seen and not any(probe.seen)
    assert loop.round_rates and all(rate > 0.0 for rate in loop.round_rates)
    assert loop.traced_ops == 0
    assert gammasum.pipeline.invert_to_table is original


def test_tracing_on_alternates_and_restores():
    original = gammasum.finite_sum.invert_to_table
    probe = _Probe()
    tracer = spans.Tracer()
    loop = run.Loop(probe, tracer).run(0.01)
    # every operation runs untraced (timed for the overhead base), then traced
    assert probe.seen[0::2] == [False] * (len(probe.seen) // 2)
    assert probe.seen[1::2] == [True] * (len(probe.seen) // 2)
    assert loop.traced_ops == len(probe.seen) // 2
    assert {s.name for s in tracer.spans} >= {"cumulants.sigma_M", "weights.tail_power_sum"}
    assert gammasum.pipeline.invert_to_table is original
    assert gammasum.finite_sum.invert_to_table is original


def test_install_wraps_every_binding_of_a_function():
    tracer = spans.Tracer()
    tracer.install()
    try:
        wrapped = gammasum.pipeline.invert_to_table
        assert wrapped.__wrapped__ is gammasum.finite_sum.invert_to_table.__wrapped__
        with pytest.raises(gammasum.errors.DomainError):
            gammasum.cumulants.sigma_M(make_power_law_normalized(0.75, 0.5), 0)
    finally:
        tracer.uninstall()
    assert tracer.errors["cumulants"] == 1
    assert not hasattr(gammasum.pipeline.invert_to_table, "__wrapped__")


def test_benchmark_json_matches_emitted_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in doc["per_layer"]] == list(run.PER_LAYER)
    for m in doc["per_layer"]:
        assert m["unit"] == run.unit_of(m["name"])
    assert {m["name"] for m in doc["end_to_end"]} == set(run.END_TO_END)
