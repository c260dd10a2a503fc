"""Span self time, generator spans, and restoring wrapped entry points."""

import pytest

import repro.core.packed as packed
import repro.core.run as run_module
from repro.core.topology import Topology

from ..spans import SpanRecorder, Target, instrument, totals


def test_self_time_subtracts_direct_children():
    recorder = SpanRecorder()
    outer = recorder.name_of("a:outer")
    inner = recorder.name_of("b:inner")
    parent = recorder.open(outer, 0.0)
    child = recorder.open(inner, 1.0)
    recorder.close(child, 4.0)
    second = recorder.open(inner, 6.0)
    recorder.close(second, 1.5)
    recorder.close(parent, 10.0)
    result = totals(recorder)
    assert result.self_time["a:outer"] == pytest.approx(4.5)
    assert result.self_time["b:inner"] == pytest.approx(5.5)
    assert result.busy["a:outer"] == pytest.approx(10.0)
    assert result.calls == {"a:outer": 1, "b:inner": 2}
    assert result.top_level_busy == pytest.approx(10.0)
    assert result.layer("b") == pytest.approx(5.5)
    assert result.layer("a") == pytest.approx(4.5)


def test_generator_span_counts_items_once_and_restores():
    original_enumerate = packed.enumerate_packed_runs
    original_unpack = packed.RunLayout.__dict__["unpack_bits"]
    recorder = SpanRecorder()
    targets = [
        Target("repro.core.packed", "enumerate_packed_runs", "core.packed:enumerate", True),
        Target("repro.core.run", "enumerate_runs", "core.packed:enumerate", True),
        Target("repro.core.packed", "RunLayout.unpack_bits", "core.packed:unpack"),
    ]
    topology = Topology.pair()
    with instrument(recorder, targets):
        assert packed.enumerate_packed_runs is not original_enumerate
        runs = list(run_module.enumerate_runs(topology, 2))
    assert len(runs) == 2**6
    result = totals(recorder)
    # enumerate_runs wraps enumerate_packed_runs: one span, 64 items.
    assert result.calls["core.packed:enumerate"] == 1
    assert result.work["core.packed:enumerate"] == 64
    assert result.calls["core.packed:unpack"] == 64
    assert result.self_time["core.packed:enumerate"] >= 0.0
    assert packed.enumerate_packed_runs is original_enumerate
    assert packed.RunLayout.__dict__["unpack_bits"] is original_unpack
