"""Parity tests: the numpy batch kernel versus the reference simulator.

The engine's whole contract is that switching backends never changes a
number.  Hypothesis drives arbitrary runs on the named small
topologies, a fixed sweep covers random connected topologies, and in
every case the vectorized results must equal the reference closed
forms *exactly* (``==`` on the frozen result dataclass, no tolerance):
the kernel is an integer-exact transcription, not an approximation.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.packed import RunBatch, layout_for
from repro.core.probability import EventBatch, evaluate
from repro.core.run import Run, bernoulli_run, good_run
from repro.core.topology import Topology
from repro.engine import vectorized
from repro.protocols import (
    AlwaysAttack,
    EagerS,
    GreedyS,
    InputAttack,
    MessageValidityS,
    NaiveCountingS,
    ProtocolM,
    RepeatedA,
    SkewedS,
)
from repro.protocols.deterministic import NeverAttack
from repro.protocols.protocol_a import ProtocolA
from repro.protocols.protocol_s import ProtocolS
from repro.protocols.weak_adversary import ProtocolW

from ..conftest import runs_for, small_topology_strategy

NAMED_TOPOLOGIES = [
    Topology.pair(),
    Topology.path(3),
    Topology.ring(4),
    Topology.star(4),
    Topology.complete(3),
]


def _topology_and_run() -> st.SearchStrategy:
    """(topology, run) pairs over the named small topologies."""
    return small_topology_strategy().flatmap(
        lambda topology: st.tuples(
            st.just(topology),
            st.integers(min_value=1, max_value=5).flatmap(
                lambda rounds: runs_for(topology, rounds)
            ),
        )
    )


def _protocols_for(num_rounds: int):
    return [
        ProtocolS(epsilon=0.25),
        ProtocolS(epsilon=1.0 / max(1, num_rounds)),
        ProtocolW(1),
        ProtocolW(max(1, num_rounds // 2)),
        EagerS(epsilon=0.3),
        GreedyS(epsilon=0.2, slack=1),
        GreedyS(epsilon=0.7, slack=2),
        MessageValidityS(epsilon=0.25),
        MessageValidityS(epsilon=0.5, coordinator=2),
        NaiveCountingS(epsilon=0.25),
        SkewedS(epsilon=0.3),
    ]


class TestBatchParity:
    @given(pair=_topology_and_run())
    @settings(max_examples=120, deadline=None)
    def test_matches_reference_exactly(self, pair):
        topology, run = pair
        for protocol in _protocols_for(run.num_rounds):
            expected = evaluate(protocol, topology, run)
            (actual,) = vectorized.evaluate_batch(protocol, topology, [run])
            assert actual == expected

    def test_random_connected_topologies(self):
        rng = random.Random(2025)
        for m in (2, 3, 4, 5):
            for density in (0.3, 0.7):
                topology = Topology.random_connected(m, density, rng)
                num_rounds = rng.randint(1, 5)
                runs = [good_run(topology, num_rounds)] + [
                    bernoulli_run(topology, num_rounds, 0.4, rng)
                    for _ in range(8)
                ]
                for protocol in _protocols_for(num_rounds):
                    if not vectorized.supports(protocol, topology):
                        continue
                    actual = vectorized.evaluate_batch(
                        protocol, topology, runs
                    )
                    for run, got in zip(runs, actual):
                        assert got == evaluate(protocol, topology, run)

    @given(pair=_topology_and_run())
    @settings(max_examples=40, deadline=None)
    def test_neighbor_batch_matches_reference(self, pair):
        topology, run = pair
        layout = layout_for(topology, run.num_rounds)
        parent = layout.pack(run)
        for protocol in _protocols_for(run.num_rounds):
            if not vectorized.supports(protocol, topology):
                continue
            parent_result, by_bit = vectorized.evaluate_neighbor_batch(
                protocol, topology, parent
            )
            assert parent_result == evaluate(protocol, topology, run)
            for bit, result in enumerate(by_bit):
                neighbor = layout.unpack_bits(parent.bits ^ (1 << bit))
                assert result == evaluate(protocol, topology, neighbor)

    def test_batch_order_preserved(self):
        topology = Topology.pair()
        rng = random.Random(7)
        runs = [bernoulli_run(topology, 4, 0.5, rng) for _ in range(20)]
        protocol = ProtocolS(epsilon=0.125)
        batch = vectorized.evaluate_batch(protocol, topology, runs)
        serial = [evaluate(protocol, topology, run) for run in runs]
        assert batch == serial

    def test_empty_packed_batch_is_an_event_batch(self):
        topology = Topology.pair()
        empty = RunBatch.from_bits(layout_for(topology, 3), [])
        result = vectorized.evaluate_packed_batch(
            ProtocolS(epsilon=0.25), topology, empty
        )
        assert isinstance(result, EventBatch)
        assert len(result) == 0
        assert result.pr_partial_attack.shape == (0,)


class TestSupports:
    def test_supports_s_and_w_on_small_topologies(self):
        for topology in NAMED_TOPOLOGIES:
            assert vectorized.supports(ProtocolS(epsilon=0.5), topology)
            assert vectorized.supports(ProtocolW(2), topology)

    def test_supports_the_counting_family(self):
        for topology in NAMED_TOPOLOGIES:
            for protocol in _protocols_for(4):
                assert vectorized.supports(protocol, topology)

    def test_rejects_protocols_outside_the_family(self):
        pair = Topology.pair()
        for protocol in (
            ProtocolM(),
            RepeatedA(4, copies=2),
            AlwaysAttack(),
            InputAttack(),
        ):
            assert not vectorized.supports(protocol, pair)

    def test_rejects_variant_subclasses(self):
        class TweakedGreedy(GreedyS):
            pass

        assert not vectorized.supports(
            TweakedGreedy(epsilon=0.5), Topology.pair()
        )
        with pytest.raises(ValueError, match="not supported"):
            vectorized.evaluate_batch(
                TweakedGreedy(epsilon=0.5),
                Topology.pair(),
                [good_run(Topology.pair(), 2)],
            )

    def test_rejects_other_protocols(self):
        pair = Topology.pair()
        assert not vectorized.supports(ProtocolA(4), pair)
        assert not vectorized.supports(NeverAttack(), pair)

    def test_rejects_subclasses(self):
        # A variant subclass may override decision logic the kernel
        # does not model; only the exact classes are fast-pathed.
        class TweakedS(ProtocolS):
            pass

        assert not vectorized.supports(
            TweakedS(epsilon=0.5), Topology.pair()
        )


class TestTensorConversion:
    def test_rejects_mixed_horizons(self):
        topology = Topology.pair()
        runs = [good_run(topology, 3), good_run(topology, 4)]
        with pytest.raises(ValueError):
            vectorized.runs_to_tensors(topology, 3, runs)

    def test_rejects_foreign_topology_run(self):
        pair = Topology.pair()
        path3 = Topology.path(3)
        with pytest.raises(ValueError):
            vectorized.runs_to_tensors(pair, 3, [good_run(path3, 3)])

    def test_good_run_delivers_everything(self):
        topology = Topology.ring(4)
        delivered, inputs = vectorized.runs_to_tensors(
            topology, 3, [good_run(topology, 3)]
        )
        assert delivered.all()
        assert inputs.all()


class TestPairKernels:
    def test_weak_estimates_are_reproducible(self):
        estimate_a = vectorized.pair_protocol_w_weak_estimate(
            12, 4, 0.3, 2_000, np.random.default_rng(5)
        )
        estimate_b = vectorized.pair_protocol_w_weak_estimate(
            12, 4, 0.3, 2_000, np.random.default_rng(5)
        )
        assert estimate_a == estimate_b

    def test_weak_estimate_s_bounds(self):
        estimate = vectorized.pair_protocol_s_weak_estimate(
            12, 1.0 / 12, 0.2, 2_000, np.random.default_rng(9)
        )
        assert 0.0 <= estimate.expected_unsafety <= 1.0
        assert 0.0 <= estimate.expected_liveness <= 1.0
