"""Equivalence tests: the vectorized pair recurrence vs the simulator.

The two-general kernels live in :mod:`repro.engine.vectorized`; the
weak-adversary sweeps are reached through
:meth:`Engine.pair_weak_estimate_s` / :meth:`Engine.pair_weak_estimate_w`.
"""

import random

import numpy as np
import pytest

from repro.adversary.weak import WeakAdversary, estimate_against_weak_adversary
from repro.core.execution import execute
from repro.core.run import Run, random_run
from repro.engine import Engine
from repro.engine.vectorized import simulate_pair_counts
from repro.protocols.protocol_s import ProtocolS
from repro.protocols.weak_adversary import ProtocolW


def _delivery_matrices(run: Run):
    d12 = np.array(
        [[run.delivers(1, 2, r) for r in range(1, run.num_rounds + 1)]]
    )
    d21 = np.array(
        [[run.delivers(2, 1, r) for r in range(1, run.num_rounds + 1)]]
    )
    return d12, d21


class TestRecurrenceEquivalence:
    def test_counts_match_simulator_on_random_runs(self, pair, rng):
        protocol = ProtocolS(epsilon=0.2)
        for _ in range(80):
            num_rounds = rng.randint(1, 7)
            run = random_run(pair, num_rounds, rng).with_inputs([1, 2])
            d12, d21 = _delivery_matrices(run)
            fast = simulate_pair_counts(d12, d21)
            execution = execute(protocol, pair, run, {1: 1.0})
            s1 = execution.local(1).states[-1]
            s2 = execution.local(2).states[-1]
            assert fast.count_1[0] == s1.count
            assert fast.count_2[0] == s2.count
            assert fast.rfire_heard_2[0] == (s2.rfire is not None)

    def test_input_flags_respected(self, pair):
        d12 = np.ones((1, 3), dtype=bool)
        d21 = np.ones((1, 3), dtype=bool)
        counts = simulate_pair_counts(d12, d21, input_1=False, input_2=False)
        assert counts.count_1[0] == 0
        assert counts.count_2[0] == 0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="identical shape"):
            simulate_pair_counts(
                np.ones((1, 3), dtype=bool), np.ones((1, 4), dtype=bool)
            )


def pair_weak_s(
    num_rounds, epsilon, loss, samples=100_000, seed=0
):
    return Engine().pair_weak_estimate_s(
        num_rounds, epsilon, loss, samples, np.random.default_rng(seed)
    )


def pair_weak_w(
    num_rounds, threshold, loss, samples=100_000, seed=0
):
    return Engine().pair_weak_estimate_w(
        num_rounds, threshold, loss, samples, np.random.default_rng(seed)
    )


class TestEstimatorEquivalence:
    def test_protocol_s_estimates_agree(self, pair):
        num_rounds, epsilon, loss = 10, 0.1, 0.2
        slow = estimate_against_weak_adversary(
            ProtocolS(epsilon=epsilon),
            pair,
            num_rounds,
            WeakAdversary(loss),
            samples=1_500,
            rng=random.Random(3),
        )
        fast = pair_weak_s(
            num_rounds, epsilon, loss, samples=60_000, seed=3
        )
        assert fast.expected_liveness == pytest.approx(
            slow.expected_liveness, abs=0.03
        )
        assert fast.expected_unsafety == pytest.approx(
            slow.expected_unsafety, abs=0.015
        )

    def test_protocol_w_estimates_agree(self, pair):
        num_rounds, threshold, loss = 12, 4, 0.4
        slow = estimate_against_weak_adversary(
            ProtocolW(threshold),
            pair,
            num_rounds,
            WeakAdversary(loss),
            samples=1_500,
            rng=random.Random(5),
        )
        fast = pair_weak_w(
            num_rounds, threshold, loss, samples=60_000, seed=5
        )
        assert fast.expected_liveness == pytest.approx(
            slow.expected_liveness, abs=0.03
        )
        assert fast.expected_unsafety == pytest.approx(
            slow.expected_unsafety, abs=0.015
        )

    def test_extremes(self):
        lossless = pair_weak_w(8, 3, 0.0, samples=100)
        assert lossless.expected_liveness == 1.0
        assert lossless.expected_unsafety == 0.0
        silent = pair_weak_w(8, 3, 1.0, samples=100)
        assert silent.expected_liveness == 0.0

    def test_validates_inputs(self):
        with pytest.raises(ValueError):
            pair_weak_s(8, 0.0, 0.1)
        with pytest.raises(ValueError):
            pair_weak_w(8, 0, 0.1)

    def test_exponential_decay_of_w_unsafety(self):
        # The §8 concentration claim at scale only numpy makes cheap:
        # at fixed K/N ratio, disagreement decays rapidly with N.
        loss = 0.4
        values = []
        for num_rounds in (12, 24, 48):
            estimate = pair_weak_w(
                num_rounds, num_rounds // 3, loss, samples=200_000, seed=1
            )
            values.append(estimate.expected_unsafety)
        assert values[0] > values[1] > values[2] or values[2] == 0.0
        assert values[2] < values[0] / 5
