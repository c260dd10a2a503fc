"""Micro-benchmarks for the core primitives.

Not tied to a paper claim — these track the cost of the building blocks
the experiments lean on (simulation, level computation, clipping,
closed-form evaluation, worst-run search) so performance regressions
are visible.
"""

import random

from repro.adversary.search import exhaustive_search, family_search
from repro.core.execution import decide, execute
from repro.core.measures import clip, level_profile, modified_level_profile
from repro.core.probability import exact_probabilities
from repro.core.run import good_run, random_run
from repro.core.topology import Topology
from repro.protocols.protocol_a import ProtocolA
from repro.protocols.protocol_s import ProtocolS

PAIR = Topology.pair()
RING = Topology.ring(6)
STAR4 = Topology.star(4)


def test_simulate_protocol_s_pair(benchmark):
    protocol = ProtocolS(epsilon=0.1)
    run = good_run(PAIR, 20)
    benchmark(decide, protocol, PAIR, run, {1: 1.0})


def test_simulate_protocol_s_ring6(benchmark):
    protocol = ProtocolS(epsilon=0.1)
    run = good_run(RING, 10)
    benchmark(decide, protocol, RING, run, {1: 1.0})


def test_full_execution_recording(benchmark):
    protocol = ProtocolS(epsilon=0.1)
    run = good_run(RING, 10)
    benchmark(execute, protocol, RING, run, {1: 1.0})


def test_level_profile_ring6(benchmark):
    run = good_run(RING, 10)
    benchmark(level_profile, run, 6)


def test_modified_level_profile_ring6(benchmark):
    run = good_run(RING, 10)
    benchmark(modified_level_profile, run, 6)


def test_clip_random_run(benchmark):
    rng = random.Random(0)
    run = random_run(RING, 8, rng)
    benchmark(clip, run, 3)


def test_closed_form_protocol_s(benchmark):
    protocol = ProtocolS(epsilon=0.05)
    run = good_run(PAIR, 50)
    benchmark(protocol.closed_form_probabilities, PAIR, run)


def test_enumeration_protocol_a(benchmark):
    protocol = ProtocolA(12)
    run = good_run(PAIR, 12)
    benchmark(exact_probabilities, protocol, PAIR, run)


def test_family_search_protocol_s(benchmark):
    protocol = ProtocolS(epsilon=0.2)
    benchmark.pedantic(
        family_search, args=(protocol, PAIR, 6), rounds=1, iterations=1
    )


def test_orbit_reduced_sweep_protocol_s_star4(benchmark):
    """The exhaustive sweep: 2^16 runs, orbit-reduced to 11,968."""
    from repro.engine import Engine

    benchmark.pedantic(
        exhaustive_search,
        args=(ProtocolS(epsilon=0.2), STAR4, 2),
        kwargs={"engine": Engine(), "symmetry_reduction": True},
        rounds=5,
        iterations=1,
    )


def test_weak_adversary_estimate_generic(benchmark):
    """Reference path: per-run simulation of 300 sampled runs."""
    import random as _random

    from repro.adversary.weak import (
        WeakAdversary,
        estimate_against_weak_adversary,
    )

    benchmark.pedantic(
        estimate_against_weak_adversary,
        args=(ProtocolS(epsilon=0.1), PAIR, 12, WeakAdversary(0.2)),
        kwargs={"samples": 300, "rng": _random.Random(0)},
        rounds=1,
        iterations=1,
    )


def test_weak_adversary_estimate_vectorized(benchmark):
    """numpy path: 100k sampled runs in one shot."""
    import numpy as np

    from repro.engine import Engine

    benchmark.pedantic(
        Engine().pair_weak_estimate_s,
        args=(12, 0.1, 0.2, 100_000, np.random.default_rng(0)),
        rounds=1,
        iterations=1,
    )
