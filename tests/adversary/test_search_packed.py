"""Packed search paths: parity between the kernel and the reference path.

``exhaustive_search`` and ``greedy_search`` must return bit-identical
``SearchResult`` values whichever backend evaluates their runs.  Under
the reference backend the packed batches and greedy neighborhoods are
unpacked and evaluated by the reference simulator, so these tests pit
the numpy kernel against it directly: same maxima, same witnesses,
same ``runs_examined`` budgets, for both the unsafety objective
(``U_s``) and the negated-liveness objective (``L(R)`` minimization),
on K2/K3/chain/star instances.  The tuple-flip greedy oracle lives in
``test_greedy_golden.py``.
"""

from __future__ import annotations

import random

import pytest

from repro.adversary.search import (
    exhaustive_search,
    greedy_search,
    negated_liveness_objective,
    unsafety_objective,
)
from repro.core.packed import layout_for
from repro.core.run import good_run, random_run, run_space_size
from repro.core.topology import Topology
from repro.engine import Engine
from repro.protocols import (
    EagerS,
    GreedyS,
    MessageValidityS,
    NaiveCountingS,
    SkewedS,
)
from repro.protocols.protocol_s import ProtocolS
from repro.protocols.weak_adversary import ProtocolW

PAIR = Topology.pair()
K3 = Topology.complete(3)
PATH3 = Topology.path(3)
STAR4 = Topology.star(4)

INSTANCES = [
    (PAIR, 3, ProtocolW(2)),
    (PAIR, 2, ProtocolS(epsilon=0.25)),
    (K3, 1, ProtocolW(2)),
    (K3, 1, ProtocolS(epsilon=0.25)),
    (PATH3, 1, ProtocolS(epsilon=0.25)),
    (STAR4, 1, ProtocolW(2)),
]

# The Figure-1 variants share the kernel through their counting rule.
VARIANT_INSTANCES = [
    (PAIR, 2, EagerS(epsilon=0.25)),
    (PATH3, 1, GreedyS(epsilon=0.2, slack=1)),
    (K3, 1, MessageValidityS(epsilon=0.25)),
    (STAR4, 1, NaiveCountingS(epsilon=0.25)),
    (PAIR, 3, SkewedS(epsilon=0.25)),
]

OBJECTIVES = [unsafety_objective, negated_liveness_objective]


@pytest.fixture
def vec_engine():
    return Engine(backend="vectorized")


@pytest.fixture
def ref_engine():
    return Engine(backend="reference")


class TestExhaustiveParity:
    @pytest.mark.parametrize("topology, num_rounds, protocol", INSTANCES)
    @pytest.mark.parametrize("objective", OBJECTIVES)
    def test_packed_matches_legacy(
        self, topology, num_rounds, protocol, objective, vec_engine, ref_engine
    ):
        packed = exhaustive_search(
            protocol, topology, num_rounds, objective, engine=vec_engine
        )
        legacy = exhaustive_search(
            protocol, topology, num_rounds, objective, engine=ref_engine
        )
        assert packed.value == legacy.value
        assert packed.run == legacy.run
        assert packed.runs_examined == legacy.runs_examined
        assert packed.certification == legacy.certification == "exact"
        assert packed.reduction_factor is None

    @pytest.mark.parametrize("topology, num_rounds, protocol", INSTANCES)
    @pytest.mark.parametrize("objective", OBJECTIVES)
    def test_orbit_reduced_matches_unreduced(
        self, topology, num_rounds, protocol, objective, vec_engine
    ):
        full = exhaustive_search(
            protocol, topology, num_rounds, objective, engine=vec_engine
        )
        reduced = exhaustive_search(
            protocol,
            topology,
            num_rounds,
            objective,
            engine=vec_engine,
            symmetry_reduction=True,
        )
        assert reduced.value == full.value
        assert reduced.runs_examined <= full.runs_examined
        assert reduced.reduction_factor is not None
        assert reduced.reduction_factor >= 1.0
        # The witness comes from the representative set, so it must
        # attain the maximum (checked against the full sweep's value).
        assert reduced.run is not None

    def test_examined_counts_preserved(self, vec_engine, ref_engine):
        # The historical budget numbers the parity suite pins.
        for engine in (vec_engine, ref_engine):
            result = exhaustive_search(
                ProtocolS(epsilon=0.25), PAIR, 3, engine=engine
            )
            assert result.runs_examined == 256
            fixed = exhaustive_search(
                ProtocolS(epsilon=0.25),
                PAIR,
                3,
                fixed_inputs=frozenset({1, 2}),
                engine=engine,
            )
            assert fixed.runs_examined == 64

    def test_fixed_inputs_orbit_parity(self, vec_engine):
        fixed = frozenset({1, 2, 3})
        full = exhaustive_search(
            ProtocolW(2), K3, 1, fixed_inputs=fixed, engine=vec_engine
        )
        reduced = exhaustive_search(
            ProtocolW(2),
            K3,
            1,
            fixed_inputs=fixed,
            engine=vec_engine,
            symmetry_reduction=True,
        )
        assert reduced.value == full.value
        assert reduced.runs_examined < full.runs_examined

    def test_symmetry_flag_is_inert_without_protocol_support(
        self, vec_engine
    ):
        # A protocol that does not declare its symmetry (default hook
        # returns None) gets the plain sweep even when asked to reduce.
        from repro.protocols.protocol_a import ProtocolA

        result = exhaustive_search(
            ProtocolA(3), PAIR, 3, engine=vec_engine, symmetry_reduction=True
        )
        assert result.reduction_factor is None
        assert result.runs_examined == run_space_size(
            PAIR, 3, fixed_inputs=False
        )

    def test_limit_guard_still_raises(self, vec_engine):
        with pytest.raises(ValueError, match="enumeration limit"):
            exhaustive_search(
                ProtocolW(2), K3, 1, limit=100, engine=vec_engine
            )
        with pytest.raises(ValueError, match="enumeration limit"):
            exhaustive_search(
                ProtocolW(2),
                K3,
                2,
                limit=10,
                engine=vec_engine,
                symmetry_reduction=True,
            )


class TestGreedyParity:
    @pytest.mark.parametrize(
        "topology, num_rounds, protocol", INSTANCES + VARIANT_INSTANCES
    )
    @pytest.mark.parametrize("objective", OBJECTIVES)
    def test_incremental_matches_legacy(
        self, topology, num_rounds, protocol, objective, vec_engine, ref_engine
    ):
        rng = random.Random(31)
        seeds = [good_run(topology, num_rounds)]
        seeds.extend(random_run(topology, num_rounds, rng) for _ in range(3))
        for seed in seeds:
            incremental = greedy_search(
                protocol, topology, num_rounds, seed, objective,
                engine=vec_engine,
            )
            legacy = greedy_search(
                protocol, topology, num_rounds, seed, objective,
                engine=ref_engine,
            )
            assert incremental.value == legacy.value
            assert incremental.run == legacy.run
            assert incremental.runs_examined == legacy.runs_examined

    @pytest.mark.parametrize(
        "topology, num_rounds, protocol", INSTANCES + VARIANT_INSTANCES
    )
    def test_reference_neighbors_match_vectorized(
        self, topology, num_rounds, protocol, vec_engine, ref_engine
    ):
        parent = layout_for(topology, num_rounds).pack(
            random_run(topology, num_rounds, random.Random(7))
        )
        incremental = vec_engine.evaluate_neighbors(protocol, topology, parent)
        fallback = ref_engine.evaluate_neighbors(protocol, topology, parent)
        assert fallback == incremental
        assert len(fallback[1]) == parent.layout.num_bits
        # The kernel served one side and the reference simulator the
        # other, so the equality compares the two backends.
        assert ref_engine.stats.vectorized_evaluations == 0
        assert vec_engine.stats.reference_evaluations == 0

    def test_off_horizon_seed_raises(self, vec_engine, ref_engine):
        for engine in (vec_engine, ref_engine):
            with pytest.raises(ValueError, match="horizon"):
                greedy_search(
                    ProtocolW(2), K3, 2, good_run(K3, 3), engine=engine
                )
