"""Unit tests for runs and the run builders."""

import random

import pytest

from repro.core.run import (
    Run,
    all_message_tuples,
    bernoulli_run,
    chain_run,
    enumerate_input_sets,
    enumerate_runs,
    good_run,
    partial_round_cut_run,
    random_run,
    round_cut_run,
    run_space_size,
    silent_run,
    spanning_tree_run,
)
from repro.core.topology import Topology
from repro.core.types import ENVIRONMENT, MessageTuple


class TestRunBasics:
    def test_build_and_views(self):
        run = Run.build(3, inputs=[1], messages=[(1, 2, 1), (2, 1, 3)])
        assert run.has_input(1)
        assert not run.has_input(2)
        assert run.delivers(1, 2, 1)
        assert not run.delivers(1, 2, 2)
        assert run.message_count() == 2

    def test_tuples_flat_view_matches_paper(self):
        run = Run.build(3, inputs=[2], messages=[(1, 2, 1)])
        assert run.tuples() == {(ENVIRONMENT, 2, 0), (1, 2, 1)}

    def test_input_tuples(self):
        run = Run.build(3, inputs=[1, 2])
        sources = {t.source for t in run.input_tuples()}
        assert sources == {ENVIRONMENT}

    def test_rejects_zero_rounds(self):
        with pytest.raises(ValueError, match="num_rounds"):
            Run.build(0)

    def test_rejects_message_past_horizon(self):
        with pytest.raises(ValueError):
            Run.build(2, messages=[(1, 2, 3)])

    def test_rejects_environment_input(self):
        with pytest.raises(ValueError):
            Run(3, frozenset([0]), frozenset())

    def test_runs_are_hashable_and_value_equal(self):
        a = Run.build(3, [1], [(1, 2, 1)])
        b = Run.build(3, [1], [(1, 2, 1)])
        assert a == b
        assert hash(a) == hash(b)

    def test_deliveries_to_is_sorted(self):
        run = Run.build(3, [], [(2, 1, 2), (3, 1, 2)])
        received = run.deliveries_to(1, 2)
        assert [m.source for m in received] == [2, 3]

    def test_deliveries_in_round(self):
        run = Run.build(3, [], [(1, 2, 1), (2, 1, 2)])
        assert run.deliveries_in_round(1) == {MessageTuple(1, 2, 1)}


class TestRunAlgebra:
    def test_adding_and_removing(self):
        run = Run.build(3, [1])
        bigger = run.adding((1, 2, 1), (2, 1, 2))
        assert bigger.message_count() == 2
        smaller = bigger.removing((1, 2, 1))
        assert smaller.message_count() == 1
        assert not smaller.delivers(1, 2, 1)

    def test_with_inputs_replaces(self):
        run = Run.build(3, [1], [(1, 2, 1)])
        swapped = run.with_inputs([2])
        assert swapped.inputs == frozenset([2])
        assert swapped.messages == run.messages

    def test_restricted_to_rounds(self):
        run = Run.build(4, [1], [(1, 2, 1), (1, 2, 3), (2, 1, 4)])
        cut = run.restricted_to_rounds(2)
        assert cut.messages == frozenset([MessageTuple(1, 2, 1)])
        assert cut.num_rounds == 4

    def test_union(self):
        a = Run.build(3, [1], [(1, 2, 1)])
        b = Run.build(3, [2], [(2, 1, 2)])
        merged = a.union(b)
        assert merged.inputs == frozenset([1, 2])
        assert merged.message_count() == 2

    def test_union_horizon_mismatch_raises(self):
        with pytest.raises(ValueError, match="horizons"):
            Run.build(3).union(Run.build(4))

    def test_is_subrun_of(self):
        small = Run.build(3, [1], [(1, 2, 1)])
        big = small.adding((2, 1, 2))
        assert small.is_subrun_of(big)
        assert not big.is_subrun_of(small)

    def test_validate_for_topology(self):
        run = Run.build(3, [1], [(1, 3, 1)])
        with pytest.raises(ValueError, match="does not follow an edge"):
            run.validate_for(Topology.path(3))

    def test_is_valid_for(self):
        topology = Topology.path(3)
        assert Run.build(2, [3], [(2, 3, 1)]).is_valid_for(topology)
        assert not Run.build(2, [4]).is_valid_for(topology)


class TestBuilders:
    def test_good_run_delivers_everything(self):
        topology = Topology.path(3)
        run = good_run(topology, 4)
        assert run.message_count() == topology.num_directed_links() * 4
        assert run.inputs == frozenset([1, 2, 3])

    def test_good_run_with_restricted_inputs(self):
        run = good_run(Topology.pair(), 3, inputs=[1])
        assert run.inputs == frozenset([1])

    def test_silent_run(self):
        run = silent_run(Topology.pair(), 3, [2])
        assert run.message_count() == 0
        assert run.inputs == frozenset([2])

    def test_round_cut_boundaries(self):
        topology = Topology.pair()
        everything = round_cut_run(topology, 4, 5)
        assert everything == good_run(topology, 4)
        nothing = round_cut_run(topology, 4, 1)
        assert nothing.message_count() == 0

    def test_round_cut_rejects_bad_cut(self):
        with pytest.raises(ValueError, match="cut_round"):
            round_cut_run(Topology.pair(), 4, 6)

    def test_partial_round_cut_blocks_targets_at_boundary(self):
        topology = Topology.pair()
        run = partial_round_cut_run(topology, 4, 2, blocked_targets=[2])
        assert run.delivers(1, 2, 1)
        assert run.delivers(2, 1, 2)
        assert not run.delivers(1, 2, 2)
        assert not run.delivers(1, 2, 3)
        assert not run.delivers(2, 1, 3)

    def test_spanning_tree_run_only_parent_to_child(self):
        topology = Topology.star(4)
        run = spanning_tree_run(topology, 3)
        assert run.inputs == frozenset([1])
        assert run.delivers(1, 2, 1)
        assert not run.delivers(2, 1, 1)

    def test_chain_run_unbroken(self):
        run = chain_run(4, None)
        assert run.delivers(2, 1, 1)
        assert run.delivers(1, 2, 4)

    def test_chain_run_break(self):
        run = chain_run(4, 2)
        assert run.delivers(2, 1, 1)
        assert not run.delivers(1, 2, 2)
        assert not run.delivers(2, 1, 3)

    def test_chain_run_rejects_bad_break(self):
        with pytest.raises(ValueError, match="break_round"):
            chain_run(4, 5)

    def test_builders_reject_inputs_off_the_topology(self):
        pair = Topology.pair()
        with pytest.raises(ValueError, match="not a vertex"):
            good_run(pair, 3, inputs=[3])
        with pytest.raises(ValueError, match="not a vertex"):
            silent_run(pair, 3, [1, 3])
        with pytest.raises(ValueError, match="not a vertex"):
            chain_run(3, None, [1, 2, 3])

    def test_partial_round_cut_rejects_bad_cut(self):
        with pytest.raises(ValueError, match="cut_round"):
            partial_round_cut_run(Topology.pair(), 4, 0, blocked_targets=[2])
        assert partial_round_cut_run(
            Topology.pair(), 4, 5, blocked_targets=[2]
        ) == good_run(Topology.pair(), 4)

    def test_bernoulli_run_extremes(self):
        topology = Topology.pair()
        rng = random.Random(0)
        assert bernoulli_run(topology, 3, 0.0, rng) == good_run(topology, 3)
        assert bernoulli_run(topology, 3, 1.0, rng).message_count() == 0

    def test_bernoulli_run_rate(self):
        topology = Topology.complete(4)
        rng = random.Random(7)
        total = possible = 0
        for _ in range(50):
            run = bernoulli_run(topology, 5, 0.3, rng)
            total += run.message_count()
            possible += topology.num_directed_links() * 5
        assert 0.6 < total / possible < 0.8

    def test_random_run_is_valid(self):
        topology = Topology.ring(4)
        rng = random.Random(3)
        for _ in range(20):
            assert random_run(topology, 3, rng).is_valid_for(topology)


class TestEnumeration:
    def test_enumerate_input_sets_count(self):
        sets = list(enumerate_input_sets(Topology.path(3)))
        assert len(sets) == 8
        assert frozenset() in sets and frozenset([1, 2, 3]) in sets

    def test_enumerate_runs_count_fixed_inputs(self):
        topology = Topology.pair()
        runs = list(enumerate_runs(topology, 1, inputs=[1]))
        assert len(runs) == run_space_size(topology, 1, fixed_inputs=True) == 4

    def test_enumerate_runs_count_all_inputs(self):
        topology = Topology.pair()
        runs = list(enumerate_runs(topology, 1))
        assert len(runs) == run_space_size(topology, 1, fixed_inputs=False) == 16

    def test_enumerated_runs_unique(self):
        topology = Topology.pair()
        runs = list(enumerate_runs(topology, 2))
        assert len(set(runs)) == len(runs)

    def test_all_message_tuples_count(self):
        topology = Topology.path(3)
        assert len(all_message_tuples(topology, 5)) == 4 * 5


class TestDeliveryIndexes:
    """The prebuilt per-round / per-target indexes must agree with a
    brute-force scan of ``run.messages`` on arbitrary runs."""

    def test_indexes_match_brute_force(self):
        rng = random.Random(99)
        topology = Topology.star(4)
        num_rounds = 3
        for _ in range(25):
            run = random_run(topology, num_rounds, rng)
            for round_number in range(1, num_rounds + 1):
                expected_round = {
                    m for m in run.messages if m.round == round_number
                }
                assert run.deliveries_in_round(round_number) == expected_round
                for target in topology.processes:
                    expected = sorted(
                        m
                        for m in run.messages
                        if m.round == round_number and m.target == target
                    )
                    assert (
                        run.deliveries_to(target, round_number) == expected
                    )

    def test_indexes_are_built_on_first_query(self):
        run = Run.build(3, [1], [(2, 1, 2), (1, 2, 1), (3, 1, 2)])
        other = Run.build(3, [1], [(2, 1, 2), (1, 2, 1), (3, 1, 2)])
        assert run._indexes is None
        assert run.deliveries_to(1, 2) == [
            MessageTuple(2, 1, 2),
            MessageTuple(3, 1, 2),
        ]
        assert run._indexes is not None
        assert run.deliveries_in_round(1) == frozenset([MessageTuple(1, 2, 1)])
        # The index is a cache: it takes no part in equality or hashing.
        assert run == other and hash(run) == hash(other)

    def test_empty_round_and_target(self):
        run = Run.build(3, [1], [(1, 2, 1)])
        assert run.deliveries_in_round(3) == frozenset()
        assert run.deliveries_to(1, 1) == []
        assert run.deliveries_to(2, 1) == [MessageTuple(1, 2, 1)]


class TestLazyEnumeration:
    def test_enumerate_runs_is_a_generator(self):
        import itertools

        stream = enumerate_runs(Topology.complete(3), 3)
        assert iter(stream) is stream
        # A prefix of an instance with 2^21 runs must come back without
        # materializing input sets or the run space.
        prefix = list(itertools.islice(stream, 3))
        assert len(prefix) == 3

    def test_lazy_count_cross_checks_run_space_size(self):
        topology = Topology.complete(3)
        total = sum(1 for _ in enumerate_runs(topology, 1))
        assert total == run_space_size(topology, 1, fixed_inputs=False)
        fixed = sum(1 for _ in enumerate_runs(topology, 1, inputs=[1, 3]))
        assert fixed == run_space_size(topology, 1, fixed_inputs=True)
