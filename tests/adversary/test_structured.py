"""Unit tests for the structured run families."""

import pytest

from repro.adversary.structured import (
    CHAIN_CUTS,
    INPUT_SILENCES,
    PARTIAL_ROUND_CUTS,
    ROUND_CUTS,
    SINGLE_LOSSES,
    TREE_RUNS,
    standard_families,
)
from repro.core.measures import run_modified_level
from repro.core.run import good_run
from repro.core.topology import Topology


class TestFamilyShapes:
    def test_chain_cuts_two_generals_only(self, pair, path3):
        assert CHAIN_CUTS.runs(pair, 4)
        assert CHAIN_CUTS.runs(path3, 4) == []

    def test_chain_cuts_need_the_two_generals_link(self):
        assert CHAIN_CUTS.runs(Topology.from_edges(2, []), 3) == []

    def test_chain_cuts_cover_all_breaks(self, pair):
        runs = CHAIN_CUTS.runs(pair, 4)
        # 3 input variants x (unbroken + 4 break rounds).
        assert len(runs) == 3 * 5

    def test_round_cuts_include_good_and_silent(self, pair):
        runs = ROUND_CUTS.runs(pair, 3)
        assert good_run(pair, 3) in runs
        assert any(run.message_count() == 0 for run in runs)

    def test_partial_round_cuts_block_proper_subsets(self, path3):
        runs = PARTIAL_ROUND_CUTS.runs(path3, 2)
        assert runs
        for run in runs:
            assert run.is_valid_for(path3)

    def test_partial_round_cuts_scale_down_for_larger_graphs(self):
        big = Topology.complete(6)
        runs = PARTIAL_ROUND_CUTS.runs(big, 2)
        # Blocked sets restricted to singletons and co-singletons.
        assert len(runs) == (6 + 1) * 2 * (6 + 6)

    def test_single_losses_count(self, pair):
        runs = SINGLE_LOSSES.runs(pair, 3)
        assert len(runs) == 6
        full = good_run(pair, 3).message_count()
        assert all(run.message_count() == full - 1 for run in runs)

    def test_tree_runs_have_ml_one_at_full_length(self):
        topology = Topology.star(4)
        runs = TREE_RUNS.runs(topology, 4)
        full = runs[0]
        assert run_modified_level(full, 4) == 1

    def test_tree_runs_empty_for_disconnected(self):
        disconnected = Topology.from_edges(4, [(1, 2), (3, 4)])
        assert TREE_RUNS.runs(disconnected, 3) == []

    def test_input_silences_one_per_process(self, path3):
        runs = INPUT_SILENCES.runs(path3, 3)
        assert len(runs) == 3
        assert all(run.message_count() == 0 for run in runs)
        assert {tuple(run.inputs) for run in runs} == {(1,), (2,), (3,)}


class TestStandardFamilies:
    def test_all_runs_valid_for_topology(self, pair, ring4):
        for topology in (pair, ring4):
            for family in standard_families():
                for run in family.runs(topology, 3):
                    assert run.is_valid_for(topology), (family.name, run)

    def test_families_have_distinct_names(self):
        names = [family.name for family in standard_families()]
        assert len(set(names)) == len(names)

    def test_contains_protocol_a_worst_case(self, pair):
        """The chain-cut family must include A's analytic worst runs."""
        from repro.core.run import chain_run

        runs = CHAIN_CUTS.runs(pair, 5)
        for break_round in range(2, 6):
            assert chain_run(5, break_round, [1, 2]) in runs

    def test_contains_protocol_s_worst_case(self, pair):
        """The partial-cut family attains Pr[PA] = eps for Protocol S."""
        from repro.protocols.protocol_s import ProtocolS

        protocol = ProtocolS(epsilon=0.125)
        best = max(
            protocol.closed_form_probabilities(pair, run).pr_partial_attack
            for run in PARTIAL_ROUND_CUTS.runs(pair, 8)
        )
        assert best == pytest.approx(0.125)


class TestLossAndCrashFamilies:
    def test_double_losses_small_graph_all_pairs(self, pair):
        from repro.adversary.structured import DOUBLE_LOSSES
        from repro.core.run import good_run

        runs = DOUBLE_LOSSES.runs(pair, 3)  # 6 tuples -> C(6,2) = 15
        assert len(runs) == 15
        full = good_run(pair, 3).message_count()
        assert all(run.message_count() == full - 2 for run in runs)

    def test_double_losses_large_graph_same_round_only(self):
        from repro.adversary.structured import DOUBLE_LOSSES

        topology = Topology.complete(4)
        runs = DOUBLE_LOSSES.runs(topology, 3)
        # 12 directed links per round, 3 rounds: 3 * C(12, 2) pairs.
        assert len(runs) == 3 * 66

    def test_crash_links_shape(self, pair):
        from repro.adversary.structured import CRASH_LINKS

        runs = CRASH_LINKS.runs(pair, 4)
        assert len(runs) == 2 * 4  # 2 directed links x 4 crash rounds
        # Crashing link (1, 2) at round 2 kills its later messages only.
        crashed = [
            run
            for run in runs
            if not run.delivers(1, 2, 2) and run.delivers(1, 2, 1)
        ]
        assert len(crashed) == 1
        witness = crashed[0]
        assert not witness.delivers(1, 2, 4)
        assert witness.delivers(2, 1, 4)

    def test_crash_links_valid_on_ring(self, ring4):
        from repro.adversary.structured import CRASH_LINKS

        for run in CRASH_LINKS.runs(ring4, 2):
            assert run.is_valid_for(ring4)
