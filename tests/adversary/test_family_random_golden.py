"""Golden digest for family search, random search and the past-budget
composite search.

Above the exhaustive budget, ``worst_case_unsafety`` is the best of
family search, greedy refinement and random probing, so the value,
certification, budget and witness of each are pinned here bit for bit
on every backend: a change to family order or multiplicity, to the
random draw, to tie-breaking or to the evaluation path shows up as a
different digest.

The oracles are the historical tuple-run generators, kept here in full
so they share no code with the bit builders they check: the paper's
run shapes built from message tuples, every structured family on top
of them (:data:`TUPLE_FAMILIES`), and the per-tuple
:func:`tuple_random_run` draw.  Property tests require each bit family
to equal its packed oracle in order and multiplicity, each
``repro.core.run`` constructor to equal its tuple shape, and the bit
draw to equal the packed tuple draw with the same rng state
afterwards.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from typing import Iterator, List, Sequence, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary.search import (
    family_search,
    negated_liveness_objective,
    random_search,
    unsafety_objective,
    worst_case_unsafety,
)
from repro.adversary.structured import (
    CHAIN_CUTS,
    CRASH_LINKS,
    DOUBLE_LOSSES,
    INPUT_SILENCES,
    PARTIAL_ROUND_CUTS,
    ROUND_CUTS,
    SINGLE_LOSSES,
    TREE_RUNS,
    standard_families,
)
from repro.core.packed import layout_for, random_run_bits
from repro.core import run as core_run
from repro.core.run import Run, random_run
from repro.core.topology import Topology
from repro.core.types import MessageTuple
from repro.engine import Engine
from repro.protocols import (
    EagerS,
    ProtocolA,
    ProtocolM,
    ProtocolS,
    ProtocolW,
    RepeatedA,
    SkewedS,
)

BACKENDS = ("reference", "auto", "vectorized")
OBJECTIVES = (unsafety_objective, negated_liveness_objective)
RANDOM_SAMPLES = 40

SPACES = [
    ("pair", Topology.pair(), 4),
    ("pair", Topology.pair(), 9),
    ("ring:4", Topology.ring(4), 2),
    ("star:5", Topology.star(5), 2),
    ("path:4", Topology.path(4), 3),
]


def _protocols(topology, rounds):
    protocols = [
        ProtocolS(epsilon=0.25),
        ProtocolW(2),
        EagerS(epsilon=0.25),
        SkewedS(epsilon=0.25),
        ProtocolM(),
        ProtocolA(rounds),
    ]
    if rounds >= 4:
        protocols.append(RepeatedA(rounds, copies=2, combiner="majority"))
    return [p for p in protocols if p.supports_topology(topology)]


GOLDEN_DIGEST = (
    "1ec401834a262c7cd7d7d069a999256db29d470b013539e37c40615f8f76b556"
)


def _searches(protocol, topology, rounds, objective, engine, label):
    """The three searches of one cell, each with its own seeded rng."""
    seed = f"family-random-golden:{label}:{rounds}:{objective.__name__}"
    yield "family", family_search(
        protocol, topology, rounds, objective, engine=engine
    )
    yield "random", random_search(
        protocol, topology, rounds, RANDOM_SAMPLES, objective,
        rng=random.Random(seed), engine=engine,
    )
    yield "composite", worst_case_unsafety(
        protocol, topology, rounds, objective, exhaustive_limit=0,
        random_samples=RANDOM_SAMPLES, rng=random.Random(seed),
        engine=engine,
    )


def family_random_digest() -> str:
    digest = hashlib.sha256()
    for label, topology, rounds in SPACES:
        for protocol in _protocols(topology, rounds):
            for backend in BACKENDS:
                engine = Engine(backend=backend)
                for objective in OBJECTIVES:
                    for strategy, result in _searches(
                        protocol, topology, rounds, objective, engine, label
                    ):
                        record = (
                            protocol.name, label, rounds, backend,
                            objective.__name__, strategy,
                            (
                                result.value,
                                result.certification,
                                result.runs_examined,
                                result.run.describe(),
                            ),
                        )
                        digest.update(repr(record).encode())
                        digest.update(b"\n")
    return digest.hexdigest()


def test_family_and_random_search_match_golden_digest():
    assert family_random_digest() == GOLDEN_DIGEST


# ----------------------------------------------------------------------
# Tuple-run oracles: the run shapes, the families and the random draw
# as they were written before they moved to bits.
# ----------------------------------------------------------------------


def all_message_tuples(topology: Topology, num_rounds: int) -> List[MessageTuple]:
    return [
        MessageTuple(source, target, round_number)
        for round_number in range(1, num_rounds + 1)
        for source, target in topology.directed_links()
    ]


def _signal_set(topology: Topology, inputs) -> frozenset:
    return frozenset(topology.processes) if inputs is None else frozenset(inputs)


def good_run(topology: Topology, num_rounds: int, inputs=None) -> Run:
    return Run(
        num_rounds,
        _signal_set(topology, inputs),
        frozenset(all_message_tuples(topology, num_rounds)),
    )


def silent_run(topology: Topology, num_rounds: int, inputs=()) -> Run:
    return Run(num_rounds, frozenset(inputs), frozenset())


def round_cut_run(
    topology: Topology, num_rounds: int, cut_round: int, inputs=None
) -> Run:
    kept = frozenset(
        m for m in all_message_tuples(topology, num_rounds) if m.round < cut_round
    )
    return Run(num_rounds, _signal_set(topology, inputs), kept)


def partial_round_cut_run(
    topology: Topology, num_rounds: int, cut_round: int, blocked_targets,
    inputs=None,
) -> Run:
    blocked = frozenset(blocked_targets)
    kept = set()
    for message in all_message_tuples(topology, num_rounds):
        if message.round < cut_round:
            kept.add(message)
        elif message.round == cut_round and message.target not in blocked:
            kept.add(message)
    return Run(num_rounds, _signal_set(topology, inputs), frozenset(kept))


def spanning_tree_run(topology: Topology, num_rounds: int, root: int = 1) -> Run:
    messages = set()
    for child, parent in topology.spanning_tree(root).items():
        if parent is None:
            continue
        for round_number in range(1, num_rounds + 1):
            messages.add(MessageTuple(parent, child, round_number))
    return Run(num_rounds, frozenset([root]), frozenset(messages))


def chain_run(num_rounds: int, break_round, inputs=(1, 2)) -> Run:
    horizon = num_rounds if break_round is None else break_round - 1
    messages = set()
    for round_number in range(1, horizon + 1):
        messages.add(MessageTuple(1, 2, round_number))
        messages.add(MessageTuple(2, 1, round_number))
    return Run(num_rounds, frozenset(inputs), frozenset(messages))


def _input_variants(topology: Topology) -> List[frozenset]:
    variants = [frozenset(topology.processes)]
    variants.extend(frozenset([i]) for i in topology.processes)
    return variants


def _chain_cut_runs(topology: Topology, num_rounds: int) -> Iterator[Run]:
    if topology.num_processes != 2:
        return
    for inputs in _input_variants(topology):
        yield chain_run(num_rounds, None, inputs)
        for break_round in range(1, num_rounds + 1):
            yield chain_run(num_rounds, break_round, inputs)


def _round_cut_runs(topology: Topology, num_rounds: int) -> Iterator[Run]:
    for inputs in _input_variants(topology):
        for cut in range(1, num_rounds + 2):
            yield round_cut_run(topology, num_rounds, cut, inputs)


def _partial_round_cut_runs(
    topology: Topology, num_rounds: int
) -> Iterator[Run]:
    processes = list(topology.processes)
    if topology.num_processes <= 4:
        blocked_sets: Sequence[Tuple[int, ...]] = [
            combo
            for size in range(1, topology.num_processes)
            for combo in itertools.combinations(processes, size)
        ]
    else:
        blocked_sets = [(i,) for i in processes] + [
            tuple(j for j in processes if j != i) for i in processes
        ]
    for inputs in _input_variants(topology):
        for cut in range(1, num_rounds + 1):
            for blocked in blocked_sets:
                yield partial_round_cut_run(
                    topology, num_rounds, cut, blocked, inputs
                )


def _single_loss_runs(topology: Topology, num_rounds: int) -> Iterator[Run]:
    base = good_run(topology, num_rounds)
    for message in all_message_tuples(topology, num_rounds):
        yield base.removing(message)


def _tree_runs(topology: Topology, num_rounds: int) -> Iterator[Run]:
    if not topology.is_connected():
        return
    full = spanning_tree_run(topology, num_rounds)
    yield full
    for cut in range(1, num_rounds + 1):
        yield full.restricted_to_rounds(cut)


def _single_input_silences(
    topology: Topology, num_rounds: int
) -> Iterator[Run]:
    for process in topology.processes:
        yield silent_run(topology, num_rounds, [process])


def _double_loss_runs(topology: Topology, num_rounds: int) -> Iterator[Run]:
    tuples = all_message_tuples(topology, num_rounds)
    base = good_run(topology, num_rounds)
    for first, second in itertools.combinations(tuples, 2):
        if len(tuples) <= 24 or first.round == second.round:
            yield base.removing(first, second)


def _crash_link_runs(topology: Topology, num_rounds: int) -> Iterator[Run]:
    base = good_run(topology, num_rounds)
    for source, target in topology.directed_links():
        for crash_round in range(1, num_rounds + 1):
            dead = [
                (source, target, round_number)
                for round_number in range(crash_round, num_rounds + 1)
            ]
            yield base.removing(*dead)


TUPLE_FAMILIES = {
    CHAIN_CUTS.name: _chain_cut_runs,
    ROUND_CUTS.name: _round_cut_runs,
    PARTIAL_ROUND_CUTS.name: _partial_round_cut_runs,
    SINGLE_LOSSES.name: _single_loss_runs,
    DOUBLE_LOSSES.name: _double_loss_runs,
    CRASH_LINKS.name: _crash_link_runs,
    TREE_RUNS.name: _tree_runs,
    INPUT_SILENCES.name: _single_input_silences,
}


def tuple_random_run(
    topology: Topology,
    num_rounds: int,
    rng: random.Random,
    delivery_probability: float = 0.5,
    input_probability: float = 0.5,
) -> Run:
    inputs = frozenset(
        i for i in topology.processes if rng.random() < input_probability
    )
    kept = frozenset(
        m
        for m in all_message_tuples(topology, num_rounds)
        if rng.random() < delivery_probability
    )
    return Run(num_rounds, inputs, kept)


ORACLE_TOPOLOGIES = {
    "pair": Topology.pair(),
    "path:3": Topology.path(3),
    "path:4": Topology.path(4),
    "ring:4": Topology.ring(4),
    "star:4": Topology.star(4),
    "star:5": Topology.star(5),
    "complete:3": Topology.complete(3),
    "complete:4": Topology.complete(4),
    "two-pairs": Topology.from_edges(4, [(1, 2), (3, 4)]),
}


def test_oracle_covers_every_standard_family():
    assert sorted(TUPLE_FAMILIES) == sorted(
        family.name for family in standard_families()
    )


def _input_choices(topology: Topology):
    processes = list(topology.processes)
    return [None, [], processes[:1], processes[-1:], processes[1:]]


@pytest.mark.parametrize("name", sorted(ORACLE_TOPOLOGIES))
def test_run_constructors_equal_tuple_shapes(name):
    """``repro.core.run``'s constructors unpack the bit builders; each
    must equal its tuple shape for every horizon, cut, input set,
    blocked set and root."""
    topology = ORACLE_TOPOLOGIES[name]
    processes = list(topology.processes)
    blocked_sets = [
        combo
        for size in range(0, len(processes) + 1)
        for combo in itertools.combinations(processes, size)
    ]
    for rounds in range(1, 5):
        for inputs in _input_choices(topology):
            assert core_run.good_run(topology, rounds, inputs) == good_run(
                topology, rounds, inputs
            )
            assert core_run.silent_run(
                topology, rounds, inputs or ()
            ) == silent_run(topology, rounds, inputs or ())
            for cut in range(1, rounds + 2):
                assert core_run.round_cut_run(
                    topology, rounds, cut, inputs
                ) == round_cut_run(topology, rounds, cut, inputs)
                for blocked in blocked_sets:
                    assert core_run.partial_round_cut_run(
                        topology, rounds, cut, blocked, inputs
                    ) == partial_round_cut_run(
                        topology, rounds, cut, blocked, inputs
                    )
        if topology.is_connected():
            for root in processes:
                assert core_run.spanning_tree_run(
                    topology, rounds, root
                ) == spanning_tree_run(topology, rounds, root)


def test_chain_run_equals_tuple_chain():
    for rounds in range(1, 7):
        for inputs in ([], [1], [2], [1, 2]):
            for break_round in [None, *range(1, rounds + 1)]:
                assert core_run.chain_run(
                    rounds, break_round, inputs
                ) == chain_run(rounds, break_round, inputs)


def _assert_bits_equal_oracle(topology, rounds, family):
    layout = layout_for(topology, rounds)
    oracle = [
        layout.pack_bits(run)
        for run in TUPLE_FAMILIES[family.name](topology, rounds)
    ]
    assert family.bits(topology, rounds) == oracle, (family.name, rounds)
    assert family.runs(topology, rounds) == [
        layout.unpack_bits(bits) for bits in oracle
    ]


@pytest.mark.parametrize("name", sorted(ORACLE_TOPOLOGIES))
def test_bit_families_equal_packed_tuple_families(name):
    """Every family on every named graph at N = 1..4 (this crosses the
    double-loss cap of 24 message bits on ring:4, star:5 and K4)."""
    topology = ORACLE_TOPOLOGIES[name]
    for rounds in range(1, 5):
        for family in standard_families():
            _assert_bits_equal_oracle(topology, rounds, family)


@st.composite
def _graphs(draw):
    num_processes = draw(st.integers(min_value=3, max_value=5))
    pairs = list(itertools.combinations(range(1, num_processes + 1), 2))
    edges = draw(st.sets(st.sampled_from(pairs)))
    return Topology.from_edges(num_processes, edges)


@settings(max_examples=60, deadline=None)
@given(
    _graphs(),
    st.integers(min_value=1, max_value=4),
    st.sampled_from(standard_families()),
)
def test_bit_families_equal_packed_tuple_families_on_generated_graphs(
    topology, rounds, family
):
    _assert_bits_equal_oracle(topology, rounds, family)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(list(ORACLE_TOPOLOGIES.values())),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=2**32),
    st.sampled_from([0.0, 0.25, 0.5, 1.0]),
    st.sampled_from([0.0, 0.5, 0.9]),
)
def test_random_bits_equal_packed_tuple_draw(
    topology, rounds, seed, delivery, inputs
):
    layout = layout_for(topology, rounds)
    oracle_rng = random.Random(seed)
    bits_rng = random.Random(seed)
    run_rng = random.Random(seed)
    for _ in range(3):
        expected = tuple_random_run(
            topology, rounds, oracle_rng, delivery, inputs
        )
        assert random_run_bits(
            layout, bits_rng, delivery, inputs
        ) == layout.pack_bits(expected)
        assert random_run(topology, rounds, run_rng, delivery, inputs) == expected
    assert bits_rng.getstate() == oracle_rng.getstate()
    assert run_rng.getstate() == oracle_rng.getstate()
