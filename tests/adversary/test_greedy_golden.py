"""Golden digest and tuple-flip oracle for ``greedy_search``.

Greedy refinement is the step of ``worst_case_unsafety`` that runs
above the exhaustive budget, so its value, witness, budget and
certification are pinned here bit for bit on every backend: any change
to neighbor order, tie-breaking, the pass budget or the evaluation path
shows up as a different digest.

The oracle is the historical tuple-flip hill-climb,
:func:`tuple_flip_greedy`: one ``Run`` per neighbor, built by adding or
removing one message tuple or toggling one input, evaluated as one
engine batch per pass.  A property test pits ``greedy_search`` on every
backend against it on generated seeds.
"""

from __future__ import annotations

import hashlib
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary.search import (
    SearchResult,
    greedy_search,
    negated_liveness_objective,
    unsafety_objective,
)
from repro.core.run import Run, all_message_tuples, good_run, random_run
from repro.core.topology import Topology
from repro.engine import Engine
from repro.protocols import (
    EagerS,
    ProtocolA,
    ProtocolS,
    ProtocolW,
    RepeatedA,
    SkewedS,
)

from ..conftest import runs_for

BACKENDS = ("reference", "auto", "vectorized")
OBJECTIVES = (unsafety_objective, negated_liveness_objective)
MAX_PASSES = (0, 1, 3)

SPACES = [("pair", Topology.pair(), rounds) for rounds in (3, 4, 5)] + [
    ("complete:3", Topology.complete(3), 1),
    ("path:3", Topology.path(3), 1),
    ("star:4", Topology.star(4), 1),
]


def _protocols(topology, rounds):
    protocols = [
        ProtocolS(epsilon=0.25),
        ProtocolW(2),
        EagerS(epsilon=0.25),
        SkewedS(epsilon=0.25),
    ]
    # A and repeatedA are two-general protocols needing N >= 2 (4);
    # the kernel refuses both, so they exercise the reference fallback.
    if rounds >= 2:
        protocols.append(ProtocolA(rounds))
    if rounds >= 4:
        protocols.append(RepeatedA(rounds, copies=2, combiner="majority"))
    return [p for p in protocols if p.supports_topology(topology)]


def _seeds(topology, rounds):
    rng = random.Random(f"greedy-golden:{topology.describe()}:{rounds}")
    return [good_run(topology, rounds)] + [
        random_run(topology, rounds, rng) for _ in range(2)
    ]


GOLDEN_DIGEST = (
    "f27021dce4fe1f426569e143097eaf96ed483e2e33f297d9d5e35f5e326df0c6"
)


def tuple_flip_greedy(
    protocol,
    topology: Topology,
    num_rounds: int,
    seed_run: Run,
    objective=unsafety_objective,
    max_passes: int = 3,
    engine=None,
) -> SearchResult:
    """Hill-climb over tuple flips: each message tuple of the run space
    in ``all_message_tuples`` order, then each process's input; the
    first strictly best neighbor of a pass wins it."""
    engine = engine if engine is not None else Engine(backend="reference")
    all_tuples = all_message_tuples(topology, num_rounds)
    current = seed_run
    current_value = objective(engine.evaluate(protocol, topology, current))
    examined = 1
    for _ in range(max_passes):
        neighbors = [
            current.removing(message)
            if message in current.messages
            else current.adding(message)
            for message in all_tuples
        ]
        neighbors.extend(
            current.with_inputs(current.inputs ^ {process})
            for process in topology.processes
        )
        results = engine.evaluate_many(protocol, topology, neighbors)
        examined += len(neighbors)
        best_neighbor = None
        for neighbor, result in zip(neighbors, results):
            value = objective(result)
            if value > current_value:
                best_neighbor = neighbor
                current_value = value
        if best_neighbor is None:
            break
        current = best_neighbor
    return SearchResult(current_value, current, examined, "heuristic", "greedy")


def greedy_digest() -> str:
    digest = hashlib.sha256()
    for label, topology, rounds in SPACES:
        seeds = _seeds(topology, rounds)
        for protocol in _protocols(topology, rounds):
            for backend in BACKENDS:
                engine = Engine(backend=backend)
                for seed_index, seed in enumerate(seeds):
                    for objective in OBJECTIVES:
                        for passes in MAX_PASSES:
                            result = greedy_search(
                                protocol, topology, rounds, seed, objective,
                                max_passes=passes, engine=engine,
                            )
                            record = (
                                protocol.name, label, rounds, backend,
                                seed_index, objective.__name__, passes,
                                result.value, result.runs_examined,
                                result.certification, result.run.describe(),
                            )
                            digest.update(repr(record).encode())
                            digest.update(b"\n")
    return digest.hexdigest()


def test_greedy_search_matches_golden_digest():
    assert greedy_digest() == GOLDEN_DIGEST


INSTANCES = [
    (topology, rounds, protocol)
    for _, topology, rounds in SPACES
    for protocol in _protocols(topology, rounds)
]


@st.composite
def _greedy_cases(draw):
    topology, rounds, protocol = draw(st.sampled_from(INSTANCES))
    seed = draw(runs_for(topology, rounds))
    objective = draw(st.sampled_from(OBJECTIVES))
    passes = draw(st.integers(min_value=0, max_value=4))
    return protocol, topology, rounds, seed, objective, passes


@settings(max_examples=30, deadline=None)
@given(_greedy_cases())
def test_greedy_search_matches_tuple_flip_oracle(case):
    protocol, topology, rounds, seed, objective, passes = case
    oracle = tuple_flip_greedy(
        protocol, topology, rounds, seed, objective, max_passes=passes
    )
    for backend in BACKENDS:
        result = greedy_search(
            protocol, topology, rounds, seed, objective,
            max_passes=passes, engine=Engine(backend=backend),
        )
        assert result.value == oracle.value, backend
        assert result.run == oracle.run, backend
        assert result.runs_examined == oracle.runs_examined, backend
