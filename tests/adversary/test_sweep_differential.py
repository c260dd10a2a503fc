"""Differential test: the exhaustive sweep against a brute-force scan.

For generated (protocol, topology, N, fixed inputs, objective,
symmetry reduction, backend) instances, :func:`exhaustive_search` must
agree exactly with the simplest possible oracle: walk
:func:`enumerate_packed_runs` one run at a time on the reference
engine, keep the runs whose canonical form is themselves (every run
when not reducing), and take the first strict maximum.  Same value,
same witness, same ``runs_examined``.  The sweep's chunk size is drawn
too, so tie-breaking across chunk boundaries is exercised on spaces
smaller than one default chunk.
"""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary import search
from repro.adversary.search import (
    exhaustive_search,
    negated_liveness_objective,
    unsafety_objective,
)
from repro.core.packed import canonical_bits, enumerate_packed_runs, orbit_tables
from repro.core.topology import Topology
from repro.engine import Engine
from repro.protocols import (
    EagerS,
    GreedyS,
    MessageValidityS,
    NaiveCountingS,
    ProtocolA,
    ProtocolM,
    ProtocolS,
    ProtocolW,
    SkewedS,
)

# Spaces of at most 512 runs: the oracle runs the reference simulator.
SPACES = [
    (Topology.pair(), 1),
    (Topology.pair(), 2),
    (Topology.pair(), 3),
    (Topology.path(3), 1),
    (Topology.complete(3), 1),
]

PROTOCOLS = [
    lambda n: ProtocolS(epsilon=0.25),
    lambda n: ProtocolS(epsilon=0.4, coordinator=2),
    lambda n: ProtocolW(1),
    lambda n: ProtocolW(2),
    lambda n: EagerS(epsilon=0.3),
    lambda n: GreedyS(epsilon=0.2, slack=1),
    lambda n: MessageValidityS(epsilon=0.25),
    lambda n: NaiveCountingS(epsilon=0.5),
    lambda n: SkewedS(epsilon=0.25),
    lambda n: ProtocolM(quorum=0.6),
    lambda n: ProtocolA(max(n, 2)),
]


@st.composite
def instances(draw):
    topology, num_rounds = draw(st.sampled_from(SPACES))
    protocol = draw(st.sampled_from(PROTOCOLS))(num_rounds)
    if not protocol.supports_topology(topology):
        protocol = ProtocolW(1)
    if isinstance(protocol, ProtocolA) and num_rounds < 2:
        num_rounds = 2
    fixed = draw(
        st.one_of(
            st.none(),
            st.frozensets(st.sampled_from(list(topology.processes))),
        )
    )
    return (
        protocol,
        topology,
        num_rounds,
        fixed,
        draw(st.sampled_from([unsafety_objective, negated_liveness_objective])),
        draw(st.booleans()),
        draw(st.sampled_from(["auto", "vectorized", "reference"])),
        draw(st.sampled_from([search.EXHAUSTIVE_CHUNK, 64, 7])),
    )


def brute_force(protocol, topology, num_rounds, fixed, objective, reduce):
    fixing = protocol.automorphism_invariant_vertices(topology) if reduce else None
    tables = (
        orbit_tables(topology, num_rounds, sorted(fixing), fixed)
        if fixing is not None
        else []
    )
    engine = Engine(backend="reference")
    best_value, best_run, examined = float("-inf"), None, 0
    for packed in enumerate_packed_runs(topology, num_rounds, fixed):
        if canonical_bits(packed.bits, tables) != packed.bits:
            continue
        examined += 1
        value = objective(engine.evaluate(protocol, topology, packed.unpack()))
        if value > best_value:
            best_value, best_run = value, packed.unpack()
    return best_value, best_run, examined


@settings(max_examples=40, deadline=None)
@given(instances())
def test_sweep_matches_brute_force(instance):
    (protocol, topology, num_rounds, fixed, objective, reduce, backend,
     chunk) = instance
    with mock.patch.object(search, "EXHAUSTIVE_CHUNK", chunk):
        result = exhaustive_search(
            protocol, topology, num_rounds, objective,
            fixed_inputs=fixed, engine=Engine(backend=backend),
            symmetry_reduction=reduce,
        )
    value, witness, examined = brute_force(
        protocol, topology, num_rounds, fixed, objective, reduce
    )
    assert result.value == value
    assert result.run == witness
    assert result.runs_examined == examined
    assert result.certification == "exact"
