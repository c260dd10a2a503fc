"""Golden digest of ``exhaustive_search`` over a grid of small spaces.

The exhaustive sweep certifies ``U_s(F)`` (Thm 6.7 for Protocol S), so
its value, witness, budget and orbit-reduction factor are pinned here
bit for bit: any change to enumeration order, orbit reduction, chunking
or tie-breaking shows up as a different digest.  The grid covers the
seven Figure-1 protocols (numpy kernel) and A, M and repeatedA
(reference simulator), both objectives, fixed and free inputs, and
symmetry reduction on and off.
"""

import hashlib

from repro.adversary.search import (
    exhaustive_search,
    negated_liveness_objective,
    unsafety_objective,
)
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
    RepeatedA,
    SkewedS,
)

KERNEL_SPACES = (
    [("pair", Topology.pair(), rounds) for rounds in (1, 2, 3, 4)]
    + [("path:3", Topology.path(3), rounds) for rounds in (1, 2)]
    + [("star:4", Topology.star(4), 1), ("complete:3", Topology.complete(3), 1)]
)

# The reference simulator costs ~100x the kernel per run: a smaller grid.
REFERENCE_SPACES = [
    ("pair", Topology.pair(), rounds) for rounds in (2, 4)
] + [("complete:3", Topology.complete(3), 1)]


def _kernel_protocols(rounds):
    return [
        ProtocolS(epsilon=0.25),
        ProtocolW(2),
        EagerS(epsilon=0.25),
        GreedyS(epsilon=0.2, slack=1),
        MessageValidityS(epsilon=0.25),
        NaiveCountingS(epsilon=0.25),
        SkewedS(epsilon=0.25),
    ]


def _reference_protocols(rounds):
    # A and repeatedA are two-general protocols needing N >= 2 (4).
    protocols = [ProtocolM(quorum=0.6)]
    if rounds >= 2:
        protocols.append(ProtocolA(rounds))
    if rounds >= 4:
        protocols.append(RepeatedA(rounds, copies=2, combiner="majority"))
    return protocols


GRID = [(KERNEL_SPACES, _kernel_protocols), (REFERENCE_SPACES, _reference_protocols)]

OBJECTIVES = (unsafety_objective, negated_liveness_objective)
FIXED_INPUTS = (None, frozenset({1, 2}))

GOLDEN_DIGEST = (
    "3c7db7ca152b765d117686808f55f020616e370ed2e30d621b17277275b0c5ee"
)


def search_digest() -> str:
    digest = hashlib.sha256()
    for spaces, protocols in GRID:
        for label, topology, rounds in spaces:
            for protocol in protocols(rounds):
                if not protocol.supports_topology(topology):
                    continue
                engine = Engine()
                for objective in OBJECTIVES:
                    for fixed in FIXED_INPUTS:
                        for reduce in (False, True):
                            result = exhaustive_search(
                                protocol, topology, rounds, objective,
                                fixed_inputs=fixed, engine=engine,
                                symmetry_reduction=reduce,
                            )
                            witness = (
                                result.run.describe()
                                if result.run is not None
                                else None
                            )
                            record = (
                                protocol.name, label, rounds,
                                objective.__name__, fixed, reduce,
                                result.value, result.certification,
                                result.runs_examined,
                                result.reduction_factor, witness,
                            )
                            digest.update(repr(record).encode())
                            digest.update(b"\n")
    return digest.hexdigest()


def test_exhaustive_search_matches_golden_digest():
    assert search_digest() == GOLDEN_DIGEST
