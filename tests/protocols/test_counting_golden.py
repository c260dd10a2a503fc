"""Golden digest of the Figure-1 family's closed forms.

Protocols S and W and the five probes (EagerS, GreedyS,
MessageValidityS, NaiveCountingS, SkewedS) share one counting machine
and one closed form.  This test pins the exact ``repr`` of every
``closed_form_probabilities`` result over exhaustive run spaces, so a
refactor of the shared machinery must reproduce every float bit for
bit — not merely to a tolerance.
"""

import hashlib

from repro.core.run import enumerate_runs
from repro.core.topology import Topology
from repro.protocols import (
    EagerS,
    GreedyS,
    MessageValidityS,
    NaiveCountingS,
    ProtocolS,
    ProtocolW,
    SkewedS,
)

EPSILONS = (0.25, 0.7)

PROTOCOLS = (
    [ProtocolS(epsilon=eps) for eps in EPSILONS]
    + [EagerS(epsilon=eps) for eps in EPSILONS]
    + [
        GreedyS(epsilon=eps, slack=slack)
        for eps in EPSILONS
        for slack in (1, 2)
    ]
    + [MessageValidityS(epsilon=eps) for eps in EPSILONS]
    + [NaiveCountingS(epsilon=eps) for eps in EPSILONS]
    + [SkewedS(epsilon=eps) for eps in EPSILONS]
    + [ProtocolW(1), ProtocolW(2)]
)

SPACES = (
    [("pair", Topology.pair(), rounds) for rounds in (1, 2, 3, 4)]
    + [("path:3", Topology.path(3), rounds) for rounds in (1, 2)]
    + [("complete:3", Topology.complete(3), 1), ("star:4", Topology.star(4), 1)]
)

GOLDEN_DIGEST = (
    "7fd0a0baa2c9c1af49f27dead13d3aa18b77a57ca523e60d1387ffdadf4e3125"
)


def family_digest() -> str:
    digest = hashlib.sha256()
    for label, topology, rounds in SPACES:
        runs = list(enumerate_runs(topology, rounds))
        for protocol in PROTOCOLS:
            digest.update(f"{protocol.name} {label} N={rounds}\n".encode())
            for run in runs:
                result = protocol.closed_form_probabilities(topology, run)
                digest.update(repr(result).encode())
                digest.update(b"\n")
    return digest.hexdigest()


def test_closed_forms_match_golden_digest():
    assert family_digest() == GOLDEN_DIGEST
