"""The paper's protocols plus baselines.

* :class:`ProtocolA` — the simple two-general protocol of Section 3
  (``U ≈ 1/N``, all-or-nothing liveness).
* :class:`ProtocolS` — the optimal protocol of Section 6 (``U <= ε``,
  liveness ``min(1, ε · ML(R))``).
* :class:`RepeatedA` — "run A several times", the composite Section 5
  proves cannot beat the tradeoff.
* :class:`ProtocolW` — our reconstruction of the Section 8 weak-
  adversary protocol (deterministic level threshold).
* :class:`EagerS`, :class:`GreedyS`, :class:`MessageValidityS`,
  :class:`NaiveCountingS`, :class:`SkewedS` — the Appendix A and
  footnote-1 probes; with S and W they form the Figure-1 counting
  family (:mod:`repro.protocols.counting`: one rule-driven machine,
  one closed form).
* :class:`ProtocolM` — simple-majority consensus (PAPERS.md
  substitution) for the large-m / mean-field regime.
* deterministic baselines (:mod:`repro.protocols.deterministic`) for
  the impossibility backdrop.
* executable Lemma 6.3 invariants (:mod:`repro.protocols.invariants`).
"""

from .ablations import NaiveCountingS, SkewedS
from .counting import (
    CountingLocal,
    CountingMessage,
    CountingProtocol,
    CountingRule,
    CountingState,
)
from .deterministic import (
    AlwaysAttack,
    DeterministicProtocol,
    InputAttack,
    NeverAttack,
    deterministic_threshold,
    impossibility_suite,
)
from .invariants import (
    check_counts_equal_level,
    checked_execute,
    check_counts_equal_modified_level,
    check_invariants,
)
from .message_validity import MessageValidityS
from .protocol_a import APacket, AState, ProtocolA, sender_for_round
from .protocol_m import MState, ProtocolM
from .protocol_s import ProtocolS
from .repeated_a import COMBINERS, RepeatedA
from .variants import EagerS, GreedyS, XorCoin
from .weak_adversary import ProtocolW

__all__ = [
    "APacket",
    "AState",
    "AlwaysAttack",
    "COMBINERS",
    "CountingLocal",
    "CountingMessage",
    "CountingProtocol",
    "CountingRule",
    "CountingState",
    "DeterministicProtocol",
    "EagerS",
    "GreedyS",
    "InputAttack",
    "MState",
    "MessageValidityS",
    "NaiveCountingS",
    "NeverAttack",
    "ProtocolA",
    "ProtocolM",
    "ProtocolS",
    "ProtocolW",
    "RepeatedA",
    "SkewedS",
    "XorCoin",
    "check_counts_equal_level",
    "checked_execute",
    "check_counts_equal_modified_level",
    "check_invariants",
    "deterministic_threshold",
    "impossibility_suite",
    "sender_for_round",
]
