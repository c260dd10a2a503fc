"""The Figure-1 counting family: one rule, one machine, one closed form.

Protocol S (Section 6) tracks its *modified level* with a ``count``
variable driven by the ``PROCESS-MESSAGE`` procedure of Figure 1.
Protocol W (Section 8) and the five probes of Appendix A and footnote 1
run the same machine.  They differ only in the few choices a
:class:`CountingRule` names:

=================  =====  =================  ==============  =====  ==========
protocol           gate   coordinator waits  advance when    slack  law
=================  =====  =================  ==============  =====  ==========
ProtocolS          rfire  no                 ``seen = V``    0      uniform
ProtocolW          valid  no                 ``seen = V``    0      step at K
EagerS             valid  no                 ``seen = V``    0      uniform
GreedyS            rfire  no                 ``seen = V``    slack  uniform
MessageValidityS   rfire  yes                ``seen = V``    0      uniform
NaiveCountingS     rfire  no                 any peer level  0      uniform
SkewedS            rfire  no                 ``seen = V``    0      ``t·V²``
=================  =====  =================  ==============  =====  ==========

* **gate** — counting starts once the process has heard the input
  *and* the coordinator's ``rfire`` (``count_i^r = ML_i^r(R)``, Lemma
  6.4), or once it has heard the input (``count_i^r = L_i^r(R)``);
* **coordinator waits** — the coordinator starts only after it has
  received a message (the footnote-1 validity condition);
* **advance** — Figure 1 increments once ``seen`` is the full vertex
  set; the ablation increments on hearing *anyone* at its level;
* **slack** — a process fires ``slack`` levels early;
* **law** — the law of ``rfire``: uniform on ``(0, t]``, ``t·V²`` with
  ``V ~ U(0, 1]``, or the point mass at ``K`` (Protocol W, whose
  deterministic threshold is an ``rfire`` everyone knows).

The message flow never depends on the *value* of ``rfire`` — it is
only compared at output time — so every process has a tape-free
attack threshold ``a_i`` (``count_i + slack`` once it heard ``rfire``
and started counting, else 0) and attacks iff ``rfire <= a_i``.  All
event probabilities follow from the law's CDF: ``Pr[D_i] = cdf(a_i)``,
total attack is governed by the smallest threshold and no-attack by
the largest.  :meth:`CountingRule.probabilities` evaluates that with
numpy over a whole batch of final counts; the reference closed form
(one execution) and the vectorized backend both call it, so the two
are bit-identical by construction.

The transition is a line-for-line transcription of Figure 1, including
the ``highcount`` / ``highset`` / ``highseen`` temporaries.  The only
addition is that ``seen`` is initialized to ``{i}`` whenever ``count``
first becomes 1, which the paper leaves implicit but which its
Invariant 7 ("if ``count_i^r >= 1`` then ``i ∈ seen_i^r``") requires.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import ClassVar, Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from ..core.probability import EventProbabilities
from ..core.protocol import ClosedFormProtocol, LocalProtocol, ReceivedMessage
from ..core.randomness import (
    ConstantTape,
    TapeDistribution,
    TapeSpace,
    UniformRealTape,
)
from ..core.run import Run
from ..core.topology import Topology
from ..core.types import ProcessId, Round

#: Laws of ``rfire``: uniform on ``(0, t]``, ``t·V²``, point mass at K.
UNIFORM = "uniform"
SQUARED = "squared"
STEP = "step"

# Placeholder rfire used when extracting the (rfire-independent) counts.
_PLACEHOLDER_RFIRE = 1.0


@dataclass(frozen=True)
class CountingState:
    """The per-process state of Section 6.1.

    ``rfire`` is ``None`` while *undefined* (the paper's special value);
    under the step law it stays ``None`` forever and is ignored.
    """

    count: int
    rfire: Optional[float]
    seen: FrozenSet[ProcessId]
    valid: bool


@dataclass(frozen=True)
class CountingMessage:
    """The message ``m(rfire, count, seen, valid)`` sent every round."""

    rfire: Optional[float]
    count: int
    seen: FrozenSet[ProcessId]
    valid: bool


@dataclass(frozen=True)
class CountingRule:
    """Everything that distinguishes one Figure-1 protocol from another.

    ``scale`` is the law's parameter: ``t = 1/ε`` for the ``rfire``
    laws, ``K`` for the step law.  ``law=None`` is the bare counting
    machine, which counts but has no decision.
    """

    rfire_gate: bool = True
    coordinator_waits: bool = False
    advance_on_any: bool = False
    slack: int = 0
    law: Optional[str] = None
    scale: float = 1.0

    @property
    def draws_rfire(self) -> bool:
        """Whether the coordinator holds a random ``rfire`` draw."""
        return self.law != STEP

    def thresholds(self, counts: np.ndarray, heard: np.ndarray) -> np.ndarray:
        """The attack thresholds ``a_i`` from final counts, shape-preserving.

        ``heard`` says whether each process holds ``rfire``; under the
        step law the threshold ``K`` is common knowledge.
        """
        if not self.draws_rfire:
            return counts
        return np.where(heard & (counts >= 1), counts + self.slack, 0)

    def cdf(self, thresholds: np.ndarray) -> np.ndarray:
        """``Pr[rfire <= a]`` elementwise: the attack probability of ``a``."""
        if self.law == STEP:
            return (thresholds >= self.scale).astype(np.float64)
        if self.law == SQUARED:
            return np.where(
                thresholds > 0,
                np.minimum(1.0, np.sqrt(thresholds / self.scale)),
                0.0,
            )
        return np.minimum(1.0, thresholds / self.scale)

    def probabilities(
        self, counts: np.ndarray, heard: np.ndarray
    ) -> List[EventProbabilities]:
        """Exact event probabilities for a ``(batch, m)`` array of final
        counts — one result per row."""
        attack = self.cdf(self.thresholds(counts, heard))
        total = attack.min(axis=1)
        none = 1.0 - attack.max(axis=1)
        partial = np.maximum(0.0, 1.0 - total - none)
        return [
            EventProbabilities(
                pr_total_attack=pr_ta,
                pr_no_attack=pr_na,
                pr_partial_attack=pr_pa,
                pr_attack=tuple(row),
                method="closed-form",
            )
            for pr_ta, pr_na, pr_pa, row in zip(
                total.tolist(), none.tolist(), partial.tolist(), attack.tolist()
            )
        ]


def final_arrays(
    states: Sequence[CountingState],
) -> Tuple[np.ndarray, np.ndarray]:
    """``(counts, heard)`` of one run's final states, as the finisher
    takes them (``heard``: the process holds ``rfire``)."""
    counts = np.array([state.count for state in states])
    heard = np.array([state.rfire is not None for state in states])
    return counts, heard


class CountingLocal(LocalProtocol):
    """The local machine of Figure 1, driven by a :class:`CountingRule`."""

    def __init__(
        self,
        process: ProcessId,
        all_processes: FrozenSet[ProcessId],
        rule: CountingRule,
        coordinator: ProcessId = 1,
    ) -> None:
        self._process = process
        self._all_processes = all_processes
        self._rule = rule
        self._coordinator = coordinator
        self._waits = rule.coordinator_waits and process == coordinator
        # The ablated advance rule keeps no ``seen`` set at all.
        self._start_seen: FrozenSet[ProcessId] = (
            frozenset() if rule.advance_on_any else frozenset([process])
        )

    @property
    def process(self) -> ProcessId:
        """This machine's own process id."""
        return self._process

    def initial_state(self, got_input: bool, tape: object) -> CountingState:
        """Initial states of Section 6.1.

        The coordinator stores its random draw in ``rfire``; everyone
        else starts with ``rfire`` undefined.  A process with the input
        starts counting at once if its gate is already open — unless it
        is a coordinator that must wait for a message.
        """
        if (
            self._process == self._coordinator
            and tape is not None
            and self._rule.draws_rfire
        ):
            rfire: Optional[float] = float(tape)
        else:
            rfire = None
        counting = (
            got_input
            and not self._waits
            and (rfire is not None or not self._rule.rfire_gate)
        )
        return CountingState(
            count=1 if counting else 0,
            rfire=rfire,
            seen=self._start_seen if counting else frozenset(),
            valid=got_input,
        )

    def _starts_counting(
        self, state: CountingState, has_messages: bool
    ) -> bool:
        """The start rule: Figure 1 line 3 under the rule's gate.

        ``has_messages`` reports whether any message arrived this round;
        a waiting coordinator needs one.
        """
        if not state.valid or state.count != 0:
            return False
        if self._rule.rfire_gate and state.rfire is None:
            return False
        return has_messages or not self._waits

    def transition(
        self,
        state: CountingState,
        round_number: Round,
        received: Sequence[ReceivedMessage],
        tape: object,
    ) -> CountingState:
        """``PROCESS-MESSAGE(S_i, i)`` from Figure 1."""
        payloads = [message.payload for message in received]
        rfire = state.rfire
        valid = state.valid
        count = state.count
        seen = state.seen

        # Line 1: adopt the first defined rfire heard (all copies equal).
        if rfire is None:
            for payload in payloads:
                if payload.rfire is not None:
                    rfire = payload.rfire
                    break
        # Line 2: adopt validity.
        if not valid and any(payload.valid for payload in payloads):
            valid = True
        # Line 3: start counting.
        probe = CountingState(count=count, rfire=rfire, seen=seen, valid=valid)
        if self._starts_counting(probe, bool(payloads)):
            count = 1
            seen = self._start_seen
        # Counting block.
        if count >= 1 and payloads:
            highcount = max(payload.count for payload in payloads)
            if self._rule.advance_on_any:
                # Any peer at (or above) my level suffices to advance.
                if highcount >= count:
                    count = highcount + 1
            else:
                highset = [
                    payload
                    for payload in payloads
                    if payload.count == highcount
                ]
                highseen: FrozenSet[ProcessId] = frozenset().union(
                    *(payload.seen for payload in highset)
                )
                if highcount == count:
                    seen = seen | highseen | {self._process}
                elif highcount > count:
                    seen = highseen | {self._process}
                    count = highcount
                if seen == self._all_processes:
                    count = count + 1
                    seen = frozenset([self._process])
        return CountingState(count=count, rfire=rfire, seen=seen, valid=valid)

    def message(
        self, state: CountingState, neighbor: ProcessId
    ) -> Optional[CountingMessage]:
        """Send the full current state to every neighbor, every round."""
        return CountingMessage(
            rfire=state.rfire,
            count=state.count,
            seen=state.seen,
            valid=state.valid,
        )

    def output(self, state: CountingState) -> bool:
        """Attack iff ``rfire <= a_i`` (see :meth:`CountingRule.thresholds`)."""
        rule = self._rule
        if rule.law is None:
            raise NotImplementedError("a rule without a decision law")
        if rule.law == STEP:
            return state.count >= rule.scale
        return (
            state.rfire is not None
            and state.count >= 1
            and state.count >= state.rfire - rule.slack
        )


@dataclass(frozen=True)
class SquaredRfireTape(TapeDistribution):
    """``rfire = t · V²`` with ``V ~ U(0, 1]`` — skewed toward zero."""

    top: float

    def sample(self, rng: random.Random) -> float:
        unit = 1.0 - rng.random()  # (0, 1]
        return self.top * unit * unit


@lru_cache(maxsize=256)
def _counting_rule(
    cls: "type[CountingProtocol]", slack: int, scale: float
) -> CountingRule:
    # Shared across equal protocols and never stored on an instance:
    # engine cache keys hold protocol objects, so they stay small.
    return CountingRule(
        rfire_gate=cls.rfire_gate,
        coordinator_waits=cls.coordinator_waits,
        advance_on_any=cls.advance_on_any,
        slack=slack,
        law=cls.law,
        scale=scale,
    )


class CountingProtocol(ClosedFormProtocol):
    """Base of the Figure-1 family.

    A member is a frozen dataclass declaring its fields (``epsilon`` and
    ``coordinator``, GreedyS's ``slack``, or W's ``threshold``), a
    ``label``, and whichever class-level rule choices differ from
    Protocol S's.  Everything else — validation, the local machine,
    tapes, final counts and the closed form — lives here.
    """

    label: ClassVar[str] = "counting"
    rfire_gate: ClassVar[bool] = True
    coordinator_waits: ClassVar[bool] = False
    advance_on_any: ClassVar[bool] = False
    law: ClassVar[str] = UNIFORM

    epsilon: float
    coordinator: ProcessId = 1
    slack: int = 0
    #: ``t = 1/ε`` under an ``rfire`` law (derived); ``K`` under the
    #: step law (Protocol W's field).
    threshold: float

    def __post_init__(self) -> None:
        if self.law == STEP:
            if self.threshold < 1:
                raise ValueError(
                    f"threshold must be >= 1 for validity, got {self.threshold}"
                )
        else:
            if not 0.0 < self.epsilon <= 1.0:
                raise ValueError(
                    f"epsilon must be in (0, 1], got {self.epsilon}"
                )
            object.__setattr__(self, "threshold", 1.0 / self.epsilon)
        if self.coordinator < 1:
            raise ValueError("coordinator must be a process id")

    @property
    def rule(self) -> CountingRule:
        """This protocol's resolved :class:`CountingRule`."""
        return _counting_rule(type(self), self.slack, self.threshold)

    @property
    def name(self) -> str:  # type: ignore[override]
        if self.law == STEP:
            return f"{self.label}(K={self.threshold})"
        slack = f", slack={self.slack}" if self.slack else ""
        return f"{self.label}(eps={self.epsilon:g}{slack})"

    def supports_topology(self, topology: Topology) -> bool:
        return self.coordinator <= topology.num_processes

    def local_protocol(
        self, process: ProcessId, topology: Topology
    ) -> LocalProtocol:
        return CountingLocal(
            process=process,
            all_processes=frozenset(topology.processes),
            rule=self.rule,
            coordinator=self.coordinator,
        )

    def tape_space(self, topology: Topology) -> TapeSpace:
        """Only the coordinator is randomized, by the law of ``rfire``."""
        distributions: Dict[ProcessId, TapeDistribution] = {
            i: ConstantTape() for i in topology.processes
        }
        if self.law == UNIFORM:
            distributions[self.coordinator] = UniformRealTape(
                0.0, self.threshold
            )
        elif self.law == SQUARED:
            distributions[self.coordinator] = SquaredRfireTape(self.threshold)
        return TapeSpace.from_dict(distributions)

    def cdf(self, value: float) -> float:
        """``Pr[rfire <= value]`` under this protocol's law."""
        return float(self.rule.cdf(np.array([float(value)]))[0])

    def _final_states(
        self, topology: Topology, run: Run
    ) -> List[CountingState]:
        """The states at the horizon; one execution with a placeholder
        draw suffices because the counts do not depend on ``rfire``."""
        from ..core.execution import execute

        execution = execute(
            self, topology, run, {self.coordinator: _PLACEHOLDER_RFIRE}
        )
        return [
            execution.local(process).states[-1]
            for process in topology.processes
        ]

    def final_counts(self, topology: Topology, run: Run) -> Dict[ProcessId, int]:
        """The (tape-independent) counts ``count_i^N``."""
        states = self._final_states(topology, run)
        return {
            process: state.count
            for process, state in zip(topology.processes, states)
        }

    def attack_thresholds(
        self, topology: Topology, run: Run
    ) -> Dict[ProcessId, int]:
        """The tape-independent thresholds ``a_i``: attack iff ``rfire <= a_i``.

        For Protocol S, ``a_i = ML_i(R)`` whenever process ``i`` heard
        both the input and the coordinator (Lemma 6.4).
        """
        counts, heard = final_arrays(self._final_states(topology, run))
        thresholds = self.rule.thresholds(counts, heard).tolist()
        return dict(zip(topology.processes, thresholds))

    def closed_form_probabilities(
        self, topology: Topology, run: Run
    ) -> EventProbabilities:
        """Exact event probabilities: one execution, then the law's CDF."""
        counts, heard = final_arrays(self._final_states(topology, run))
        return self.rule.probabilities(counts[None, :], heard[None, :])[0]
