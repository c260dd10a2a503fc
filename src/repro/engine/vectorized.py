"""The vectorized backend: numpy batch evaluation of counting protocols.

All seven protocols of the Figure-1 family — S, W, EagerS, GreedyS,
MessageValidityS, NaiveCountingS and SkewedS — run one counting
machine that differs only in its :class:`~repro.protocols.counting.CountingRule`
(start gate, coordinator wait, advance rule, slack, law of ``rfire``).
This module runs that machine over arbitrary topologies and batches
of runs.  Its state is integral — ``count``, a ``seen`` set, and the
``valid`` / ``rfire``-heard flags — and vectorizes across a batch:

* ``seen`` sets become per-process bitmasks (one ``int64`` lane per
  run), so the Figure 1 ``highseen`` union is a bitwise OR;
* deliveries become a boolean tensor ``(batch, round, directed link)``;
* one python-level loop remains over rounds × processes × in-neighbors
  (all tiny), with every operation applying to the whole batch;
* the rule's flags are resolved in Python, so each protocol runs only
  the numpy operations its rule needs.

Because the counting state is integral, the batch kernel reproduces
the reference simulator *exactly*, and the probabilities on top come
from :meth:`CountingRule.probabilities` — the same finisher the
reference closed form calls — so the floats are bit-identical too.
The property tests in ``tests/engine/test_vectorized.py`` enforce this
on random topologies and runs, for whole batches and for single-bit
neighborhoods.

The specialized two-general kernels (``simulate_pair_counts`` and the
valid-gated variant) remain as fast paths for the huge weak-adversary
sample sweeps behind :meth:`Engine.pair_weak_estimate_s` /
:meth:`Engine.pair_weak_estimate_w`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, FrozenSet, List, Sequence, Tuple

import numpy as np

from ..core.packed import PackedRun, RunBatch, layout_for
from ..core.probability import EventBatch, EventProbabilities
from ..core.protocol import Protocol
from ..core.run import Run
from ..core.topology import Topology
from ..core.types import ProcessId, Round
from ..protocols.counting import CountingProtocol, CountingRule

# ``seen`` bitmasks live in int64 lanes; one bit per process.
MAX_VECTORIZED_PROCESSES = 62


# ----------------------------------------------------------------------
# Topology plans: per-process in-link gather indices, cached.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class _TopologyPlan:
    """Link ordering and per-process gather indices for one topology."""

    num_processes: int
    links: Tuple[Tuple[ProcessId, ProcessId], ...]
    link_index: Dict[Tuple[ProcessId, ProcessId], int]
    # For each 0-indexed process: (link column indices, sender 0-indices).
    in_links: Tuple[Tuple[Tuple[int, ...], Tuple[int, ...]], ...]


@lru_cache(maxsize=128)
def _plan(topology: Topology) -> _TopologyPlan:
    links = tuple(topology.directed_links())
    link_index = {link: k for k, link in enumerate(links)}
    in_links = []
    for process in topology.processes:
        columns = []
        senders = []
        for k, (source, target) in enumerate(links):
            if target == process:
                columns.append(k)
                senders.append(source - 1)
        in_links.append((tuple(columns), tuple(senders)))
    return _TopologyPlan(
        num_processes=topology.num_processes,
        links=links,
        link_index=link_index,
        in_links=tuple(in_links),
    )


def runs_to_tensors(
    topology: Topology, num_rounds: Round, runs: Sequence[Run]
) -> Tuple[np.ndarray, np.ndarray]:
    """Pack runs into ``(delivered, inputs)`` boolean tensors.

    ``delivered`` has shape ``(batch, num_rounds, num_directed_links)``
    with the link order of :meth:`Topology.directed_links`; ``inputs``
    has shape ``(batch, num_processes)``.  Raises ``ValueError`` for a
    run that does not fit the topology or horizon (the same conditions
    the reference simulator rejects).

    Routed through :mod:`repro.core.packed`: each run becomes one
    bitmask (the ``RunLayout`` link order is by construction the
    ``_plan`` link order) and the tensors are extracted from the
    resulting :class:`RunBatch` in one vectorized pass.
    """
    layout = layout_for(topology, num_rounds)
    batch = RunBatch.from_bits(
        layout, (layout.pack_bits(run) for run in runs)
    )
    return batch.tensors()


# ----------------------------------------------------------------------
# The generalized counting kernel.
# ----------------------------------------------------------------------


@dataclass
class CountingState:
    """The Figure 1 machine's batched state at one round boundary.

    All arrays have shape ``(batch, m)``.  The state before round
    ``q`` depends only on deliveries in rounds ``< q``, which is what
    makes single-bit neighbor evaluation incremental: a run differing
    from its parent only in a round-``q`` delivery resumes from the
    parent's saved state instead of re-simulating rounds ``1..q-1``
    (:func:`evaluate_neighbor_batch`).
    """

    count: np.ndarray
    seen: np.ndarray
    valid: np.ndarray
    rknown: np.ndarray

    def tiled(self, lanes: int) -> "CountingState":
        """A single-run state broadcast to ``lanes`` independent lanes."""
        if self.count.shape[0] != 1:
            raise ValueError("tiled() expects a single-run state")
        return CountingState(
            count=np.repeat(self.count, lanes, axis=0),
            seen=np.repeat(self.seen, lanes, axis=0),
            valid=np.repeat(self.valid, lanes, axis=0),
            rknown=np.repeat(self.rknown, lanes, axis=0),
        )


def _initial_state(
    plan: _TopologyPlan,
    inputs: np.ndarray,
    rule: CountingRule,
    coordinator: ProcessId,
) -> CountingState:
    """The pre-round-1 state of the Figure 1 machine."""
    m = plan.num_processes
    batch = inputs.shape[0]
    own = np.array([np.int64(1) << i for i in range(m)], dtype=np.int64)
    valid = inputs.copy()
    rknown = np.zeros((batch, m), dtype=bool)
    if rule.draws_rfire:
        # Only the coordinator holds a defined rfire at the start (the
        # other processes' tapes are constant None).
        rknown[:, coordinator - 1] = True
    counting0 = valid & rknown if rule.rfire_gate else valid
    if rule.coordinator_waits:
        counting0 = counting0 & (np.arange(m) != coordinator - 1)
    count = np.where(counting0, np.int64(1), np.int64(0))
    if rule.advance_on_any:
        seen = np.zeros((batch, m), dtype=np.int64)
    else:
        seen = np.where(counting0, own[None, :], np.int64(0))
    return CountingState(count=count, seen=seen, valid=valid, rknown=rknown)


def _advance_rounds(
    plan: _TopologyPlan,
    delivered: np.ndarray,
    state: CountingState,
    rule: CountingRule,
    coordinator: ProcessId,
) -> CountingState:
    """Advance the counting machine over ``delivered.shape[1]`` rounds.

    The single source of truth for the round transition — full
    simulation, the per-round history, and incremental resumption all
    go through this loop, so they are bit-identical by construction.
    The rule's flags are resolved here in Python, so each protocol
    runs only the numpy operations its rule needs.  The input
    ``state`` is not mutated; a fresh state is returned.
    """
    m = plan.num_processes
    own = np.array([np.int64(1) << i for i in range(m)], dtype=np.int64)
    full_mask = np.int64((1 << m) - 1)
    waiting = coordinator - 1 if rule.coordinator_waits else -1
    count = state.count
    seen = state.seen
    valid = state.valid
    rknown = state.rknown

    for round_number in range(delivered.shape[1]):
        d = delivered[:, round_number, :]
        prev_count = count
        prev_seen = seen
        prev_valid = valid
        prev_rknown = rknown
        count = prev_count.copy()
        seen = prev_seen.copy()
        valid = prev_valid.copy()
        rknown = prev_rknown.copy()
        for i in range(m):
            columns, senders = plan.in_links[i]
            if not columns:
                continue
            dcols = d[:, columns]
            any_msg = dcols.any(axis=1)
            # Figure 1 lines 1-2: adopt rfire and validity.
            rknown_i = prev_rknown[:, i] | (
                dcols & prev_rknown[:, senders]
            ).any(axis=1)
            valid_i = prev_valid[:, i] | (
                dcols & prev_valid[:, senders]
            ).any(axis=1)
            # Line 3: start counting.
            can_start = (prev_count[:, i] == 0) & valid_i
            if rule.rfire_gate:
                can_start &= rknown_i
            if i == waiting:
                can_start &= any_msg
            ci = np.where(can_start, np.int64(1), prev_count[:, i])
            # Counting block: merge the highest delivered count.
            active = (ci >= 1) & any_msg
            sender_counts = np.where(
                dcols, prev_count[:, senders], np.int64(-1)
            )
            high = sender_counts.max(axis=1)
            if rule.advance_on_any:
                # No seen set: any peer at (or above) my level advances.
                ci = np.where(active & (high >= ci), high + 1, ci)
            else:
                si = np.where(can_start, own[i], prev_seen[:, i])
                is_high = dcols & (sender_counts == high[:, None])
                highseen = np.bitwise_or.reduce(
                    np.where(is_high, prev_seen[:, senders], np.int64(0)),
                    axis=1,
                )
                equal = active & (high == ci)
                greater = active & (high > ci)
                si = np.where(equal, si | highseen | own[i], si)
                si = np.where(greater, highseen | own[i], si)
                ci = np.where(greater, high, ci)
                wrap = active & (si == full_mask)
                ci = np.where(wrap, ci + 1, ci)
                seen[:, i] = np.where(wrap, own[i], si)
            count[:, i] = ci
            valid[:, i] = valid_i
            rknown[:, i] = rknown_i
    return CountingState(count=count, seen=seen, valid=valid, rknown=rknown)


def _check_kernel_shapes(
    plan: _TopologyPlan, delivered: np.ndarray
) -> None:
    m = plan.num_processes
    if m > MAX_VECTORIZED_PROCESSES:
        raise ValueError(
            f"vectorized kernel supports at most {MAX_VECTORIZED_PROCESSES} "
            f"processes, got {m}"
        )
    if delivered.shape[2] != len(plan.links):
        raise ValueError("delivery tensor does not match the topology")


def simulate_counting_batch(
    topology: Topology,
    delivered: np.ndarray,
    inputs: np.ndarray,
    rule: CountingRule,
    coordinator: ProcessId = 1,
) -> Tuple[np.ndarray, np.ndarray]:
    """Run the Figure 1 counting machine over a batch of runs.

    Returns ``(counts, rfire_known)`` of shape ``(batch, m)``: the
    final ``count_i`` values and whether each process ever heard the
    coordinator's ``rfire`` draw — exactly what
    :meth:`CountingRule.probabilities` takes.

    The transition is a line-for-line vectorization of
    ``CountingLocal.transition``; ``seen`` sets are bitmasks.
    """
    plan = _plan(topology)
    _check_kernel_shapes(plan, delivered)
    state = _initial_state(plan, inputs, rule, coordinator)
    final = _advance_rounds(plan, delivered, state, rule, coordinator)
    return final.count, final.rknown


def simulate_counting_history(
    topology: Topology,
    delivered: np.ndarray,
    inputs: np.ndarray,
    rule: CountingRule,
    coordinator: ProcessId = 1,
) -> List[CountingState]:
    """Run the counting machine, keeping the state at every boundary.

    Returns ``num_rounds + 1`` states: ``states[k]`` is the state
    after ``k`` rounds (``states[0]`` is pre-round-1).  Each round is
    advanced through the same :func:`_advance_rounds` loop as the flat
    simulation, so ``states[-1]`` equals the
    :func:`simulate_counting_batch` result exactly.
    """
    plan = _plan(topology)
    _check_kernel_shapes(plan, delivered)
    state = _initial_state(plan, inputs, rule, coordinator)
    states = [state]
    for round_number in range(delivered.shape[1]):
        state = _advance_rounds(
            plan,
            delivered[:, round_number : round_number + 1, :],
            state,
            rule,
            coordinator,
        )
        states.append(state)
    return states


# ----------------------------------------------------------------------
# Dispatch: the Figure-1 family.
# ----------------------------------------------------------------------


@lru_cache(maxsize=1)
def _family() -> FrozenSet[type]:
    """The exact classes whose semantics a :class:`CountingRule` captures."""
    from ..protocols import (
        EagerS,
        GreedyS,
        MessageValidityS,
        NaiveCountingS,
        ProtocolS,
        ProtocolW,
        SkewedS,
    )

    return frozenset(
        (
            ProtocolS,
            ProtocolW,
            EagerS,
            GreedyS,
            MessageValidityS,
            NaiveCountingS,
            SkewedS,
        )
    )


def supports(protocol: Protocol, topology: Topology) -> bool:
    """Whether the vectorized backend can evaluate this pair exactly.

    Only the exact family classes are accepted (``type`` membership,
    not ``isinstance``): a subclass may override decision logic the
    rule does not capture, so it must take the reference path.
    """
    if topology.num_processes > MAX_VECTORIZED_PROCESSES:
        return False
    return type(protocol) in _family() and protocol.supports_topology(topology)


def _protocol_kernel(protocol: Protocol) -> Tuple[CountingRule, ProcessId]:
    """The ``(rule, coordinator)`` a family protocol runs the kernel with.

    Raises ``ValueError`` for protocols outside the family.
    """
    if type(protocol) not in _family() or not isinstance(
        protocol, CountingProtocol
    ):
        raise ValueError(
            f"protocol {protocol.name!r} is not supported by the vectorized "
            "backend"
        )
    return protocol.rule, protocol.coordinator


def evaluate_batch(
    protocol: Protocol, topology: Topology, runs: Sequence[Run]
) -> EventBatch:
    """Evaluate a uniform-horizon batch of runs on a supported protocol."""
    if not runs:
        return EventBatch.from_results([])
    num_rounds = runs[0].num_rounds
    batch = RunBatch.from_runs(topology, num_rounds, runs)
    return evaluate_packed_batch(protocol, topology, batch)


def evaluate_packed_batch(
    protocol: Protocol, topology: Topology, batch: RunBatch
) -> EventBatch:
    """Evaluate a :class:`RunBatch` directly — no per-run unpacking.

    The packed words are the wire form all the way from enumeration:
    tensors come out of :meth:`RunBatch.tensors` as one bit-extraction
    pass and feed the counting kernel unchanged, so the results are
    bit-identical to :func:`evaluate_batch` over the unpacked runs.
    """
    if batch.layout.topology != topology:
        raise ValueError("batch layout does not match the topology")
    if len(batch) == 0:
        return []
    rule, coordinator = _protocol_kernel(protocol)
    delivered, inputs = batch.tensors()
    counts, rknown = simulate_counting_batch(
        topology, delivered, inputs, rule, coordinator
    )
    return rule.probabilities(counts, rknown)


def evaluate_neighbor_batch(
    protocol: Protocol, topology: Topology, parent: PackedRun
) -> Tuple[EventProbabilities, List[EventProbabilities]]:
    """Evaluate a run and every single-bit neighbor incrementally.

    Returns ``(parent_result, by_bit)`` where ``by_bit[b]`` is the
    exact result for the parent with bit ``b`` flipped (every bit of
    the layout appears).  The parent is simulated once with its
    per-round state history retained; a neighbor differing in a
    round-``q`` delivery shares the parent's prefix state before round
    ``q`` (the counting machine is causal), so only rounds ``q..N``
    are re-simulated — all ``L`` round-``q`` neighbors in one resumed
    batch.  Input-bit flips change the initial state and take a full
    (but still batched) re-simulation.  Every lane goes through the
    same :func:`_advance_rounds` loop as a from-scratch evaluation,
    so the results are bit-identical to it.
    """
    layout = parent.layout
    if layout.topology != topology:
        raise ValueError("parent layout does not match the topology")
    rule, coordinator = _protocol_kernel(protocol)
    plan = _plan(topology)
    m = layout.num_processes
    num_links = layout.num_links
    delivered, inputs = RunBatch.from_bits(
        layout, (parent.bits,)
    ).tensors()
    states = simulate_counting_history(
        topology, delivered, inputs, rule, coordinator
    )
    parent_result = rule.probabilities(states[-1].count, states[-1].rknown)[0]
    by_bit: List[EventProbabilities] = [parent_result] * layout.num_bits

    # Input-bit neighbors: the flip changes the initial state, so the
    # whole horizon re-runs — one m-lane batch.
    flipped_inputs = np.repeat(inputs, m, axis=0)
    flipped_inputs[np.arange(m), np.arange(m)] ^= True
    counts, rknown = simulate_counting_batch(
        topology,
        np.repeat(delivered, m, axis=0),
        flipped_inputs,
        rule,
        coordinator,
    )
    for process_index, result in enumerate(rule.probabilities(counts, rknown)):
        by_bit[process_index] = result

    # Message-bit neighbors, grouped by round: resume the L round-q
    # lanes from the parent's pre-round-q state and advance the
    # suffix only.
    lanes = np.arange(num_links)
    for flip_round in range(1, layout.num_rounds + 1):
        suffix = np.repeat(delivered[:, flip_round - 1 :, :], num_links, axis=0)
        suffix[lanes, 0, lanes] ^= True
        resumed = _advance_rounds(
            plan,
            suffix,
            states[flip_round - 1].tiled(num_links),
            rule,
            coordinator,
        )
        results = rule.probabilities(resumed.count, resumed.rknown)
        base = m + (flip_round - 1) * num_links
        for link_index, result in enumerate(results):
            by_bit[base + link_index] = result
    return parent_result, by_bit


# ----------------------------------------------------------------------
# Two-general fast paths for the weak-adversary sample sweeps.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PairCounts:
    """Vectorized final states for a batch of two-general runs."""

    count_1: np.ndarray
    count_2: np.ndarray
    rfire_heard_2: np.ndarray  # process 1 always knows rfire


def simulate_pair_counts(
    delivered_1_to_2: np.ndarray,
    delivered_2_to_1: np.ndarray,
    input_1: bool = True,
    input_2: bool = True,
) -> PairCounts:
    """Run the ``m = 2`` rfire-gated counting recurrence over a batch.

    ``delivered_x_to_y`` are boolean arrays of shape
    ``(num_runs, num_rounds)``: whether the round-``r`` message on that
    directed link is delivered.  Returns the final counts (which equal
    the modified levels, Lemma 6.4) and whether process 2 ever heard
    ``rfire``.  On the pair topology the ``seen`` set fills instantly,
    so the Figure 1 machine collapses to this two-variable recurrence.
    """
    if delivered_1_to_2.shape != delivered_2_to_1.shape:
        raise ValueError("delivery matrices must have identical shape")
    num_runs, num_rounds = delivered_1_to_2.shape
    c1 = np.zeros(num_runs, dtype=np.int64)
    c2 = np.zeros(num_runs, dtype=np.int64)
    v1 = np.full(num_runs, bool(input_1))
    v2 = np.full(num_runs, bool(input_2))
    f2 = np.zeros(num_runs, dtype=bool)
    c1[v1] = 1  # the coordinator holds rfire from the start
    for round_number in range(num_rounds):
        d12 = delivered_1_to_2[:, round_number]
        d21 = delivered_2_to_1[:, round_number]
        prev_c1 = c1
        prev_c2 = c2
        prev_v1 = v1
        prev_v2 = v2
        v1 = v1 | (d21 & prev_v2)
        v2 = v2 | (d12 & prev_v1)
        f2 = f2 | d12
        c1 = np.where((prev_c1 == 0) & v1, np.int64(1), prev_c1)
        c2 = np.where((prev_c2 == 0) & v2 & f2, np.int64(1), prev_c2)
        c1 = np.where(d21 & (prev_c2 >= 1), np.maximum(c1, prev_c2 + 1), c1)
        c2 = np.where(d12 & (prev_c1 >= 1), np.maximum(c2, prev_c1 + 1), c2)
    return PairCounts(count_1=c1, count_2=c2, rfire_heard_2=f2)


def simulate_pair_counts_valid_gated(
    delivered_1_to_2: np.ndarray, delivered_2_to_1: np.ndarray
) -> PairCounts:
    """The valid-gated (Protocol W) pair recurrence: counts track L_i.

    Both inputs are assumed present, so every count is >= 1 from the
    start and the `count >= 1` gates of the general recurrence are
    always open — which leaves two fused max/where updates per round.
    """
    num_runs, num_rounds = delivered_1_to_2.shape
    c1 = np.ones(num_runs, dtype=np.int64)  # both inputs present
    c2 = np.ones(num_runs, dtype=np.int64)
    for round_number in range(num_rounds):
        d12 = delivered_1_to_2[:, round_number]
        d21 = delivered_2_to_1[:, round_number]
        new_c1 = np.where(d21, np.maximum(c1, c2 + 1), c1)
        c2 = np.where(d12, np.maximum(c2, c1 + 1), c2)
        c1 = new_c1
    return PairCounts(
        count_1=c1,
        count_2=c2,
        rfire_heard_2=np.ones(num_runs, dtype=bool),
    )


def sample_pair_deliveries(
    num_runs: int,
    num_rounds: Round,
    loss_probability: float,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, np.ndarray]:
    """Draw i.i.d.-loss delivery matrices for a batch of pair runs.

    The uniform draws are ``float32``: half the sampling cost of
    ``float64``, and a Bernoulli threshold does not need 53 bits.
    """
    keep = np.float32(1.0 - loss_probability)
    d12 = rng.random((num_runs, num_rounds), dtype=np.float32) < keep
    d21 = rng.random((num_runs, num_rounds), dtype=np.float32) < keep
    return d12, d21


def pair_protocol_s_weak_estimate(
    num_rounds: Round,
    epsilon: float,
    loss_probability: float,
    samples: int,
    rng: np.random.Generator,
):
    """Vectorized ``E[L]`` / ``E[U]`` for Protocol S under i.i.d. loss.

    Per sampled run the probabilities are exact (the closed form in
    threshold space); only the run draw is sampled.  Returns a
    :class:`repro.adversary.weak.WeakAdversaryEstimate`.
    """
    from ..adversary.weak import WeakAdversaryEstimate

    if not 0.0 < epsilon <= 1.0:
        raise ValueError("epsilon must be in (0, 1]")
    d12, d21 = sample_pair_deliveries(samples, num_rounds, loss_probability, rng)
    counts = simulate_pair_counts(d12, d21)
    t = 1.0 / epsilon
    a1 = counts.count_1.astype(np.float64)
    a2 = np.where(counts.rfire_heard_2, counts.count_2, 0).astype(np.float64)
    pr1 = np.minimum(1.0, a1 / t)
    pr2 = np.minimum(1.0, a2 / t)
    pr_ta = np.minimum(pr1, pr2)
    pr_pa = np.abs(pr1 - pr2)
    return WeakAdversaryEstimate(
        expected_liveness=float(pr_ta.mean()),
        expected_unsafety=float(pr_pa.mean()),
        disagreement_runs=int(np.count_nonzero(pr_pa > 0)),
        samples=samples,
    )


def pair_protocol_w_weak_estimate(
    num_rounds: Round,
    threshold: int,
    loss_probability: float,
    samples: int,
    rng: np.random.Generator,
):
    """Vectorized ``E[L]`` / ``E[U]`` for Protocol W under i.i.d. loss."""
    from ..adversary.weak import WeakAdversaryEstimate

    if threshold < 1:
        raise ValueError("threshold must be >= 1")
    d12, d21 = sample_pair_deliveries(samples, num_rounds, loss_probability, rng)
    counts = simulate_pair_counts_valid_gated(d12, d21)
    attack_1 = counts.count_1 >= threshold
    attack_2 = counts.count_2 >= threshold
    pr_ta = (attack_1 & attack_2).astype(np.float64)
    pr_pa = (attack_1 ^ attack_2).astype(np.float64)
    return WeakAdversaryEstimate(
        expected_liveness=float(pr_ta.mean()),
        expected_unsafety=float(pr_pa.mean()),
        disagreement_runs=int(np.count_nonzero(pr_pa > 0)),
        samples=samples,
    )
