"""Probability engines: ``Pr[X | R]`` over the tape distribution.

Three backends compute the event probabilities of a (protocol, run)
pair, in decreasing order of preference:

1. **closed form** — the protocol implements
   :class:`~repro.core.protocol.ClosedFormProtocol` and evaluates the
   probabilities analytically (Protocols A, S, and W do: their message
   flow does not depend on the tape values, only the final decision
   does);
2. **exact enumeration** — every tape distribution is finite and the
   joint support is small, so we sum over all assignments;
3. **Monte Carlo** — sample tapes, simulate, tally, and report Wilson
   confidence intervals.

The test suite cross-checks the backends against each other on every
protocol, which is the main defense against transcription errors in
the closed forms.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple, Union, overload

import numpy as np

from .events import OutcomeCounts, classify, Outcome
from .execution import decide
from .protocol import ClosedFormProtocol, Protocol
from .run import Run
from .seeding import spawn_random
from .topology import Topology
from .types import ProcessId

# Exact enumeration is refused beyond this many joint tape assignments.
DEFAULT_ENUMERATION_LIMIT = 200_000

# Default sample size for the Monte Carlo backend.
DEFAULT_TRIALS = 4_000

#: An :class:`EventBatch` of at most this many runs builds its rows at
#: construction (they validate themselves); larger batches validate
#: the columns with numpy and build rows only on access.
EAGER_ROW_LIMIT = 16


@dataclass(frozen=True)
class EventProbabilities:
    """The distribution of outcomes for one (protocol, run) pair.

    ``pr_attack[i]`` is ``Pr[D_i | R]``.  ``method`` records which
    backend produced the numbers; ``trials`` is set only for Monte
    Carlo results (the others are exact up to float rounding).
    """

    pr_total_attack: float
    pr_no_attack: float
    pr_partial_attack: float
    pr_attack: Tuple[float, ...]
    method: str
    trials: Optional[int] = None

    def __post_init__(self) -> None:
        total = self.pr_total_attack + self.pr_no_attack + self.pr_partial_attack
        if not math.isclose(total, 1.0, rel_tol=0, abs_tol=1e-9):
            raise ValueError(f"event probabilities sum to {total}, not 1")
        for name, value in (
            ("pr_total_attack", self.pr_total_attack),
            ("pr_no_attack", self.pr_no_attack),
            ("pr_partial_attack", self.pr_partial_attack),
        ):
            if not -1e-12 <= value <= 1 + 1e-12:
                raise ValueError(f"{name} = {value} is not a probability")

    def pr_attack_by(self, process: ProcessId) -> float:
        """``Pr[D_i | R]`` for a 1-indexed process id."""
        return self.pr_attack[process - 1]

    @property
    def liveness(self) -> float:
        """``L(F, R) = Pr[TA | R]`` (the paper's liveness measure)."""
        return self.pr_total_attack

    @property
    def unsafety(self) -> float:
        """``Pr[PA | R]`` — this run's contribution to ``U(F)``."""
        return self.pr_partial_attack

    def is_exact(self) -> bool:
        """True for the closed-form and enumeration backends."""
        return self.method in ("closed-form", "enumeration")

    def agrees_with(
        self, other: "EventProbabilities", tolerance: float
    ) -> bool:
        """Cross-check helper: all five summary numbers within tolerance."""
        pairs = [
            (self.pr_total_attack, other.pr_total_attack),
            (self.pr_no_attack, other.pr_no_attack),
            (self.pr_partial_attack, other.pr_partial_attack),
        ]
        pairs.extend(zip(self.pr_attack, other.pr_attack))
        return all(abs(a - b) <= tolerance for a, b in pairs)


class EventBatch(Sequence[EventProbabilities]):
    """Event probabilities for a batch of runs, stored as columns.

    The batch kernels return one of these instead of a list, so a
    caller that only needs a column (the exhaustive sweep's objective,
    an orbit-weighted aggregate) never builds a Python object per run.
    ``pr_total_attack``, ``pr_no_attack`` and ``pr_partial_attack`` are
    float64 arrays of length ``n``; ``pr_attack`` is ``(n, m)``.  As a
    ``Sequence[EventProbabilities]`` it indexes, iterates and compares
    like the list it replaces: rows are built on access and equal the
    per-run results bit for bit.

    Construction validates every row exactly as
    :class:`EventProbabilities` does (sum within 1e-9 of 1, each event
    in ``[-1e-12, 1 + 1e-12]``, NaN fails) and raises the same
    ``ValueError`` that constructing the first failing row would.
    Batches of at most :data:`EAGER_ROW_LIMIT` runs (a scalar closed
    form, a small reference batch) build their rows up front instead,
    which is cheaper than the numpy checks at that size.
    """

    __slots__ = (
        "pr_total_attack",
        "pr_no_attack",
        "pr_partial_attack",
        "pr_attack",
        "method",
        "_rows",
    )

    def __init__(
        self,
        pr_total_attack: np.ndarray,
        pr_no_attack: np.ndarray,
        pr_partial_attack: np.ndarray,
        pr_attack: np.ndarray,
        method: str = "closed-form",
        *,
        rows: Optional[List[EventProbabilities]] = None,
    ) -> None:
        self.pr_total_attack = np.asarray(pr_total_attack, dtype=np.float64)
        self.pr_no_attack = np.asarray(pr_no_attack, dtype=np.float64)
        self.pr_partial_attack = np.asarray(pr_partial_attack, dtype=np.float64)
        self.pr_attack = np.asarray(pr_attack, dtype=np.float64)
        self.method = method
        # ``rows`` were validated when they were constructed.
        self._rows = rows
        if rows is not None:
            return
        if len(self) <= EAGER_ROW_LIMIT:
            # A dozen numpy calls cost more than building a few rows,
            # and each row runs the EventProbabilities checks itself.
            self._rows = list(self._build_rows())
            return
        columns = (self.pr_total_attack, self.pr_no_attack, self.pr_partial_attack)
        total = columns[0] + columns[1] + columns[2]
        valid = np.abs(total - 1.0) <= 1e-9
        for column in columns:
            valid &= (column >= -1e-12) & (column <= 1 + 1e-12)
        if not valid.all():
            # Build the first failing row: it raises the exact error.
            self._row(int(np.argmin(valid)))

    @classmethod
    def from_results(cls, results: Sequence[EventProbabilities]) -> "EventBatch":
        """Wrap per-run results (the reference path) as a batch.

        Indexing returns the original objects, so a Monte Carlo or
        enumeration result keeps its ``method`` and ``trials``.
        """
        rows = list(results)
        num_processes = len(rows[0].pr_attack) if rows else 0
        return cls(
            np.array([row.pr_total_attack for row in rows], dtype=np.float64),
            np.array([row.pr_no_attack for row in rows], dtype=np.float64),
            np.array([row.pr_partial_attack for row in rows], dtype=np.float64),
            np.array(
                [row.pr_attack for row in rows], dtype=np.float64
            ).reshape(len(rows), num_processes),
            method=rows[0].method if rows else "closed-form",
            rows=rows,
        )

    @property
    def liveness(self) -> np.ndarray:
        """The ``L(F, R)`` column (see :attr:`EventProbabilities.liveness`)."""
        return self.pr_total_attack

    @property
    def unsafety(self) -> np.ndarray:
        """The ``Pr[PA | R]`` column."""
        return self.pr_partial_attack

    def _row(self, index: int) -> EventProbabilities:
        if self._rows is not None:
            return self._rows[index]
        return EventProbabilities(
            pr_total_attack=float(self.pr_total_attack[index]),
            pr_no_attack=float(self.pr_no_attack[index]),
            pr_partial_attack=float(self.pr_partial_attack[index]),
            pr_attack=tuple(self.pr_attack[index].tolist()),
            method=self.method,
        )

    def __len__(self) -> int:
        return int(self.pr_total_attack.shape[0])

    @overload
    def __getitem__(self, index: int) -> EventProbabilities: ...

    @overload
    def __getitem__(self, index: slice) -> List[EventProbabilities]: ...

    def __getitem__(
        self, index: Union[int, slice]
    ) -> Union[EventProbabilities, List[EventProbabilities]]:
        if isinstance(index, slice):
            return [self._row(i) for i in range(len(self))[index]]
        return self._row(range(len(self))[index])

    def __iter__(self) -> Iterator[EventProbabilities]:
        if self._rows is not None:
            return iter(self._rows)
        return self._build_rows()

    def _build_rows(self) -> Iterator[EventProbabilities]:
        # One tolist() per column: cheaper than indexing row by row.
        return (
            EventProbabilities(pr_ta, pr_na, pr_pa, tuple(attack), self.method)
            for pr_ta, pr_na, pr_pa, attack in zip(
                self.pr_total_attack.tolist(),
                self.pr_no_attack.tolist(),
                self.pr_partial_attack.tolist(),
                self.pr_attack.tolist(),
            )
        )

    def __eq__(self, other: object) -> bool:
        if isinstance(other, EventBatch):
            return list(self) == list(other)
        if isinstance(other, list):
            return list(self) == other
        return NotImplemented

    def __repr__(self) -> str:
        return f"EventBatch(n={len(self)}, method={self.method!r})"


def exact_probabilities(
    protocol: Protocol,
    topology: Topology,
    run: Run,
    enumeration_limit: int = DEFAULT_ENUMERATION_LIMIT,
) -> EventProbabilities:
    """Sum over every joint tape assignment (finite spaces only).

    Raises ``ValueError`` when the space is continuous or larger than
    ``enumeration_limit``.
    """
    space = protocol.tape_space(topology)
    size = space.joint_support_size()
    if size is None:
        raise ValueError(
            f"protocol {protocol.name!r} has a continuous tape space; "
            "use the closed form or Monte Carlo"
        )
    if size > enumeration_limit:
        raise ValueError(
            f"joint tape support of {size} exceeds the enumeration "
            f"limit of {enumeration_limit}"
        )
    num_processes = topology.num_processes
    pr_ta = 0.0
    pr_na = 0.0
    pr_pa = 0.0
    pr_attack = [0.0] * num_processes
    for tapes, weight in space.enumerate():
        outputs = decide(protocol, topology, run, tapes)
        outcome = classify(outputs)
        if outcome is Outcome.TOTAL_ATTACK:
            pr_ta += weight
        elif outcome is Outcome.NO_ATTACK:
            pr_na += weight
        else:
            pr_pa += weight
        for index, decided in enumerate(outputs):
            if decided:
                pr_attack[index] += weight
    return EventProbabilities(
        pr_total_attack=pr_ta,
        pr_no_attack=pr_na,
        pr_partial_attack=pr_pa,
        pr_attack=tuple(pr_attack),
        method="enumeration",
    )


def monte_carlo_probabilities(
    protocol: Protocol,
    topology: Topology,
    run: Run,
    trials: int = DEFAULT_TRIALS,
    rng: Optional[random.Random] = None,
) -> EventProbabilities:
    """Estimate the event probabilities by sampling tapes."""
    if trials < 1:
        raise ValueError("trials must be positive")
    if rng is None:
        rng = spawn_random(0, "probability", "monte-carlo")
    space = protocol.tape_space(topology)
    counts = OutcomeCounts(topology.num_processes)
    for _ in range(trials):
        tapes = space.sample(rng)
        counts.record(decide(protocol, topology, run, tapes))
    frequencies = counts.frequencies()
    return EventProbabilities(
        pr_total_attack=frequencies["TA"],
        pr_no_attack=frequencies["NA"],
        pr_partial_attack=frequencies["PA"],
        pr_attack=tuple(
            counts.attack_frequency(i)
            for i in range(1, topology.num_processes + 1)
        ),
        method="monte-carlo",
        trials=trials,
    )


def evaluate(
    protocol: Protocol,
    topology: Topology,
    run: Run,
    method: str = "auto",
    trials: int = DEFAULT_TRIALS,
    rng: Optional[random.Random] = None,
    enumeration_limit: int = DEFAULT_ENUMERATION_LIMIT,
) -> EventProbabilities:
    """Compute event probabilities with the best available backend.

    ``method`` may be ``"auto"``, ``"closed-form"``, ``"enumeration"``
    or ``"monte-carlo"``.  ``"auto"`` prefers the closed form, then
    enumeration when the support fits, then Monte Carlo.
    """
    if method not in ("auto", "closed-form", "enumeration", "monte-carlo"):
        raise ValueError(f"unknown method {method!r}")
    if method in ("auto", "closed-form") and isinstance(
        protocol, ClosedFormProtocol
    ):
        return protocol.closed_form_probabilities(topology, run)
    if method == "closed-form":
        raise ValueError(f"protocol {protocol.name!r} has no closed form")
    if method in ("auto", "enumeration"):
        size = protocol.tape_space(topology).joint_support_size()
        if size is not None and size <= enumeration_limit:
            return exact_probabilities(
                protocol, topology, run, enumeration_limit
            )
        if method == "enumeration":
            raise ValueError(
                f"protocol {protocol.name!r} cannot be enumerated "
                f"(support size {size})"
            )
    return monte_carlo_probabilities(protocol, topology, run, trials, rng)


def evaluate_many(
    protocol: Protocol,
    topology: Topology,
    runs: "Sequence[Run]",
    method: str = "auto",
    trials: int = DEFAULT_TRIALS,
    rng: Optional[random.Random] = None,
    enumeration_limit: int = DEFAULT_ENUMERATION_LIMIT,
    engine: Optional[object] = None,
) -> "List[EventProbabilities]":
    """Batched :func:`evaluate` over an ordered sequence of runs.

    Delegates to an :class:`repro.engine.Engine` (the process-wide
    default when ``engine`` is None), which routes supported batches to
    the vectorized numpy backend and memoizes exact results.  The
    returned list matches ``runs`` in order and is element-wise
    identical to mapping :func:`evaluate`.
    """
    if engine is None:
        from ..engine import default_engine

        engine = default_engine()
    return engine.evaluate_many(
        protocol,
        topology,
        runs,
        method=method,
        trials=trials,
        rng=rng,
        enumeration_limit=enumeration_limit,
    )
