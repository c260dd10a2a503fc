"""Worst-run search: maximizing ``Pr[PA | R]`` over the strong adversary.

The paper's unsafety ``U_s(F) = max_R Pr[PA | R]`` quantifies over an
exponential run space.  This module offers four strategies, each
tagging its result with a *certification level* so experiment tables
can be honest about what was proven:

* ``exact``     — exhaustive enumeration (small instances only);
* ``family``    — maximum over the structured families of
  :mod:`repro.adversary.structured`, which contain the analytic worst
  cases for the paper's protocols;
* ``greedy``    — hill-climbing over single-bit flips (one delivery
  or one input) from a seed run;
* ``random``    — uniform random runs.

:func:`worst_case_unsafety` composes them: exhaustive when the space
fits a budget, otherwise families + greedy refinement + random probes.
The objective is pluggable, so the same machinery also *minimizes*
liveness (via a negated objective) for adversary-tournament studies.

Exhaustive, family and random search share one scoring step: runs
are bitmasks under the ``(topology, num_rounds)``
:class:`~repro.core.packed.RunLayout`, evaluated as one
:class:`~repro.core.packed.RunBatch` by
:meth:`Engine.evaluate_packed_many` (numpy kernel, or the reference
simulator for protocols the kernel refuses), scored column-wise and
arg-maxed, the first strict maximum winning.  The exhaustive sweep
feeds it ``uint64`` chunks of the run space
(:func:`repro.core.packed.packed_run_chunks`, enumeration order), cut
to their orbit representatives when the protocol declares a symmetry;
family search feeds it the structured families' masks, random search
its probes' masks.  Only the winning run is ever unpacked into a
:class:`Run`.

**Objective contract.**  An objective is *elementwise*: it reads the
event attributes of its argument (``pr_total_attack``,
``pr_no_attack``, ``pr_partial_attack``, ``liveness``, ``unsafety``)
with arithmetic that works on floats and numpy arrays alike.  The
batch scorer calls it on an
:class:`~repro.core.probability.EventBatch`, whose attributes are the
event columns, and gets one value per run; only greedy search still
calls it on one scalar
:class:`~repro.core.probability.EventProbabilities` and gets a float.
Both shipped objectives are attribute reads.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.packed import (
    RunBatch,
    layout_for,
    orbit_reduce,
    orbit_tables,
    packed_run_chunks,
    random_run_bits,
)
from ..core.probability import EventProbabilities
from ..core.seeding import spawn_random
from ..core.protocol import Protocol
from ..core.run import Run, run_space_size
from ..core.topology import Topology
from ..core.types import Round
from .structured import RunFamily, standard_families

logger = logging.getLogger(__name__)

#: See the module docstring: an objective must also accept an
#: :class:`EventBatch` and return its values as a column.
Objective = Callable[[EventProbabilities], float]

#: Below this run-space size :func:`worst_case_unsafety` runs the
#: orbit-reduced *and* the full exhaustive sweep and checks their
#: maxima are identical (:class:`SymmetryParityError` otherwise) — a
#: standing self-check that symmetry reduction never changes an
#: answer, cheap exactly where doubling the work is cheap.
SYMMETRY_PARITY_LIMIT = 4_096


class SymmetryParityError(RuntimeError):
    """The orbit-reduced and full exhaustive maxima disagree.

    Raised by :func:`worst_case_unsafety`'s standing parity check; it
    means orbit reduction changed an answer, which is a bug.  A typed
    exception rather than an ``assert`` so ``python -O`` keeps it.
    """


def _resolve_engine(engine):
    """The engine to search with: the caller's, or the process default.

    Routing every search through an :class:`repro.engine.Engine` is
    what batches run evaluation (numpy backend where supported) and
    memoizes exact results, so repeated certification passes stop
    re-simulating the same runs.
    """
    if engine is None:
        from ..engine import default_engine

        return default_engine()
    return engine


def unsafety_objective(result: EventProbabilities) -> float:
    """The default objective: ``Pr[PA | R]``."""
    return result.pr_partial_attack


def negated_liveness_objective(result: EventProbabilities) -> float:
    """Maximizing this minimizes ``Pr[TA | R]`` (a denial adversary)."""
    return -result.pr_total_attack


@dataclass(frozen=True)
class SearchResult:
    """The outcome of one search: best value, witness, and provenance."""

    value: float
    run: Optional[Run]
    runs_examined: int
    certification: str
    strategy: str
    #: With orbit-reduced enumeration: how many runs of the full space
    #: each examined run stood for on average (``space / examined``).
    #: ``None`` when no symmetry reduction was applied.
    reduction_factor: Optional[float] = None

    def describe(self) -> str:
        """One-line summary: strategy, value, budget, witness."""
        witness = self.run.describe() if self.run is not None else "none"
        reduced = (
            f" (orbit reduction {self.reduction_factor:.1f}x)"
            if self.reduction_factor is not None
            else ""
        )
        return (
            f"{self.strategy}: value={self.value:.6f} over "
            f"{self.runs_examined} runs{reduced} "
            f"[{self.certification}]; {witness}"
        )


#: The exhaustive sweep enumerates the run space in slices of this many
#: runs; each slice is orbit-reduced and evaluated as one batch.
EXHAUSTIVE_CHUNK = 4_096

#: Monte Carlo trials per run when a search falls back to the
#: reference path (exact protocols ignore it).
SEARCH_TRIALS = 2_000


def _best_of(
    protocol: Protocol,
    topology: Topology,
    batch: RunBatch,
    objective: Objective,
    engine,
) -> Tuple[float, int]:
    """Score one batch; returns ``(best_value, index)``.

    One :meth:`Engine.evaluate_packed_many` call, the objective over
    the event columns, and ``np.argmax``, which takes the first
    maximum: the run a serial scan in batch order with a strict ``>``
    would pick.
    """
    results = engine.evaluate_packed_many(
        protocol, topology, batch, trials=SEARCH_TRIALS
    )
    values = np.asarray(objective(results), dtype=np.float64)
    winner = int(np.argmax(values))
    return float(values[winner]), winner


def _sweep(
    protocol: Protocol,
    topology: Topology,
    num_rounds: Round,
    objective: Objective,
    fixed_inputs: Optional[frozenset],
    tables: Sequence[Sequence[int]],
    engine,
) -> Tuple[float, Optional[int], int]:
    """Scan the run space chunk by chunk; the first strict max wins.

    Returns ``(best_value, best_bits, examined)``.  Each chunk is a
    ``uint64`` slice of the space in enumeration order, cut to its
    orbit representatives when ``tables`` is non-empty and scored by
    :func:`_best_of`; a strict ``>`` keeps the earliest maximum across
    chunks, so the winner is the run a serial scan in enumeration
    order would pick.
    """
    layout = layout_for(topology, num_rounds)
    best_value = float("-inf")
    best_bits: Optional[int] = None
    examined = 0
    for chunk in packed_run_chunks(
        topology, num_rounds, fixed_inputs, EXHAUSTIVE_CHUNK
    ):
        if tables:
            mask, _ = orbit_reduce(layout, chunk, tables)
            chunk = chunk[mask]
        if not len(chunk):
            continue
        value, winner = _best_of(
            protocol,
            topology,
            RunBatch(layout, chunk.reshape(-1, 1)),
            objective,
            engine,
        )
        if value > best_value:
            best_value = value
            best_bits = int(chunk[winner])
        examined += len(chunk)
    return best_value, best_bits, examined


def _search_bits(
    protocol: Protocol,
    topology: Topology,
    num_rounds: Round,
    bits: List[int],
    objective: Objective,
    certification: str,
    strategy: str,
    engine,
) -> SearchResult:
    """Score a list of run bitmasks as one batch; unpack the winner."""
    engine = _resolve_engine(engine)
    if not bits:
        raise ValueError(f"{strategy} search was given no runs")
    layout = layout_for(topology, num_rounds)
    with engine.obs.tracer.span(
        f"search.{strategy}",
        protocol=protocol.name,
        topology=topology.describe(),
        runs=len(bits),
        certification=certification,
    ):
        best_value, winner = _best_of(
            protocol,
            topology,
            RunBatch.from_bits(layout, bits),
            objective,
            engine,
        )
    engine.obs.metrics.counter("search.runs_examined").inc(len(bits))
    logger.debug(
        "%s search on %s: value=%.6f over %d runs",
        strategy,
        topology.describe(),
        best_value,
        len(bits),
    )
    return SearchResult(
        best_value,
        layout.unpack_bits(bits[winner]),
        len(bits),
        certification,
        strategy,
    )


def exhaustive_search(
    protocol: Protocol,
    topology: Topology,
    num_rounds: Round,
    objective: Objective = unsafety_objective,
    fixed_inputs: Optional[frozenset] = None,
    limit: int = 300_000,
    engine=None,
    symmetry_reduction: bool = False,
) -> SearchResult:
    """Enumerate every run of the strong adversary (small instances).

    With ``symmetry_reduction=True`` *and* a protocol that declares
    its symmetry (:meth:`Protocol.automorphism_invariant_vertices`
    returns non-``None``), enumeration visits one representative per
    orbit of the automorphism subgroup fixing the protocol's
    distinguished vertices (and stabilizing ``fixed_inputs`` if set).
    The maximum is exact — the objective takes the same value on every
    run of an orbit — and ``runs_examined``/``reduction_factor``
    report the savings; the ``limit`` guard then applies to the
    reduced count.  The default (``False``) keeps the full sweep, so
    results — witness, ``runs_examined``, tie-breaking — are
    unchanged for existing callers.  Either way the sweep is one
    chunked pass (see the module docstring); only the witness becomes
    a :class:`Run`.
    """
    engine = _resolve_engine(engine)
    space = run_space_size(
        topology, num_rounds, fixed_inputs=fixed_inputs is not None
    )
    fixing = (
        protocol.automorphism_invariant_vertices(topology)
        if symmetry_reduction
        else None
    )
    if fixing is None:
        tables: List[Tuple[int, ...]] = []
        if space > limit:
            raise ValueError(
                f"strong adversary has {space} runs here, above the "
                f"enumeration limit of {limit}; use repro.adversary.search"
            )
    else:
        tables = orbit_tables(
            topology, num_rounds, sorted(fixing), fixed_inputs
        )
        # Representatives number at least space / |G|; refuse instances
        # where even perfect reduction cannot fit the budget.
        if space > limit * (len(tables) + 1):
            raise ValueError(
                f"strong adversary has {space} runs here, above the "
                f"enumeration limit of {limit} even with orbit reduction "
                f"by a group of order {len(tables) + 1}; "
                "use repro.adversary.search"
            )
    with engine.obs.tracer.span(
        "search.exhaustive",
        protocol=protocol.name,
        topology=topology.describe(),
        runs=space,
        certification="exact",
        symmetry_reduction=fixing is not None,
    ):
        best_value, best_bits, examined = _sweep(
            protocol, topology, num_rounds, objective, fixed_inputs,
            tables, engine,
        )
        if examined > limit:
            raise ValueError(
                f"orbit-reduced enumeration produced {examined} "
                f"representatives, above the limit of {limit}"
            )
    engine.obs.metrics.counter("search.runs_examined").inc(examined)
    reduction = space / examined if fixing is not None else None
    logger.debug(
        "exhaustive search on %s: value=%.6f over %d of %d runs",
        topology.describe(),
        best_value,
        examined,
        space,
    )
    return SearchResult(
        best_value,
        layout_for(topology, num_rounds).unpack_bits(best_bits)
        if best_bits is not None
        else None,
        examined,
        "exact",
        "exhaustive",
        reduction_factor=reduction,
    )


def family_search(
    protocol: Protocol,
    topology: Topology,
    num_rounds: Round,
    objective: Objective = unsafety_objective,
    families: Optional[Sequence[RunFamily]] = None,
    engine=None,
) -> SearchResult:
    """Maximize over the structured families (one batch, family order)."""
    if families is None:
        families = standard_families()
    bits: List[int] = []
    for family in families:
        bits.extend(family.bits(topology, num_rounds))
    return _search_bits(
        protocol, topology, num_rounds, bits, objective, "family", "family",
        engine,
    )


def random_search(
    protocol: Protocol,
    topology: Topology,
    num_rounds: Round,
    samples: int = 200,
    objective: Objective = unsafety_objective,
    rng: Optional[random.Random] = None,
    engine=None,
) -> SearchResult:
    """Probe uniformly random runs.

    Draws every probe before evaluating any, as
    :func:`repro.core.run.random_run` would, so ``rng`` ends in the
    same state.
    """
    if rng is None:
        rng = spawn_random(0, "adversary", "random-search")
    layout = layout_for(topology, num_rounds)
    bits = [random_run_bits(layout, rng) for _ in range(samples)]
    return _search_bits(
        protocol, topology, num_rounds, bits, objective, "heuristic",
        "random", engine,
    )


def greedy_search(
    protocol: Protocol,
    topology: Topology,
    num_rounds: Round,
    seed_run: Run,
    objective: Objective = unsafety_objective,
    max_passes: int = 3,
    engine=None,
) -> SearchResult:
    """Hill-climb by flipping one delivery or input at a time.

    Starts from ``seed_run`` and repeatedly applies the single-bit flip
    (add/remove a message delivery, toggle an input) that most improves
    the objective, until a pass yields no improvement or the pass
    budget is exhausted.  Each pass is one
    :meth:`Engine.evaluate_neighbors` call for the whole neighborhood:
    the incremental kernel where the vectorized backend supports the
    protocol, one memoized batch otherwise.  Candidates are tried in
    the historical tuple-flip order — message bits ascending (that is,
    ``all_message_tuples`` order), then input bits — and the first
    strict best wins a pass.  The seed must fit the
    ``(topology, num_rounds)`` layout; ``RunLayout.pack`` raises
    ``ValueError`` otherwise.
    """
    engine = _resolve_engine(engine)
    current = layout_for(topology, num_rounds).pack(seed_run)
    layout = current.layout
    m = layout.num_processes
    bit_order = list(range(m, layout.num_bits)) + list(range(m))
    with engine.obs.tracer.span(
        "search.greedy",
        protocol=protocol.name,
        topology=topology.describe(),
        max_passes=max_passes,
    ):
        current_value: Optional[float] = None
        examined = 1
        for _ in range(max_passes):
            parent_result, by_bit = engine.evaluate_neighbors(
                protocol, topology, current
            )
            if current_value is None:
                current_value = objective(parent_result)
            examined += layout.num_bits
            best_bit: Optional[int] = None
            best_value = current_value
            for bit in bit_order:
                value = objective(by_bit[bit])
                if value > best_value:
                    best_bit = bit
                    best_value = value
            if best_bit is None:
                break
            current = current.with_bit_flipped(best_bit)
            current_value = best_value
        if current_value is None:  # max_passes <= 0: just score the seed
            current_value = objective(
                engine.evaluate(protocol, topology, seed_run)
            )
    engine.obs.metrics.counter("search.runs_examined").inc(examined)
    logger.debug(
        "greedy search on %s: value=%.6f over %d runs",
        topology.describe(),
        current_value,
        examined,
    )
    return SearchResult(
        current_value, current.unpack(), examined, "heuristic", "greedy"
    )


def worst_case_unsafety(
    protocol: Protocol,
    topology: Topology,
    num_rounds: Round,
    objective: Objective = unsafety_objective,
    exhaustive_limit: int = 70_000,
    random_samples: int = 100,
    rng: Optional[random.Random] = None,
    engine=None,
) -> SearchResult:
    """The composite search used by the experiments.

    Exhaustive when the run space fits the budget — orbit-reduced
    whenever the protocol declares its symmetry
    (:meth:`Protocol.automorphism_invariant_vertices` non-``None``),
    since the objective is constant on automorphism orbits and one
    representative per orbit certifies the same exact maximum for a
    fraction of the evaluations.  On the smallest instances the
    reduced and unreduced sweeps are both run and their maxima
    checked equal, raising :class:`SymmetryParityError` otherwise (the
    lumpability analogue of the backend parity suite); reduction failures (width caps, guard limits) fall back
    to the full sweep, never to a weaker certification.  Otherwise
    the best of family search, greedy refinement seeded at the family
    winner, and random probing — certified ``family`` if the family
    winner stands, ``heuristic`` if a heuristic beat it.
    """
    engine = _resolve_engine(engine)
    space = run_space_size(topology, num_rounds, fixed_inputs=False)
    with engine.obs.tracer.span(
        "search.composite",
        protocol=protocol.name,
        topology=topology.describe(),
        num_rounds=num_rounds,
        run_space=space,
    ):
        if space <= exhaustive_limit:
            reduced: Optional[SearchResult] = None
            if protocol.automorphism_invariant_vertices(topology) is not None:
                try:
                    reduced = exhaustive_search(
                        protocol, topology, num_rounds, objective,
                        limit=exhaustive_limit, engine=engine,
                        symmetry_reduction=True,
                    )
                except ValueError:
                    # Includes OrbitReductionUnsupported: the reduced
                    # sweep could not run here; the full sweep below
                    # gives the identical exact answer.
                    reduced = None
            if reduced is not None and space > SYMMETRY_PARITY_LIMIT:
                return reduced
            full = exhaustive_search(
                protocol, topology, num_rounds, objective,
                limit=exhaustive_limit, engine=engine,
            )
            if reduced is not None:
                # Exact parity: an orbit maximum is the space maximum.
                if reduced.value != full.value:
                    raise SymmetryParityError(
                        f"orbit-reduced maximum {reduced.value!r} != "
                        f"full-sweep maximum {full.value!r} on "
                        f"{topology.describe()} N={num_rounds}"
                    )
                return reduced
            return full
        family_result = family_search(
            protocol, topology, num_rounds, objective, engine=engine
        )
        candidates = [family_result]
        if family_result.run is not None:
            candidates.append(
                greedy_search(
                    protocol, topology, num_rounds, family_result.run,
                    objective, engine=engine,
                )
            )
        candidates.append(
            random_search(
                protocol, topology, num_rounds, random_samples, objective,
                rng, engine=engine,
            )
        )
        best = max(candidates, key=lambda result: result.value)
        examined = sum(result.runs_examined for result in candidates)
        certification = (
            "family" if best.value <= family_result.value else "heuristic"
        )
        logger.debug(
            "composite search on %s N=%d: value=%.6f over %d runs [%s]",
            topology.describe(),
            num_rounds,
            best.value,
            examined,
            certification,
        )
        return SearchResult(
            best.value, best.run, examined, certification, "composite"
        )
