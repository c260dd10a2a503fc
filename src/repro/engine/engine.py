"""The :class:`Engine` facade: batched, cached, instrumented evaluation.

Every layer that needs ``Pr[X | R]`` — the probability module, the
worst-run searches, the weak-adversary estimators, the experiment
runners — goes through an :class:`Engine` rather than calling the
simulator directly.  The engine picks a backend per call:

* ``reference`` — the pure-python simulator via
  :func:`repro.core.probability.evaluate`, unchanged semantics;
* ``vectorized`` — the numpy batch kernel of
  :mod:`repro.engine.vectorized` wherever it supports the
  (protocol, topology) pair exactly, reference otherwise;
* ``auto`` — vectorize exactly-supported batches once they are large
  enough to amortize tensor packing, reference for everything else.

Because the vectorized backend is bit-identical to the reference
closed forms (enforced by the parity test suite), switching backends
never changes a claim check — only wall time.

Results whose method is exact (closed form or enumeration) are
memoized in a pluggable :class:`~repro.engine.cache.EngineCache`
(default: a bounded FIFO :class:`~repro.engine.cache.InProcessCache`)
keyed on the hashable, immutable ``(protocol, topology, run)`` triple.
Every run-level call memoizes — scalar and batch evaluation, greedy
neighborhoods, the reference fallback of a packed batch — so repeated
certification passes stop re-simulating duplicate runs.  The one
exception is a packed batch the numpy kernel evaluates (the
exhaustive sweep's chunks, family and random search): building a
run's cache key costs more than the kernel spends on the run (4.7
against 2.8 us for S on pair N=6 in a 500-run batch), so those
batches are neither deduplicated nor memoized.  Serving shards use the
snapshot-capable :class:`~repro.engine.cache.ShardLocalCache` variant
for warm starts.  Monte-Carlo results are never cached: caching them
would silently freeze sampling noise and perturb downstream rng
streams.

Instrumentation lives in :mod:`repro.obs`: each engine owns a
:class:`~repro.obs.MetricsRegistry` (``engine.*`` counters, the
``engine.evaluate.latency`` histogram, ``mc.trials``) and shares the
process tracer, so ``--trace`` captures engine spans without the
engine knowing who is listening.  :class:`EngineStats` survives as a
thin read view over that registry — same attribute and ``as_dict``
schema as the original counter dataclass.  Wall time counts **backend
work only**: cache hits cost a dict lookup and are excluded (they are
counted separately), so ``wall_time_seconds`` no longer inflates with
the hit rate.
"""

from __future__ import annotations

import logging
import random
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    cast,
)

from ..core.packed import PackedRun, RunBatch, layout_for
from ..core.probability import (
    DEFAULT_ENUMERATION_LIMIT,
    DEFAULT_TRIALS,
    EventBatch,
    EventProbabilities,
    evaluate,
)
from ..core.protocol import Protocol
from ..core.run import Run
from ..core.topology import Topology
from ..core.types import Round
from ..obs import MetricsRegistry, Obs, get_obs
from ..obs.runtime import monotonic
from .cache import EngineCache, InProcessCache

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints only
    from ..meanfield.counter import CounterRunSpec
    from ..meanfield.evaluate import CounterEvaluation

logger = logging.getLogger(__name__)

BACKENDS = ("auto", "reference", "vectorized", "meanfield")

#: Functions whose results the memo cache may store, by dotted
#: qualname.  Registration is a purity contract: these must be
#: deterministic, side-effect-free functions of their (immutable)
#: arguments — no globals, no argument mutation, no RNG or clock —
#: because a cache hit replays the stored value without re-running
#: them.  Rule RC005 of :mod:`repro.staticcheck` verifies the contract
#: statically; the Monte-Carlo paths are deliberately absent (their
#: results are never cached, see :meth:`Engine._cache_put`).
CACHEABLE_QUALNAMES: Tuple[str, ...] = (
    "repro.core.probability.exact_probabilities",
    "repro.engine.vectorized.evaluate_batch",
    "repro.engine.vectorized.evaluate_neighbor_batch",
    "repro.engine.vectorized.evaluate_packed_batch",
    "repro.meanfield.evaluate.evaluate_counter",
    "repro.meanfield.evaluate.evaluate_spec",
    "repro.protocols.counting.CountingProtocol.closed_form_probabilities",
    "repro.protocols.deterministic.DeterministicProtocol.closed_form_probabilities",
    "repro.protocols.protocol_a.ProtocolA.closed_form_probabilities",
    "repro.protocols.protocol_m.ProtocolM.closed_form_probabilities",
    "repro.protocols.repeated_a.RepeatedA.closed_form_probabilities",
)

# Under ``auto``, batches smaller than this stay on the reference path:
# packing tensors for a handful of runs costs more than it saves.
MIN_VECTORIZED_BATCH = 8

# FIFO memo-cache bound — generous for the run counts the experiments
# enumerate (tens of thousands) while keeping worst-case memory modest.
DEFAULT_CACHE_SIZE = 200_000

# Bound for the engine-internal scaled-evaluation memo (parametric
# counter specs are tiny, but sweeps can generate many of them).
SCALED_CACHE_SIZE = 4_096


class EngineStats:
    """Read view over an engine's metrics registry.

    Keeps the attribute surface and ``as_dict`` schema of the original
    counter dataclass (``runs_evaluated`` counts every run requested,
    cache hits included; the per-backend counters count actual
    evaluations; ``wall_time_seconds`` is backend work only), while
    the registry remains the single source of truth — snapshots,
    merges, and JSON export come for free.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()

    def _value(self, name: str):
        return self.registry.counter(name).value

    @property
    def runs_evaluated(self) -> int:
        return self._value("engine.runs_evaluated")

    @property
    def reference_evaluations(self) -> int:
        return self._value("engine.reference_evaluations")

    @property
    def vectorized_evaluations(self) -> int:
        return self._value("engine.vectorized_evaluations")

    @property
    def meanfield_evaluations(self) -> int:
        return self._value("engine.meanfield_evaluations")

    @property
    def cache_hits(self) -> int:
        return self._value("engine.cache.hit")

    @property
    def cache_misses(self) -> int:
        return self._value("engine.cache.miss")

    @property
    def batch_calls(self) -> int:
        return self._value("engine.batch_calls")

    @property
    def wall_time_seconds(self) -> float:
        return float(self._value("engine.wall_time_seconds"))

    @property
    def cache_hit_rate(self) -> float:
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "runs_evaluated": self.runs_evaluated,
            "reference_evaluations": self.reference_evaluations,
            "vectorized_evaluations": self.vectorized_evaluations,
            "meanfield_evaluations": self.meanfield_evaluations,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": round(self.cache_hit_rate, 4),
            "batch_calls": self.batch_calls,
            "wall_time_seconds": round(self.wall_time_seconds, 4),
        }


class EngineBusyError(RuntimeError):
    """Cache maintenance attempted while evaluations are in flight."""


@dataclass
class Engine:
    """Facade over the reference and vectorized evaluation backends.

    **Thread affinity.** An engine instance is single-threaded by
    contract: evaluations (:meth:`evaluate`, :meth:`evaluate_many`,
    the pair fast paths) and cache maintenance (:meth:`clear_cache`,
    :meth:`reset`) must all run on one thread at a time.  The service
    tier honors this by giving each shard its own engine on a
    dedicated single-thread executor.  The contract is enforced, not
    just documented: :meth:`clear_cache` and :meth:`reset` raise
    :class:`EngineBusyError` if any evaluation is in flight (on this
    or any other thread) instead of mutating the memo cache under a
    concurrent reader; :attr:`cache_len` is always safe to read.

    **Cache.** The memo cache is pluggable (``cache=`` takes any
    :class:`~repro.engine.cache.EngineCache`); by default a bounded
    FIFO :class:`~repro.engine.cache.InProcessCache` of ``cache_size``
    entries.  Only exact results are ever stored.
    """

    backend: str = "auto"
    cache_size: int = DEFAULT_CACHE_SIZE
    obs: Optional[Obs] = None
    stats: Optional[EngineStats] = field(default=None, repr=False)
    cache: Optional[EngineCache] = field(default=None, repr=False)
    #: Optional audit hook fired after each timed evaluation with
    #: ``(operation, duration_seconds, attributes)``.  The serving
    #: tier installs one that appends an audit span record (joined to
    #: the executing micro-batch via the engine thread's batch
    #: context), giving every stitched request tree cache hit/miss
    #: provenance without the engine knowing about audit logs.  Runs
    #: on the evaluating thread; must be cheap and must not raise.
    span_hook: Optional[Callable[[str, float, Dict[str, Any]], None]] = field(
        default=None, repr=False
    )

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r}; expected one of {BACKENDS}"
            )
        if self.obs is None:
            # Own registry (per-engine stats isolation), shared process
            # tracer (one ``--trace`` captures every engine's spans).
            root = get_obs()
            self.obs = Obs(
                metrics=MetricsRegistry(),
                tracer=root.tracer,
                exec_trace=root.exec_trace,
            )
        metrics = self.obs.metrics
        self.stats = EngineStats(metrics)
        if self.cache is None:
            self.cache = InProcessCache(self.cache_size)
        self._inflight_lock = threading.Lock()
        self._inflight = 0
        # Resolve hot-path metrics once; updates are attribute bumps.
        self._runs_counter = metrics.counter("engine.runs_evaluated")
        self._reference_counter = metrics.counter("engine.reference_evaluations")
        self._vectorized_counter = metrics.counter("engine.vectorized_evaluations")
        self._meanfield_counter = metrics.counter("engine.meanfield_evaluations")
        self._hit_counter = metrics.counter("engine.cache.hit")
        self._miss_counter = metrics.counter("engine.cache.miss")
        self._batch_counter = metrics.counter("engine.batch_calls")
        self._wall_counter = metrics.counter("engine.wall_time_seconds")
        self._latency_histogram = metrics.histogram("engine.evaluate.latency")
        self._mc_trials_counter = metrics.counter("mc.trials")
        # Scaled (parametric) evaluations return CounterEvaluation, not
        # EventProbabilities, so they cannot share the typed memo cache;
        # they get a small engine-internal FIFO keyed on the packed spec.
        self._scaled_cache: Dict[tuple, "CounterEvaluation"] = {}

    # -- cache ---------------------------------------------------------

    @staticmethod
    def cache_key(
        protocol: Protocol,
        topology: Topology,
        run: Run,
        method: str = "auto",
        trials: int = DEFAULT_TRIALS,
    ) -> Optional[tuple]:
        """The memo-cache key for one evaluation, or None if unhashable.

        Public (and static: no engine required) because callers that
        sit *in front of* the engine — the service tier's
        micro-batcher, shard routers, warm-start snapshot import —
        need to know whether two requests would land on the same cache
        line without evaluating anything, sometimes before any engine
        exists in the process.

        The run is keyed in **packed form** — ``(num_rounds, bits)``
        under the topology's :class:`~repro.core.packed.RunLayout` —
        so evaluations arriving as :class:`Run` objects and as
        :class:`~repro.core.packed.PackedRun` masks share cache lines
        (and snapshot entries shrink to two ints per run).  A run that
        does not fit the topology's layout (off-edge message, foreign
        vertex) falls back to keying the run object itself: such runs
        still reach the backend, which rejects or evaluates them with
        reference semantics, and their cache behavior is unchanged.
        """
        try:
            packed_bits = layout_for(topology, run.num_rounds).pack_bits(run)
        except ValueError:
            try:
                return (hash(protocol), protocol, topology, run, method, trials)
            except TypeError:
                return None  # unhashable protocol: skip memoization
        try:
            return (
                hash(protocol),
                protocol,
                topology,
                run.num_rounds,
                packed_bits,
                method,
                trials,
            )
        except TypeError:
            return None  # unhashable protocol: skip memoization

    @staticmethod
    def packed_cache_key(
        protocol: Protocol,
        topology: Topology,
        packed: PackedRun,
        method: str = "auto",
        trials: int = DEFAULT_TRIALS,
    ) -> Optional[tuple]:
        """The memo-cache key for a packed run — no ``Run`` needed.

        Produces the same key :meth:`cache_key` would for the unpacked
        run, so the packed search paths and the legacy scalar path hit
        each other's entries.
        """
        try:
            return (
                hash(protocol),
                protocol,
                topology,
                packed.num_rounds,
                packed.bits,
                method,
                trials,
            )
        except TypeError:
            return None  # unhashable protocol: skip memoization

    @staticmethod
    def counter_cache_key(
        protocol: Protocol, spec: "CounterRunSpec"
    ) -> Optional[tuple]:
        """The memo key for one scaled (parametric) evaluation.

        Specs have no topology or ``Run`` — the run is keyed on its
        packed integer form, which encodes classes and deliveries
        completely — so two structurally identical specs share a line
        regardless of how they were built.
        """
        try:
            return (hash(protocol), protocol, "counter-spec", spec.packed())
        except TypeError:
            return None  # unhashable protocol: skip memoization

    @staticmethod
    def batch_key(
        protocol: Protocol,
        topology: Topology,
        method: str = "auto",
        trials: int = DEFAULT_TRIALS,
    ) -> Optional[tuple]:
        """The batch-submission key: the run-independent cache-key prefix.

        Two scalar evaluations whose batch keys are equal (and not
        None) may be coalesced into a single :meth:`evaluate_many`
        call without changing any result — they share the protocol,
        topology, method, and trial count, so only their runs differ.
        This is the grouping hook the service micro-batcher uses, and
        (static, so routers need no engine) the key the sharded
        serving tier consistent-hashes to pick the shard whose cache
        owns the group (see :mod:`repro.service.sharding`).
        """
        try:
            return (hash(protocol), protocol, topology, method, trials)
        except TypeError:
            return None  # unhashable protocol: never coalesce

    @contextmanager
    def _evaluating(self) -> Iterator[None]:
        """Mark an evaluation in flight (guards cache maintenance)."""
        with self._inflight_lock:
            self._inflight += 1
        try:
            yield
        finally:
            with self._inflight_lock:
                self._inflight -= 1

    def _check_not_busy(self, operation: str) -> None:
        with self._inflight_lock:
            inflight = self._inflight
        if inflight:
            raise EngineBusyError(
                f"{operation} with {inflight} evaluation(s) in flight: "
                "the memo cache must not be mutated under a concurrent "
                "reader (see the Engine thread-affinity contract)"
            )

    def _cache_get(self, key: Optional[tuple]) -> Optional[EventProbabilities]:
        if key is None:
            return None
        assert self.cache is not None
        result = self.cache.get(key)
        if result is not None:
            self._hit_counter.value += 1
        else:
            self._miss_counter.value += 1
        return result

    def _cache_put(
        self, key: Optional[tuple], result: EventProbabilities
    ) -> None:
        if key is None or not result.is_exact():
            return
        assert self.cache is not None
        self.cache.put(key, result)

    def clear_cache(self) -> None:
        """Drop the memo cache (raises :class:`EngineBusyError` if
        evaluations are in flight on any thread)."""
        self._check_not_busy("clear_cache()")
        assert self.cache is not None
        self.cache.clear()
        self._scaled_cache.clear()

    def reset(self) -> None:
        """Zero the instrumentation and drop the memo cache.

        Called between experiment runs that share one
        :class:`~repro.experiments.common.Config`, so each report's
        engine note covers exactly one run (and repeated runs replay
        identically — no stale cache hits).  Metrics are zeroed in
        place, so resolved counter references — including this
        engine's :class:`EngineStats` view — stay valid; recorded
        trace spans are left alone (they belong to the session, not
        the engine).  Raises :class:`EngineBusyError` while
        evaluations are in flight, like :meth:`clear_cache`.
        """
        self._check_not_busy("reset()")
        self.obs.metrics.reset()
        assert self.cache is not None
        self.cache.clear()
        self._scaled_cache.clear()
        logger.debug(
            "engine reset: memo cache dropped, metrics zeroed (backend=%s)",
            self.backend,
        )

    @property
    def cache_len(self) -> int:
        """Entry count; safe to read concurrently with evaluations."""
        assert self.cache is not None
        return len(self.cache)

    def export_cache_snapshot(self) -> bytes:
        """Warm-start snapshot of the cache, if it supports one.

        Delegates to :meth:`ShardLocalCache.export_snapshot
        <repro.engine.cache.ShardLocalCache.export_snapshot>`; raises
        ``TypeError`` for cache implementations without snapshots.
        """
        self._check_not_busy("export_cache_snapshot()")
        exporter = getattr(self.cache, "export_snapshot", None)
        if exporter is None:
            raise TypeError(
                f"{type(self.cache).__name__} does not support warm-start "
                "snapshots (use ShardLocalCache)"
            )
        blob: bytes = exporter()
        return blob

    def import_cache_snapshot(self, blob: bytes) -> int:
        """Load a warm-start snapshot; returns entries imported."""
        self._check_not_busy("import_cache_snapshot()")
        importer = getattr(self.cache, "import_snapshot", None)
        if importer is None:
            raise TypeError(
                f"{type(self.cache).__name__} does not support warm-start "
                "snapshots (use ShardLocalCache)"
            )
        imported: int = importer(blob)
        return imported

    # -- backend selection --------------------------------------------

    def supports_vectorized(
        self, protocol: Protocol, topology: Topology
    ) -> bool:
        """Whether the numpy kernel evaluates this pair exactly."""
        from . import vectorized

        return vectorized.supports(protocol, topology)

    def supports_meanfield(
        self, protocol: Protocol, topology: Topology
    ) -> bool:
        """Whether the counter-abstraction kernel evaluates this pair.

        True only on complete graphs for the protocol families with a
        lumped kernel (S, W, M); individual runs must additionally be
        class-uniform, which :func:`repro.meanfield.evaluate_counter`
        checks per call.
        """
        from .. import meanfield

        return meanfield.supports(protocol, topology)

    def _wants_vectorized(
        self,
        protocol: Protocol,
        topology: Topology,
        method: str,
        batch: int,
    ) -> bool:
        if self.backend in ("reference", "meanfield"):
            return False
        if method not in ("auto", "closed-form"):
            return False  # caller demanded enumeration / Monte Carlo
        if not self.supports_vectorized(protocol, topology):
            return False
        if self.backend == "vectorized":
            return True
        return batch >= MIN_VECTORIZED_BATCH

    def _wants_meanfield(
        self, protocol: Protocol, topology: Topology, method: str
    ) -> bool:
        """Route exact evaluations through the counter abstraction.

        Only under ``backend="meanfield"``, and only for methods the
        lumped kernels answer exactly; a caller explicitly demanding
        enumeration or Monte Carlo keeps reference semantics (mirrors
        the vectorized backend's Monte-Carlo passthrough).  Unsupported
        (protocol, topology) pairs are *not* silently downgraded —
        :func:`repro.meanfield.evaluate_counter` raises a typed error
        naming the obstruction, which is the backend's contract.
        """
        if self.backend != "meanfield":
            return False
        return method in ("auto", "closed-form")

    # -- evaluation ----------------------------------------------------

    @contextmanager
    def _accounted(
        self, operation: str, num_runs: int, batch: bool, **attributes: object
    ) -> Iterator["_Tally"]:
        """The accounting every evaluation method shares.

        Opens the ``operation`` span, marks the call in flight, counts
        ``num_runs`` requested runs (and one batch call when
        ``batch``), then — once the body returns — books the seconds
        it spent under :meth:`_Tally.work` as wall time and one latency
        sample, unless every run was a cache hit, and fires
        :attr:`span_hook`.  The body reports its cache misses on the
        yielded tally (all runs, unless it says otherwise).
        """
        tally = _Tally(num_runs)
        with self.obs.tracer.span(operation, **attributes), self._evaluating():
            if batch:
                self._batch_counter.value += 1
            self._runs_counter.value += num_runs
            yield tally
            if tally.misses:
                self._wall_counter.value += tally.seconds
                self._latency_histogram.observe(tally.seconds)
            if self.span_hook is not None:
                self.span_hook(
                    operation,
                    tally.seconds,
                    {
                        "runs": num_runs,
                        "cache_hits": num_runs - tally.misses,
                        "cache_misses": tally.misses,
                    },
                )

    def _evaluate_runs(
        self,
        protocol: Protocol,
        topology: Topology,
        runs: Sequence[Run],
        method: str,
        trials: int,
        rng: Optional[random.Random],
        enumeration_limit: int,
        tally: "_Tally",
    ) -> List[EventProbabilities]:
        """Cache lookups, then one backend dispatch for the misses."""
        keys = [
            self.cache_key(protocol, topology, run, method, trials)
            for run in runs
        ]
        results: List[Optional[EventProbabilities]] = [
            self._cache_get(key) for key in keys
        ]
        pending = [index for index, result in enumerate(results) if result is None]
        tally.misses = len(pending)
        done = cast(List[EventProbabilities], results)
        if not pending:
            return done
        with tally.work():
            if self._wants_vectorized(
                protocol, topology, method, batch=len(pending)
            ):
                self._evaluate_pending_vectorized(
                    protocol, topology, runs, results, keys, pending
                )
                return done
            assert self.cache is not None
            meanfield = self._wants_meanfield(protocol, topology, method)
            seen = set()
            for index in pending:
                key = keys[index]
                # A key evaluated earlier in this batch is re-read, so a
                # duplicate run is evaluated once (exact results only;
                # Monte-Carlo estimates are never cached, so re-sample).
                cached = self.cache.get(key) if key in seen else None
                if cached is not None:
                    results[index] = cached
                    continue
                if key is not None:
                    seen.add(key)
                if meanfield:
                    from ..meanfield import evaluate_counter

                    result = evaluate_counter(protocol, topology, runs[index])
                    self._meanfield_counter.value += 1
                else:
                    result = evaluate(
                        protocol,
                        topology,
                        runs[index],
                        method=method,
                        trials=trials,
                        rng=rng,
                        enumeration_limit=enumeration_limit,
                    )
                    self._reference_counter.value += 1
                if result.method == "monte-carlo" and result.trials:
                    self._mc_trials_counter.inc(result.trials)
                self._cache_put(key, result)
                results[index] = result
        return done

    def evaluate(
        self,
        protocol: Protocol,
        topology: Topology,
        run: Run,
        method: str = "auto",
        trials: int = DEFAULT_TRIALS,
        rng: Optional[random.Random] = None,
        enumeration_limit: int = DEFAULT_ENUMERATION_LIMIT,
    ) -> EventProbabilities:
        """Cached scalar evaluation (reference semantics).

        A batch of one through the same cache and dispatch as
        :meth:`evaluate_many`, under its own ``engine.evaluate`` span
        and without counting a batch call.
        """
        with self._accounted(
            "engine.evaluate", 1, batch=False,
            protocol=protocol.name, method=method,
        ) as tally:
            (result,) = self._evaluate_runs(
                protocol, topology, [run], method, trials, rng,
                enumeration_limit, tally,
            )
            if tally.misses and self.obs.exec_trace and self.obs.tracer.enabled:
                from ..obs.exec_trace import trace_execution

                trace_execution(protocol, topology, run, self.obs.tracer)
        return result

    def evaluate_many(
        self,
        protocol: Protocol,
        topology: Topology,
        runs: Sequence[Run],
        method: str = "auto",
        trials: int = DEFAULT_TRIALS,
        rng: Optional[random.Random] = None,
        enumeration_limit: int = DEFAULT_ENUMERATION_LIMIT,
    ) -> List[EventProbabilities]:
        """Evaluate a batch of runs, in order, against one protocol.

        Semantically equivalent to mapping :meth:`evaluate` over
        ``runs`` (same results, same rng consumption for Monte-Carlo
        protocols); the vectorized backend and the memo cache only
        change how fast the answers arrive.
        """
        runs = list(runs)
        with self._accounted(
            "engine.evaluate_many", len(runs), batch=True,
            protocol=protocol.name, method=method, runs=len(runs),
        ) as tally:
            return self._evaluate_runs(
                protocol, topology, runs, method, trials, rng,
                enumeration_limit, tally,
            )

    def _evaluate_pending_vectorized(
        self,
        protocol: Protocol,
        topology: Topology,
        runs: Sequence[Run],
        results: List[Optional[EventProbabilities]],
        keys: List[Optional[tuple]],
        pending: List[int],
    ) -> None:
        from . import vectorized

        # Deduplicate within the batch (closed-form results are pure),
        # and group by horizon: the kernel wants uniform num_rounds.
        by_horizon: Dict[Round, Dict[Run, List[int]]] = {}
        for index in pending:
            run = runs[index]
            by_horizon.setdefault(run.num_rounds, {}).setdefault(
                run, []
            ).append(index)
        for unique in by_horizon.values():
            unique_runs = list(unique.keys())
            batch_results = vectorized.evaluate_batch(
                protocol, topology, unique_runs
            )
            self._vectorized_counter.value += len(unique_runs)
            for run, result in zip(unique_runs, batch_results):
                for index in unique[run]:
                    results[index] = result
                    self._cache_put(keys[index], result)

    # -- packed evaluation --------------------------------------------

    def evaluate_packed_many(
        self,
        protocol: Protocol,
        topology: Topology,
        batch: RunBatch,
        method: str = "auto",
        trials: int = DEFAULT_TRIALS,
    ) -> EventBatch:
        """Evaluate a :class:`RunBatch`, packed end-to-end when possible.

        When the vectorized kernel supports the pair, the batch's words
        feed it directly — no ``Run`` objects exist at any point, the
        :class:`~repro.core.probability.EventBatch` it returns holds
        the event columns as arrays, and nothing is deduplicated or
        memoized (a kernel run costs less than its cache key).
        Otherwise the batch is unpacked and delegated to
        :meth:`evaluate_many` (reference semantics, memoized) and the
        results are wrapped with :meth:`EventBatch.from_results`, so the
        call is total either way and results are bit-identical across
        paths.
        """
        if len(batch) == 0:
            return EventBatch.from_results([])
        if not self._wants_vectorized(
            protocol, topology, method, batch=len(batch)
        ):
            return EventBatch.from_results(
                self.evaluate_many(
                    protocol,
                    topology,
                    batch.to_runs(),
                    method=method,
                    trials=trials,
                )
            )
        from . import vectorized

        with self._accounted(
            "engine.evaluate_packed_many", len(batch), batch=True,
            protocol=protocol.name, method=method, runs=len(batch),
        ) as tally, tally.work():
            results = vectorized.evaluate_packed_batch(
                protocol, topology, batch
            )
            self._vectorized_counter.value += len(batch)
        return results

    def evaluate_neighbors(
        self,
        protocol: Protocol,
        topology: Topology,
        parent: PackedRun,
        method: str = "auto",
        trials: int = DEFAULT_TRIALS,
    ) -> Tuple[EventProbabilities, List[EventProbabilities]]:
        """A run and all of its single-bit neighbors.

        Returns ``(parent_result, by_bit)``, where ``by_bit[b]`` is the
        result for the parent with bit ``b`` flipped.  Where the
        vectorized backend supports the pair, the neighborhood is
        evaluated incrementally (see
        :func:`repro.engine.vectorized.evaluate_neighbor_batch`): each
        neighbor re-derives its counts from the parent's per-round
        state instead of simulating from scratch.  Otherwise the
        parent and its flips go through :meth:`evaluate_packed_many`
        as one :class:`RunBatch` (the reference fallback).  Either way
        every exact result is memoized under its packed cache key.
        """
        layout = parent.layout
        num_neighbors = layout.num_bits
        if self.backend in ("reference", "meanfield") or not (
            self.supports_vectorized(protocol, topology)
        ):
            neighborhood = self.evaluate_packed_many(
                protocol,
                topology,
                RunBatch.from_bits(
                    layout,
                    [parent.bits]
                    + [parent.bits ^ (1 << bit) for bit in range(num_neighbors)],
                ),
                method=method,
                trials=trials,
            )
            return neighborhood[0], neighborhood[1:]
        from . import vectorized

        with self._accounted(
            "engine.evaluate_neighbors", 1 + num_neighbors, batch=True,
            protocol=protocol.name, neighbors=num_neighbors,
        ) as tally, tally.work():
            parent_result, by_bit = vectorized.evaluate_neighbor_batch(
                protocol, topology, parent
            )
            self._vectorized_counter.value += 1 + num_neighbors
            self._cache_put(
                self.packed_cache_key(protocol, topology, parent, method, trials),
                parent_result,
            )
            for bit, result in enumerate(by_bit):
                key = self.packed_cache_key(
                    protocol,
                    topology,
                    parent.with_bit_flipped(bit),
                    method,
                    trials,
                )
                self._cache_put(key, result)
        return parent_result, by_bit

    # -- scaled (parametric) evaluation --------------------------------

    def evaluate_scaled(
        self, protocol: Protocol, spec: "CounterRunSpec"
    ) -> "CounterEvaluation":
        """Evaluate a parametric counter spec — any ``m``, no graph.

        The large-m entry point behind ``repro scale-sweep`` and E17:
        cost is ``O(rounds * classes**2)`` regardless of
        ``spec.num_processes``, and results are memoized in an
        engine-internal FIFO keyed on the packed spec (the typed memo
        cache stores :class:`~repro.core.probability.EventProbabilities`
        only).  Available on every backend — the counter kernel is the
        *only* evaluator that exists at ``m = 10**6``.
        """
        from ..meanfield import evaluate_spec

        with self._accounted(
            "engine.evaluate_scaled", 1, batch=False,
            protocol=protocol.name, num_processes=spec.num_processes,
        ) as tally:
            key = self.counter_cache_key(protocol, spec)
            if key is not None:
                cached = self._scaled_cache.get(key)
                if cached is not None:
                    self._hit_counter.value += 1
                    tally.misses = 0
                    return cached
                self._miss_counter.value += 1
            with tally.work():
                result = evaluate_spec(protocol, spec)
                self._meanfield_counter.value += 1
            if key is not None:
                while len(self._scaled_cache) >= SCALED_CACHE_SIZE:
                    self._scaled_cache.pop(next(iter(self._scaled_cache)))
                self._scaled_cache[key] = result
        return result

    # -- weak-adversary fast paths ------------------------------------

    def pair_weak_estimate_s(
        self,
        num_rounds: Round,
        epsilon: float,
        loss_probability: float,
        samples: int,
        rng,
    ):
        """Vectorized two-general ``E[L]``/``E[U]`` sweep for Protocol S."""
        from . import vectorized

        with self._accounted(
            "engine.pair_weak_estimate", samples, batch=False,
            protocol="S", samples=samples, num_rounds=num_rounds,
        ) as tally, tally.work():
            self._vectorized_counter.inc(samples)
            self._mc_trials_counter.inc(samples)
            return vectorized.pair_protocol_s_weak_estimate(
                num_rounds, epsilon, loss_probability, samples, rng
            )

    def pair_weak_estimate_w(
        self,
        num_rounds: Round,
        threshold: int,
        loss_probability: float,
        samples: int,
        rng,
    ):
        """Vectorized two-general ``E[L]``/``E[U]`` sweep for Protocol W."""
        from . import vectorized

        with self._accounted(
            "engine.pair_weak_estimate", samples, batch=False,
            protocol="W", samples=samples, num_rounds=num_rounds,
        ) as tally, tally.work():
            self._vectorized_counter.inc(samples)
            self._mc_trials_counter.inc(samples)
            return vectorized.pair_protocol_w_weak_estimate(
                num_rounds, threshold, loss_probability, samples, rng
            )


class _Tally:
    """What one accounted evaluation reports to :meth:`Engine._accounted`."""

    __slots__ = ("misses", "seconds")

    def __init__(self, misses: int) -> None:
        self.misses = misses
        self.seconds = 0.0

    @contextmanager
    def work(self) -> Iterator[None]:
        """Time backend work; cache lookups stay outside the clock."""
        started = monotonic()
        yield
        self.seconds += monotonic() - started


_default_engine: Optional[Engine] = None


def default_engine() -> Engine:
    """The process-wide engine used when callers do not pass their own."""
    global _default_engine
    if _default_engine is None:
        _default_engine = Engine()
    return _default_engine
