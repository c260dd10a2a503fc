"""The layer map: which entry points belong to which layer, and the ledger.

Span names are ``layer:entry``.  The per-layer metrics in
``BENCHMARK.json`` are derived here from the span totals of a traced
pass plus the counters the queries' own engines kept.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .spans import SpanTotals, Target

#: Every per-layer metric and its unit, in ``BENCHMARK.json`` order.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("core.packed.runs_enumerated", "count"),
    ("core.packed.self_s", "s"),
    ("core.packed.orbit_factor", "ratio"),
    ("core.packed.unpack_calls", "count"),
    ("core.packed.unpack_self_s", "s"),
    ("core.execution.calls", "count"),
    ("core.execution.self_s", "s"),
    ("core.execution.us_per_call", "us"),
    ("protocols.closed_form.calls", "count"),
    ("protocols.closed_form.self_s", "s"),
    ("engine.vectorized.runs", "count"),
    ("engine.vectorized.self_s", "s"),
    ("engine.vectorized.us_per_run", "us"),
    ("engine.vectorized.neighbor_calls", "count"),
    ("engine.runs_evaluated", "count"),
    ("engine.self_s", "s"),
    ("engine.cache_hit_ratio", "ratio"),
    ("engine.vectorized_share", "ratio"),
    ("adversary.search.runs_examined", "count"),
    ("adversary.search.self_s", "s"),
    ("adversary.search.family_s", "s"),
    ("adversary.search.greedy_s", "s"),
    ("adversary.search.exact_share", "ratio"),
    ("core.probability.mc_trials", "count"),
    ("core.probability.mc_self_s", "s"),
    ("core.probability.us_per_trial", "us"),
    ("adversary.weak.samples", "count"),
    ("adversary.weak.self_s", "s"),
    ("engine.pair_weak.samples", "count"),
    ("engine.pair_weak.self_s", "s"),
    ("adversary.online.trials", "count"),
    ("adversary.online.self_s", "s"),
    ("timed.trials", "count"),
    ("timed.self_s", "s"),
    ("meanfield.points", "count"),
    ("meanfield.self_s", "s"),
    ("meanfield.us_per_point", "us"),
    ("service.hot.p50_ms", "ms"),
    ("service.cold.p50_ms", "ms"),
    ("service.scaled.p50_ms", "ms"),
    ("service.p50_ms.high", "ms"),
    ("service.p99_ms.low", "ms"),
    ("service.batch.size_mean", "count"),
    ("service.cache_hit_ratio", "ratio"),
    ("service.cpu_ms_per_request", "ms"),
    ("service.rejected", "count"),
    ("loadgen.lateness_p99_ms", "ms"),
    ("loadgen.lateness_max_ms", "ms"),
    ("query_p50_ms", "ms"),
    ("query_tail_ms", "ms"),
    ("error_rate", "ratio"),
    ("unattributed_frac", "ratio"),
    ("tracing_overhead_frac", "ratio"),
    ("layer_coverage_ok", "bool"),
)

#: Layers whose self time the coverage check and the ledger report.
LAYERS = (
    "core.packed",
    "core.execution",
    "protocols",
    "engine",
    "engine.vectorized",
    "engine.pair_weak",
    "adversary.search",
    "core.probability",
    "adversary.weak",
    "adversary.online",
    "timed",
    "meanfield",
)


def _arg(position: int, name: str):
    def count(args: tuple, kwargs: dict, result) -> int:
        if name in kwargs:
            return int(kwargs[name])
        return int(args[position]) if len(args) > position else 0

    return count


def _length(position: int):
    def count(args: tuple, kwargs: dict, result) -> int:
        return len(args[position])

    return count


def _neighbors(args: tuple, kwargs: dict, result) -> int:
    parent_result, by_bit = result
    return 1 + len(by_bit)


def targets() -> List[Target]:
    """The entry points the traced pass wraps, layer by layer."""
    t = Target
    found = [
        # core.packed: enumeration, orbit reduction, packing, unpack.
        t("repro.core.packed", "enumerate_packed_runs", "core.packed:enumerate",
          generator=True),
        t("repro.core.packed", "enumerate_orbit_representatives",
          "core.packed:enumerate", generator=True),
        t("repro.core.run", "enumerate_runs", "core.packed:enumerate",
          generator=True),
        t("repro.core.packed", "orbit_tables", "core.packed:orbit_tables"),
        t("repro.core.packed", "RunBatch.from_bits", "core.packed:batch"),
        t("repro.core.packed", "RunBatch.from_runs", "core.packed:batch"),
        t("repro.core.packed", "RunBatch.tensors", "core.packed:batch"),
        t("repro.core.packed", "RunLayout.pack", "core.packed:batch"),
        t("repro.core.packed", "RunLayout.unpack_bits", "core.packed:unpack"),
        # core.execution: the reference simulator.
        t("repro.core.execution", "execute", "core.execution:execute"),
        t("repro.core.execution", "decide", "core.execution:decide"),
        # engine: dispatch and memo cache.
        t("repro.engine.engine", "Engine.evaluate", "engine:evaluate"),
        t("repro.engine.engine", "Engine.evaluate_many", "engine:evaluate_many"),
        t("repro.engine.engine", "Engine.evaluate_packed_many",
          "engine:evaluate_packed_many"),
        t("repro.engine.engine", "Engine.evaluate_neighbors",
          "engine:evaluate_neighbors"),
        t("repro.engine.engine", "Engine.evaluate_scaled", "engine:evaluate_scaled"),
        t("repro.engine.engine", "Engine.pair_weak_estimate_s",
          "engine.pair_weak:estimate", counter=_arg(4, "samples")),
        t("repro.engine.engine", "Engine.pair_weak_estimate_w",
          "engine.pair_weak:estimate", counter=_arg(4, "samples")),
        # engine.vectorized: the numpy kernels.
        t("repro.engine.vectorized", "evaluate_batch", "engine.vectorized:batch",
          counter=_length(2)),
        t("repro.engine.vectorized", "evaluate_packed_batch",
          "engine.vectorized:batch", counter=_length(2)),
        t("repro.engine.vectorized", "evaluate_neighbor_batch",
          "engine.vectorized:neighbors", counter=_neighbors),
        # adversary.search: the strategies and family bookkeeping.
        t("repro.adversary.search", "worst_case_unsafety",
          "adversary.search:composite"),
        t("repro.adversary.search", "exhaustive_search", "adversary.search:exhaustive"),
        t("repro.adversary.search", "family_search", "adversary.search:family"),
        t("repro.adversary.search", "greedy_search", "adversary.search:greedy"),
        t("repro.adversary.search", "random_search", "adversary.search:random"),
        t("repro.adversary.structured", "RunFamily.runs", "adversary.search:families"),
        # core.probability: enumeration and Monte Carlo.  The per-run
        # dispatcher ``evaluate`` is left unwrapped: a span per run
        # would cost more than the dispatch it measures.
        t("repro.core.probability", "exact_probabilities",
          "core.probability:enumeration"),
        t("repro.core.probability", "monte_carlo_probabilities",
          "core.probability:monte_carlo", counter=_arg(3, "trials")),
        # adversary.weak: run sampling.
        t("repro.adversary.weak", "estimate_against_weak_adversary",
          "adversary.weak:estimate", counter=_arg(4, "samples")),
        t("repro.adversary.weak", "WeakAdversary.sample", "adversary.weak:sample"),
        # adversary.online: online games.
        t("repro.adversary.online", "online_event_probabilities",
          "adversary.online:estimate", counter=_arg(5, "trials")),
        t("repro.adversary.online", "run_online", "adversary.online:game"),
        # timed: timed-run Monte Carlo.
        t("repro.timed.analysis", "timed_monte_carlo", "timed:monte_carlo",
          counter=_arg(3, "trials")),
        t("repro.timed.execution", "timed_decide", "timed:decide"),
        # meanfield: the counter kernel.
        t("repro.meanfield.evaluate", "evaluate_spec", "meanfield:point"),
        t("repro.meanfield.evaluate", "evaluate_counter", "meanfield:point"),
        t("repro.meanfield.evaluate", "scaled_spec", "meanfield:spec"),
    ]
    # protocols: every closed-form finisher.
    for module, qualname in closed_form_classes():
        found.append(
            t(module, f"{qualname}.closed_form_probabilities", "protocols:closed_form")
        )
    return found


def closed_form_classes() -> List[Tuple[str, str]]:
    """Every loaded protocol class defining ``closed_form_probabilities``."""
    from repro.core.protocol import ClosedFormProtocol

    found: List[Tuple[str, str]] = []
    pending = [ClosedFormProtocol]
    seen = set()
    while pending:
        cls = pending.pop()
        for sub in cls.__subclasses__():
            if sub in seen:
                continue
            seen.add(sub)
            pending.append(sub)
            if "closed_form_probabilities" in sub.__dict__:
                found.append((sub.__module__, sub.__qualname__))
    return sorted(found)


def _per(total: float, count: float, scale: float = 1.0) -> float:
    return total / count * scale if count else 0.0


def ledger(
    spans: SpanTotals,
    wall_s: float,
    engine: Dict[str, float],
    search: Dict[str, float],
) -> Dict[str, float]:
    """The per-layer metrics of one traced pass over the queries."""
    execution_calls = spans.get("core.execution:execute", "calls") + spans.get(
        "core.execution:decide", "calls"
    )
    vectorized_runs = spans.get("engine.vectorized:batch", "work") + spans.get(
        "engine.vectorized:neighbors", "work"
    )
    mc_trials = spans.get("core.probability:monte_carlo", "work")
    points = spans.get("meanfield:point", "calls")
    lookups = engine["cache_hits"] + engine["cache_misses"]
    exact_evals = engine["vectorized_evaluations"] + engine["reference_evaluations"]
    out = {
        "core.packed.runs_enumerated": spans.get("core.packed:enumerate", "work"),
        "core.packed.self_s": spans.layer("core.packed"),
        "core.packed.orbit_factor": search["orbit_factor"],
        "core.packed.unpack_calls": spans.get("core.packed:unpack", "calls"),
        "core.packed.unpack_self_s": spans.get("core.packed:unpack"),
        "core.execution.calls": execution_calls,
        "core.execution.self_s": spans.layer("core.execution"),
        "core.execution.us_per_call": _per(
            spans.layer("core.execution"), execution_calls, 1e6
        ),
        "protocols.closed_form.calls": spans.get("protocols:closed_form", "calls"),
        "protocols.closed_form.self_s": spans.layer("protocols"),
        "engine.vectorized.runs": vectorized_runs,
        "engine.vectorized.self_s": spans.layer("engine.vectorized"),
        "engine.vectorized.us_per_run": _per(
            spans.layer("engine.vectorized"), vectorized_runs, 1e6
        ),
        "engine.vectorized.neighbor_calls": spans.get(
            "engine.vectorized:neighbors", "calls"
        ),
        "engine.runs_evaluated": engine["runs_evaluated"],
        "engine.self_s": spans.layer("engine"),
        "engine.cache_hit_ratio": _per(engine["cache_hits"], lookups),
        "engine.vectorized_share": _per(engine["vectorized_evaluations"], exact_evals),
        "adversary.search.runs_examined": search["runs_examined"],
        "adversary.search.self_s": spans.layer("adversary.search"),
        "adversary.search.family_s": spans.get("adversary.search:family", "busy"),
        "adversary.search.greedy_s": spans.get("adversary.search:greedy", "busy"),
        "adversary.search.exact_share": search["exact_share"],
        "core.probability.mc_trials": mc_trials,
        "core.probability.mc_self_s": spans.get("core.probability:monte_carlo"),
        "core.probability.us_per_trial": _per(
            spans.get("core.probability:monte_carlo", "busy"), mc_trials, 1e6
        ),
        "adversary.weak.samples": spans.get("adversary.weak:estimate", "work"),
        "adversary.weak.self_s": spans.layer("adversary.weak"),
        "engine.pair_weak.samples": spans.get("engine.pair_weak:estimate", "work"),
        "engine.pair_weak.self_s": spans.layer("engine.pair_weak"),
        "adversary.online.trials": spans.get("adversary.online:estimate", "work"),
        "adversary.online.self_s": spans.layer("adversary.online"),
        "timed.trials": spans.get("timed:monte_carlo", "work"),
        "timed.self_s": spans.layer("timed"),
        "meanfield.points": points,
        "meanfield.self_s": spans.layer("meanfield"),
        "meanfield.us_per_point": _per(
            spans.get("meanfield:point", "busy"), points, 1e6
        ),
        "unattributed_frac": 1.0 - _per(spans.top_level_busy, wall_s),
    }
    return {name: float(value) for name, value in out.items()}


def layer_shares(spans: SpanTotals, wall_s: float) -> Dict[str, float]:
    """Each layer's self time as a share of the traced wall time."""
    return {layer: _per(spans.layer(layer), wall_s) for layer in LAYERS}


# Samplers for the sample-mc coverage check: the Monte Carlo entry points
# and the simulators they call per trial.
SAMPLER_LAYERS = (
    "core.probability",
    "core.execution",
    "adversary.weak",
    "adversary.online",
    "timed",
    "engine.pair_weak",
    "meanfield",
)


def coverage(workload: str, shares: Dict[str, float]) -> Tuple[bool, List[str]]:
    """Does the workload load the layers it was chosen for?

    ``search-vectorized``: the numpy kernel carries a quarter or more of
    the time and the reference simulator next to none.
    ``search-reference``: the reverse, with the simulator and the
    closed-form finishers taking at least half.  ``sample-mc``: the
    samplers take at least half.
    """
    notes: List[str] = []
    reference = shares["core.execution"] + shares["protocols"]
    vectorized = shares["engine.vectorized"]
    if workload == "search-vectorized":
        if vectorized < 0.25:
            notes.append(f"engine.vectorized share {vectorized:.3f} < 0.25")
        if reference > 0.02:
            notes.append(f"reference simulator share {reference:.3f} > 0.02")
    elif workload == "search-reference":
        if vectorized > 0.02:
            notes.append(f"engine.vectorized share {vectorized:.3f} > 0.02")
        if reference < 0.5:
            notes.append(f"reference simulator share {reference:.3f} < 0.5")
    elif workload == "sample-mc":
        samplers = sum(shares[layer] for layer in SAMPLER_LAYERS)
        if samplers < 0.5:
            notes.append(f"sampler share {samplers:.3f} < 0.5")
    return not notes, notes
