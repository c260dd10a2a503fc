"""The offline workloads: closed loop, one fresh ``Engine`` per query.

Each workload is a fixed *cycle* of query shapes (protocol, topology,
horizon, sampler).  The seed only draws each query's parameters
(epsilon, thresholds, cut rounds, loss rates, rng streams), never its
shape, so every seed costs about the same and the run-to-run spread
reflects the machine, not the draw.  A run executes whole cycles so
the mix of completed queries is always the cycle's mix.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.adversary.online import (
    BlindCutter,
    OmniscientRfireCutter,
    online_event_probabilities,
)
from repro.adversary.search import SearchResult, worst_case_unsafety
from repro.adversary.structured import standard_families
from repro.adversary.weak import WeakAdversary, estimate_against_weak_adversary
from repro.cli import parse_topology
from repro.core.measures import run_level, run_modified_level
from repro.core.packed import RunBatch, layout_for
from repro.core.probability import EventProbabilities, monte_carlo_probabilities
from repro.core.run import Run, random_run, round_cut_run, run_space_size
from repro.engine import Engine
from repro.meanfield.evaluate import scaled_spec
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
    XorCoin,
)
from repro.timed.analysis import timed_closed_form, timed_monte_carlo
from repro.timed.run import delayed_good_run, random_timed_run

from .stats import within_wilson

#: Float slack for identities the paper states exactly.
EXACT_TOL = 1e-9

#: Wilson z for Monte Carlo checks: a correct sampler fails one check
#: in ~5e8, so a run of thousands of checks stays green for any seed.
WILSON_Z = 6.0

#: Runs per query re-evaluated on the reference backend after timing.
REFERENCE_SAMPLE = 6


@dataclass(frozen=True)
class Query:
    qid: int
    kind: str
    args: Dict[str, Any]

    def key(self) -> str:
        return json.dumps([self.kind, self.args], sort_keys=True)


@dataclass
class Answer:
    """What a query returned, kept for the checks after timing."""

    query: Query
    value: Any
    engines: List[Engine] = field(default_factory=list)
    extra: Dict[str, Any] = field(default_factory=dict)


def query_hash(queries: Sequence[Query]) -> str:
    digest = hashlib.sha256()
    for query in queries:
        digest.update(query.key().encode())
        digest.update(b"\n")
    return digest.hexdigest()[:16]


# ----------------------------------------------------------------------
# Query cycles
# ----------------------------------------------------------------------

# search-vectorized: S and W on the five graph families.  Run spaces
# 2^11..2^16 sweep exhaustively (orbit-reduced where the protocol is
# symmetric); the last five shapes lie past the 70k exhaustive budget
# and take the family + greedy + random path.
VECTORIZED_SHAPES: Tuple[Tuple[str, str, int], ...] = (
    ("S", "pair", 5),
    ("S", "pair", 6),
    ("W", "pair", 6),
    ("S", "path:3", 2),
    ("W", "path:3", 3),
    ("S", "ring:4", 1),
    ("W", "ring:4", 1),
    ("S", "star:4", 2),
    ("S", "complete:3", 2),
    ("W", "complete:3", 2),
    ("S", "pair", 9),
    ("S", "ring:4", 2),
    ("W", "ring:4", 2),
    ("S", "star:5", 2),
    ("S", "path:4", 3),
)

# search-reference: the protocols the vectorized kernel refuses, sized
# so no query takes much more than half a second on the reference path.
REFERENCE_PROTOCOLS = (
    "EagerS",
    "GreedyS",
    "MessageValidityS",
    "NaiveCountingS",
    "SkewedS",
    "M",
    "A",
    "repeatedA",
)
REFERENCE_SHAPES: Tuple[Tuple[str, str, int], ...] = tuple(
    (name, "pair", 4) for name in REFERENCE_PROTOCOLS
) + (
    ("EagerS", "path:3", 2),
    ("SkewedS", "path:3", 2),
    ("M", "path:3", 2),
    ("NaiveCountingS", "complete:3", 1),
    ("GreedyS", "pair", 9),
    ("MessageValidityS", "pair", 9),
    ("A", "pair", 9),
    ("repeatedA", "pair", 9),
)

# sample-mc: every sampler once per cycle, sized to tens of ms each.
MC_SHAPES: Tuple[str, ...] = (
    "mc-S",
    "mc-XorCoin",
    "mc-repeatedA",
    "weak-S",
    "weak-W",
    "pair-weak-S",
    "pair-weak-W",
    "online-omniscient",
    "online-blind",
    "timed-delayed",
    "timed-random",
    "scaled",
)


def _search_args(
    rng: random.Random, name: str, topology: str, rounds: int
) -> Dict[str, Any]:
    args: Dict[str, Any] = {
        "protocol": name,
        "topology": topology,
        "rounds": rounds,
        "rng": rng.getrandbits(32),
    }
    if name in ("S", "EagerS", "GreedyS", "MessageValidityS", "NaiveCountingS", "SkewedS"):
        args["eps"] = rng.choice((0.05, 0.1, 0.125, 0.2, 0.25, 0.3))
    elif name == "W":
        args["K"] = rng.randint(1, max(1, rounds // 2))
    elif name == "M":
        args["quorum"] = rng.choice((0.5, 0.6, 0.75))
    elif name == "repeatedA":
        args["combiner"] = rng.choice(("any", "all", "majority"))
    return args


def _mc_args(rng: random.Random, shape: str) -> Dict[str, Any]:
    seed = rng.getrandbits(32)
    if shape == "mc-S":
        return {"rounds": 6, "eps": rng.choice((0.1, 0.2, 0.25)),
                "cut": rng.randint(2, 7), "trials": 600, "rng": seed}
    if shape == "mc-XorCoin":
        return {"rounds": 4, "run": rng.getrandbits(32), "trials": 1000,
                "rng": seed}
    if shape == "mc-repeatedA":
        return {"rounds": 8, "combiner": rng.choice(("any", "all")),
                "cut": rng.randint(2, 9), "trials": 150, "rng": seed}
    if shape == "weak-S":  # epsilon = 1/N
        return {"rounds": 4, "loss": rng.choice((0.1, 0.2, 0.3)),
                "samples": 400, "rng": seed}
    if shape == "weak-W":
        return {"rounds": 4, "loss": rng.choice((0.1, 0.2, 0.3)),
                "K": rng.randint(1, 2), "samples": 400, "rng": seed}
    if shape == "pair-weak-S":
        return {"rounds": 6, "loss": rng.choice((0.1, 0.2, 0.3, 0.4)),
                "eps": rng.choice((0.1, 0.2)), "samples": 100_000, "rng": seed}
    if shape == "pair-weak-W":
        return {"rounds": 6, "loss": rng.choice((0.1, 0.2, 0.3, 0.4)),
                "K": rng.randint(1, 3), "samples": 100_000, "rng": seed}
    if shape == "online-omniscient":
        return {"rounds": 8, "trials": 150, "rng": seed}
    if shape == "online-blind":
        return {"rounds": 8, "cut": rng.randint(2, 8), "trials": 150,
                "rng": seed}
    if shape == "timed-delayed":
        return {"rounds": 6, "eps": rng.choice((0.1, 0.2, 0.25)),
                "delay": rng.randint(0, 2), "trials": 500, "rng": seed}
    if shape == "timed-random":
        return {"rounds": 6, "eps": rng.choice((0.1, 0.2, 0.25)),
                "run": rng.getrandbits(32), "trials": 500, "rng": seed}
    if shape == "scaled":
        return {"rounds": rng.randint(6, 12), "eps": rng.choice((0.05, 0.1, 0.2)),
                "cut": rng.randint(2, 6)}
    raise ValueError(f"unknown sample-mc shape {shape!r}")


def cycle(workload: str, seed: int, index: int) -> List[Query]:
    """The queries of cycle ``index``: fixed shapes, seeded parameters."""
    rng = random.Random(f"{workload}/{seed}/{index}")
    queries: List[Query] = []
    if workload == "search-vectorized":
        shapes: Sequence[Any] = VECTORIZED_SHAPES
    elif workload == "search-reference":
        shapes = REFERENCE_SHAPES
    elif workload == "sample-mc":
        shapes = MC_SHAPES
    else:
        raise ValueError(f"unknown offline workload {workload!r}")
    base = index * len(shapes)
    for offset, shape in enumerate(shapes):
        if workload == "sample-mc":
            kind = shape
            args = _mc_args(rng, shape)
        else:
            kind = "search"
            args = _search_args(rng, *shape)
        queries.append(Query(base + offset, kind, args))
    return queries


def cycle_length(workload: str) -> int:
    return len(cycle(workload, 0, 0))


def shape_label(query: Query) -> str:
    """The query's shape: what every cycle repeats with new parameters."""
    if query.kind != "search":
        return query.kind
    args = query.args
    return f"{args['protocol']} {args['topology']} N={args['rounds']}"


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------


def make_protocol(args: Dict[str, Any]):
    name = args["protocol"]
    rounds = args["rounds"]
    if name == "S":
        return ProtocolS(epsilon=args["eps"])
    if name == "W":
        return ProtocolW(args["K"])
    if name == "EagerS":
        return EagerS(epsilon=args["eps"])
    if name == "GreedyS":
        return GreedyS(epsilon=args["eps"])
    if name == "MessageValidityS":
        return MessageValidityS(epsilon=args["eps"])
    if name == "NaiveCountingS":
        return NaiveCountingS(epsilon=args["eps"])
    if name == "SkewedS":
        return SkewedS(epsilon=args["eps"])
    if name == "M":
        return ProtocolM(quorum=args["quorum"])
    if name == "A":
        return ProtocolA(rounds)
    if name == "repeatedA":
        return RepeatedA(rounds, copies=2, combiner=args["combiner"])
    raise ValueError(f"unknown protocol {name!r}")


def family_runs(topology, rounds: int) -> List[Run]:
    runs: List[Run] = []
    for family in standard_families():
        runs.extend(family.runs(topology, rounds))
    return runs


def _search(query: Query) -> Answer:
    """``U_s(F)`` by worst-run search, then ``L(F, R)`` over the families."""
    args = query.args
    topology = parse_topology(args["topology"])
    protocol = make_protocol(args)
    engine = Engine()
    found = worst_case_unsafety(
        protocol, topology, args["rounds"], engine=engine,
        rng=random.Random(args["rng"]),
    )
    runs = family_runs(topology, args["rounds"])
    sweep = engine.evaluate_many(protocol, topology, runs)
    return Answer(
        query, found, [engine],
        {"protocol": protocol, "topology": topology, "runs": runs,
         "sweep": sweep},
    )


def _pair():
    return parse_topology("pair")


def _mc(query: Query) -> Answer:
    args = query.args
    topology = _pair()
    rounds = args["rounds"]
    rng = random.Random(args["rng"])
    if query.kind == "mc-S":
        protocol: Any = ProtocolS(epsilon=args["eps"])
        run = round_cut_run(topology, rounds, args["cut"])
    elif query.kind == "mc-XorCoin":
        protocol = XorCoin()
        run = random_run(topology, rounds, random.Random(args["run"]))
    else:
        protocol = RepeatedA(rounds, copies=2, combiner=args["combiner"])
        run = round_cut_run(topology, rounds, args["cut"])
    estimate = monte_carlo_probabilities(
        protocol, topology, run, trials=args["trials"], rng=rng
    )
    return Answer(query, estimate, [],
                  {"protocol": protocol, "topology": topology, "run": run})


def _weak(query: Query) -> Answer:
    args = query.args
    topology = _pair()
    rounds = args["rounds"]
    protocol: Any = (
        ProtocolS(epsilon=1.0 / rounds) if query.kind == "weak-S"
        else ProtocolW(args["K"])
    )
    engine = Engine()
    estimate = estimate_against_weak_adversary(
        protocol, topology, rounds, WeakAdversary(args["loss"]),
        samples=args["samples"], rng=random.Random(args["rng"]),
        engine=engine,
    )
    return Answer(query, estimate, [engine], {"protocol": protocol})


def _pair_weak(query: Query) -> Answer:
    args = query.args
    engine = Engine()
    generator = np.random.default_rng(args["rng"])
    if query.kind == "pair-weak-S":
        protocol: Any = ProtocolS(epsilon=args["eps"])
        estimate = engine.pair_weak_estimate_s(
            args["rounds"], args["eps"], args["loss"], args["samples"], generator
        )
    else:
        protocol = ProtocolW(args["K"])
        estimate = engine.pair_weak_estimate_w(
            args["rounds"], args["K"], args["loss"], args["samples"], generator
        )
    return Answer(query, estimate, [engine], {"protocol": protocol})


def _online(query: Query) -> Answer:
    args = query.args
    rounds = args["rounds"]
    protocol = ProtocolS(epsilon=1.0 / rounds)
    strategy: Any = (
        OmniscientRfireCutter() if query.kind == "online-omniscient"
        else BlindCutter(args["cut"])
    )
    estimate = online_event_probabilities(
        protocol, _pair(), rounds, strategy, frozenset((1, 2)),
        trials=args["trials"], rng=random.Random(args["rng"]),
    )
    return Answer(query, estimate, [], {"protocol": protocol})


def _timed(query: Query) -> Answer:
    args = query.args
    topology = _pair()
    protocol = ProtocolS(epsilon=args["eps"])
    if query.kind == "timed-delayed":
        run: Any = delayed_good_run(topology, args["rounds"], args["delay"])
    else:
        run = random_timed_run(topology, args["rounds"], random.Random(args["run"]))
    estimate = timed_monte_carlo(
        protocol, topology, run, trials=args["trials"],
        rng=random.Random(args["rng"]),
    )
    return Answer(query, estimate, [],
                  {"protocol": protocol, "topology": topology, "run": run})


SCALED_SIZES = (10**3, 10**4, 10**5, 10**6)


def scaled_patterns(args: Dict[str, Any]) -> List[str]:
    return ["good", "silent", f"cut:{args['cut']}", f"isolate:{args['cut']}"]


def _scaled(query: Query) -> Answer:
    """``Engine.evaluate_scaled`` at m = 10^3..10^6, four run patterns."""
    args = query.args
    protocol = ProtocolS(epsilon=args["eps"])
    engine = Engine()
    results = []
    for size in SCALED_SIZES:
        for pattern in scaled_patterns(args):
            spec = scaled_spec(size, args["rounds"], pattern, distinguished=True)
            results.append((size, pattern, engine.evaluate_scaled(protocol, spec)))
    return Answer(query, results, [engine], {"protocol": protocol})


RUNNERS: Dict[str, Callable[[Query], Answer]] = {
    "search": _search,
    "mc-S": _mc,
    "mc-XorCoin": _mc,
    "mc-repeatedA": _mc,
    "weak-S": _weak,
    "weak-W": _weak,
    "pair-weak-S": _pair_weak,
    "pair-weak-W": _pair_weak,
    "online-omniscient": _online,
    "online-blind": _online,
    "timed-delayed": _timed,
    "timed-random": _timed,
    "scaled": _scaled,
}


def execute(query: Query) -> Answer:
    return RUNNERS[query.kind](query)


# ----------------------------------------------------------------------
# Answer checks (run after the timed window)
# ----------------------------------------------------------------------


def _probs(result: EventProbabilities) -> Tuple[float, ...]:
    return (
        result.pr_total_attack,
        result.pr_no_attack,
        result.pr_partial_attack,
        *result.pr_attack,
    )


def _check_search(answer: Answer, reference: "ReferenceOracle") -> List[str]:
    args = answer.query.args
    found: SearchResult = answer.value
    protocol = answer.extra["protocol"]
    topology = answer.extra["topology"]
    runs: List[Run] = answer.extra["runs"]
    sweep: List[EventProbabilities] = answer.extra["sweep"]
    m = topology.num_processes
    label = f"q{answer.query.qid} {protocol.name} {args['topology']} N={args['rounds']}"
    errors: List[str] = []
    if len(sweep) != len(runs):
        return [f"{label}: sweep returned {len(sweep)} results for {len(runs)} runs"]
    if isinstance(protocol, ProtocolS):
        eps = protocol.epsilon
        # Theorem 6.7: U_s(S) <= eps, attained on an exhaustive sweep.
        if found.value > eps + EXACT_TOL:
            errors.append(f"{label}: U_s(S)={found.value} > eps={eps}")
        if found.certification == "exact" and abs(found.value - eps) > EXACT_TOL:
            errors.append(f"{label}: exhaustive U_s(S)={found.value} != eps={eps}")
        # Theorem 6.8: L(S, R) = min(1, eps * ML(R)).
        for run, result in zip(runs, sweep):
            expected = min(1.0, eps * run_modified_level(run, m))
            if abs(result.pr_total_attack - expected) > EXACT_TOL:
                errors.append(
                    f"{label}: L(S,R)={result.pr_total_attack} != "
                    f"min(1, eps*ML)={expected} on {run.describe()}"
                )
                break
    if found.certification == "exact":
        # Theorem 5.4: L(F, R) <= U_s(F) * L(R).
        for run, result in zip(runs, sweep):
            ceiling = min(1.0, found.value * run_level(run, m))
            if result.pr_total_attack > ceiling + EXACT_TOL:
                errors.append(
                    f"{label}: L(F,R)={result.pr_total_attack} > "
                    f"U_s*L(R)={ceiling} on {run.describe()}"
                )
                break
    # The witness attains the reported value on the reference backend.
    if found.run is not None:
        witness = reference.evaluate(protocol, topology, found.run)
        if witness.pr_partial_attack != found.value:
            errors.append(
                f"{label}: witness re-evaluates to {witness.pr_partial_attack}, "
                f"search reported {found.value}"
            )
    # A seeded sample of the sweep matches the reference backend exactly.
    picker = random.Random(args["rng"])
    for index in picker.sample(range(len(runs)), min(REFERENCE_SAMPLE, len(runs))):
        expected_probs = _probs(reference.evaluate(protocol, topology, runs[index]))
        if _probs(sweep[index]) != expected_probs:
            errors.append(
                f"{label}: {runs[index].describe()} gave {_probs(sweep[index])}, "
                f"reference backend {expected_probs}"
            )
    return errors


def _wilson_errors(
    label: str, estimate: EventProbabilities, exact: EventProbabilities
) -> List[str]:
    trials = estimate.trials or 0
    errors = []
    for event, got, want in (
        ("TA", estimate.pr_total_attack, exact.pr_total_attack),
        ("NA", estimate.pr_no_attack, exact.pr_no_attack),
        ("PA", estimate.pr_partial_attack, exact.pr_partial_attack),
    ):
        if not within_wilson(got, trials, want, WILSON_Z):
            errors.append(
                f"{label}: Pr[{event}] estimate {got} over {trials} trials "
                f"excludes the exact {want}"
            )
    return errors


class ReferenceOracle:
    """Exact answers for the checks, on the reference backend."""

    def __init__(self) -> None:
        self.engine = Engine(backend="reference")
        self._weak: Dict[Tuple, Tuple[float, float]] = {}

    def evaluate(self, protocol, topology, run) -> EventProbabilities:
        # A fresh cache per call: memory stays flat however long the
        # run, so the checks do not move peak_rss_mb.
        self.engine.clear_cache()
        return self.engine.evaluate(protocol, topology, run)

    def weak_expectation(self, protocol, rounds: int, loss: float) -> Tuple[float, float]:
        """Exact ``(E[L], E[U])`` on the pair under i.i.d. loss.

        Enumerates every delivery pattern (both inputs present) with
        its probability; each run is evaluated exactly.
        """
        key = (protocol.name, rounds, loss)
        if key not in self._weak:
            topology = _pair()
            layout = layout_for(topology, rounds)
            full = (1 << topology.num_processes) - 1
            bits = [
                (counter << topology.num_processes) | full
                for counter in range(1 << layout.num_message_bits)
            ]
            batch = RunBatch.from_bits(layout, bits)
            results = Engine(backend="vectorized").evaluate_packed_many(
                protocol, topology, batch
            )
            links = layout.num_message_bits
            liveness = unsafety = 0.0
            for counter, result in zip(range(len(bits)), results):
                kept = bin(counter).count("1")
                weight = (1 - loss) ** kept * loss ** (links - kept)
                liveness += weight * result.pr_total_attack
                unsafety += weight * result.pr_partial_attack
            self._weak[key] = (liveness, unsafety)
        return self._weak[key]


def _check_mc(answer: Answer, reference: ReferenceOracle) -> List[str]:
    query = answer.query
    label = f"q{query.qid} {query.kind}"
    kind = query.kind
    estimate = answer.value
    if kind in ("mc-S", "mc-XorCoin", "mc-repeatedA"):
        exact = reference.evaluate(
            answer.extra["protocol"], answer.extra["topology"], answer.extra["run"]
        )
        return _wilson_errors(label, estimate, exact)
    if kind in ("timed-delayed", "timed-random"):
        exact = timed_closed_form(
            answer.extra["protocol"], answer.extra["topology"], answer.extra["run"]
        )
        return _wilson_errors(label, estimate, exact)
    if kind == "online-omniscient":
        # Footnote 3 with eps = 1/N: the payload-reading cutter forces
        # disagreement with certainty.
        if estimate.pr_partial_attack != 1.0:
            return [f"{label}: omniscient cutter reached PA={estimate.pr_partial_attack}"]
        return []
    if kind == "online-blind":
        # A blind cutter realizes the offline round-cut run.
        topology = _pair()
        run = round_cut_run(topology, query.args["rounds"], query.args["cut"])
        exact = reference.evaluate(answer.extra["protocol"], topology, run)
        return _wilson_errors(label, estimate, exact)
    if kind in ("weak-S", "weak-W", "pair-weak-S", "pair-weak-W"):
        errors = []
        protocol = answer.extra["protocol"]
        liveness, unsafety = reference.weak_expectation(
            protocol, query.args["rounds"], query.args["loss"]
        )
        samples = estimate.samples
        for event, got, want in (
            ("E[L]", estimate.expected_liveness, liveness),
            ("E[U]", estimate.expected_unsafety, unsafety),
        ):
            if not within_wilson(got, samples, want, WILSON_Z):
                errors.append(
                    f"{label}: {event} estimate {got} over {samples} runs "
                    f"excludes the exact {want}"
                )
        if isinstance(protocol, ProtocolS) and (
            estimate.expected_unsafety > protocol.epsilon + EXACT_TOL
        ):
            errors.append(f"{label}: E[U]={estimate.expected_unsafety} > eps")
        return errors
    if kind == "scaled":
        errors = []
        eps = answer.extra["protocol"].epsilon
        for size, pattern, result in answer.value:
            where = f"{label} m={size} {pattern}"
            if result.num_processes != size:
                errors.append(f"{where}: evaluated m={result.num_processes}")
            if result.pr_partial_attack > eps + EXACT_TOL:
                errors.append(f"{where}: U={result.pr_partial_attack} > eps")
            expected = min(1.0, eps * result.modified_level)
            if abs(result.pr_total_attack - expected) > EXACT_TOL:
                errors.append(
                    f"{where}: L={result.pr_total_attack} != min(1, eps*ML)={expected}"
                )
            total = (
                result.pr_total_attack + result.pr_no_attack + result.pr_partial_attack
            )
            if abs(total - 1.0) > EXACT_TOL:
                errors.append(f"{where}: event probabilities sum to {total}")
        # The counter kernel's answer does not depend on m for these
        # class-uniform patterns: every size must agree.
        by_pattern: Dict[str, Tuple[float, ...]] = {}
        for size, pattern, result in answer.value:
            probs = (result.pr_total_attack, result.pr_no_attack, result.pr_partial_attack)
            if by_pattern.setdefault(pattern, probs) != probs:
                errors.append(f"{label} {pattern}: m={size} disagrees with smaller m")
        return errors
    return [f"{label}: no check for kind {kind}"]


def check(answer: Answer, reference: ReferenceOracle) -> List[str]:
    """Every answer check for one query; empty when all hold."""
    if answer.query.kind == "search":
        return _check_search(answer, reference)
    return _check_mc(answer, reference)


ENGINE_COUNTERS = (
    "runs_evaluated",
    "reference_evaluations",
    "vectorized_evaluations",
    "meanfield_evaluations",
    "cache_hits",
    "cache_misses",
)


class Tally:
    """Counters summed over queries, so answers need not be kept.

    Engine counters come from each query's fresh engine; the search
    sums give examined runs, the exact share and the orbit factor
    (run space / representatives examined, over exact sweeps).
    """

    def __init__(self) -> None:
        self.engine = {key: 0.0 for key in ENGINE_COUNTERS}
        self.searches = 0
        self.exact = 0
        self.runs_examined = 0
        self.exact_space = 0
        self.exact_examined = 0

    def add(self, answer: Answer) -> None:
        for engine in answer.engines:
            for key in ENGINE_COUNTERS:
                self.engine[key] += getattr(engine.stats, key)
        if answer.query.kind != "search":
            return
        found: SearchResult = answer.value
        self.searches += 1
        self.runs_examined += found.runs_examined
        if found.certification == "exact":
            self.exact += 1
            self.exact_examined += found.runs_examined
            self.exact_space += run_space_size(
                answer.extra["topology"], answer.query.args["rounds"],
                fixed_inputs=False,
            )

    def search(self) -> Dict[str, float]:
        return {
            "runs_examined": float(self.runs_examined),
            "exact_share": self.exact / self.searches if self.searches else 0.0,
            "orbit_factor": (
                self.exact_space / self.exact_examined if self.exact_examined else 0.0
            ),
        }


def fingerprint(answer: Answer) -> str:
    """A digest of every number a query returned (seeded: reproducible)."""
    value = answer.value
    if isinstance(value, SearchResult):
        parts: List[Any] = [
            value.value, value.certification, value.runs_examined,
            value.run.describe() if value.run is not None else None,
            [_probs(result) for result in answer.extra["sweep"]],
        ]
    elif isinstance(value, EventProbabilities):
        parts = [_probs(value), value.trials]
    elif isinstance(value, list):  # scaled: (size, pattern, evaluation)
        parts = [
            (size, pattern, result.pr_total_attack, result.pr_no_attack,
             result.pr_partial_attack)
            for size, pattern, result in value
        ]
    else:  # WeakAdversaryEstimate
        parts = [value.expected_liveness, value.expected_unsafety,
                 value.disagreement_runs, value.samples]
    return hashlib.sha256(repr(parts).encode()).hexdigest()
