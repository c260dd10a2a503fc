"""Closed-loop runner for the offline workloads.

One client runs one query at a time, each on a fresh ``Engine``, as
a CLI invocation would.  A run executes whole query cycles, stopping
at the cycle boundary nearest ``--seconds`` of query time (never
before enough queries for a tail percentile of p75).

A shared machine's speed drifts by up to 2x from one second to the
next, so the timed pass also times a fixed calibration loop right
before and right after every query.  ``queries_per_s`` is the
throughput at the speed where that loop takes
``REFERENCE_CALIBRATION_S``: each query's latency is scaled by the
reference time over its own calibration time.  The loop is part of
the benchmark, not the program, so a change to the program moves the
metric fully; the raw wall-clock rate is kept in the details.
"""

from __future__ import annotations

import math
import resource
import statistics
import time
import traceback
from typing import Any, Dict, List, Optional, Tuple

from . import offline
from .layers import coverage, layer_shares, ledger, targets
from .spans import SpanRecorder, instrument, totals
from .stats import REFERENCE_CALIBRATION_S, at_reference_speed, calibrate, tail

#: Whole cycles run at least this many queries, so the tail rule has
#: at least ten samples beyond p75.
MIN_QUERIES = 40


class Pass:
    """One pass over queries: latencies, check results, counters.

    Answers are checked (or fingerprinted) right after their query is
    timed and then dropped, so memory does not grow with run length.
    """

    def __init__(self, timed: bool) -> None:
        """``timed``: the measured pass, which checks every answer and
        times the calibration loop around every query; the traced
        replay does neither (its answers are compared by fingerprint)."""
        self.queries: List[offline.Query] = []
        self.latencies: List[float] = []
        self.cycle_s: List[float] = []
        #: Per query: the mean of the calibration loop's times right
        #: before and right after it (timed passes only).
        self.calibrations: List[float] = []
        #: Per cycle: query time at the reference machine speed.
        self.reference_cycle_s: List[float] = []
        self._timed = timed
        self.failed = 0
        self.messages: List[str] = []
        self.fingerprints: List[str] = []
        self.tally = offline.Tally()
        self._reference = offline.ReferenceOracle() if timed else None

    @property
    def busy_s(self) -> float:
        return sum(self.latencies)

    def run(self, query: offline.Query, recorder: Optional[SpanRecorder] = None) -> float:
        """Time one query, then check it untimed; return its latency."""
        if recorder is not None:
            recorder.query_id = query.qid
        before = calibrate() if self._timed else 0.0
        started = time.perf_counter()
        try:
            answer: Optional[offline.Answer] = offline.execute(query)
        except Exception:  # one failed query must not end the run
            answer = None
            self.messages.append(f"q{query.qid}: " + traceback.format_exc(limit=3))
        latency = time.perf_counter() - started
        if self._timed:
            self.calibrations.append((before + calibrate()) / 2.0)
        self.latencies.append(latency)
        self.queries.append(query)
        if answer is None:
            self.failed += 1
            self.fingerprints.append("")
            return latency
        self.tally.add(answer)
        self.fingerprints.append(offline.fingerprint(answer))
        if self._reference is not None:
            errors = offline.check(answer, self._reference)
            if errors:
                self.failed += 1
                self.messages.extend(errors)
        return latency


def timed_pass(workload: str, seed: int, seconds: float) -> Pass:
    """Run whole cycles for about ``seconds`` of query time.

    Stops at the cycle boundary nearest ``seconds`` (judged by the mean
    cycle time so far), after at least ``MIN_QUERIES`` queries.  Answer
    checks run between queries, outside the timed window, and so do
    the calibration loops.
    """
    min_cycles = math.ceil(MIN_QUERIES / offline.cycle_length(workload))
    result = Pass(timed=True)
    index = 0
    while True:
        cycle_s = 0.0
        reference_s = 0.0
        for query in offline.cycle(workload, seed, index):
            latency = result.run(query)
            cycle_s += latency
            reference_s += at_reference_speed(latency, result.calibrations[-1])
        result.cycle_s.append(cycle_s)
        result.reference_cycle_s.append(reference_s)
        index += 1
        elapsed = sum(result.cycle_s)
        if index >= min_cycles and elapsed + elapsed / index / 2 >= seconds:
            return result


def replay_traced(queries: List[offline.Query]) -> Tuple[Pass, SpanRecorder]:
    """Run ``queries`` again with every layer's entry points wrapped."""
    recorder = SpanRecorder()
    result = Pass(timed=False)
    with instrument(recorder, targets()):
        for query in queries:
            result.run(query, recorder)
    return result, recorder


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def checked(result: Pass) -> Tuple[int, int, List[str]]:
    return len(result.queries), result.failed, result.messages


def end_to_end(result: Pass) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """End-to-end metrics of an untraced pass, and its details record."""
    latencies_ms = [value * 1e3 for value in result.latencies]
    tail_ms, tail_pct, beyond = tail(latencies_ms)
    by_shape: Dict[str, List[float]] = {}
    for query, latency in zip(result.queries, latencies_ms):
        by_shape.setdefault(offline.shape_label(query), []).append(latency)
    shape_p50 = {label: statistics.median(v) for label, v in by_shape.items()}
    per_cycle = len(result.queries) / len(result.cycle_s)
    metrics = {
        # A typical cycle's rate at the reference machine speed: the
        # median cycle shrugs off a burst of contention that the
        # calibration did not catch.
        "queries_per_s": per_cycle / statistics.median(result.reference_cycle_s),
        "ok_rate": 1.0 - result.failed / len(result.queries),
        "peak_rss_mb": peak_rss_mb(),
    }
    details = {
        # Each shape runs once per cycle, so the median over shapes of
        # their median latencies is the mix's median; unlike the median
        # of all samples it cannot jump between two shapes whose
        # latencies happen to straddle the middle.
        "query_p50_ms": statistics.median(shape_p50.values()),
        "queries": len(result.queries),
        "cycles": len(result.cycle_s),
        "busy_s": result.busy_s,
        "raw_queries_per_s": per_cycle / statistics.median(result.cycle_s),
        "calibration_ms": {
            "reference": REFERENCE_CALIBRATION_S * 1e3,
            "median": statistics.median(result.calibrations) * 1e3,
            "min": min(result.calibrations) * 1e3,
            "max": max(result.calibrations) * 1e3,
        },
        "query_tail_ms": tail_ms,
        "query_tail_percentile": tail_pct,
        "query_tail_beyond": beyond,
        "query_hash": offline.query_hash(result.queries),
        "shape_p50_ms": shape_p50,
    }
    return metrics, details


def traced(
    workload: str, seed: int, seconds: float, spans_path: str
) -> Tuple[Dict[str, float], Dict[str, Any], Tuple[int, int, List[str]]]:
    """The untraced pass, then the same queries traced; the ledger."""
    plain = timed_pass(workload, seed, seconds)
    replay, recorder = replay_traced(plain.queries)
    recorder.save(spans_path)
    span_totals = totals(recorder)
    metrics = ledger(
        span_totals, replay.busy_s, replay.tally.engine, replay.tally.search()
    )
    metrics["tracing_overhead_frac"] = replay.busy_s / plain.busy_s - 1.0
    shares = layer_shares(span_totals, replay.busy_s)
    covered, notes = coverage(workload, shares)
    metrics["layer_coverage_ok"] = 1.0 if covered else 0.0
    _, details = end_to_end(plain)
    metrics["query_p50_ms"] = details["query_p50_ms"]
    metrics["query_tail_ms"] = details["query_tail_ms"]
    attempted, failed, messages = checked(plain)
    mismatched = [
        query.qid
        for query, expected, got in zip(
            plain.queries, plain.fingerprints, replay.fingerprints
        )
        if expected != got
    ]
    if mismatched:
        failed += len(mismatched)
        messages.append(f"traced replay changed the answers of queries {mismatched}")
    metrics["error_rate"] = failed / attempted
    details.update(
        traced_busy_s=replay.busy_s,
        spans=len(recorder),
        layer_shares=shares,
        layer_coverage=notes or "ok",
    )
    return metrics, details, (attempted, failed, messages)
