"""Percentiles, interval checks, the machine-speed calibration loop and
the result line the benchmark prints."""

from __future__ import annotations

import json
import math
import re
import time
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

#: Metric names: letters, digits, ``_``, ``.`` and ``-``.
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")

#: Candidate percentiles for the tail rule, lowest first.
TAIL_PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99)

#: The tail is the highest percentile with at least this many samples
#: strictly beyond it.
TAIL_MIN_BEYOND = 10


def percentile(samples: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (numpy's default rule)."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(count: int) -> Optional[float]:
    """The highest candidate percentile with >= 10 samples beyond it.

    ``count * (1 - pct / 100)`` samples lie beyond percentile ``pct``;
    None when even the median has fewer than ten beyond it.
    """
    best = None
    for pct in TAIL_PERCENTILES:
        if count * (100.0 - pct) / 100.0 >= TAIL_MIN_BEYOND - 1e-9:
            best = pct
    return best


def tail(samples: Sequence[float]) -> Tuple[float, float, int]:
    """``(value, percentile, beyond)`` for the tail rule.

    ``beyond`` is the number of samples strictly greater than the
    reported value.  Raises ValueError with fewer than 20 samples.
    """
    pct = tail_percentile(len(samples))
    if pct is None:
        raise ValueError(
            f"{len(samples)} samples: the tail rule needs at least "
            f"{2 * TAIL_MIN_BEYOND}"
        )
    value = percentile(samples, pct)
    beyond = sum(1 for sample in samples if sample > value)
    return value, pct, beyond


#: The calibration loop's time on the reference machine speed.
REFERENCE_CALIBRATION_S = 2e-3

_CALIBRATION_ARRAY = np.arange(20_000, dtype=np.int64)
_CALIBRATION_BUFFER = np.empty_like(_CALIBRATION_ARRAY)
_CALIBRATION_LIST = list(range(1_000, 41_000))


def calibrate() -> float:
    """Seconds taken by a fixed loop (2–3 ms).

    Integer arithmetic and dict stores, in-place numpy passes over a
    160 KB array, and a walk over a list of 40k int objects: the
    interpreter, array and pointer-chasing work the benchmark's
    workloads are made of.  Its time tracks the machine's speed at the
    moment it runs.  It creates no object the garbage collector tracks
    and no array, so neither a collection over the program's heap nor
    the allocator's state can enter its time.
    """
    started = time.perf_counter()
    table = {}
    total = 0
    for value in range(4_000):
        total += value * value % 7
        table[value & 1023] = total
    buffer = _CALIBRATION_BUFFER
    for _ in range(30):
        np.multiply(_CALIBRATION_ARRAY, 3, out=buffer)
        np.add(buffer, 1, out=buffer)
        np.bitwise_and(buffer, 1023, out=buffer)
    for value in _CALIBRATION_LIST:
        total += value
    return time.perf_counter() - started


def at_reference_speed(seconds: float, calibration_s: float) -> float:
    """``seconds`` measured while ``calibrate()`` took ``calibration_s``,
    as they would read where it takes ``REFERENCE_CALIBRATION_S``."""
    return seconds * REFERENCE_CALIBRATION_S / calibration_s


def wilson_interval(successes: int, trials: int, z: float) -> Tuple[float, float]:
    """The Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("trials must be positive")
    phat = successes / trials
    denom = 1.0 + z * z / trials
    centre = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials))
    half /= denom
    return max(0.0, centre - half), min(1.0, centre + half)


def within_wilson(estimate: float, trials: int, exact: float, z: float) -> bool:
    """Whether ``exact`` lies in the Wilson interval of ``estimate``.

    ``estimate`` may be the mean of [0, 1]-valued samples rather than a
    binomial frequency; the binomial interval is then conservative.
    """
    successes = round(estimate * trials)
    low, high = wilson_interval(successes, trials, z)
    slack = 1.0 / trials  # rounding the mean to a count
    return low - slack <= exact <= high + slack


def check_metric_names(names: Iterable[str]) -> List[str]:
    """The names that break the metric-name grammar."""
    return [name for name in names if not METRIC_NAME.fullmatch(name)]


def result_line(
    correct: bool,
    attempted: int,
    failed: int,
    metrics: Mapping[str, Tuple[float, str]],
) -> str:
    """The JSON object printed as the last line of a run."""
    bad = check_metric_names(metrics)
    if bad:
        raise ValueError(f"metric names break the grammar: {bad}")
    body: Dict[str, object] = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    for name, (value, _) in metrics.items():
        if not math.isfinite(value):
            raise ValueError(f"metric {name} is not finite: {value}")
    return json.dumps(body, sort_keys=False)
