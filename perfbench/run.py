"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload search-vectorized --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` replays
the run with every layer's entry points wrapped and prints the
per-layer ledger instead.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  The
lines before it are a JSON details record (query hash, tail
percentile and sample count, layer shares) and, on failure, the
failing checks.  Spans and details are also written under
``.bench_out/`` in the repository root.

The program under test is imported from ``src/`` next to this
directory; without it the run exits with status 2 and prints no
result.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"

WORKLOADS = ("search-vectorized", "search-reference", "sample-mc", "serve-open")

#: Every end-to-end metric and its unit, in ``BENCHMARK.json`` order.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("queries_per_s", "1/s"),
    ("ok_rate", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: Set-up is measured this many times per run; the median is reported.
SETUP_SAMPLES = 5


def _import_paths() -> None:
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program to measure: {source}/repro is missing",
            file=sys.stderr,
        )
        sys.exit(2)
    sys.path.insert(0, str(source))
    sys.path.insert(0, str(ROOT))


def _setup_probe(workload: str, seed: int) -> None:
    """Child side of the set-up measurement: import, build, say ready."""
    from perfbench import offline

    offline.cycle(workload, seed, 0)
    print("ready", flush=True)


def offline_setup_s(workload: str, seed: int) -> Tuple[float, List[float]]:
    """Median of fresh-process set-ups: start to first query ready.

    Each set-up is scaled to the reference machine speed by the
    calibration loop timed right before it and right after the child
    ends (``stats.calibrate``); the unscaled times are returned too.
    """
    from perfbench.stats import at_reference_speed, calibrate

    samples = []
    scaled = []
    for _ in range(SETUP_SAMPLES):
        before = calibrate()
        started = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, str(pathlib.Path(__file__).resolve()),
             "--setup-probe", "--workload", workload, "--seed", str(seed)],
            stdout=subprocess.PIPE,
            cwd=str(ROOT),
        )
        try:
            assert child.stdout is not None
            line = child.stdout.readline()
            samples.append(time.perf_counter() - started)
            child.stdout.read()
            child.wait(timeout=60)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
        if line.strip() != b"ready" or child.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {child.returncode})")
        scaled.append(at_reference_speed(samples[-1], (before + calibrate()) / 2.0))
    return statistics.median(scaled), samples


def cpu_probe(seconds: float = 0.2) -> float:
    """Iterations per second of a fixed pure-Python loop.

    Recorded before and after each run (details only, not a metric):
    on a shared machine it shows how fast the CPU was at the time.
    """
    started = time.perf_counter()
    loops = 0
    while time.perf_counter() - started < seconds:
        total = 0
        for value in range(20_000):
            total += value * value % 7
        loops += 1
    return loops / (time.perf_counter() - started)


def _complete(
    metrics: Dict[str, float], names: Tuple[Tuple[str, str], ...]
) -> Dict[str, Tuple[float, str]]:
    """Every named metric with its unit; layers a workload skips read 0."""
    return {name: (float(metrics.get(name, 0.0)), unit) for name, unit in names}


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _import_paths()
    if args.setup_probe:
        _setup_probe(args.workload, args.seed)
        return 0

    from perfbench.layers import PER_LAYER
    from perfbench.stats import result_line

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    probe_before = cpu_probe()
    if args.workload == "serve-open":
        from perfbench import serve

        metrics, details, checked = serve.run(
            args.seed, args.seconds, bool(args.trace), OUT_DIR / stem
        )
    else:
        from perfbench import closed_loop

        if args.trace:
            metrics, details, checked = closed_loop.traced(
                args.workload, args.seed, args.seconds,
                str(OUT_DIR / f"{stem}.spans.npz"),
            )
        else:
            setup, setup_samples = offline_setup_s(args.workload, args.seed)
            result = closed_loop.timed_pass(args.workload, args.seed, args.seconds)
            checked = closed_loop.checked(result)
            metrics, details = closed_loop.end_to_end(result)
            metrics["setup_s"] = setup
            details["setup_samples_s"] = setup_samples
    attempted, failed, messages = checked
    details.update(
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        cpu_probe_loops_per_s=[probe_before, cpu_probe()],
    )
    (OUT_DIR / f"{stem}.json").write_text(
        json.dumps({"details": details, "metrics": metrics,
                    "failures": messages[:200]}, indent=1, default=str)
    )
    print(json.dumps(details, default=str))
    for message in messages[:20]:
        print(f"FAILED: {message.strip()}")
    names = PER_LAYER if args.trace else END_TO_END
    print(result_line(failed == 0, attempted, failed, _complete(metrics, names)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
