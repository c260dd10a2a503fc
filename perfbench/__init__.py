"""The repository benchmark: seeded workloads, answer checks, a layer ledger.

Run ``python3 perfbench/run.py --workload NAME --seed N --seconds S
--trace 0|1`` from the repository root.  ``BENCHMARK.json`` names the
workloads and metrics; ``perfbench/README.md`` explains them.
"""
