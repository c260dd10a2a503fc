"""Batched evaluation engine: one front door for ``Pr[X | R]``.

Public surface:

* :class:`Engine` — the facade with pluggable backends (``auto`` /
  ``reference`` / ``vectorized``), a pluggable memo cache over exact
  results, and instrumentation counters (:class:`EngineStats`);
* :mod:`repro.engine.cache` — the :class:`EngineCache` interface with
  the in-process FIFO default (:class:`InProcessCache`) and the
  warm-start snapshot variant serving shards use
  (:class:`ShardLocalCache`);
* :func:`default_engine` — the process-wide engine that
  :func:`repro.core.probability.evaluate_many` delegates to;
* :mod:`repro.engine.vectorized` — the numpy batch kernels: one
  rule-driven counting kernel for the whole Figure-1 family, plus the
  two-general fast paths behind :meth:`Engine.pair_weak_estimate_s` /
  :meth:`Engine.pair_weak_estimate_w`.
"""

from .cache import EngineCache, InProcessCache, ShardLocalCache
from .engine import (
    BACKENDS,
    DEFAULT_CACHE_SIZE,
    Engine,
    EngineBusyError,
    EngineStats,
    MIN_VECTORIZED_BATCH,
    default_engine,
)

__all__ = [
    "BACKENDS",
    "DEFAULT_CACHE_SIZE",
    "Engine",
    "EngineBusyError",
    "EngineCache",
    "EngineStats",
    "InProcessCache",
    "MIN_VECTORIZED_BATCH",
    "ShardLocalCache",
    "default_engine",
]
