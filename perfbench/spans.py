"""In-memory spans around the program's public entry points.

The traced run wraps each layer's entry points from outside the
program: :func:`instrument` replaces every reference to a target
function or method held by a ``repro`` or ``perfbench`` module, or a
class, with a wrapper
that records a span (name, start, busy time, parent, query id).
Nothing inside ``src/`` knows it is being traced.

A span's *busy* time is its duration, except for generator spans,
whose busy time is the sum of the ``next()`` calls they served (the
consumer's own work between items belongs to the consumer).  A
layer's self time is its spans' busy time minus the busy time of
their direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

#: Packages whose module-level references to a target get the wrapper.
PATCHED_PACKAGES = ("repro", "perfbench")

# Work counters: given (args, kwargs, result), how many units of work
# one call did.  Keyed by span name.
Counter = Callable[[tuple, dict, Any], int]


class SpanRecorder:
    """Columnar span storage plus the open-span stack."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.query = array("i")
        self.start = array("d")
        self.busy = array("d")
        self.work = array("q")
        self._stack: List[int] = []
        self.query_id = -1

    def name_of(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int, now: float) -> int:
        index = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.query.append(self.query_id)
        self.start.append(now)
        self.busy.append(0.0)
        self.work.append(0)
        self._stack.append(index)
        return index

    def close(self, index: int, busy: float) -> None:
        popped = self._stack.pop()
        if popped != index:  # pragma: no cover - wrapper bug guard
            raise RuntimeError("span stack out of order")
        self.busy[index] += busy

    def current_name(self) -> Optional[str]:
        if not self._stack:
            return None
        return self.names[self.name_id[self._stack[-1]]]

    def __len__(self) -> int:
        return len(self.name_id)

    def save(self, path: str) -> None:
        """Write the spans out as one ``.npz`` file."""
        np.savez_compressed(
            path,
            names=np.array(self.names, dtype=object).astype(str),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            query=np.frombuffer(self.query, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            busy=np.frombuffer(self.busy, dtype=np.float64),
            work=np.frombuffer(self.work, dtype=np.int64),
        )


@dataclass
class SpanTotals:
    """Per-span-name totals derived from a recorder."""

    calls: Dict[str, int] = field(default_factory=dict)
    busy: Dict[str, float] = field(default_factory=dict)
    self_time: Dict[str, float] = field(default_factory=dict)
    work: Dict[str, int] = field(default_factory=dict)
    top_level_busy: float = 0.0

    def layer(self, prefix: str) -> float:
        """Self time summed over the span names of layer ``prefix``."""
        return sum(
            value
            for name, value in self.self_time.items()
            if name.split(":", 1)[0] == prefix
        )

    def get(self, name: str, what: str = "self_time") -> float:
        return getattr(self, what).get(name, 0)


def totals(recorder: SpanRecorder) -> SpanTotals:
    """Derive per-name calls, busy time, self time and work counts."""
    count = len(recorder)
    out = SpanTotals()
    if count == 0:
        return out
    name_id = np.frombuffer(recorder.name_id, dtype=np.int32)
    parent = np.frombuffer(recorder.parent, dtype=np.int32)
    busy = np.frombuffer(recorder.busy, dtype=np.float64)
    work = np.frombuffer(recorder.work, dtype=np.int64)
    has_parent = parent >= 0
    child_busy = np.bincount(
        parent[has_parent], weights=busy[has_parent], minlength=count
    )
    self_time = busy - child_busy
    names = len(recorder.names)
    calls = np.bincount(name_id, minlength=names)
    busy_by = np.bincount(name_id, weights=busy, minlength=names)
    self_by = np.bincount(name_id, weights=self_time, minlength=names)
    work_by = np.bincount(name_id, weights=work, minlength=names)
    for nid, name in enumerate(recorder.names):
        out.calls[name] = int(calls[nid])
        out.busy[name] = float(busy_by[nid])
        out.self_time[name] = float(self_by[nid])
        out.work[name] = int(work_by[nid])
    out.top_level_busy = float(busy[~has_parent].sum())
    return out


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------


def _function_wrapper(
    recorder: SpanRecorder, name: str, fn: Callable, counter: Optional[Counter]
) -> Callable:
    nid = recorder.name_of(name)
    clock = time.perf_counter

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        started = clock()
        index = recorder.open(nid, started)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(index, clock() - started)
        if counter is not None:
            recorder.work[index] += counter(args, kwargs, result)
        return result

    return wrapper


def _generator_wrapper(
    recorder: SpanRecorder, name: str, fn: Callable, counter: Optional[Counter]
) -> Callable:
    """Wrap a generator function: one span, busy = sum of next() calls.

    The span's work count is the number of items yielded (``counter``
    is not used).  A generator created while a span of the same name is already open
    (an enumeration built on another one) is passed through unwrapped,
    so its items are not counted twice.
    """
    nid = recorder.name_of(name)
    clock = time.perf_counter

    def traced(inner: Iterator) -> Iterator:
        # Inlined open/resume/close: this loop runs once per item.
        stack = recorder._stack
        busy = recorder.busy
        started = clock()
        index = recorder.open(nid, started)
        stack.pop()
        items = 0
        try:
            while True:
                stack.append(index)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    stack.pop()
                    busy[index] += clock() - started
                items += 1
                yield item
                started = clock()
        finally:
            recorder.work[index] += items

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        inner = fn(*args, **kwargs)
        if recorder.current_name() == name:
            return inner
        return traced(iter(inner))

    return wrapper


@dataclass(frozen=True)
class Target:
    """One entry point: ``module`` plus ``attr`` (``"Class.method"`` ok)."""

    module: str
    attr: str
    span: str
    generator: bool = False
    counter: Optional[Counter] = None


def _resolve(target: Target) -> Tuple[Any, str, Any]:
    """``(owner, attribute, raw)``: where the entry point lives."""
    owner: Any = importlib.import_module(target.module)
    parts = target.attr.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    raw = owner.__dict__[parts[-1]] if isinstance(owner, type) else getattr(
        owner, parts[-1]
    )
    return owner, parts[-1], raw


@contextmanager
def instrument(recorder: SpanRecorder, targets: List[Target]) -> Iterator[None]:
    """Install span wrappers for ``targets``; restore everything on exit.

    Module-level functions are replaced in every loaded module of
    ``PATCHED_PACKAGES`` that holds a reference to them (``from x
    import f`` binds a copy of the reference), the benchmark's own
    call sites included; methods are replaced on their class.
    """
    undo: List[Tuple[Any, str, Any]] = []
    try:
        for target in targets:
            owner, attr, raw = _resolve(target)
            make = _generator_wrapper if target.generator else _function_wrapper
            if isinstance(owner, type):
                if isinstance(raw, classmethod):
                    wrapped: Any = classmethod(
                        make(recorder, target.span, raw.__func__, target.counter)
                    )
                else:
                    wrapped = make(recorder, target.span, raw, target.counter)
                undo.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
                continue
            if not (inspect.isfunction(raw) or inspect.isbuiltin(raw)):
                raise TypeError(f"{target}: not a function")
            wrapped = make(recorder, target.span, raw, target.counter)
            for module in list(sys.modules.values()):
                name = getattr(module, "__name__", "") or ""
                if name.split(".", 1)[0] not in PATCHED_PACKAGES:
                    continue
                for key, value in list(vars(module).items()):
                    if value is raw:
                        undo.append((module, key, raw))
                        setattr(module, key, wrapped)
        yield
    finally:
        for owner, attr, raw in reversed(undo):
            setattr(owner, attr, raw)

