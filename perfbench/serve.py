"""serve-open: a seeded open-loop Poisson client against ``repro serve``.

The server is a default ``repro serve`` (1 shard, 0 workers) started
from ``src/``.  The client is one asyncio process holding at most
``CONNECTIONS`` keep-alive connections.  Every request is timed from
the moment it was *due*, so a stall delays every request queued
behind it and shows in their latency; ``lateness`` is how long after
its due time a request went on the wire.

A run measures, in order: the server's set-up (several fresh starts),
a phase at the fixed ``RATE_LOW``, a phase at the fixed ``RATE_HIGH``,
and a search of ``LADDER`` for the highest rate that keeps the
``LIMIT_PCT`` latency under ``LIMIT_MS`` with no growing backlog.
"""

from __future__ import annotations

import asyncio
import hashlib
import http.client
import json
import os
import pathlib
import random
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .stats import at_reference_speed, calibrate, percentile, tail

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Fixed offered rates (requests/s): about 25% and 70% of the highest
#: rate the parent commit sustained under the limit below (median of
#: ten runs: 396 rps, on a shared 2-vCPU VM).
RATE_LOW = 100.0
RATE_HIGH = 270.0

#: The latency limit behind the max-rate search: the LIMIT_PCT
#: percentile of due-to-done latency, in ms, over the probe and over
#: its last third (a growing backlog breaks the latter first).  The
#: median, about twice the unloaded latency: a higher percentile lets
#: one 100 ms stall of a shared machine fail a 2 s probe.
LIMIT_PCT = 50.0
LIMIT_MS = 10.0

#: The rate ladder the max-rate search walks: 4% steps from 40 rps.
LADDER: Tuple[float, ...] = tuple(40.0 * 1.04**k for k in range(90))

#: Max-rate search: probes per run, seconds per probe, and the rungs
#: bisected on the side of LADDER_START the first probe points to.
#: A rung that misses the limit by less than RETRY_FACTOR is probed
#: once more while probes remain, so one stall of a shared machine
#: does not send the bisection down; a rung far over it is not.
PROBES = 8
PROBE_S = 2.0
BRACKET = 16
RETRY_FACTOR = 2.0

#: The max-rate search starts at the rung nearest the parent commit's
#: max rate (median of ten runs: 436 rps), so its first probe decides
#: the most.
LADDER_START = 436.0

#: Keep-alive connections (the machine's core count when measured).
CONNECTIONS = 2

#: Request mix: (class, share).
MIX = (("hot", 0.6), ("cold", 0.3), ("scaled", 0.1))

HOT_RUNS = ("good", "silent", "tree") + tuple(f"cut:{r}" for r in range(1, 8))
COLD_RUNS = ("good", "silent", "tree", "cut:2", "cut:3")
SCALED_SIZES = (10**3, 10**4, 10**5, 10**6)

SETUP_SAMPLES = 3


@dataclass(frozen=True)
class Planned:
    offset: float
    cls: str
    body: bytes


@dataclass
class Outcome:
    due: float
    sent: float
    done: float
    status: int
    body: bytes


class Mix:
    """Seeded request bodies; cold requests never repeat an epsilon."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.cold_eps: set = set()

    def request(self) -> Tuple[str, Dict[str, Any]]:
        rng = self.rng
        draw = rng.random()
        if draw < MIX[0][1]:
            return "hot", {
                "protocol": "S:0.25", "topology": "pair", "rounds": 6,
                "run": rng.choice(HOT_RUNS),
            }
        if draw < MIX[0][1] + MIX[1][1]:
            eps = round(rng.uniform(0.01, 0.5), 12)
            while eps in self.cold_eps:
                eps = round(rng.uniform(0.01, 0.5), 12)
            self.cold_eps.add(eps)
            return "cold", {
                "protocol": f"S:{eps!r}", "topology": "ring:4", "rounds": 3,
                "run": rng.choice(COLD_RUNS),
            }
        rounds = rng.randint(6, 12)
        return "scaled", {
            "protocol": f"S:{rng.choice((0.05, 0.1, 0.2))}",
            "topology": f"complete:{rng.choice(SCALED_SIZES)}",
            "rounds": rounds,
            "run": rng.choice(("good", "silent", f"cut:{rng.randint(2, 6)}",
                               f"isolate:{rng.randint(2, 6)}")),
            "backend": "meanfield",
        }

    def schedule(
        self, rate: float, duration: float, exact_count: bool = False
    ) -> List[Planned]:
        """Poisson arrivals at ``rate`` over ``duration`` seconds.

        With ``exact_count`` the process is conditioned on
        ``round(rate * duration)`` arrivals (sorted uniform offsets), so
        a ladder rung offers exactly its nominal rate.
        """
        if exact_count:
            offsets = sorted(
                self.rng.uniform(0.0, duration)
                for _ in range(round(rate * duration))
            )
        else:
            offsets = []
            offset = self.rng.expovariate(rate)
            while offset < duration:
                offsets.append(offset)
                offset += self.rng.expovariate(rate)
        planned = []
        for offset in offsets:
            cls, payload = self.request()
            planned.append(Planned(offset, cls, json.dumps(payload).encode()))
        return planned


# ----------------------------------------------------------------------
# The server process
# ----------------------------------------------------------------------


class Server:
    """A ``repro serve`` child process on a kernel-picked port."""

    def __init__(self, log_path: pathlib.Path) -> None:
        self.log_path = log_path
        self.process: Optional[subprocess.Popen] = None
        self.port = 0

    def start(self, timeout_s: float = 60.0) -> float:
        """Start; return seconds from spawn to the first healthy /healthz."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        started = time.perf_counter()
        with open(self.log_path, "wb") as log:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0"],
                cwd=str(ROOT), env=env, stdout=log, stderr=subprocess.STDOUT,
            )
        deadline = started + timeout_s
        while time.perf_counter() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(f"server exited: see {self.log_path}")
            if not self.port:
                for line in self.log_path.read_text(errors="replace").splitlines():
                    if "serving on http://" in line:
                        self.port = int(line.rsplit(":", 1)[1].strip().rstrip("/"))
            if self.port and self.get("/healthz", quiet=True) is not None:
                return time.perf_counter() - started
            time.sleep(0.005)
        raise RuntimeError("server never became healthy")

    def get(self, path: str, quiet: bool = False) -> Optional[Dict[str, Any]]:
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            body = response.read()
            if response.status != 200:
                return None
            return json.loads(body)
        except OSError:
            if quiet:
                return None
            raise
        finally:
            connection.close()

    def counters(self) -> Dict[str, float]:
        """Server counters from /metrics plus CPU seconds from /proc."""
        scraped = self.get("/metrics") or {}
        metrics = scraped.get("metrics", {})
        out: Dict[str, float] = {}
        for name in ("service.batch.requests", "service.batch.flushes",
                     "engine.cache.hit", "engine.cache.miss",
                     "service.rejected_total"):
            out[name] = float(metrics.get(name, {}).get("value", 0.0))
        latency = metrics.get("service.request.latency.evaluate", {})
        out["evaluate.latency_sum"] = float(latency.get("sum", 0.0))
        out["cpu_s"] = self.cpu_s()
        return out

    def _proc(self, name: str) -> str:
        assert self.process is not None
        return pathlib.Path(f"/proc/{self.process.pid}/{name}").read_text()

    def cpu_s(self) -> float:
        fields = self._proc("stat").rsplit(")", 1)[1].split()
        ticks = os.sysconf("SC_CLK_TCK")
        return (int(fields[11]) + int(fields[12])) / ticks

    def peak_rss_mb(self) -> float:
        for line in self._proc("status").splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        if self.process is None:
            return
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=20)
        self.process = None
        self.port = 0


# ----------------------------------------------------------------------
# The open-loop client
# ----------------------------------------------------------------------


class Connection:
    """One keep-alive HTTP/1.1 connection; requests strictly in turn."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None

    async def _open(self) -> None:
        self.reader, self.writer = await asyncio.open_connection(self.host, self.port)

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except OSError:
                pass
        self.reader = self.writer = None

    async def post(self, body: bytes, path: str = "/v1/evaluate") -> Tuple[int, bytes]:
        if self.writer is None:
            await self._open()
        assert self.reader is not None and self.writer is not None
        head = (
            f"POST {path} HTTP/1.1\r\nHost: {self.host}\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
        )
        self.writer.write(head.encode() + body)
        await self.writer.drain()
        status_line = await self.reader.readline()
        if not status_line:
            raise ConnectionError("connection closed before the status line")
        status = int(status_line.split()[1])
        length = 0
        keep_alive = True
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            name = name.strip().lower()
            if name == "content-length":
                length = int(value)
            elif name == "connection" and value.strip().lower() == "close":
                keep_alive = False
        payload = await self.reader.readexactly(length)
        if not keep_alive:
            await self.close()
        return status, payload


async def open_loop(
    host: str,
    port: int,
    schedule: Sequence[Planned],
    connections: int = CONNECTIONS,
    grace_s: float = 5.0,
) -> List[Optional[Outcome]]:
    """Send ``schedule`` on time; ``None`` marks a request never answered.

    A feeder releases each request at its due time into a queue that
    ``connections`` workers drain; a worker busy with a slow answer
    leaves later requests waiting, and their due-to-done latency says
    so.  Requests still unanswered ``grace_s`` after the last due time
    are abandoned.
    """
    loop = asyncio.get_running_loop()
    queue: asyncio.Queue = asyncio.Queue()
    outcomes: List[Optional[Outcome]] = [None] * len(schedule)
    pool = [Connection(host, port) for _ in range(connections)]
    start = loop.time() + 0.02

    async def feeder() -> None:
        for index, planned in enumerate(schedule):
            delay = start + planned.offset - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            queue.put_nowait(index)
        for _ in pool:
            queue.put_nowait(None)

    async def worker(connection: Connection) -> None:
        while True:
            index = await queue.get()
            if index is None:
                return
            due = start + schedule[index].offset
            sent = loop.time()
            try:
                status, body = await connection.post(schedule[index].body)
            except (OSError, asyncio.IncompleteReadError, ValueError) as error:
                await connection.close()
                status, body = 0, repr(error).encode()
            outcomes[index] = Outcome(due, sent, loop.time(), status, body)

    tasks = [asyncio.ensure_future(feeder())]
    tasks.extend(asyncio.ensure_future(worker(connection)) for connection in pool)
    last_due = schedule[-1].offset if schedule else 0.0
    try:
        await asyncio.wait_for(asyncio.gather(*tasks), timeout=last_due + grace_s + 1.0)
    except asyncio.TimeoutError:
        pass
    finally:
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        for connection in pool:
            await connection.close()
    return outcomes


def run_schedule(port: int, schedule: Sequence[Planned]) -> List[Optional[Outcome]]:
    return asyncio.run(open_loop("127.0.0.1", port, schedule))


# ----------------------------------------------------------------------
# Phase summaries
# ----------------------------------------------------------------------


@dataclass
class Phase:
    name: str
    rate: float
    schedule: List[Planned]
    outcomes: List[Optional[Outcome]]
    before: Dict[str, float]
    after: Dict[str, float]

    def latencies_ms(self, cls: Optional[str] = None) -> List[float]:
        return [
            (outcome.done - outcome.due) * 1e3
            for planned, outcome in zip(self.schedule, self.outcomes)
            if outcome is not None and outcome.status == 200
            and (cls is None or planned.cls == cls)
        ]

    def lateness_ms(self) -> List[float]:
        return [
            (outcome.sent - outcome.due) * 1e3
            for outcome in self.outcomes if outcome is not None
        ]

    def unanswered(self) -> int:
        """Requests that failed, were refused, or were never answered."""
        return sum(
            1 for outcome in self.outcomes
            if outcome is None or outcome.status != 200
        )

    def delta(self, name: str) -> float:
        return self.after[name] - self.before[name]


def phase(
    server: Server, mix: Mix, name: str, rate: float, duration: float,
    exact_count: bool = False,
) -> Phase:
    schedule = mix.schedule(rate, duration, exact_count)
    before = server.counters()
    outcomes = run_schedule(server.port, schedule)
    after = server.counters()
    return Phase(name, rate, schedule, outcomes, before, after)


def meets_limit(probe: Phase, limit_ms: float = LIMIT_MS) -> bool:
    """All answered, and the LIMIT_PCT latency under ``limit_ms`` overall
    and over the last third (a growing backlog fails the latter)."""
    if probe.unanswered() or len(probe.schedule) < 20:
        return False
    latencies = probe.latencies_ms()
    last = latencies[2 * len(latencies) // 3:]
    return (
        percentile(latencies, LIMIT_PCT) <= limit_ms
        and percentile(last, LIMIT_PCT) <= limit_ms
    )


def max_rate(server: Server, mix: Mix, probe_s: float) -> Tuple[float, List[Phase]]:
    """The highest LADDER rung that meets the limit, by bisection.

    The first probe is the rung nearest ``LADDER_START``; it decides
    whether the remaining probes bisect the ``BRACKET`` rungs above it
    or below it.  A rung whose probe misses the limit narrowly is
    probed again (if ``PROBES`` allows) and passes if either probe
    does.  Returns the completion rate measured at the best rung
    (requests answered per second, first due time to last answer) and
    every probe run.
    """
    start = min(range(len(LADDER)), key=lambda k: abs(LADDER[k] - LADDER_START))
    runs: List[Phase] = []
    best: Optional[Phase] = None

    def probe(rung: int) -> bool:
        nonlocal best
        for _ in range(2):
            run = phase(server, mix, f"ladder-{rung}", LADDER[rung], probe_s, True)
            runs.append(run)
            if meets_limit(run):
                if best is None or run.rate > best.rate:
                    best = run
                return True
            if len(runs) >= PROBES or not meets_limit(run, RETRY_FACTOR * LIMIT_MS):
                break
        return False

    if probe(start):
        low, high = start + 1, min(start + BRACKET, len(LADDER) - 1)
    else:
        low, high = max(start - BRACKET, 0), start - 1
    while low <= high and len(runs) < PROBES:
        rung = (low + high) // 2
        if probe(rung):
            low = rung + 1
        else:
            high = rung - 1
    if best is None:
        return 0.0, runs
    answered = [outcome for outcome in best.outcomes if outcome is not None]
    span = max(o.done for o in answered) - min(o.due for o in answered)
    return len(answered) / span, runs


# ----------------------------------------------------------------------
# Answer checks
# ----------------------------------------------------------------------


class ServedChecker:
    """Served answers must equal in-process evaluation of the same spec."""

    def __init__(self) -> None:
        from repro.engine import Engine
        from repro.service.specs import (
            ScaledEvaluateRequest,
            evaluate_response,
            parse_evaluate_payload,
            scaled_evaluate_response,
        )

        self._engine_type = Engine
        self._parse = parse_evaluate_payload
        self._scaled_type = ScaledEvaluateRequest
        self._response = evaluate_response
        self._scaled_response = scaled_evaluate_response
        self._expected: Dict[bytes, Dict[str, Any]] = {}

    def expected(self, body: bytes) -> Dict[str, Any]:
        if body not in self._expected:
            request = self._parse(json.loads(body))
            engine = self._engine_type()
            if isinstance(request, self._scaled_type):
                result = engine.evaluate_scaled(request.protocol, request.spec)
                self._expected[body] = self._scaled_response(request, result)
            else:
                result = engine.evaluate(request.protocol, request.topology, request.run)
                self._expected[body] = self._response(request, result)
        return self._expected[body]

    def check(self, planned: Planned, outcome: Outcome) -> List[str]:
        label = f"{planned.cls} {planned.body.decode()}"
        try:
            served = json.loads(outcome.body)
        except ValueError:
            return [f"{label}: unparseable body {outcome.body[:80]!r}"]
        expected = json.loads(json.dumps(self.expected(planned.body)))
        errors = []
        if served != expected:
            errors.append(f"{label}: served {served} != in-process {expected}")
        eps = served.get("epsilon")
        if eps is not None and served.get("unsafety", 1.0) > eps + 1e-9:
            errors.append(f"{label}: unsafety {served['unsafety']} > eps {eps}")
        bound = served.get("liveness_lower_bound")
        if bound is not None and abs(served.get("liveness", -1.0) - bound) > 1e-9:
            errors.append(
                f"{label}: liveness {served.get('liveness')} != min(1, eps*ML)={bound}"
            )
        return errors


def check_phases(
    phases: Sequence[Phase], count_unanswered: Sequence[bool]
) -> Tuple[int, int, List[str]]:
    """``(attempted, failed, messages)``.

    Unanswered requests count as failures only in phases flagged in
    ``count_unanswered`` (ladder probes above capacity are expected to
    shed); every answered request is checked in every phase.
    """
    checker = ServedChecker()
    attempted = failed = 0
    messages: List[str] = []
    for run, counted in zip(phases, count_unanswered):
        for planned, outcome in zip(run.schedule, run.outcomes):
            if outcome is None or outcome.status != 200:
                if counted:
                    attempted += 1
                    failed += 1
                    status = "timeout" if outcome is None else outcome.status
                    messages.append(f"{run.name} {planned.cls}: status {status}")
                continue
            attempted += 1
            errors = checker.check(planned, outcome)
            if errors:
                failed += 1
                messages.extend(errors)
    return attempted, failed, messages


# ----------------------------------------------------------------------
# The workload
# ----------------------------------------------------------------------


def _p50(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def service_ledger(low: Phase, high: Phase) -> Dict[str, float]:
    """The per-layer view of the service, from outside."""
    both = (low, high)
    requests = sum(p.delta("service.batch.requests") for p in both)
    flushes = sum(p.delta("service.batch.flushes") for p in both)
    hits = sum(p.delta("engine.cache.hit") for p in both)
    misses = sum(p.delta("engine.cache.miss") for p in both)
    served = sum(len(p.latencies_ms()) for p in both)
    client_s = sum(sum(p.latencies_ms()) for p in both) / 1e3
    server_s = sum(p.delta("evaluate.latency_sum") for p in both)
    lateness = high.lateness_ms()
    return {
        "service.hot.p50_ms": _p50(high.latencies_ms("hot")),
        "service.cold.p50_ms": _p50(high.latencies_ms("cold")),
        "service.scaled.p50_ms": _p50(high.latencies_ms("scaled")),
        "service.p50_ms.high": _p50(high.latencies_ms()),
        "service.p99_ms.low": percentile(low.latencies_ms(), 99.0),
        "service.batch.size_mean": requests / flushes if flushes else 0.0,
        "service.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "service.cpu_ms_per_request": (
            sum(p.delta("cpu_s") for p in both) * 1e3 / served if served else 0.0
        ),
        "service.rejected": sum(p.delta("service.rejected_total") for p in both),
        "loadgen.lateness_p99_ms": percentile(lateness, 99.0),
        "loadgen.lateness_max_ms": max(lateness),
        # Client-observed latency the server's own request timer does
        # not cover: client queueing, the socket, HTTP framing.
        "unattributed_frac": 1.0 - server_s / client_s if client_s else 0.0,
        # Nothing inside the server is wrapped; the client always keeps
        # its per-request records.
        "tracing_overhead_frac": 0.0,
    }


def run(
    seed: int, seconds: float, trace: bool, stem: pathlib.Path
) -> Tuple[Dict[str, float], Dict[str, Any], Tuple[int, int, List[str]]]:
    rng = random.Random(f"serve-open/{seed}")
    mix = Mix(rng)
    log_path = stem.with_suffix(".server.log")
    setups: List[float] = []
    scaled_setups: List[float] = []
    server = Server(log_path)

    def start() -> None:
        # Scaled to the reference machine speed like the offline set-up.
        before = calibrate()
        setups.append(server.start())
        speed = (before + calibrate()) / 2.0
        scaled_setups.append(at_reference_speed(setups[-1], speed))

    try:
        for _ in range(0 if trace else SETUP_SAMPLES - 1):
            start()
            server.stop()
        start()
        # The ladder (untraced runs only) takes PROBES * PROBE_S; the
        # fixed rates share the rest.
        ladder_s = 0.0 if trace else PROBES * PROBE_S
        fixed_s = max(2.0, (seconds - ladder_s) / 2)
        low = phase(server, mix, "low", RATE_LOW, fixed_s)
        high = phase(server, mix, "high", RATE_HIGH, fixed_s)
        phases = [low, high]
        counted = [True, True]
        if not trace:
            best_rate, ladder = max_rate(server, mix, PROBE_S)
            phases.extend(ladder)
            counted.extend(False for _ in ladder)
        peak_rss = server.peak_rss_mb()
    finally:
        server.stop()
    checked = check_phases(phases, counted)
    attempted, failed, _ = checked
    schedule_hash = _schedule_hash(phases)
    details: Dict[str, Any] = {
        "schedule_hash": schedule_hash,
        "rates": {"low": RATE_LOW, "high": RATE_HIGH},
        "requests": {p.name: len(p.schedule) for p in phases},
    }
    high_ms = high.latencies_ms()
    tail_ms, tail_pct, beyond = tail(high_ms)
    details.update(
        query_tail_ms=tail_ms,
        query_tail_percentile=tail_pct,
        query_tail_beyond=beyond,
        high_samples=len(high_ms),
    )
    low_p50 = statistics.median(low.latencies_ms())
    details["query_p50_ms"] = low_p50
    if trace:
        metrics = service_ledger(low, high)
        metrics["query_p50_ms"] = low_p50
        metrics["query_tail_ms"] = tail_ms
        metrics["error_rate"] = failed / attempted
        _save_requests(stem.with_suffix(".requests.json"), phases)
        return metrics, details, checked
    metrics = {
        "queries_per_s": best_rate,
        "ok_rate": 1.0 - failed / attempted,
        "setup_s": statistics.median(scaled_setups),
        "peak_rss_mb": peak_rss,
    }
    details.update(
        service_p50_ms_high=statistics.median(high_ms),
        setup_samples_s=setups,
        ladder=[
            (p.name, p.rate, meets_limit(p), _p50(p.latencies_ms()),
             percentile(p.latencies_ms() or [0.0], 95.0))
            for p in ladder
        ],
        limit={"pct": LIMIT_PCT, "ms": LIMIT_MS},
    )
    return metrics, details, checked


def _schedule_hash(phases: Sequence[Phase]) -> str:
    digest = hashlib.sha256()
    for run in phases[:2]:  # the ladder's path depends on timing
        for planned in run.schedule:
            digest.update(f"{planned.offset:.9f} {planned.cls} ".encode())
            digest.update(planned.body)
    return digest.hexdigest()[:16]


def _save_requests(path: pathlib.Path, phases: Sequence[Phase]) -> None:
    """Client-side spans: one record per request (class, due, sent, done)."""
    rows = []
    for run in phases:
        for index, (planned, outcome) in enumerate(zip(run.schedule, run.outcomes)):
            rows.append([
                run.name, index, planned.cls,
                None if outcome is None else outcome.due,
                None if outcome is None else outcome.sent,
                None if outcome is None else outcome.done,
                None if outcome is None else outcome.status,
            ])
    path.write_text(json.dumps(rows))
