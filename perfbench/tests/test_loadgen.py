"""Open-loop accounting against a stub server that stalls on purpose."""

import asyncio
import json
import random

from .. import serve

STALL_S = 0.3


class StallingStub:
    """Answers ``{}`` at once, except that request ``stall_at`` (and
    every request arriving while it stalls) waits until the stall ends."""

    def __init__(self, stall_at: int) -> None:
        self.stall_at = stall_at
        self.seen = 0
        self.stall_until = 0.0

    async def handle(self, reader, writer):
        loop = asyncio.get_running_loop()
        try:
            while True:
                line = await reader.readline()
                if not line:
                    return
                length = 0
                while True:
                    header = await reader.readline()
                    if header in (b"\r\n", b""):
                        break
                    name, _, value = header.decode().partition(":")
                    if name.strip().lower() == "content-length":
                        length = int(value)
                await reader.readexactly(length)
                if self.seen == self.stall_at:
                    self.stall_until = loop.time() + STALL_S
                self.seen += 1
                delay = self.stall_until - loop.time()
                if delay > 0:
                    await asyncio.sleep(delay)
                body = b"{}"
                writer.write(
                    b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n"
                    b"Connection: keep-alive\r\n\r\n%s" % (len(body), body)
                )
                await writer.drain()
        finally:
            writer.close()


def _schedule(count: int, gap_s: float):
    return [serve.Planned(index * gap_s, "hot", b"{}") for index in range(count)]


def _drive(stall_at: int, connections: int):
    async def main():
        stub = StallingStub(stall_at)
        server = await asyncio.start_server(stub.handle, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        try:
            return await serve.open_loop(
                "127.0.0.1", port, _schedule(60, 0.01), connections=connections
            )
        finally:
            server.close()
            await server.wait_closed()

    return asyncio.run(main())


def _phase(outcomes):
    schedule = _schedule(len(outcomes), 0.01)
    return serve.Phase("test", 100.0, schedule, outcomes, {}, {})


def test_a_stall_shows_in_later_requests_latency_and_lateness():
    outcomes = _drive(stall_at=10, connections=2)
    assert all(outcome is not None and outcome.status == 200 for outcome in outcomes)
    latency = [(o.done - o.due) for o in outcomes]
    lateness = [(o.sent - o.due) for o in outcomes]
    # Before the stall everything is quick.
    assert max(latency[:10]) < 0.1
    # Requests due during the stall wait it out although the stub
    # answers them instantly once it recovers: timed from due time,
    # their latency carries the remaining stall.
    assert latency[10] >= STALL_S - 0.02
    assert latency[15] >= STALL_S - 0.05 - 0.05
    # With both connections blocked, later requests go on the wire late.
    assert max(lateness) >= STALL_S - 0.1
    phase = _phase(outcomes)
    assert max(phase.lateness_ms()) >= (STALL_S - 0.1) * 1e3
    # The generator catches up once the stall is over.
    assert latency[-1] < 0.1


def test_no_stall_no_lateness():
    outcomes = _drive(stall_at=10_000, connections=2)
    lateness = [(o.sent - o.due) for o in outcomes]
    assert max(lateness) < 0.1


def test_schedule_is_seeded_and_cold_requests_never_repeat():
    first = serve.Mix(random.Random("seed-a")).schedule(300.0, 2.0)
    again = serve.Mix(random.Random("seed-a")).schedule(300.0, 2.0)
    other = serve.Mix(random.Random("seed-b")).schedule(300.0, 2.0)
    assert first == again
    assert first != other
    cold = [json.loads(p.body)["protocol"] for p in first if p.cls == "cold"]
    assert len(cold) == len(set(cold)) > 50
    shares = {cls: sum(p.cls == cls for p in first) / len(first) for cls, _ in serve.MIX}
    assert abs(shares["hot"] - 0.6) < 0.1
    assert abs(shares["scaled"] - 0.1) < 0.06
