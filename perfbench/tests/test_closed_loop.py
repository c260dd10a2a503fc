"""The closed loop's throughput is scaled to a reference machine speed."""

import time

from .. import closed_loop, offline


def test_queries_per_s_does_not_follow_the_machine_speed(monkeypatch):
    """A machine at half speed slows the queries and the calibration
    loop alike: the raw rate halves, ``queries_per_s`` stays put."""
    rates = {}
    for slowdown in (1.0, 2.0):
        monkeypatch.setattr(
            closed_loop, "calibrate",
            lambda: slowdown * closed_loop.REFERENCE_CALIBRATION_S,
        )
        # A query that returns no answer counts as failed; the loop
        # still times it, which is all this test looks at.
        monkeypatch.setattr(offline, "execute", lambda query: time.sleep(0.005 * slowdown))
        result = closed_loop.timed_pass("sample-mc", 1, 0.0)
        metrics, details = closed_loop.end_to_end(result)
        assert len(result.calibrations) == len(result.latencies) >= closed_loop.MIN_QUERIES
        rates[slowdown] = metrics["queries_per_s"], details["raw_queries_per_s"]
    (scaled_fast, raw_fast), (scaled_slow, raw_slow) = rates[1.0], rates[2.0]
    assert raw_fast / raw_slow > 1.7
    assert abs(scaled_fast / scaled_slow - 1.0) < 0.1
    # At the reference speed a 5 ms query runs about 200 times a second.
    assert 150 < scaled_fast <= 200


def test_calibration_loop_takes_a_few_milliseconds():
    fastest = min(closed_loop.calibrate() for _ in range(20))
    assert 1e-4 < fastest < 2e-2
