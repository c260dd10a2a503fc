"""The percentile rule, the Wilson check and the printed result line."""

import json
import pathlib

import numpy as np
import pytest

from .. import stats
from ..layers import PER_LAYER
from ..run import END_TO_END, _complete

BENCHMARK = json.loads(
    (pathlib.Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
)


@pytest.mark.parametrize(
    "count, expected",
    [(20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0), (100, 90.0),
     (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0), (10_000, 99.9)],
)
def test_tail_percentile_is_highest_with_ten_beyond(count, expected):
    assert stats.tail_percentile(count) == expected


def test_tail_reports_value_percentile_and_beyond():
    samples = [float(value) for value in range(1, 201)]
    value, pct, beyond = stats.tail(samples)
    assert pct == 95.0
    assert value == pytest.approx(np.percentile(samples, 95.0))
    assert beyond == 10


def test_tail_needs_twenty_samples():
    assert stats.tail_percentile(19) is None
    with pytest.raises(ValueError):
        stats.tail([1.0] * 19)


def test_percentile_matches_numpy():
    rng = np.random.default_rng(3)
    samples = list(rng.exponential(size=257))
    for pct in (0.0, 12.5, 50.0, 95.0, 99.0, 100.0):
        assert stats.percentile(samples, pct) == pytest.approx(
            np.percentile(samples, pct)
        )


def test_wilson_accepts_the_truth_and_rejects_a_wrong_value():
    assert stats.within_wilson(0.31, 1000, 0.3, z=6.0)
    assert not stats.within_wilson(0.31, 100_000, 0.3, z=6.0)
    assert stats.within_wilson(1.0, 150, 1.0, z=6.0)
    low, high = stats.wilson_interval(0, 50, z=6.0)
    assert low == 0.0 and 0.0 < high < 1.0


def test_metric_names_follow_the_grammar():
    names = [entry["name"] for entry in BENCHMARK["end_to_end"]]
    names += [entry["name"] for entry in BENCHMARK["per_layer"]]
    assert stats.check_metric_names(names) == []
    assert stats.check_metric_names(["ok.name-1_x", "bad name", "slash/x", ""]) == [
        "bad name", "slash/x", ""
    ]
    with pytest.raises(ValueError):
        stats.result_line(True, 1, 0, {"bad name": (1.0, "s")})


@pytest.mark.parametrize(
    "section, names", [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)]
)
def test_every_named_metric_is_printed_with_its_unit(section, names):
    declared = {entry["name"]: entry["unit"] for entry in BENCHMARK[section]}
    assert dict(names) == declared
    line = stats.result_line(True, 3, 0, _complete({}, names))
    printed = json.loads(line)
    assert set(printed) == {"correct", "attempted", "failed", "metrics"}
    assert {
        name: metric["unit"] for name, metric in printed["metrics"].items()
    } == declared
    assert all(
        isinstance(metric["value"], float) for metric in printed["metrics"].values()
    )


def test_result_line_rejects_non_finite_values():
    with pytest.raises(ValueError):
        stats.result_line(True, 1, 0, {"x": (float("nan"), "s")})
