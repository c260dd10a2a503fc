"""``EventBatch``: the column result type of the batch finishers.

A batch must validate exactly like the per-run
:class:`EventProbabilities` it stands for (same checks, same error),
and every row it builds on access must equal, bit for bit, the row the
former list-building finisher returned.
"""

import math

import numpy as np
import pytest

from repro.core.probability import EAGER_ROW_LIMIT, EventBatch, EventProbabilities
from repro.protocols import (
    EagerS,
    GreedyS,
    MessageValidityS,
    NaiveCountingS,
    ProtocolS,
    ProtocolW,
    SkewedS,
)


def _batch(rows):
    columns = np.array(rows, dtype=np.float64)
    attack = np.zeros((len(rows), 2))
    return EventBatch(columns[:, 0], columns[:, 1], columns[:, 2], attack)


def _error(build):
    with pytest.raises(ValueError) as excinfo:
        build()
    return str(excinfo.value)


GOOD_ROW = (0.25, 0.5, 0.25)


@pytest.mark.parametrize(
    "bad_row",
    [
        (0.5, 0.5, 2e-9),  # sums to 1 + 2e-9
        (-1e-11, 0.5, 0.5 + 1e-11),  # just below the probability range
        (math.nan, 0.5, 0.5),
        (0.25, math.nan, 0.75),
    ],
)
@pytest.mark.parametrize("size", [3, EAGER_ROW_LIMIT + 24])
def test_invalid_row_raises_the_scalar_error(bad_row, size):
    # Small batches validate by building rows, larger ones with numpy:
    # both must raise the first failing row's own error.
    scalar = _error(lambda: EventProbabilities(*bad_row, (0.0, 0.0), "closed-form"))
    rows = [GOOD_ROW] * size
    rows[size - 2] = bad_row
    assert _error(lambda: _batch(rows)) == scalar


@pytest.mark.parametrize("size", [2, EAGER_ROW_LIMIT + 24])
def test_tolerances_match_the_scalar_checks(size):
    # Inside both tolerances: accepted by the scalar type and the batch.
    edge = (0.5, 0.5, 5e-10)
    EventProbabilities(*edge, (0.0, 0.0), "closed-form")
    rows = [edge, (-5e-13, 0.5, 0.5)] * (size // 2)
    assert len(_batch(rows)) == len(rows)


def _list_finisher(rule, counts, heard):
    """The former ``CountingRule.probabilities``: one object per row."""
    attack = rule.cdf(rule.thresholds(counts, heard))
    total = attack.min(axis=1)
    none = 1.0 - attack.max(axis=1)
    partial = np.maximum(0.0, 1.0 - total - none)
    return [
        EventProbabilities(
            pr_total_attack=pr_ta,
            pr_no_attack=pr_na,
            pr_partial_attack=pr_pa,
            pr_attack=tuple(row),
            method="closed-form",
        )
        for pr_ta, pr_na, pr_pa, row in zip(
            total.tolist(), none.tolist(), partial.tolist(), attack.tolist()
        )
    ]


@pytest.mark.parametrize(
    "protocol",
    [
        ProtocolS(epsilon=0.3),
        ProtocolW(2),
        EagerS(epsilon=0.25),
        GreedyS(epsilon=0.2, slack=1),
        MessageValidityS(epsilon=0.7),
        NaiveCountingS(epsilon=0.25),
        SkewedS(epsilon=0.3),
    ],
)
def test_rows_match_the_list_finisher_bit_for_bit(protocol):
    generator = np.random.default_rng(5)
    counts = generator.integers(0, 7, size=(64, 4))
    heard = generator.random((64, 4)) < 0.7
    batch = protocol.rule.probabilities(counts, heard)
    expected = _list_finisher(protocol.rule, counts, heard)
    assert len(batch) == len(expected)
    for index, row in enumerate(expected):
        assert batch[index] == row
        assert repr(batch[index]) == repr(row)
    assert batch == expected
    assert list(batch) == expected
    assert batch[-1] == expected[-1]
    assert batch[2:5] == expected[2:5]
    assert batch.pr_partial_attack.tolist() == [
        row.pr_partial_attack for row in expected
    ]
    assert batch.liveness.tolist() == [row.liveness for row in expected]


def test_from_results_keeps_the_original_rows():
    rows = [
        EventProbabilities(0.5, 0.25, 0.25, (0.6, 0.7), "enumeration"),
        EventProbabilities(0.1, 0.8, 0.1, (0.2, 0.1), "monte-carlo", trials=9),
    ]
    batch = EventBatch.from_results(rows)
    assert batch[0] is rows[0] and batch[1] is rows[1]
    assert batch.pr_total_attack.tolist() == [0.5, 0.1]
    assert batch.pr_attack.shape == (2, 2)
    assert batch == rows


def test_empty_batch():
    batch = EventBatch.from_results([])
    assert len(batch) == 0
    assert list(batch) == []
    with pytest.raises(IndexError):
        batch[0]
