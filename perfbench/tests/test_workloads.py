"""Seeded inputs, the layer map, and the answer checks themselves."""

import pytest

from .. import offline
from ..layers import coverage, targets
from ..spans import _resolve

OFFLINE = ("search-vectorized", "search-reference", "sample-mc")


@pytest.mark.parametrize("workload", OFFLINE)
def test_same_seed_same_queries(workload):
    first = offline.cycle(workload, 7, 3)
    again = offline.cycle(workload, 7, 3)
    assert first == again
    assert offline.query_hash(first) == offline.query_hash(again)
    other = offline.cycle(workload, 8, 3)
    assert offline.query_hash(first) != offline.query_hash(other)


@pytest.mark.parametrize("workload", OFFLINE)
def test_the_seed_draws_parameters_not_shapes(workload):
    def shape(query):
        args = query.args
        if query.kind != "search":
            return query.kind
        return args["protocol"], args["topology"], args["rounds"]

    assert [shape(q) for q in offline.cycle(workload, 1, 0)] == [
        shape(q) for q in offline.cycle(workload, 2, 5)
    ]


def test_query_ids_run_on_across_cycles():
    length = offline.cycle_length("sample-mc")
    ids = [q.qid for q in offline.cycle("sample-mc", 1, 2)]
    assert ids == list(range(2 * length, 3 * length))


def test_every_traced_entry_point_exists():
    for target in targets():
        owner, attr, raw = _resolve(target)
        assert callable(getattr(owner, attr)), target


def test_a_wrong_answer_fails_its_check():
    reference = offline.ReferenceOracle()
    query = offline.cycle("search-vectorized", 1, 0)[0]
    answer = offline.execute(query)
    assert offline.check(answer, reference) == []
    sweep = answer.extra["sweep"]
    broken = sweep[3]
    sweep[3] = type(broken)(
        pr_total_attack=broken.pr_total_attack + 0.01,
        pr_no_attack=broken.pr_no_attack - 0.01,
        pr_partial_attack=broken.pr_partial_attack,
        pr_attack=broken.pr_attack,
        method=broken.method,
    )
    assert offline.check(answer, reference)


def test_coverage_rules():
    quiet = dict.fromkeys(
        ("core.packed", "core.execution", "protocols", "engine",
         "engine.vectorized", "engine.pair_weak", "adversary.search",
         "core.probability", "adversary.weak", "adversary.online", "timed",
         "meanfield"),
        0.0,
    )
    assert coverage("search-vectorized", {**quiet, "engine.vectorized": 0.4})[0]
    assert not coverage("search-vectorized", {**quiet, "core.execution": 0.4})[0]
    assert coverage("search-reference", {**quiet, "core.execution": 0.6})[0]
    assert not coverage("sample-mc", {**quiet, "engine": 0.9})[0]
