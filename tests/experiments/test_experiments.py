"""Integration tests: every experiment runs quick-scale and passes.

These are the end-to-end checks that the reproduced claims hold; each
experiment's internal assertions mark the report failed on any
violation, so ``report.passed`` is the reproduction verdict.
"""

from functools import lru_cache

import pytest

from repro.experiments import Config, experiment_ids, run_experiment

QUICK = Config(scale="quick", seed=0)


@lru_cache(maxsize=None)
def quick_report(experiment_id):
    """One quick-scale run per experiment, shared by the checks below."""
    return run_experiment(experiment_id, QUICK)


@pytest.mark.parametrize("experiment_id", experiment_ids())
def test_experiment_passes(experiment_id):
    report = quick_report(experiment_id)
    assert report.passed, report.render()


@pytest.mark.parametrize("experiment_id", experiment_ids())
def test_experiment_produces_tables(experiment_id):
    report = quick_report(experiment_id)
    assert report.tables, "experiment produced no tables"
    rendered = report.render()
    assert report.experiment_id in rendered
    for table in report.tables:
        assert table.rows, f"empty table {table.title!r}"


def test_reports_are_deterministic():
    first = run_experiment("E1", QUICK).render()
    second = run_experiment("E1", QUICK).render()
    assert first == second
