"""Smoke tests for the experiment workloads (run at the 'tiny' scale).

These check that every experiment produces a well-formed table whose
correctness column ("equal") is True throughout — i.e. that the rewriting
answers agree with the from-scratch baseline on every configuration the
experiments exercise.  Timing columns are not asserted on (that is what the
benchmarks are for), only their presence.
"""

import pytest

from repro.bench.harness import ResultTable
from repro.bench.workloads import (
    SCALES,
    experiment_aggregates,
    experiment_dice_selectivity,
    experiment_dimensionality,
    experiment_multivalue_fanout,
    experiment_operations_table,
    experiment_pres_storage,
    experiment_scaling,
)


def _column(table: ResultTable, name: str):
    index = table.columns.index(name)
    return [row[index] for row in table.rows]


class TestScales:
    def test_known_scales(self):
        assert set(SCALES) >= {"tiny", "small", "paper"}

    def test_unknown_scale_rejected(self):
        with pytest.raises(ValueError):
            experiment_scaling("slice", scale="huge")


class TestExperiments:
    def test_operations_table(self):
        table = experiment_operations_table("tiny")
        assert set(_column(table, "operation")) >= {"SLICE", "DICE", "DRILL-OUT", "DRILL-IN"}
        assert all(value == "True" for value in _column(table, "equal"))

    @pytest.mark.parametrize("kind", ["slice", "dice", "drill-out", "drill-in"])
    def test_scaling_experiments(self, kind):
        table = experiment_scaling(kind, scale="tiny")
        assert len(table.rows) == len(SCALES["tiny"]["sweep"])
        assert all(value == "True" for value in _column(table, "equal"))

    def test_scaling_rejects_unknown_operation(self):
        with pytest.raises(ValueError):
            experiment_scaling("rollup", scale="tiny")

    def test_dice_selectivity(self):
        table = experiment_dice_selectivity("tiny")
        assert len(table.rows) == 6
        assert all(value == "True" for value in _column(table, "equal"))

    def test_multivalue_fanout_shows_naive_error(self):
        table = experiment_multivalue_fanout("tiny")
        assert all(value == "True" for value in _column(table, "equal"))
        wrong = [int(value) for value in _column(table, "naive wrong cells")]
        # With fan-out 1.0 the naive re-aggregation is correct; with the
        # largest fan-out it must be wrong somewhere.
        assert wrong[0] == 0
        assert wrong[-1] > 0

    def test_dimensionality(self):
        table = experiment_dimensionality("tiny")
        assert all(value == "True" for value in _column(table, "equal"))
        assert set(_column(table, "operation")) == {"DRILL-OUT", "DRILL-IN"}

    def test_pres_storage_reports_sizes(self):
        table = experiment_pres_storage("tiny")
        assert len(table.rows) == len(SCALES["tiny"]["sweep"])
        pres_rows = [int(value) for value in _column(table, "pres rows")]
        instance_sizes = [int(value) for value in _column(table, "instance triples")]
        assert all(pres <= size for pres, size in zip(pres_rows, instance_sizes))

    def test_aggregates(self):
        table = experiment_aggregates("tiny")
        assert set(_column(table, "aggregate")) == {"count", "sum", "avg", "min", "max"}
        assert all(value == "True" for value in _column(table, "equal"))
