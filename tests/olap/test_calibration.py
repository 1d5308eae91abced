"""Unit tests for the runtime-calibrated cost model."""

import pytest

from repro.datagen.generic import GenericConfig, generic_dataset, generic_query
from repro.olap.calibration import (
    MAX_SCALE,
    MIN_SCALE,
    CalibrationSample,
    CostModel,
    fit_cost_model,
    fit_family_scales,
    samples_from_history,
    strategy_family,
)
from repro.olap.operations import DrillOut, Slice
from repro.olap.session import OLAPSession, TransformationRecord


@pytest.fixture()
def dataset():
    return generic_dataset(GenericConfig(facts=80, dimensions=2, seed=11))


def _record(strategy, cost, execute_seconds, plan_seconds=0.0):
    return TransformationRecord(
        query_name="Q",
        operation="op",
        strategy=strategy,
        seconds=plan_seconds + execute_seconds,
        input_rows=10,
        output_cells=5,
        details={"estimated_cost": cost},
        plan_seconds=plan_seconds,
        execute_seconds=execute_seconds,
    )


class TestCostModel:
    def test_defaults_are_the_fitted_reuse_weights_and_hand_set_constants(self):
        model = CostModel()
        assert model.select_row_cost == 0.2
        assert model.group_row_cost == 0.4
        assert model.join_row_cost == 0.4
        assert model.cached_cell_cost == 0.05
        assert model.base_cost == 1.0
        assert model.delta_probe_cost == 2.0
        assert model.pres_scan_cost == 0.25
        assert model.refresh_cell_cost == 0.05
        assert model.merge_cell_cost == 0.5
        assert model.dispatch_shard_cost == 200.0
        assert model.mmap_dispatch_shard_cost == 8.0
        assert model.source == "static"

    def test_engine_multiplier(self):
        model = CostModel()
        assert model.engine_multiplier("rows") == 1.0
        assert model.engine_multiplier("columnar") == 0.35
        assert model.engine_multiplier("unknown") == 1.0

    def test_dispatch_cost_by_attach_mode(self):
        model = CostModel()

        class Heap:
            snapshot_path = None

        class Mapped:
            snapshot_path = "/tmp/snap"

        assert model.dispatch_cost(Heap()) == model.dispatch_shard_cost
        assert model.dispatch_cost(Mapped()) == model.mmap_dispatch_shard_cost

    def test_as_dict_round_trips_fields(self):
        data = CostModel().as_dict()
        assert data["source"] == "static"
        assert data["engine_multipliers"]["columnar"] == 0.35

    def test_describe(self):
        assert "static" in CostModel().describe()


class TestStrategyFamily:
    @pytest.mark.parametrize(
        "strategy, family",
        [
            ("scratch", "instance"),
            ("plan[scratch]", "instance"),
            ("parallel", "parallel"),
            ("plan[parallel]", "parallel"),
            ("rewrite[slice/ans]", "reuse"),
            ("plan[rewrite[drill-out/pres]]", "reuse"),
            ("plan[rewrite[slice-dice/ans]]", "reuse"),
            ("cache", "cached"),
            ("cache[disk]", "cached"),
            ("plan[cached]", "cached"),
            ("refresh", "refresh"),
            ("plan[refresh-cached]", "refresh"),
            ("weird-label", None),
        ],
    )
    def test_families(self, strategy, family):
        assert strategy_family(strategy) == family


class TestSamples:
    def test_extracts_planned_records_only(self):
        history = [
            _record("plan[scratch]", 100.0, 0.01),
            TransformationRecord("Q", "execute", "scratch", 0.01, 10, 5),
        ]
        samples = samples_from_history(history)
        assert len(samples) == 1
        assert samples[0].family == "instance"

    def test_uses_execute_seconds_not_total(self):
        history = [_record("plan[cached]", 10.0, 0.001, plan_seconds=0.5)]
        (sample,) = samples_from_history(history)
        assert sample.seconds == pytest.approx(0.001)

    def test_skips_nonpositive_costs_and_times(self):
        history = [
            _record("plan[scratch]", 0.0, 0.01),
            _record("plan[scratch]", 100.0, 0.0),
        ]
        # zero execute time falls back to total seconds; both zero -> skipped
        history[1].execute_seconds = 0.0
        history[1].seconds = 0.0
        assert samples_from_history(history) == []


class TestFit:
    def test_no_samples_keeps_static_model(self):
        model = fit_cost_model([])
        assert model.source == "static"
        assert model.family_scales == {}

    def test_slower_reuse_scales_reuse_constants_up(self):
        # instance: 1000 rows-cost per 1ms -> slope 1e-6
        # reuse: same predicted cost, 4x the time -> scale 4
        history = [
            _record("plan[scratch]", 1000.0, 0.001),
            _record("plan[rewrite[slice/ans]]", 1000.0, 0.004),
        ]
        model = fit_cost_model(history)
        assert model.source == "fitted"
        assert model.family_scales["reuse"] == pytest.approx(4.0)
        assert model.select_row_cost == pytest.approx(CostModel().select_row_cost * 4)
        assert model.group_row_cost == pytest.approx(CostModel().group_row_cost * 4)
        assert model.join_row_cost == pytest.approx(CostModel().join_row_cost * 4)
        # untouched families keep static constants
        assert model.merge_cell_cost == 0.5

    def test_scales_are_clamped(self):
        history = [
            _record("plan[scratch]", 1000.0, 0.001),
            _record("plan[cached]", 1000.0, 1000.0),
            _record("plan[rewrite[slice/ans]]", 1000.0, 1e-9),
        ]
        model = fit_cost_model(history)
        assert model.family_scales["cached"] == MAX_SCALE
        assert model.family_scales["reuse"] == MIN_SCALE

    def test_min_samples_threshold(self):
        history = [
            _record("plan[scratch]", 1000.0, 0.001),
            _record("plan[rewrite[slice/ans]]", 1000.0, 0.004),
        ]
        model = fit_cost_model(history, min_samples=2)
        assert "reuse" not in model.family_scales

    def test_instance_scale_lands_on_engine_multiplier(self):
        samples = [
            CalibrationSample("plan[cached]", "cached", 100.0, 0.001),
            CalibrationSample("plan[scratch]", "instance", 100.0, 0.002),
        ]
        scales = fit_family_scales(samples)
        assert scales["instance"] == pytest.approx(1.0)
        history = [
            _record("plan[cached]", 100.0, 0.001),
            _record("plan[scratch]", 100.0, 0.002),
        ]
        model = fit_cost_model(history, engine="rows")
        assert model.engine_multiplier("rows") == pytest.approx(1.0)

    def test_session_fit_produces_planner_compatible_model(self, dataset):
        from repro.olap.cube import Cube

        query = generic_query(dataset.config, aggregate="count")
        session = OLAPSession(dataset.instance, dataset.schema)
        session.execute(query)
        session.transform(query, DrillOut("d1"))
        root = Cube(session.materialized(query).answer, query)
        value = sorted(root.dimension_values("d1"), key=repr)[0]
        session.transform(query, Slice("d1", value))
        fitted = session.fit_cost_model()
        assert fitted.samples >= 2
        replay = OLAPSession(dataset.instance, dataset.schema, cost_model=fitted)
        assert replay.planner.cost_model is fitted
        assert replay.planner.cost_model is fitted
        cube = replay.execute(query)
        assert len(cube) > 0
