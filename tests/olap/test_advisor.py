"""Unit tests for the workload-driven materialization advisor."""

import pytest

from repro.datagen.generic import GenericConfig, generic_dataset, generic_query
from repro.datagen.retail import RetailConfig, city_region_hierarchy, retail_dataset, revenue_query
from repro.olap.advisor import AdvisorReport, WorkloadAdvisor, apply_recommendations
from repro.olap.cache import canonical_query_key
from repro.olap.operations import DrillOut, RollUp, Slice
from repro.olap.session import OLAPSession


@pytest.fixture()
def dataset():
    return generic_dataset(GenericConfig(facts=120, dimensions=2, seed=7))


@pytest.fixture()
def query(dataset):
    return generic_query(dataset.config, aggregate="count")


def _profiled_session(dataset, query, **kwargs):
    """A session with a repeated-access history (the advisor's raw input)."""
    session = OLAPSession(dataset.instance, dataset.schema, **kwargs)
    session.execute(query)
    session.execute(query)  # repeat -> cache hit
    session.transform(query, DrillOut("d1"))
    session.transform(query, DrillOut("d1"))  # repeat
    session.transform(query, DrillOut("d0"))
    return session


class TestReport:
    def test_report_is_nonempty_and_ranked(self, dataset, query):
        session = _profiled_session(dataset, query)
        report = session.advise()
        assert report
        assert report.history_records == len(session.history)
        benefits = [rec.benefit for rec in report.materializations]
        assert benefits == sorted(benefits, reverse=True)
        assert report.cost_model.source == "fitted"

    def test_hot_keys_recommended_for_materialize_and_pin(self, dataset, query):
        session = _profiled_session(dataset, query)
        report = session.advise()
        keys = {rec.key for rec in report.materializations}
        assert canonical_query_key(query) in keys
        assert {rec.key for rec in report.pins} == keys

    def test_cold_history_still_recommends_top_key(self, dataset, query):
        session = OLAPSession(dataset.instance, dataset.schema)
        session.execute(query)  # single access: below the hot threshold
        report = session.advise()
        assert len(report.materializations) == 1
        assert report.materializations[0].key == canonical_query_key(query)

    def test_empty_history_empty_report(self, dataset):
        session = OLAPSession(dataset.instance, dataset.schema)
        report = session.advise()
        assert not report
        assert len(report) == 0

    def test_top_limits_recommendations(self, dataset, query):
        session = _profiled_session(dataset, query)
        report = session.advise(top=1)
        assert len(report.materializations) == 1
        assert len(report.pins) == 1

    def test_evict_recommended_under_lru_pressure(self, dataset, query):
        session = _profiled_session(dataset, query, cache_capacity=3)
        # cache is full (3 entries) and at least one entry never served a hit
        report = WorkloadAdvisor(session).report()
        assert len(session.cache) >= session.cache.capacity
        evict_keys = {rec.key for rec in report.evictions}
        keep_keys = {rec.key for rec in report.pins}
        assert evict_keys.isdisjoint(keep_keys)

    def test_no_evictions_without_pressure(self, dataset, query):
        session = _profiled_session(dataset, query)  # default capacity 64
        report = session.advise()
        assert report.evictions == []

    def test_as_dict_and_describe(self, dataset, query):
        session = _profiled_session(dataset, query)
        report = session.advise()
        data = report.as_dict()
        assert data["history_records"] == len(session.history)
        assert all("query" not in rec for rec in data["recommendations"])
        text = report.describe()
        assert "materialize" in text
        assert "cost model" in text


class TestApply:
    def test_warm_starts_fresh_session(self, dataset, query):
        report = _profiled_session(dataset, query).advise()
        fresh = OLAPSession(
            dataset.instance, dataset.schema, cost_model=report.cost_model
        )
        counts = fresh.apply_recommendations(report)
        assert counts["materialized"] >= 1
        assert counts["pinned"] >= 1
        fresh.execute(query)
        assert fresh.history[-1].strategy.startswith("cache")
        assert fresh.cache.stats.hits >= 1

    def test_apply_is_idempotent_on_materialization(self, dataset, query):
        report = _profiled_session(dataset, query).advise()
        fresh = OLAPSession(dataset.instance, dataset.schema)
        first = fresh.apply_recommendations(report)
        second = fresh.apply_recommendations(report)
        assert first["materialized"] >= 1
        assert second["materialized"] == 0  # already cached
        assert second["pinned"] == first["pinned"]  # pins are re-asserted

    def test_pins_survive_lru_pressure_after_apply(self, dataset, query):
        report = _profiled_session(dataset, query).advise()
        fresh = OLAPSession(dataset.instance, dataset.schema, cache_capacity=2)
        apply_recommendations(fresh, report)
        pinned = fresh.cache.pinned_keys()
        assert pinned
        # flood the cache with one-off queries: pinned entries must survive
        for dimension in ("d0", "d1"):
            fresh.transform(query, DrillOut(dimension))
        for key in pinned:
            assert key in fresh.cache.keys()

    def test_evict_recommendations_drop_entries(self, dataset, query):
        session = _profiled_session(dataset, query, cache_capacity=3)
        report = session.advise()
        evicted_keys = {rec.key for rec in report.evictions}
        counts = session.apply_recommendations(report)
        assert counts["evicted"] == len(evicted_keys)
        for key in evicted_keys:
            assert key not in session.cache.keys()


class TestBenefit:
    def test_benefit_scales_with_accesses(self, dataset, query):
        session = OLAPSession(dataset.instance, dataset.schema)
        session.execute(query)
        few = session.advise().materializations[0].benefit
        for _ in range(5):
            session.execute(query)
        many = session.advise().materializations[0].benefit
        assert many > few

    @pytest.mark.parametrize("entailment", [None, "saturate"])
    def test_benefit_is_planner_scratch_minus_planner_cached(self, entailment):
        """The advisor credits what ``execute`` is charged: for a rolled query
        the planner's scratch candidate carries the rolling pass, which a
        hand-made ``multiplier × estimate_scratch_cost`` left out."""
        config = RetailConfig(sales=40)
        retail = retail_dataset(config)
        rolled = RollUp("dcity", city_region_hierarchy(config)).apply(revenue_query(retail.schema))
        with OLAPSession(retail.instance, retail.schema, entailment=entailment) as cold:
            scratch = cold.planner.plan_query(rolled).chosen
            assert scratch.strategy.startswith("scratch")
        with OLAPSession(retail.instance, retail.schema, entailment=entailment) as session:
            session.execute(rolled)
            session.execute(rolled)
            cached = session.planner.plan_query(rolled).chosen
            assert cached.strategy == "cached"
            (recommendation,) = session.advise().materializations
            assert recommendation.benefit / recommendation.accesses == pytest.approx(
                scratch.cost - cached.cost
            )

    def test_report_type(self, dataset, query):
        report = _profiled_session(dataset, query).advise()
        assert isinstance(report, AdvisorReport)
        for rec in report.recommendations:
            assert rec.action in ("materialize", "pin", "evict")
            assert rec.benefit >= 0.0


class TestTimingSplit:
    def test_execute_has_no_plan_time(self, dataset, query):
        session = OLAPSession(dataset.instance, dataset.schema)
        session.execute(query)
        record = session.history[-1]
        assert record.plan_seconds == 0.0
        assert record.execute_seconds == pytest.approx(record.seconds)

    def test_planned_transform_splits_timing(self, dataset, query):
        session = OLAPSession(dataset.instance, dataset.schema)
        session.execute(query)
        session.transform(query, DrillOut("d1"), strategy="plan")
        record = session.history[-1]
        assert record.plan_seconds > 0.0
        assert record.execute_seconds > 0.0
        assert record.plan_seconds + record.execute_seconds == pytest.approx(
            record.seconds
        )

    def test_forced_strategies_have_no_plan_time(self, dataset, query):
        session = OLAPSession(dataset.instance, dataset.schema)
        session.execute(query)
        for strategy in ("scratch", "rewrite"):
            session.transform(query, DrillOut("d1"), strategy=strategy)
            record = session.history[-1]
            assert record.plan_seconds == 0.0
            assert record.execute_seconds == pytest.approx(record.seconds)

    def test_cache_hit_sample_excludes_planning(self, dataset, query):
        session = OLAPSession(dataset.instance, dataset.schema)
        session.execute(query)
        session.transform(query, DrillOut("d1"))
        session.transform(query, DrillOut("d1"))  # planner serves the cache
        record = session.history[-1]
        assert record.strategy == "plan[cached]"
        assert record.execute_seconds < record.seconds
