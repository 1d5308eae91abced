"""Unit tests for the OLAPSession top-level API."""

import pytest

from repro.errors import MaterializationError, OLAPError
from repro.rdf import EX, Literal, RDF, Triple
from repro.datagen.retail import (
    RetailConfig,
    city_region_hierarchy,
    retail_dataset,
    revenue_query,
)
from repro.olap.operations import Dice, DrillIn, DrillOut, RollUp, Slice
from repro.olap.session import OLAPSession

from tests.conftest import make_sites_query, make_views_query


class TestExecution:
    def test_execute_materializes_answer_and_partial(self, example2_instance, sites_query):
        session = OLAPSession(example2_instance)
        cube = session.execute(sites_query)
        assert len(cube) == 2
        materialized = session.materialized(sites_query)
        assert len(materialized.answer) == 2 and len(materialized.partial) == 5
        assert session.executed_queries() == (sites_query.name,)

    def test_materialized_unknown_query(self, example2_instance):
        session = OLAPSession(example2_instance)
        with pytest.raises(MaterializationError):
            session.materialized("ghost")

    def test_forget_drops_materialization(self, example2_instance, sites_query):
        session = OLAPSession(example2_instance)
        session.execute(sites_query)
        session.forget(sites_query)
        with pytest.raises(MaterializationError):
            session.materialized(sites_query)

    def test_history_records_execution(self, example2_instance, sites_query):
        session = OLAPSession(example2_instance)
        session.execute(sites_query)
        assert len(session.history) == 1
        record = session.history[0]
        assert record.operation == "execute"
        assert record.output_cells == 2
        assert "Q_sites" in str(record)


SLICE = Slice("dage", Literal(35))


def _executed(instance, times=1, **options):
    """A session that executed the sites query ``times`` times."""
    session = OLAPSession(instance, **options)
    for _ in range(times):
        session.execute(make_sites_query())
    return session


def _disk_warmed(instance, store, **options):
    OLAPSession(instance, cache_dir=store).execute(make_sites_query())
    return _executed(instance, cache_dir=store, **options)


def _updated_between_executes(instance):
    # Row engine: pins the cost ranking that makes patching beat recomputing.
    session = _executed(instance, engine="rows")
    instance.add(Triple(EX.term("user9"), RDF.term("type"), EX.Blogger))
    session.execute(make_sites_query())
    return session


def _executed_in_parallel():
    dataset = retail_dataset(RetailConfig(sales=300))
    session = OLAPSession(dataset.instance, dataset.schema, workers=2)
    session.execute(revenue_query(dataset.schema))
    return session


def _transformed(instance, strategy, times=1, **options):
    session = _executed(instance, engine="rows", **options)
    for _ in range(times):
        session.transform(make_sites_query(), SLICE, strategy=strategy)
    return session


#: ``(history label, scenario(instance, store) -> session whose last record took that route)``
ROUTES = [
    ("scratch", lambda graph, store: _executed(graph)),
    ("cache", lambda graph, store: _executed(graph, times=2)),
    ("cache[disk]", lambda graph, store: _disk_warmed(graph, store)),
    ("cache[disk]", lambda graph, store: _disk_warmed(graph, store, cache_capacity=0)),
    ("refresh", lambda graph, store: _updated_between_executes(graph)),
    ("parallel", lambda graph, store: _executed_in_parallel()),
    ("scratch[saturate]", lambda graph, store: _executed(graph, entailment="saturate")),
    ("rewrite[slice-dice/ans]", lambda graph, store: _transformed(graph, "rewrite")),
    ("scratch", lambda graph, store: _transformed(graph, "scratch")),
    ("scratch[saturate]", lambda graph, store: _transformed(graph, "scratch", entailment="saturate")),
    ("plan[rewrite[slice-dice/ans]]", lambda graph, store: _transformed(graph, "plan")),
    ("plan[cached]", lambda graph, store: _transformed(graph, "plan", times=2)),
]


class TestRouteLabels:
    @pytest.mark.parametrize(
        "label,scenario", ROUTES, ids=[f"{i}-{label}" for i, (label, _) in enumerate(ROUTES)]
    )
    def test_route_label(self, label, scenario, example2_instance, tmp_path):
        """The history label of every route: ``benchmarks/e2e``,
        ``calibration.strategy_family``, the advisor and
        ``ServedResult.strategy`` all parse these strings."""
        with scenario(example2_instance, str(tmp_path)) as session:
            assert session.history[-1].strategy == label

    @pytest.mark.parametrize("entailment", [None, "saturate"])
    @pytest.mark.parametrize("rolled", [False, True], ids=["base", "rolled"])
    def test_execute_takes_the_route_the_planner_prices_cheapest(self, rolled, entailment):
        """One pricing site: ``execute(Q)`` cannot pick another engine than the
        planner's own winner for ``Q`` — rolling pass included (separate
        pricing in ``execute`` used to miss it)."""
        config = RetailConfig(sales=40)
        dataset = retail_dataset(config)
        query = revenue_query(dataset.schema)
        if rolled:
            query = RollUp("dcity", city_region_hierarchy(config)).apply(query)
        with OLAPSession(dataset.instance, dataset.schema, entailment=entailment) as serial:
            expected = serial.execute(query)
        with OLAPSession(
            dataset.instance,
            dataset.schema,
            workers=2,
            entailment=entailment,
        ) as session:
            winner = session.planner.plan_query(query).chosen.strategy
            assert winner in ("parallel", "scratch", "scratch[saturate]")
            cube = session.execute(query)
            assert session.history[-1].strategy == winner
            assert cube.same_cells(expected)


class TestTransform:
    def test_transform_with_rewrite_strategy(self, example2_instance, sites_query):
        session = OLAPSession(example2_instance)
        session.execute(sites_query)
        cube = session.transform(sites_query, Slice("dage", Literal(35)), strategy="rewrite")
        assert len(cube) == 1
        assert session.history[-1].strategy == "rewrite[slice-dice/ans]"

    def test_transform_with_scratch_strategy(self, example2_instance, sites_query):
        session = OLAPSession(example2_instance)
        session.execute(sites_query)
        cube = session.transform(sites_query, Slice("dage", Literal(35)), strategy="scratch")
        assert len(cube) == 1
        assert session.history[-1].strategy == "scratch"

    def test_both_strategies_agree(self, example2_instance, sites_query):
        session = OLAPSession(example2_instance)
        session.execute(sites_query)
        operation = DrillOut("dage")
        rewrite = session.transform(sites_query, operation, strategy="rewrite")
        scratch = session.transform(sites_query, operation, strategy="scratch")
        assert rewrite.same_cells(scratch)

    def test_plan_falls_back_to_scratch_when_no_rewriting_applies(
        self, example2_instance, sites_query
    ):
        session = OLAPSession(example2_instance)
        session.execute(sites_query)
        sliced = session.transform(sites_query, Slice("dage", Literal(35)))
        # Drilling out the Σ-restricted dimension re-admits excluded facts:
        # pres(Q_slice) cannot answer it, so the planner evaluates from scratch.
        cube = session.transform(sliced.query, DrillOut("dage"), strategy="plan")
        assert len(cube) >= 1
        assert session.history[-1].strategy == "plan[scratch]"

    def test_rewrite_strategy_fails_when_origin_not_materialized(
        self, example2_instance, sites_query
    ):
        session = OLAPSession(example2_instance)
        with pytest.raises(MaterializationError):
            session.transform(sites_query, DrillOut("dage"), strategy="rewrite")

    @pytest.mark.parametrize("strategy", ["magic", "auto"])
    def test_unknown_strategy(self, example2_instance, sites_query, strategy):
        """``auto`` is gone: the planner subsumes it."""
        session = OLAPSession(example2_instance)
        session.execute(sites_query)
        with pytest.raises(OLAPError, match="expected plan, rewrite or scratch"):
            session.transform(sites_query, Slice("dage", Literal(35)), strategy=strategy)

    @pytest.mark.parametrize("entailment", ["rewrite", "magic"])
    def test_unknown_entailment_mode(self, example2_instance, entailment):
        """Saturation is the one entailment mode: query rewriting is gone."""
        with pytest.raises(OLAPError, match="expected None or 'saturate'"):
            OLAPSession(example2_instance, entailment=entailment)

    def test_chained_navigation(self, example2_instance, sites_query):
        """Slice, then drill-out on the transformed query (cube chaining)."""
        session = OLAPSession(example2_instance)
        session.execute(sites_query)
        sliced = session.transform(sites_query, Slice("dage", Literal(35)), strategy="rewrite")
        assert sliced.query.name in session.executed_queries()
        # The sliced query's answer is materialized, so a further DICE on it
        # can again be answered by rewriting.
        rediced = session.transform(sliced.query.name, Dice({"dcity": [EX.term("NY")]}), strategy="rewrite")
        assert len(rediced) == 1

    def test_drill_in_through_session(self, figure3_instance, views_query):
        session = OLAPSession(figure3_instance)
        session.execute(views_query)
        cube = session.transform(views_query, DrillIn("d3"), strategy="rewrite")
        assert len(cube) == 2
        assert cube.cell(Literal("URL1"), Literal("firefox")) == 100


class TestCompareStrategies:
    def test_comparison_structure(self, example2_instance, sites_query):
        session = OLAPSession(example2_instance)
        session.execute(sites_query)
        comparison = session.compare_strategies(sites_query, DrillOut("dage"))
        assert comparison["equal"] is True
        assert comparison["rewrite_seconds"] >= 0
        assert comparison["scratch_seconds"] >= 0
        assert comparison["speedup"] > 0
        assert comparison["strategy"].startswith("rewrite")

    def test_comparison_for_each_operation(self, small_video_dataset):
        from repro.datagen.videos import views_per_url_query

        session = OLAPSession(small_video_dataset.instance, small_video_dataset.schema)
        query = views_per_url_query(small_video_dataset.schema)
        session.execute(query)
        urls = sorted(
            session.materialized(query).answer.relation.distinct_values("d2"), key=repr
        )
        operations = [
            Slice("d2", urls[0]),
            Dice({"d2": urls[:3]}),
            DrillOut("d2"),
            DrillIn("d3"),
        ]
        for operation in operations:
            comparison = session.compare_strategies(query, operation)
            assert comparison["equal"], f"{operation.describe()} rewriting disagrees with scratch"


class TestLifecycle:
    """`close()` is idempotent and `__exit__` releases every pool, always."""

    def test_close_is_idempotent(self, example2_instance, sites_query):
        session = OLAPSession(example2_instance, workers=2)
        session.execute(sites_query)
        session.close()
        assert session.closed
        session.close()  # second close must be a harmless no-op
        assert session.closed

    def test_exit_after_exception_leaves_no_live_pool(
        self, example2_instance, sites_query
    ):
        session = OLAPSession(example2_instance, workers=2)
        with pytest.raises(RuntimeError):
            with session:
                session.execute(sites_query)
                raise RuntimeError("body failed")
        assert session.closed
        assert session._parallel.closed
        assert session._parallel._process_pool is None

    def test_closed_executor_refuses_dispatch(self, example2_instance, sites_query):
        from repro.errors import OLAPError

        session = OLAPSession(example2_instance, workers=2)
        session.close()
        with pytest.raises(OLAPError):
            session._parallel.evaluate(sites_query)

    def test_closed_executor_is_never_planned(self, example2_instance, sites_query):
        session = OLAPSession(example2_instance, workers=2)
        assert session._parallel.supports(sites_query)
        session.close()
        assert not session._parallel.supports(sites_query)
        strategies = [c.strategy for c in session.planner.plan_query(sites_query).candidates]
        assert "parallel" not in strategies

    def test_closed_session_still_executes_serially(
        self, example2_instance, sites_query
    ):
        session = OLAPSession(example2_instance, workers=2)
        session.close()
        cube = session.execute(sites_query)
        assert len(cube) > 0

    def test_serial_session_close_is_noop(self, example2_instance, sites_query):
        with OLAPSession(example2_instance) as session:
            session.execute(sites_query)
        assert session.closed
        session.close()


class TestParallelArguments:
    """The session checks its parallel arguments itself, whatever ``workers``
    is: the executor that also checks them is only built for ``workers > 1``."""

    @pytest.mark.parametrize(
        "arguments,message",
        [
            ({"workers": 0}, "workers"),
            ({"workers": -3}, "workers"),
            ({"workers": 1, "shard_count": 0}, "shard_count"),
            ({"workers": 1, "parallel_backend": "gpu"}, "unknown parallel_backend"),
            ({"workers": 1, "parallel_backend": "thread"}, "was removed"),
            ({"workers": 2, "parallel_backend": "serial"}, "was removed"),
        ],
        ids=["workers-0", "workers-negative", "shards-0", "unknown-backend", "thread", "serial"],
    )
    def test_bad_parallel_arguments_raise(self, example2_instance, arguments, message):
        with pytest.raises(ValueError, match=message):
            OLAPSession(example2_instance, **arguments)

    @pytest.mark.parametrize("backend", ["auto", "process"])
    def test_auto_and_process_both_mean_worker_processes(self, example2_instance, backend):
        with OLAPSession(example2_instance, workers=2, parallel_backend=backend) as session:
            assert session.workers == 2
            assert session.parallel.attach_mode == "pickled-graph"
