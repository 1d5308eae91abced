"""Unit tests for the cost-based OLAP planner (:mod:`repro.olap.planner`)."""

import pytest

from repro.rdf import EX, Literal
from repro.analytics.evaluator import AnalyticalQueryEvaluator
from repro.datagen.generic import GenericConfig, generic_dataset, generic_query
from repro.olap.calibration import samples_from_history
from repro.olap.cube import Cube
from repro.olap.hierarchy import DimensionHierarchy
from repro.olap.cache import ResultCache
from repro.olap.operations import Dice, DrillIn, DrillOut, RollUp, Slice
from repro.olap.planner import OLAPPlanner, Plan
from repro.olap.session import OLAPSession

from tests.conftest import make_sites_query, make_views_query


@pytest.fixture()
def session(example2_instance):
    # The strategy-preference assertions below pin the cost model's ranking
    # under uniform per-row costs; the row engine keeps that ranking stable
    # regardless of whether numpy (and its 0.35x scratch multiplier) is
    # installed.  Columnar-engine pricing is covered in
    # tests/algebra/test_columnar.py.
    return OLAPSession(example2_instance, engine="rows")


@pytest.fixture()
def executed(session):
    query = make_sites_query()
    session.execute(query)
    return session, query


def _plan(session, query, operation) -> Plan:
    return session.planner.plan(query, operation, operation.apply(query))


class TestPlanEnumeration:
    def test_scratch_is_always_a_candidate(self, session):
        query = make_sites_query()  # never executed: nothing cached
        plan = _plan(session, query, Slice("dage", Literal(35)))
        assert [candidate.strategy for candidate in plan.candidates] == ["scratch"]

    def test_rewrite_candidate_beats_scratch_when_materialized(self, executed):
        session, query = executed
        plan = _plan(session, query, Slice("dage", Literal(35)))
        strategies = [candidate.strategy for candidate in plan.candidates]
        assert strategies[0] == "rewrite[slice-dice/ans]"
        assert "scratch" in strategies
        assert plan.chosen.cost <= plan.candidates[-1].cost

    def test_drill_out_uses_partial(self, executed):
        session, query = executed
        plan = _plan(session, query, DrillOut("dage"))
        assert plan.chosen.strategy == "rewrite[drill-out/pres]"

    def test_repeated_operation_prefers_cached_answer(self, executed):
        session, query = executed
        operation = Slice("dage", Literal(35))
        session.transform(query, operation, strategy="plan")
        plan = _plan(session, query, operation)
        assert plan.chosen.strategy == "cached"

    def test_a_fresh_hit_is_planned_alone(self, executed, monkeypatch):
        """Neither scratch nor the cached-entry scan of the rewritings is priced
        for a query the cache then serves; a filtered plan still enumerates
        its families."""
        session, query = executed
        operation = Slice("dage", Literal(35))
        session.transform(query, operation)
        probed = []
        for name in ("_scratch_candidate", "_rewrite_candidates"):
            original = getattr(OLAPPlanner, name)
            monkeypatch.setattr(
                OLAPPlanner,
                name,
                lambda self, *args, _name=name, _original=original: probed.append(_name)
                or _original(self, *args),
            )
        cube = session.transform(query, operation)
        assert cube.record.strategy == "plan[cached]"
        plan = _plan(session, query, operation)
        assert [candidate.strategy for candidate in plan.candidates] == ["cached"]
        assert probed == []
        assert session.explain_last().count("cost~") == 1
        forced = session.transform(query, operation, strategy="scratch")
        assert forced.record.strategy == "scratch" and probed == ["_scratch_candidate"]

    def test_the_hit_fast_path_changes_no_choice_and_no_cache_accounting(self, example2_instance):
        """One operation stream, planned as usual and through the full
        enumeration (every family named): the same strategies, cells, hit and
        miss counts, evictions, and LRU order of the keys."""
        every_family = ("cached", "rewrite", "compat", "rollup-from-cached", "parallel", "scratch")
        query = make_sites_query()
        stream = [
            Slice("dage", Literal(35)),
            Dice({"dcity": [EX.term("NY")]}),
            Slice("dage", Literal(35)),
            DrillOut("dage"),
            Dice({"dcity": [EX.term("NY")]}),
            Slice("dage", Literal(28)),
            DrillOut("dage"),
            Slice("dage", Literal(35)),
        ]

        def replay(full):
            session = OLAPSession(example2_instance, engine="rows", cache_capacity=4)
            if full:
                plan = session.planner.plan
                session.planner.plan = lambda *args, families=None, **kwargs: plan(
                    *args, families=families or every_family, **kwargs
                )
            session.execute(query)
            served = [
                (cube.record.strategy, dict(cube.cells()))
                for cube in (session.transform(query, operation) for operation in stream)
            ]
            stats = session.cache.stats
            return served, (stats.hits, stats.misses, stats.evictions), session.cache.keys()

        fast, full = replay(full=False), replay(full=True)
        assert [strategy for strategy, _ in fast[0]].count("plan[cached]") >= 2
        assert fast[1][2] >= 1  # the stream evicts too
        assert fast == full

    def test_compatible_cached_view_is_found(self, executed):
        """A DICE strengthening a cached SLICE reuses the slice's answer."""
        session, query = executed
        sliced = session.transform(query, Slice("dage", Literal(35)), strategy="plan")
        session.forget(query)  # the root's results are gone: only the slice remains
        operation = Dice({"dage": [Literal(35)], "dcity": [EX.term("NY")]})
        cube = session.transform(query, operation, strategy="plan")
        assert session.history[-1].strategy == "plan[rewrite[slice-dice/ans]]"
        chosen = session.explain_last().splitlines()[1]
        assert f"(ans({sliced.query.name}):" in chosen  # the cached SLICE, not the root
        assert cube.cells() == {(Literal(35), EX.term("NY")): 2}
        assert sliced.same_cells(sliced)  # the slice itself is untouched

    def test_equal_costs_break_ties_on_strategy_name(self, executed):
        # Plan ordering must be deterministic even for cost ties: the
        # strategy name is the stable secondary key, so explain() output and
        # golden comparisons never depend on candidate enumeration order.
        from repro.olap.planner import PlanCandidate

        session, query = executed
        operation = Slice("dage", Literal(35))

        def run():  # pragma: no cover - never executed
            raise AssertionError

        tied = [
            PlanCandidate(name, 10.0, 0, "tie", run)
            for name in ("zeta", "alpha", "midway")
        ]
        for permutation in ([0, 1, 2], [2, 1, 0], [1, 2, 0]):
            plan = Plan(operation, operation.apply(query), [tied[i] for i in permutation])
            assert [c.strategy for c in plan.candidates] == ["alpha", "midway", "zeta"]

    def test_parallel_candidate_enumerated_only_with_executor(self, example2_instance):
        query = make_sites_query()
        serial_session = OLAPSession(example2_instance)
        serial_session.execute(query)
        plan = _plan(serial_session, query, Slice("dage", Literal(35)))
        assert "parallel" not in [c.strategy for c in plan.candidates]

        with OLAPSession(
            example2_instance, workers=2
        ) as parallel_session:
            parallel_session.execute(query)
            plan = _plan(parallel_session, query, Slice("dage", Literal(35)))
            strategies = [c.strategy for c in plan.candidates]
            assert "parallel" in strategies
            # On a paper-sized instance the dispatch overhead prices the
            # parallel candidate above plain scratch: it must not be chosen.
            parallel = next(c for c in plan.candidates if c.strategy == "parallel")
            scratch = next(c for c in plan.candidates if c.strategy == "scratch")
            assert parallel.cost > scratch.cost

    def test_parallel_candidate_executes_correctly_when_forced(self, example2_instance):
        with OLAPSession(
            example2_instance, workers=2, shard_count=3
        ) as session:
            query = make_sites_query()
            session.execute(query)
            operation = Slice("dage", Literal(35))
            plan = _plan(session, query, operation)
            parallel = next(c for c in plan.candidates if c.strategy == "parallel")
            answer, partial = parallel.execute()
            transformed = operation.apply(query)
            scratch = AnalyticalQueryEvaluator(example2_instance).answer(transformed)
            assert Cube(answer, transformed).same_cells(Cube(scratch, transformed))
            assert partial is not None

    def test_plans_are_sorted_by_cost(self, executed):
        session, query = executed
        plan = _plan(session, query, Slice("dage", Literal(35)))
        costs = [candidate.cost for candidate in plan.candidates]
        assert costs == sorted(costs)


class TestPlanExecution:
    @pytest.mark.parametrize(
        "operation",
        [
            Slice("dage", Literal(35)),
            Dice({"dcity": [EX.term("Madrid")]}),
            DrillOut("dage"),
        ],
        ids=["slice", "dice", "drill-out"],
    )
    def test_planned_answers_match_scratch(self, executed, operation):
        session, query = executed
        planned = session.transform(query, operation, strategy="plan")
        scratch = Cube(
            AnalyticalQueryEvaluator(session.instance).answer(planned.query), planned.query
        )
        assert planned.same_cells(scratch)

    def test_drill_in_planned_on_paper_example(self, figure3_instance):
        """On the 10-triple Figure 3 graph any strategy is cheap; the planner
        may legitimately pick scratch — only the cells are pinned here."""
        session = OLAPSession(figure3_instance)
        query = make_views_query()
        session.execute(query)
        cube = session.transform(query, DrillIn("d3"), strategy="plan")
        assert session.history[-1].strategy.startswith("plan[")
        assert cube.cells() == {
            (Literal("URL1"), Literal("firefox")): 100,
            (Literal("URL2"), Literal("chrome")): 100,
        }

    def test_an_unexpected_error_pricing_drill_in_propagates(self, figure3_instance, monkeypatch):
        """Only "q_aux is not applicable" prices DRILL-IN's rewriting at inf:
        any other error while building q_aux is a bug and surfaces."""
        session = OLAPSession(figure3_instance)
        query = make_views_query()
        session.execute(query)

        def planted(*args, **kwargs):
            raise RuntimeError("planted")

        monkeypatch.setattr("repro.olap.planner.build_auxiliary_query", planted)
        with pytest.raises(RuntimeError, match="planted"):
            _plan(session, query, DrillIn("d3"))

    def test_drill_in_planned_prefers_rewriting_at_scale(self, small_video_dataset):
        """With a realistically sized instance, pres(Q) + q_aux wins the plan."""
        from repro.datagen.videos import views_per_url_query

        dataset = small_video_dataset
        # Row engine: the assertion pins the uniform-cost ranking (see the
        # session fixture's note).
        session = OLAPSession(dataset.instance, dataset.schema, engine="rows")
        query = views_per_url_query(dataset.schema)
        session.execute(query)
        cube = session.transform(query, DrillIn("d3"), strategy="plan")
        assert session.history[-1].strategy == "plan[rewrite[drill-in/pres+aux]]"
        scratch = Cube(
            AnalyticalQueryEvaluator(dataset.instance).answer(cube.query), cube.query
        )
        assert cube.same_cells(scratch)

    def test_planned_transform_materializes_partial_for_chaining(self, executed):
        session, query = executed
        sliced = session.transform(query, Slice("dage", Literal(35)), strategy="plan")
        materialized = session.materialized(sliced.query.name)
        assert set(materialized.partial.relation.column_values("dage")) == {Literal(35)}
        # ... so drilling out an *unrestricted* dimension of the slice stays
        # on the reuse path.
        session.transform(sliced.query.name, DrillOut("dcity"), strategy="plan")
        assert session.history[-1].strategy == "plan[rewrite[drill-out/pres]]"

    def test_drill_out_of_restricted_dimension_replans_to_scratch(self, executed):
        """DRILL-OUT drops the removed dimension's Σ entry, re-admitting facts
        the restriction excluded — pres(Q) lacks those, so the rewriting is
        inapplicable and the planner must go back to the instance."""
        from repro.errors import RewritingError

        session, query = executed
        sliced = session.transform(query, Slice("dage", Literal(35)), strategy="plan")
        drilled = session.transform(sliced.query.name, DrillOut("dage"), strategy="plan")
        assert session.history[-1].strategy == "plan[scratch]"
        scratch = Cube(
            AnalyticalQueryEvaluator(session.instance).answer(drilled.query), drilled.query
        )
        assert drilled.same_cells(scratch)
        # Madrid (dage=28, excluded by the slice) is back in the drilled cube.
        assert drilled.cell(EX.term("Madrid")) == 3
        with pytest.raises(RewritingError):
            session.transform(sliced.query.name, DrillOut("dage"), strategy="rewrite")


class TestExplain:
    def test_explain_lists_all_candidates(self, executed):
        session, query = executed
        session.transform(query, Slice("dage", Literal(35)), strategy="plan")
        explanation = session.history[-1].details["plan"]
        assert explanation.startswith("plan: slice dage")
        assert "rewrite[slice-dice/ans]" in explanation
        assert "scratch" in explanation
        assert "->" in explanation

    def test_explain_last_helper(self, executed):
        session, query = executed
        # execute() records no costed plan, but the operation is still
        # reported (strategy + timing) instead of a placeholder.
        explanation = session.explain_last()
        assert "scratch" in explanation
        assert "execute" in explanation
        session.transform(query, DrillOut("dage"), strategy="plan")
        assert "drill-out" in session.explain_last()

    def test_explain_last_reports_cache_hits(self, executed):
        session, query = executed
        session.execute(query)  # second run: served from cache
        explanation = session.explain_last()
        assert "cache" in explanation
        assert "execute" in explanation

    def test_explain_last_empty_history(self, session):
        assert "no operations" in session.explain_last()

    def test_record_carries_estimated_cost(self, executed):
        session, query = executed
        session.transform(query, Slice("dage", Literal(35)), strategy="plan")
        assert session.history[-1].details["estimated_cost"] > 0

    @pytest.mark.parametrize("strategy", ["rewrite", "scratch"])
    def test_forced_record_carries_its_price_but_no_plan(self, executed, strategy):
        """A both-routes replay feeds the calibrator: forced records are samples."""
        session, query = executed
        session.transform(query, DrillOut("dage"), strategy=strategy)
        record = session.history[-1]
        assert record.details["estimated_cost"] > 0
        assert "plan" not in record.details
        assert [sample.strategy for sample in samples_from_history([record])] == [record.strategy]


def _dimension_value(dimension, value):
    return EX.term(f"dimvalue/{dimension}/{value}")


def _d0_buckets():
    return DimensionHierarchy.from_pairs(
        [(_dimension_value(0, value), EX.term(f"d0bucket/{value // 5}")) for value in range(20)],
        name="d0_bucket",
    )


@pytest.fixture(scope="module")
def navigation_dataset():
    """Shaped like the ``nav_warm`` benchmark's data: 4,000 facts over three
    multi-valued, Zipf-skewed dimensions, with detail resources."""
    return generic_dataset(
        GenericConfig(
            facts=4000,
            dimensions=3,
            values_per_dimension=1.4,
            measures_per_fact=2.0,
            with_detail=True,
            zipf_exponent=0.9,
            seed=29,
        )
    )


@pytest.fixture(params=["columnar", "rows"])
def navigation(request, navigation_dataset):
    if request.param == "columnar":
        pytest.importorskip("numpy")
    root = generic_query(navigation_dataset.config, include_detail_in_classifier=True, name="root")
    session = OLAPSession(navigation_dataset.instance, navigation_dataset.schema, engine=request.param)
    session.execute(root)
    yield session, root
    session.close()


class TestNavigationPlanChoice:
    """With the root materialized, the planner takes the paper's rewritings
    where they do less work than re-evaluation.  Asserts choices, not timings."""

    @staticmethod
    def _planned_strategy(session, cube):
        scratch = Cube(AnalyticalQueryEvaluator(session.instance).answer(cube.query), cube.query)
        assert cube.same_cells(scratch)
        return session.history[-1].strategy

    def test_drill_out_takes_its_pres_rewriting(self, navigation):
        session, root = navigation
        cube = session.transform(root, DrillOut("d1"))
        assert self._planned_strategy(session, cube) == "plan[rewrite[drill-out/pres]]"

    def test_one_stage_roll_up_takes_its_pres_rewriting(self, navigation):
        session, root = navigation
        cube = session.roll_up(root, "d0", _d0_buckets())
        assert self._planned_strategy(session, cube) == "plan[rewrite[roll-up/pres]]"

    def test_slice_takes_a_reuse_route(self, navigation):
        session, root = navigation
        cube = session.transform(root, Slice("d1", _dimension_value(1, 0)))
        assert self._planned_strategy(session, cube) in (
            "plan[rewrite[slice-dice/ans]]",
            "plan[compat[slice-dice/ans]]",
        )

    def test_drill_in_takes_its_pres_aux_rewriting(self, navigation):
        session, root = navigation
        cube = session.transform(root, DrillIn("da"))
        assert self._planned_strategy(session, cube) == "plan[rewrite[drill-in/pres+aux]]"


def test_the_planner_makes_an_operations_cache_reads(navigation, monkeypatch):
    """A roll-up of an evicted origin, never stored itself: the session reads
    nothing from the cache outside the plan, which probes the target's stale
    entry once and snapshots the entry list once for both reuse families."""
    session, root = navigation
    operation = RollUp("d0", _d0_buckets())
    target = operation.apply(root)
    session.cache.evict(root)
    cache, planning, calls = session.cache, [], []
    for name in [name for name in dir(ResultCache) if not name.startswith("_")]:
        method = getattr(cache, name)
        if callable(method):
            def recorded(*args, _name=name, _method=method, **kwargs):
                key = getattr(args[0], "canonical_key", None) if args else None
                calls.append((_name, key, bool(planning)))
                return _method(*args, **kwargs)

            monkeypatch.setattr(cache, name, recorded)
    plan = session.planner.plan

    def planned(*args, **kwargs):
        planning.append(True)
        try:
            return plan(*args, **kwargs)
        finally:
            planning.pop()

    monkeypatch.setattr(session.planner, "plan", planned)
    cube = session.transform(root, operation)
    assert cube.same_cells(Cube(AnalyticalQueryEvaluator(session.instance).answer(target), target))
    assert [name for name, _, inside in calls if not inside] == ["put"]
    assert [call for call in calls if call[:2] == ("stale_entry", target.canonical_key)] == [
        ("stale_entry", target.canonical_key, True)
    ]
    assert [name for name, _, _ in calls].count("entries_with_core") == 1
