"""Unit tests for incremental maintenance (:mod:`repro.olap.maintenance`)."""

import pytest

from repro.rdf import EX, Literal, RDF, Triple
from repro.analytics.evaluator import AnalyticalQueryEvaluator
from repro.analytics.query import AnalyticalQuery
from repro.olap.cube import Cube
from repro.olap.maintenance import DeltaMaintainer
from repro.olap.operations import Slice

from tests.conftest import make_sites_query, make_words_query

RDF_TYPE = RDF.term("type")


def _maintainer(instance):
    return DeltaMaintainer(AnalyticalQueryEvaluator(instance))


def _refresh_and_compare(instance, query, mutate):
    """Evaluate, mutate, patch — and compare against a fresh recompute."""
    evaluator = AnalyticalQueryEvaluator(instance)
    materialized = evaluator.evaluate(query)
    version = instance.version
    mutate(instance)
    delta = instance.deltas_since(version)
    assert delta is not None
    refreshed = _maintainer(instance).refresh(materialized, delta)
    assert refreshed is not None
    patched = Cube(refreshed.answer, query)
    scratch = Cube(AnalyticalQueryEvaluator(instance).answer(query), query)
    assert patched.same_cells(scratch), (patched.cells(), scratch.cells())
    # The patched partial also matches a fresh one, modulo newk() keys.
    fresh_partial = AnalyticalQueryEvaluator(instance).partial_result(query)
    keyless = ["x"] + list(query.dimension_names) + [query.measure_variable.name]
    from repro.algebra.operators import project

    assert project(refreshed.partial.storage.materialize(), keyless).bag_equal(
        project(fresh_partial.storage.materialize(), keyless)
    )
    return refreshed


def _add_blogger(instance, name, age, city, sites=(), words=()):
    user = EX.term(name)
    instance.add(Triple(user, RDF_TYPE, EX.Blogger))
    instance.add(Triple(user, EX.hasAge, Literal(age)))
    instance.add(Triple(user, EX.livesIn, EX.term(city)))
    for index, site in enumerate(sites):
        post = EX.term(f"{name}_post{index}")
        instance.add(Triple(post, RDF_TYPE, EX.BlogPost))
        instance.add(Triple(user, EX.wrotePost, post))
        instance.add(Triple(post, EX.postedOn, EX.term(site)))
    for index, count in enumerate(words):
        post = EX.term(f"{name}_wpost{index}")
        instance.add(Triple(post, RDF_TYPE, EX.BlogPost))
        instance.add(Triple(user, EX.wrotePost, post))
        instance.add(Triple(post, EX.hasWordCount, Literal(count)))


class TestAffectedFacts:
    def test_irrelevant_triples_touch_nothing(self, example2_instance, sites_query):
        maintainer = _maintainer(example2_instance)
        version = example2_instance.version
        example2_instance.add(Triple(EX.term("w1"), RDF_TYPE, EX.Website))
        delta = example2_instance.deltas_since(version)
        assert maintainer.affected_facts(sites_query, delta) == set()

    def test_added_measure_triple_flags_only_its_fact(
        self, example2_instance, sites_query
    ):
        maintainer = _maintainer(example2_instance)
        version = example2_instance.version
        post = EX.term("p9")
        example2_instance.add(Triple(post, RDF_TYPE, EX.BlogPost))
        example2_instance.add(Triple(EX.term("user1"), EX.wrotePost, post))
        example2_instance.add(Triple(post, EX.postedOn, EX.term("s2")))
        delta = example2_instance.deltas_since(version)
        affected = maintainer.affected_facts(sites_query, delta)
        assert affected == {example2_instance.encode_term(EX.term("user1"))}

    def test_removed_triple_found_through_the_overlay(
        self, example2_instance, sites_query
    ):
        """Embeddings through a *removed* triple no longer exist in the new
        graph; the overlay (new ∪ removed) still finds the fact that lost
        them."""
        maintainer = _maintainer(example2_instance)
        version = example2_instance.version
        example2_instance.remove(
            Triple(EX.term("p4"), EX.postedOn, EX.term("s2"))
        )
        delta = example2_instance.deltas_since(version)
        affected = maintainer.affected_facts(sites_query, delta)
        assert example2_instance.encode_term(EX.term("user3")) in affected

    def test_classifier_triple_flags_fact(self, example2_instance, sites_query):
        maintainer = _maintainer(example2_instance)
        version = example2_instance.version
        example2_instance.remove(Triple(EX.term("user4"), EX.livesIn, EX.term("NY")))
        delta = example2_instance.deltas_since(version)
        affected = maintainer.affected_facts(sites_query, delta)
        assert example2_instance.encode_term(EX.term("user4")) in affected


class TestRefreshEquality:
    """Patched cubes must equal from-scratch recomputation, per aggregate."""

    @pytest.mark.parametrize("aggregate", ["count", "sum", "avg", "min", "max", "count_distinct"])
    def test_additions_and_removals(self, example4_instance, aggregate):
        base = make_words_query()
        query = AnalyticalQuery(
            base.classifier, base.measure, aggregate, name=f"Q_{aggregate}"
        )

        def mutate(instance):
            _add_blogger(instance, "newbie", 28, "Madrid", words=(55, 700))
            instance.remove(Triple(EX.term("user1"), EX.wrotePost, EX.term("p2")))

        _refresh_and_compare(example4_instance, query, mutate)

    @pytest.mark.parametrize("aggregate", ["min", "max"])
    def test_extreme_value_removal_forces_group_recompute(
        self, example4_instance, aggregate
    ):
        """Deleting the row holding the group's extreme exercises the
        per-group fallback (the old cell value is no longer usable)."""
        base = make_words_query()
        query = AnalyticalQuery(
            base.classifier, base.measure, aggregate, name=f"Q_{aggregate}"
        )

        def mutate(instance):
            # p2 (120 words) is user1's max; p1 (100) the min — drop both
            # extremes of the (28, Madrid) group in turn.
            target = "p2" if aggregate == "max" else "p1"
            instance.remove(Triple(EX.term("user1"), EX.wrotePost, EX.term(target)))

        _refresh_and_compare(example4_instance, query, mutate)

    def test_fact_disappearing_entirely_drops_its_cells(
        self, example2_instance, sites_query
    ):
        def mutate(instance):
            # user4 is the only (35, NY)... no: user3 shares the group.
            # Remove user4's classifier membership entirely instead.
            instance.remove(Triple(EX.term("user4"), RDF_TYPE, EX.Blogger))

        _refresh_and_compare(example2_instance, sites_query, mutate)

    def test_new_group_appears(self, example2_instance, sites_query):
        def mutate(instance):
            _add_blogger(instance, "kyotoan", 41, "Kyoto", sites=("s1", "s3"))

        refreshed = _refresh_and_compare(example2_instance, sites_query, mutate)
        cube = Cube(refreshed.answer, sites_query)
        assert cube.cell(Literal(41), EX.term("Kyoto")) == 2

    def test_sigma_restricted_query_refreshes(self, example2_instance, sites_query):
        sliced = Slice("dage", Literal(35)).apply(sites_query)

        def mutate(instance):
            _add_blogger(instance, "userN", 35, "NY", sites=("s2",))
            _add_blogger(instance, "userM", 99, "NY", sites=("s2",))  # Σ-excluded

        refreshed = _refresh_and_compare(example2_instance, sliced, mutate)
        cube = Cube(refreshed.answer, sliced)
        assert cube.cell(Literal(35), EX.term("NY")) == 3
        assert cube.get(Literal(99), EX.term("NY")) is None

    def test_multi_valued_dimension_fanout(self, example2_instance, sites_query):
        """A blogger living in *two* cities (RDF multi-valuedness) patches
        into both groups."""

        def mutate(instance):
            _add_blogger(instance, "nomad", 28, "Madrid", sites=("s1",))
            instance.add(Triple(EX.term("nomad"), EX.livesIn, EX.term("Kyoto")))

        _refresh_and_compare(example2_instance, sites_query, mutate)


class TestRefreshProtocol:
    def test_untouched_query_returns_same_object(self, example2_instance, sites_query):
        evaluator = AnalyticalQueryEvaluator(example2_instance)
        materialized = evaluator.evaluate(sites_query)
        version = example2_instance.version
        example2_instance.add(Triple(EX.term("w1"), RDF_TYPE, EX.Website))
        delta = example2_instance.deltas_since(version)
        refreshed = _maintainer(example2_instance).refresh(materialized, delta)
        assert refreshed is materialized  # re-stamp only, no new objects

    def test_empty_delta_returns_same_object(self, example2_instance, sites_query):
        evaluator = AnalyticalQueryEvaluator(example2_instance)
        materialized = evaluator.evaluate(sites_query)
        delta = example2_instance.deltas_since(example2_instance.version)
        refreshed = _maintainer(example2_instance).refresh(materialized, delta)
        assert refreshed is materialized

    def test_fresh_keys_do_not_collide_with_retained_ones(
        self, example2_instance, sites_query
    ):
        evaluator = AnalyticalQueryEvaluator(example2_instance)
        materialized = evaluator.evaluate(sites_query)
        version = example2_instance.version
        _add_blogger(example2_instance, "userK", 28, "Madrid", sites=("s1", "s2"))
        delta = example2_instance.deltas_since(version)
        refreshed = _maintainer(example2_instance).refresh(materialized, delta)
        keys = refreshed.partial.storage.column_values(refreshed.partial.key_column)
        assert len(keys) == len(set(keys)) or _distinct_per_measure_row(refreshed)


def _distinct_per_measure_row(materialized):
    """Keys repeat only across classifier rows of one fact, never across
    measure embeddings (the Algorithm-1 dedup invariant)."""
    partial = materialized.partial
    storage = partial.storage
    key_index = storage.column_index(partial.key_column)
    measure_index = storage.column_index(partial.measure_column)
    fact_index = storage.column_index(partial.fact_column)
    seen = {}
    for row in storage.rows:
        value = seen.setdefault(row[key_index], (row[fact_index], row[measure_index]))
        if value != (row[fact_index], row[measure_index]):
            return False
    return True


class TestPlannerIntegration:
    def test_refresh_cached_wins_when_cheapest(self, small_blogger_dataset):
        """A stale DRILL-OUT entry: patching its pres (0.25/row) undercuts
        the per-row grouping rewrite (2/row) and scratch, so the planner
        must choose refresh-cached — and the cube must match scratch."""
        from repro.datagen.blogger import sites_per_blogger_query
        from repro.olap.operations import DrillOut
        from repro.olap.session import OLAPSession

        instance = small_blogger_dataset.instance.copy()
        query = sites_per_blogger_query(small_blogger_dataset.schema)
        session = OLAPSession(instance, small_blogger_dataset.schema)
        session.execute(query)
        operation = DrillOut("dage")
        session.transform(query, operation, strategy="plan")
        _add_blogger(instance, "fresh_user", 33, "Madrid", sites=("site_1",))
        cube = session.transform(query, operation, strategy="plan")
        assert session.history[-1].strategy == "plan[refresh-cached]"
        explanation = session.explain_last()
        assert "refresh-cached" in explanation
        transformed = operation.apply(query)
        scratch = Cube(
            AnalyticalQueryEvaluator(instance).answer(transformed), transformed
        )
        assert cube.same_cells(scratch)

    def test_refresh_cached_loses_to_fresh_exact_hit(self, example2_instance, sites_query):
        """A fresh exact entry must still be served as plan[cached] — the
        refresh candidate is only enumerated for stale entries."""
        from repro.olap.session import OLAPSession

        session = OLAPSession(example2_instance)
        session.execute(sites_query)
        operation = Slice("dage", Literal(35))
        session.transform(sites_query, operation, strategy="plan")
        cube = session.transform(sites_query, operation, strategy="plan")
        assert session.history[-1].strategy == "plan[cached]"
        assert "refresh-cached" not in session.explain_last()
        transformed = operation.apply(sites_query)
        scratch = Cube(
            AnalyticalQueryEvaluator(example2_instance).answer(transformed), transformed
        )
        assert cube.same_cells(scratch)


class TestCostEstimates:
    def test_small_delta_refresh_beats_scratch(self, small_blogger_dataset):
        from repro.datagen.blogger import sites_per_blogger_query

        instance = small_blogger_dataset.instance.copy()
        query = sites_per_blogger_query(small_blogger_dataset.schema)
        evaluator = AnalyticalQueryEvaluator(instance)
        maintainer = DeltaMaintainer(evaluator)
        materialized = evaluator.evaluate(query)
        version = instance.version
        _add_blogger(instance, "bench_userA", 30, "Madrid", sites=("s1",))
        delta = instance.deltas_since(version)
        refresh_cost = maintainer.estimate_refresh_cost(materialized, delta)
        scratch_cost = maintainer.estimate_scratch_cost(query)
        assert refresh_cost < scratch_cost

    def test_cost_grows_with_delta_size(self, example2_instance, sites_query):
        evaluator = AnalyticalQueryEvaluator(example2_instance)
        maintainer = DeltaMaintainer(evaluator)
        materialized = evaluator.evaluate(sites_query)
        version = example2_instance.version
        _add_blogger(example2_instance, "d1", 20, "Rome", sites=("s1",))
        small = example2_instance.deltas_since(version)
        small_cost = maintainer.estimate_refresh_cost(materialized, small)
        for index in range(10):
            _add_blogger(example2_instance, f"d2_{index}", 21 + index, "Rome", sites=("s1", "s2"))
        large = example2_instance.deltas_since(version)
        assert maintainer.estimate_refresh_cost(materialized, large) > small_cost
