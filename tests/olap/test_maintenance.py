"""Unit tests for incremental maintenance (:mod:`repro.olap.maintenance`)."""

import pytest

from repro.errors import AggregationError
from repro.rdf import EX, Literal, RDF, Triple
from repro.algebra.operators import project
from repro.analytics.evaluator import AnalyticalQueryEvaluator
from repro.analytics.query import AnalyticalQuery
from repro.olap.cube import Cube
from repro.olap.maintenance import DeltaMaintainer
from repro.olap.operations import Slice
from repro.olap.session import OLAPSession

from tests.conftest import make_sites_query, make_words_query
from tests.naive_oracle import NaiveAnalyticalEvaluator

RDF_TYPE = RDF.term("type")


def _maintainer(instance):
    return DeltaMaintainer(AnalyticalQueryEvaluator(instance))


def _refresh_step(instance, query, materialized, mutate, engine=None):
    """Mutate, patch ``materialized`` — and compare against fresh recomputes."""
    version = instance.version
    mutate(instance)
    delta = instance.deltas_since(version)
    assert delta is not None
    evaluator = AnalyticalQueryEvaluator(instance, engine=engine)
    refreshed = DeltaMaintainer(evaluator).refresh(materialized, delta)
    assert refreshed is not None
    patched = Cube(refreshed.answer, query)
    scratch = Cube(evaluator.answer(query), query)
    assert patched.same_cells(scratch), (patched.cells(), scratch.cells())
    try:
        naive = Cube(NaiveAnalyticalEvaluator(instance).answer(query), query)
    except AggregationError:
        pass  # the naive γ has no "undefined group": nothing to compare against
    else:
        assert patched.same_cells(naive), (patched.cells(), naive.cells())
    # The patched partial also matches a fresh one, modulo newk() keys.
    fresh_partial = evaluator.partial_result(query)
    keyless = ["x"] + list(query.dimension_names) + [query.measure_variable.name]
    assert project(refreshed.partial.storage.materialize(), keyless).bag_equal(
        project(fresh_partial.storage.materialize(), keyless)
    )
    return refreshed


def _refresh_and_compare(instance, query, mutate, engine=None):
    """Evaluate, then one :func:`_refresh_step`."""
    materialized = AnalyticalQueryEvaluator(instance, engine=engine).evaluate(query)
    return _refresh_step(instance, query, materialized, mutate, engine)


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


# -- the refresh matrix: aggregates x engines x update shapes ----------------
#
# Over Example 4's instance: (28, Madrid) holds user1 {100, 120} and user4
# {410}; (35, NY) holds user3 {570}.  A scenario is an optional preparation
# (applied before the query is first evaluated) and the update steps, each
# refreshed and compared in turn.

_USER1, _USER3, _USER4 = EX.term("user1"), EX.term("user3"), EX.term("user4")
_P3_WORDS = Triple(EX.term("p3"), EX.hasWordCount, Literal(570))
_P1_MANY = Triple(EX.term("p1"), EX.hasWordCount, Literal("many"))
_GIANT_WORDS = Triple(EX.term("giant_wpost0"), EX.hasWordCount, Literal(1e16))


def _add_only(instance):
    _add_blogger(instance, "newbie", 28, "Madrid", words=(55, 700))


def _remove_only(instance):
    instance.remove(Triple(_USER1, EX.wrotePost, EX.term("p2")))


def _mixed(instance):
    _add_blogger(instance, "newbie", 35, "NY", words=(7,))
    instance.remove(Triple(_USER1, EX.wrotePost, EX.term("p1")))


def _fact_vanishes(instance):
    instance.remove(Triple(_USER4, RDF_TYPE, EX.Blogger))  # user1 keeps the group


def _group_vanishes(instance):
    instance.remove(_P3_WORDS)  # user3 was all of (35, NY)


def _new_group(instance):
    _add_blogger(instance, "kyotoan", 41, "Kyoto", words=(9, 11))


def _second_city(instance):
    instance.add(Triple(_USER1, EX.livesIn, EX.term("Kyoto")))


def _leave_first_city(instance):
    instance.remove(Triple(_USER1, EX.livesIn, EX.term("Madrid")))


def _float_group(instance):
    """(35, NY) becomes {1e16, 1.0}, the two measures on different facts."""
    instance.remove(_P3_WORDS)
    instance.add(Triple(EX.term("p3"), EX.hasWordCount, Literal(1.0)))
    _add_blogger(instance, "giant", 35, "NY", words=(1e16,))


_SCENARIOS = {
    "add-only": (None, [_add_only]),
    "remove-only": (None, [_remove_only]),
    "mixed": (None, [_mixed]),
    "fact-vanishes": (None, [_fact_vanishes]),
    "group-vanishes": (None, [_group_vanishes]),
    "new-group": (None, [_new_group]),
    "multi-valued-dimension": (None, [_second_city, _leave_first_city]),
    # sum/avg leave the group undefined while the string is in it, and must
    # bring the cell back once it leaves.
    "non-numeric-in-and-out": (
        None,
        [lambda instance: instance.add(_P1_MANY), lambda instance: instance.remove(_P1_MANY)],
    ),
    # No aggregate may be inverted: 1e16 + 1.0 - 1e16 is 0.0 in floats.
    "float-cancellation": (_float_group, [lambda instance: instance.remove(_GIANT_WORDS)]),
}
_AGGREGATES = ["count", "sum", "avg", "min", "max", "count_distinct"]


class TestRefreshMatrix:
    """refreshed == scratch == naive oracle, whatever the aggregate, the
    engine or the shape of the update."""

    @pytest.mark.parametrize("scenario", sorted(_SCENARIOS))
    @pytest.mark.parametrize("engine", ["rows", "columnar"])
    @pytest.mark.parametrize("aggregate", _AGGREGATES)
    def test_refresh_equals_scratch(self, example4_instance, aggregate, engine, scenario):
        if engine == "columnar":
            pytest.importorskip("numpy")
        if scenario == "non-numeric-in-and-out" and aggregate in ("min", "max"):
            pytest.skip("min/max over a string and numbers raise in scratch evaluation too")
        prepare, steps = _SCENARIOS[scenario]
        if prepare is not None:
            prepare(example4_instance)
        base = make_words_query()
        query = AnalyticalQuery(base.classifier, base.measure, aggregate, name=f"Q_{aggregate}")
        materialized = AnalyticalQueryEvaluator(example4_instance, engine=engine).evaluate(query)
        for step in steps:
            materialized = _refresh_step(example4_instance, query, materialized, step, engine)

    @pytest.mark.parametrize("aggregate", ["sum", "avg"])
    def test_session_refresh_survives_float_cancellation(self, aggregate):
        """End to end through ``session.execute``: the group {1e16, 1.0}
        loses its 1e16 and must be served as 1.0 (subtracting 1e16 from the
        cached sum gave 0.0)."""
        from repro.datagen.generic import GenericConfig, generic_dataset, generic_query

        dataset = generic_dataset(GenericConfig(facts=30, dimensions=1, seed=3))
        instance = dataset.instance
        group = EX.term("dim0/lonely")
        for name, value in (("fact/giant", 1e16), ("fact/unit", 1.0)):
            fact = EX.term(name)
            instance.add(Triple(fact, RDF_TYPE, EX.term("Fact")))
            instance.add(Triple(fact, EX.term("dim0"), group))
            instance.add(Triple(fact, EX.measure, Literal(value)))
        query = generic_query(dataset.config, aggregate=aggregate)
        session = OLAPSession(instance, dataset.schema)
        session.execute(query)
        instance.remove(Triple(EX.term("fact/giant"), EX.measure, Literal(1e16)))
        cube = session.execute(query)
        assert session.history[-1].strategy == "refresh"
        assert cube.cell(group) == 1.0
        assert cube.same_cells(Cube(AnalyticalQueryEvaluator(instance).answer(query), query))


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

    def test_one_gamma_call_over_the_touched_groups_only(
        self, example2_instance, sites_query, monkeypatch
    ):
        """Step 3 is one ``answer_from_partial`` over the rows of the touched
        groups of the patched pres — not over all of it, and not at all when
        the delta misses the query."""
        evaluator = AnalyticalQueryEvaluator(example2_instance)
        materialized = evaluator.evaluate(sites_query)
        seen = []
        gamma = AnalyticalQueryEvaluator.answer_from_partial

        def counting(self, query, partial):
            seen.append(partial.relation)
            return gamma(self, query, partial)

        monkeypatch.setattr(AnalyticalQueryEvaluator, "answer_from_partial", counting)
        version = example2_instance.version
        example2_instance.add(Triple(EX.term("w1"), RDF_TYPE, EX.Website))
        untouched = _maintainer(example2_instance).refresh(
            materialized, example2_instance.deltas_since(version)
        )
        assert untouched is materialized and seen == []

        _add_blogger(example2_instance, "userK", 28, "Madrid", sites=("s1", "s2"))
        refreshed = _maintainer(example2_instance).refresh(
            materialized, example2_instance.deltas_since(version)
        )
        assert len(seen) == 1
        (aggregated,) = seen
        groups = set(project(aggregated, list(sites_query.dimension_names)).rows)
        assert groups == {(Literal(28), EX.term("Madrid"))}
        assert 0 < len(aggregated) < len(refreshed.partial)
        madrid_rows = [
            row for row in refreshed.partial.relation.rows if row[1:3] == (Literal(28), EX.term("Madrid"))
        ]
        assert len(aggregated) == len(madrid_rows)

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

    def test_a_stale_origin_is_patched_without_being_planned(
        self, small_blogger_dataset, monkeypatch
    ):
        """DRILL-OUT over a stale origin: ``transform`` looks the origin up (one
        miss), patches it through ``refresh_stale`` — priced once, with no
        ``plan_query`` of its own — then plans the target (the second miss),
        ranking a rewrite of the patched pres."""
        from repro.datagen.blogger import sites_per_blogger_query
        from repro.olap.operations import DrillOut

        instance = small_blogger_dataset.instance.copy()
        query = sites_per_blogger_query(small_blogger_dataset.schema)
        session = OLAPSession(instance, small_blogger_dataset.schema)
        session.execute(query)
        _add_blogger(instance, "origin_user", 33, "Madrid", sites=("site_1",))
        planner, planned, priced = session.planner, [], []
        plan_query, refresh_candidate = planner.plan_query, planner._refresh_candidate
        monkeypatch.setattr(planner, "plan_query", lambda q: planned.append(q) or plan_query(q))
        monkeypatch.setattr(
            planner, "_refresh_candidate", lambda *args: priced.append(args[0]) or refresh_candidate(*args)
        )
        misses = session.cache.stats.misses
        cube = session.transform(query, DrillOut("dage"))
        assert session.cache.stats.misses - misses == 2
        assert planned == [] and priced == [query]
        assert session.cache.stats.refreshes == 1
        assert "rewrite[drill-out/pres]" in session.explain_last()  # the origin is fresh again
        transformed = DrillOut("dage").apply(query)
        scratch = Cube(AnalyticalQueryEvaluator(instance).answer(transformed), transformed)
        assert cube.same_cells(scratch)

    def test_a_stale_origin_not_worth_patching_is_dropped(self, example2_instance, sites_query):
        """Its delta only grows, so a later read would recompute it anyway."""
        session = OLAPSession(example2_instance)
        session.execute(sites_query)
        for index in range(40):
            _add_blogger(example2_instance, f"bulk{index}", 20 + index, "Rome", sites=("s1", "s2"))
        operation = Slice("dage", Literal(35))
        cube = session.transform(sites_query, operation)
        assert session.cache.stale_entry(sites_query, example2_instance) is None
        assert session.cache.stats.invalidations == 1
        assert session.cache.stats.refreshes == 0
        transformed = operation.apply(sites_query)
        scratch = Cube(AnalyticalQueryEvaluator(example2_instance).answer(transformed), transformed)
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
    """``(refresh-cached, scratch)`` costs of one stale cache entry, as
    ``plan_query`` ranks them."""

    @staticmethod
    def _priced(session, query):
        costs = {c.strategy: c.cost for c in session.planner.plan_query(query).candidates}
        return costs["refresh-cached"], costs["scratch"]

    def test_small_delta_refresh_beats_scratch(self, small_blogger_dataset):
        from repro.datagen.blogger import sites_per_blogger_query

        instance = small_blogger_dataset.instance.copy()
        query = sites_per_blogger_query(small_blogger_dataset.schema)
        session = OLAPSession(instance)
        session.execute(query)
        _add_blogger(instance, "bench_userA", 30, "Madrid", sites=("s1",))
        refresh_cost, scratch_cost = self._priced(session, query)
        assert refresh_cost < scratch_cost

    def test_cost_grows_with_delta_size(self, example2_instance, sites_query):
        session = OLAPSession(example2_instance)
        session.execute(sites_query)
        _add_blogger(example2_instance, "d1", 20, "Rome", sites=("s1",))
        small_cost, _ = self._priced(session, sites_query)
        for index in range(10):
            _add_blogger(example2_instance, f"d2_{index}", 21 + index, "Rome", sites=("s1", "s2"))
        large_cost, _ = self._priced(session, sites_query)
        assert large_cost > small_cost


class TestRefreshWorkIsDeltaSized:
    """A refresh evaluates the affected facts as one set and unifies the
    delta once per wave, whatever the batch size and however many entries
    share the bodies."""

    @pytest.fixture(params=["rows", "columnar"])
    def engine(self, request):
        if request.param == "columnar":
            pytest.importorskip("numpy")
        return request.param

    @pytest.mark.parametrize("facts", [3, 7])
    def test_one_seeded_pres_per_refresh_whatever_the_batch(
        self, example4_instance, engine, facts, monkeypatch
    ):
        query = make_words_query()
        evaluator = AnalyticalQueryEvaluator(example4_instance, engine=engine)
        materialized = evaluator.evaluate(query)
        version = example4_instance.version
        for index in range(facts):
            name = f"batch{index}"
            _add_blogger(example4_instance, name, 28 + index % 2, "Madrid", words=(index + 1,))
        delta = example4_instance.deltas_since(version)
        maintainer = DeltaMaintainer(evaluator)
        assert len(maintainer.affected_facts(query, delta)) == facts

        live = evaluator.bgp_evaluator
        calls = []
        evaluate_ids = live.evaluate_ids

        def counting(*args, **kwargs):
            calls.append(args[0])
            return evaluate_ids(*args, **kwargs)

        monkeypatch.setattr(live, "evaluate_ids", counting)
        refreshed = maintainer.refresh(materialized, delta)
        assert calls == [query.classifier, query.measure]
        monkeypatch.undo()
        scratch = AnalyticalQueryEvaluator(example4_instance, engine=engine).answer(query)
        assert Cube(refreshed.answer, query).same_cells(Cube(scratch, query))

    def test_pricing_and_probes_unify_each_delta_triple_once(
        self, example4_instance, engine, monkeypatch
    ):
        query = make_words_query()
        sliced = Slice("dage", Literal(28)).apply(query)  # same bodies, other Σ
        session = OLAPSession(example4_instance, engine=engine)
        session.execute(query)
        session.execute(sliced)
        _add_blogger(example4_instance, "newbie", 28, "Madrid", words=(55, 700))
        example4_instance.remove(Triple(EX.term("user1"), EX.wrotePost, EX.term("p2")))

        calls = []
        unify = DeltaMaintainer._unify_ids

        def counting(self, pattern, triple):
            calls.append((pattern, triple))
            return unify(self, pattern, triple)

        _, delta = session.cache.stale_entry(query, example4_instance)
        monkeypatch.setattr(DeltaMaintainer, "_unify_ids", counting)
        for each in (query, sliced):
            session.planner.plan_query(each)
            assert session.cache.refresh(each, example4_instance, session.planner.maintainer) is not None
        patterns = set(query.classifier.body) | set(query.measure.body)
        triples = delta.added + delta.removed
        assert len(calls) == len(set(calls)) == len(patterns) * len(triples)
        monkeypatch.undo()
        for each in (query, sliced):
            cube = session.execute(each)
            assert session.history[-1].strategy == "cache"
            oracle = AnalyticalQueryEvaluator(example4_instance, engine=engine).answer(each)
            assert cube.same_cells(Cube(oracle, each))

    def test_one_fact_splices_by_position(self, monkeypatch):
        """A 1-fact refresh on a 10k-row columnar pres sorts, ranks and
        isin-tests no pres- or ans-length array, converts no rows, decodes
        only the touched cells' ids and keeps pres in fact order."""
        np = pytest.importorskip("numpy")
        from repro.algebra.columnar import ROW_CONVERSIONS
        from repro.datagen.generic import GenericConfig, generic_dataset, generic_query

        config = GenericConfig(
            facts=3000, dimension_cardinality=40, measures_per_fact=4.0, with_detail=False, seed=9
        )
        dataset = generic_dataset(config)
        instance, query = dataset.instance, generic_query(config, aggregate="count")
        evaluator = AnalyticalQueryEvaluator(instance, engine="columnar")
        materialized = evaluator.evaluate(query)
        Cube(materialized.answer, query)  # decoded, as a served entry is
        floor = min(len(materialized.partial), len(materialized.answer))
        assert len(materialized.partial) >= 10_000 and floor > 1000

        version = instance.version
        fact, groups = EX.term("fact/new"), (EX.term("dimvalue/0/3"), EX.term("dimvalue/1/7"))
        instance.add(Triple(fact, RDF_TYPE, EX.term("Fact")))
        for dimension, value in enumerate(groups):
            instance.add(Triple(fact, EX.term(f"dim{dimension}"), value))
        instance.add(Triple(fact, EX.measure, Literal(5)))
        delta = instance.deltas_since(version)
        # The statistics' own re-read decodes each predicate and class once.
        evaluator.bgp_evaluator.statistics.refresh()

        large = []
        for name in ("sort", "argsort", "unique", "lexsort", "isin"):
            def counting(array, *args, _name=name, _function=getattr(np, name), **kwargs):
                if np.ndim(array) and np.shape(array)[-1] >= floor:
                    large.append((_name, np.shape(array)[-1]))
                return _function(array, *args, **kwargs)

            monkeypatch.setattr(np, name, counting)
        decoded = []
        decode, gather = instance.dictionary.decode, instance.dictionary.decode_many
        monkeypatch.setattr(
            instance.dictionary, "decode", lambda term_id: decoded.append(term_id) or decode(term_id)
        )
        monkeypatch.setattr(
            instance.dictionary, "decode_many", lambda ids: decoded.extend(ids.tolist()) or gather(ids)
        )
        conversions = ROW_CONVERSIONS.copy()
        refreshed = DeltaMaintainer(evaluator).refresh(materialized, delta)
        assert not large
        assert ROW_CONVERSIONS == conversions
        assert decoded and set(decoded) <= set(map(instance.dictionary.lookup, groups))
        monkeypatch.undo()

        facts = refreshed.partial.storage.column_array("x")
        assert (facts[1:] >= facts[:-1]).all()
        keyless = ["x", *query.dimension_names, query.measure_variable.name]
        scratch = evaluator.partial_result(query)
        assert project(refreshed.partial.storage, keyless).bag_equal(project(scratch.storage, keyless))
        assert Cube(refreshed.answer, query).same_cells(Cube(evaluator.answer(query), query))


class TestClosureSyncIsDeltaSized:
    """Under ``entailment="saturate"`` an instance-data write moves the ρdf
    closure by its support counts — no schema recompilation, no rebuild, no
    walk of the source — and a write to the schema moves it by its
    difference; either way the cached cube is patched, not recomputed."""

    @pytest.fixture(params=["rows", "columnar"])
    def engine(self, request):
        if request.param == "columnar":
            pytest.importorskip("numpy")
        return request.param

    @pytest.fixture()
    def warm(self, small_retail_dataset, engine):
        from repro.datagen.retail import revenue_query

        source = small_retail_dataset.instance.copy()
        query = revenue_query(small_retail_dataset.schema)
        session = OLAPSession(
            source, small_retail_dataset.schema, engine=engine, entailment="saturate"
        )
        session.execute(query)
        yield source, session, query
        session.close()

    @staticmethod
    def _read_is_refresh(source, session, query):
        from repro.rdf.reasoning import saturate

        cube = session.execute(query)
        assert session.history[-1].strategy == "refresh"
        oracle = AnalyticalQueryEvaluator(saturate(source), engine=session.engine).answer(query)
        assert cube.same_cells(Cube(oracle, query))

    def _guarded_write(self, warm, monkeypatch, write):
        from repro.rdf.graph import Graph
        from repro.rdf.reasoning import RDFSRules

        source, session, query = warm

        def forbidden(*_args, **_kwargs):
            raise AssertionError("whole-closure work on a one-triple write")

        monkeypatch.setattr(RDFSRules, "__init__", forbidden)
        monkeypatch.setattr(Graph, "clear", forbidden)
        monkeypatch.setattr(Graph, "__iter__", forbidden)
        monkeypatch.setattr(Graph, "encoded_triples", forbidden)
        write(source)
        session.sync()
        monkeypatch.undo()
        self._read_is_refresh(source, session, query)

    def test_one_triple_add(self, warm, monkeypatch):
        sale = EX.term("sale/t0")
        self._guarded_write(
            warm, monkeypatch, lambda source: source.add(Triple(sale, EX.hasPromoAmount, Literal(9)))
        )

    def test_one_triple_removal(self, warm, monkeypatch):
        source, _, _ = warm
        (amount, *_) = sorted(source.triples(None, EX.hasAmount, None), key=repr)
        self._guarded_write(warm, monkeypatch, lambda source: source.remove(amount))

    def test_schema_triple_add(self, warm):
        from repro.rdf.namespaces import RDFS

        source, session, query = warm
        source.add(Triple(EX.hasCouponAmount, RDFS.term("subPropertyOf"), EX.hasAmount))
        sale = EX.term("sale/t1")
        source.add(Triple(sale, EX.hasCouponAmount, Literal(5)))
        self._read_is_refresh(source, session, query)
        closure_version = session.instance.version
        source.add(Triple(EX.hasCouponAmount, RDFS.term("subPropertyOf"), EX.hasPromoAmount))
        session.sync()
        assert session.instance.version > closure_version  # moved by its difference
        self._read_is_refresh(source, session, query)
