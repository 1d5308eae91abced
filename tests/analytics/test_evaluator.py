"""Tests for from-scratch AnQ evaluation against the paper's worked examples."""

from collections import Counter

import pytest

from repro.rdf import EX, Literal
from repro.algebra.operators import dedup, project
from repro.analytics.answer import KeyGenerator
from repro.analytics.evaluator import AnalyticalQueryEvaluator
from repro.analytics.query import KEY_COLUMN
from repro.analytics.sigma import DimensionRestriction

from tests.conftest import make_sites_query, make_words_query
from tests.definitions import (
    answer_definition1,
    classifier_result,
    extended_measure_result,
    intermediary_result,
    measure_result,
)


class TestKeyGenerator:
    def test_sequential_keys(self):
        newk = KeyGenerator()
        assert [newk(), newk(), newk()] == [1, 2, 3]

    def test_custom_start(self):
        newk = KeyGenerator(start=10)
        assert newk() == 10


class TestExample2:
    """Example 2: count of posting sites by (age, city)."""

    def test_classifier_result(self, example2_instance, sites_query):
        evaluator = AnalyticalQueryEvaluator(example2_instance)
        result = classifier_result(evaluator, sites_query)
        assert len(set(result.rows)) == len(result)  # classifier has set semantics: no dup rows
        rows = set(result.rows)
        assert rows == {
            (EX.user1, Literal(28), EX.term("Madrid")),
            (EX.user3, Literal(35), EX.term("NY")),
            (EX.user4, Literal(35), EX.term("NY")),
        }

    def test_measure_result_is_a_bag(self, example2_instance, sites_query):
        evaluator = AnalyticalQueryEvaluator(example2_instance)
        result = measure_result(evaluator, sites_query)
        multiset = result.to_multiset()
        # user1's bag is {|s1, s1, s2|}: two embeddings onto s1.
        assert multiset[(EX.user1, EX.term("s1"))] == 2
        assert multiset[(EX.user1, EX.term("s2"))] == 1
        assert multiset[(EX.user3, EX.term("s2"))] == 1
        assert multiset[(EX.user4, EX.term("s3"))] == 1

    def test_extended_measure_result_keys_every_tuple(self, example2_instance, sites_query):
        evaluator = AnalyticalQueryEvaluator(example2_instance)
        keyed = extended_measure_result(evaluator, sites_query)
        assert keyed.columns == (KEY_COLUMN, "x", "vsite")
        keys = keyed.column_values(KEY_COLUMN)
        assert len(keys) == len(set(keys)) == 5
        # Dropping the key recovers exactly the bag m(I).
        assert project(keyed, ("x", "vsite")).bag_equal(measure_result(evaluator, sites_query))

    def test_answer_matches_example2(self, example2_instance, sites_query):
        evaluator = AnalyticalQueryEvaluator(example2_instance)
        answer = evaluator.answer(sites_query)
        cells = {row[:2]: row[2] for row in answer.relation}
        assert cells == {
            (Literal(28), EX.term("Madrid")): 3,
            (Literal(35), EX.term("NY")): 2,
        }

    def test_equation3_matches_definition1(self, example2_instance, sites_query):
        evaluator = AnalyticalQueryEvaluator(example2_instance)
        via_pres = evaluator.answer(sites_query)
        via_definition = answer_definition1(evaluator, sites_query)
        assert dedup(via_pres.relation).bag_equal(dedup(via_definition.relation))


class TestExample4:
    """Example 4: average word count by (age, city)."""

    def test_partial_result_layout_and_contents(self, example4_instance, words_query):
        evaluator = AnalyticalQueryEvaluator(example4_instance)
        partial = evaluator.partial_result(words_query)
        assert partial.columns == ("x", "dage", "dcity", "k", "vwords")
        assert len(partial) == 4
        assert partial.facts() == {EX.user1, EX.user3, EX.user4}

    def test_answer_matches_example4(self, example4_instance, words_query):
        evaluator = AnalyticalQueryEvaluator(example4_instance)
        answer = evaluator.answer(words_query)
        cells = {(row[0], row[1]): row[2] for row in answer.relation}
        assert cells[(Literal(28), EX.term("Madrid"))] == pytest.approx(210.0)
        assert cells[(Literal(35), EX.term("NY"))] == pytest.approx(570.0)

    def test_dice_restriction_on_sigma(self, example4_instance, words_query):
        """The Σ-restricted query of Example 4 keeps only the 20-30 age range."""
        evaluator = AnalyticalQueryEvaluator(example4_instance)
        diced = words_query.with_sigma(
            words_query.sigma.restrict("dage", DimensionRestriction.to_range(20, 30))
        )
        answer = evaluator.answer(diced)
        cells = {(row[0], row[1]): row[2] for row in answer.relation}
        assert cells == {(Literal(28), EX.term("Madrid")): pytest.approx(210.0)}

    def test_facts_without_measures_do_not_contribute(self, example4_instance, words_query):
        """A blogger with age and city but no posts yields no cube cell."""
        from repro.rdf import RDF, Triple

        example4_instance.add(Triple(EX.term("user9"), RDF.term("type"), EX.Blogger))
        example4_instance.add(Triple(EX.term("user9"), EX.hasAge, Literal(50)))
        example4_instance.add(Triple(EX.term("user9"), EX.livesIn, EX.term("Oslo")))
        evaluator = AnalyticalQueryEvaluator(example4_instance)
        answer = evaluator.answer(words_query)
        ages = {row[0] for row in answer.relation}
        assert Literal(50) not in ages

    def test_facts_without_dimension_values_do_not_contribute(self, example4_instance, words_query):
        """A blogger with posts but no city is absent from the classifier, hence the cube."""
        from repro.rdf import RDF, Triple

        example4_instance.add(Triple(EX.term("user8"), RDF.term("type"), EX.Blogger))
        example4_instance.add(Triple(EX.term("user8"), EX.hasAge, Literal(60)))
        example4_instance.add(Triple(EX.term("user8"), EX.wrotePost, EX.term("p9")))
        example4_instance.add(Triple(EX.term("p9"), EX.hasWordCount, Literal(1000)))
        evaluator = AnalyticalQueryEvaluator(example4_instance)
        answer = evaluator.answer(words_query)
        assert all(row[0] != Literal(60) for row in answer.relation)


class TestIntermediaryResult:
    def test_equation1_pres_projection_equals_int_projection(self, example2_instance, sites_query):
        """π_{x,d,v}(int(Q)) = π_{x,d,v}(pres(Q)) — Equation (1)."""
        evaluator = AnalyticalQueryEvaluator(example2_instance)
        partial = evaluator.partial_result(sites_query)
        intermediary = intermediary_result(evaluator, sites_query)
        columns = ("x", "dage", "dcity", "vsite")
        assert dedup(project(partial.relation, columns)).bag_equal(
            dedup(project(intermediary, columns))
        )

    def test_int_contains_measure_body_variables(self, example2_instance, sites_query):
        evaluator = AnalyticalQueryEvaluator(example2_instance)
        intermediary = intermediary_result(evaluator, sites_query)
        assert "p" in intermediary.columns  # the existential post variable

    def test_clashing_measure_variable_is_renamed(self, example2_instance):
        """A measure body variable named like a classifier dimension must not collide."""
        from repro.bgp.parser import parse_query
        from repro.analytics.query import AnalyticalQuery

        classifier = parse_query(
            "c(?x, ?dage) :- ?x rdf:type ex:Blogger, ?x ex:hasAge ?dage"
        )
        measure = parse_query(
            "m(?x, ?vsite) :- ?x ex:wrotePost ?dage, ?dage ex:postedOn ?vsite"
        )
        query = AnalyticalQuery(classifier, measure, "count")
        evaluator = AnalyticalQueryEvaluator(example2_instance)
        intermediary = intermediary_result(evaluator, query)
        assert "m_dage" in intermediary.columns


class TestMaterializedResults:
    def test_evaluate_keeps_answer_and_partial(self, example2_instance, sites_query):
        evaluator = AnalyticalQueryEvaluator(example2_instance)
        materialized = evaluator.evaluate(sites_query)
        assert len(materialized.answer) == 2
        assert len(materialized.partial) == 5

    def test_empty_instance_gives_empty_answer(self, sites_query):
        from repro.rdf import Graph

        evaluator = AnalyticalQueryEvaluator(Graph())
        assert len(evaluator.answer(sites_query)) == 0


def _keyless_rows(partial):
    """pres(Q) rows in id space without the newk() key, as a bag."""
    columns = [name for name in partial.columns if name != partial.key_column]
    return Counter(project(partial.storage, columns).rows)


class TestSeededPartialResult:
    """``partial_result(seed=facts)`` — how a delta refresh re-derives its
    affected facts — is the full pres(Q) restricted to those facts."""

    @pytest.mark.parametrize("engine", ["rows", "columnar"])
    def test_seed_restricts_pres_to_its_facts(self, example2_instance, sites_query, engine):
        if engine == "columnar":
            pytest.importorskip("numpy")
        evaluator = AnalyticalQueryEvaluator(example2_instance, engine=engine)
        seed = [example2_instance.encode_term(fact) for fact in (EX.user4, EX.user1)]
        seeded = evaluator.partial_result(sites_query, key_generator=KeyGenerator(100), seed=seed)
        full = _keyless_rows(evaluator.partial_result(sites_query))
        expected = Counter({row: n for row, n in full.items() if row[0] in seed})
        assert _keyless_rows(seeded) == expected
        assert seeded.facts() == {EX.user1, EX.user4}
        # One fresh key per measure embedding, drawn from the caller's generator.
        keys = seeded.storage.column_values(KEY_COLUMN)
        assert sorted(keys) == list(range(100, 100 + len(keys)))

    def test_empty_seed_is_an_empty_pres(self, example2_instance, sites_query):
        evaluator = AnalyticalQueryEvaluator(example2_instance)
        seeded = evaluator.partial_result(sites_query, seed=[])
        assert len(seeded) == 0
        assert seeded.columns == evaluator.partial_result(sites_query).columns
