"""Unit tests for the id-space relation representation and its operators."""

import pytest

from repro.errors import SchemaMismatchError
from repro.rdf import EX, Graph, Literal, RDF, Triple
from repro.rdf.terms import Variable
from repro.rdf.triples import TriplePattern
from repro.bgp.evaluator import BGPEvaluator
from repro.bgp.query import BGPQuery
from repro.algebra.operators import dedup, join_on, project, rename, select, union_all
from repro.algebra.grouping import group_aggregate
from repro.algebra.relation import IdRelation, Relation
from repro.analytics.sigma import DimensionRestriction
from tests.conftest import sigma_predicate

RDF_TYPE = RDF.term("type")


@pytest.fixture()
def graph() -> Graph:
    graph = Graph()
    for user, age, city in (
        ("u1", 28, "Madrid"),
        ("u2", 35, "NY"),
        ("u3", 35, "Madrid"),
    ):
        subject = EX.term(user)
        graph.add(Triple(subject, RDF_TYPE, EX.Blogger))
        graph.add(Triple(subject, EX.hasAge, Literal(age)))
        graph.add(Triple(subject, EX.livesIn, EX.term(city)))
    return graph


@pytest.fixture()
def people(graph) -> IdRelation:
    x, age, city = Variable("x"), Variable("age"), Variable("city")
    query = BGPQuery(
        [x, age, city],
        [
            TriplePattern(x, RDF_TYPE, EX.Blogger),
            TriplePattern(x, EX.hasAge, age),
            TriplePattern(x, EX.livesIn, city),
        ],
    )
    return BGPEvaluator(graph).evaluate_ids(query)


class TestIdRelation:
    def test_evaluate_ids_returns_encoded_relation(self, people, graph):
        assert isinstance(people, IdRelation)
        assert people.dictionary is graph.dictionary
        assert people.encoded_columns == {"x", "age", "city"}
        assert all(isinstance(value, int) for row in people for value in row)

    def test_materialize_decodes_every_column(self, people):
        decoded = people.materialize()
        assert not isinstance(decoded, IdRelation)
        assert set(decoded.rows) == {
            (EX.term("u1"), Literal(28), EX.term("Madrid")),
            (EX.term("u2"), Literal(35), EX.term("NY")),
            (EX.term("u3"), Literal(35), EX.term("Madrid")),
        }

    def test_iter_decoded_matches_materialize(self, people):
        assert list(people.iter_decoded()) == people.materialize().rows

    def test_evaluate_equals_materialized_evaluate_ids(self, graph):
        x = Variable("x")
        query = BGPQuery([x], [TriplePattern(x, RDF_TYPE, EX.Blogger)])
        evaluator = BGPEvaluator(graph)
        assert evaluator.evaluate(query).bag_equal(evaluator.evaluate_ids(query).materialize())

    def test_bag_equality_across_spaces(self, people):
        assert people.bag_equal(people.materialize())
        assert people.materialize().bag_equal(people)


class TestOperatorsPreserveEncoding:
    def test_select_compiled_predicate_stays_encoded(self, people):
        selected = select(people, sigma_predicate(city=DimensionRestriction.to_value(EX.term("Madrid"))))
        assert isinstance(selected, IdRelation)
        assert len(selected) == 2
        assert selected.materialize().distinct_values("x") == {EX.term("u1"), EX.term("u3")}

    def test_select_range_predicate_on_ids(self, people):
        selected = select(people, sigma_predicate(age=DimensionRestriction.to_range(30, 40)))
        assert selected.materialize().distinct_values("age") == {Literal(35)}

    def test_select_conjunction_and_is_in(self, people):
        predicate = sigma_predicate(
            age=DimensionRestriction.to_values([28, 35]),
            city=DimensionRestriction.to_value(EX.term("NY")),
        )
        selected = select(people, predicate)
        assert len(selected) == 1

    def test_project_and_dedup_keep_metadata(self, people):
        cities = dedup(project(people, ("city",)))
        assert isinstance(cities, IdRelation)
        assert cities.encoded_columns == {"city"}
        assert len(cities) == 2

    def test_rename_maps_encoded_names(self, people):
        renamed = rename(people, {"city": "dcity"})
        assert renamed.encoded_columns == {"x", "age", "dcity"}
        assert renamed.materialize().distinct_values("dcity") == {
            EX.term("Madrid"),
            EX.term("NY"),
        }

    def test_join_on_ids(self, people):
        ages = rename(project(people, ("x", "age")), {"age": "age2"})
        joined = join_on(people, ages, [("x", "x")])
        assert isinstance(joined, IdRelation)
        assert joined.encoded_columns == {"x", "age", "city", "age2"}
        assert len(joined) == 3

    def test_mixed_space_join_materializes(self, people):
        decoded_ages = rename(project(people, ("x", "age")), {"age": "age2"}).materialize()
        joined = join_on(people, decoded_ages, [("x", "x")])
        assert not isinstance(joined, IdRelation)
        assert len(joined) == 3
        assert joined.distinct_values("age2") == {Literal(28), Literal(35)}

    def test_union_of_same_space_relations(self, people):
        doubled = union_all(people, people)
        assert isinstance(doubled, IdRelation)
        assert len(doubled) == 6

    def test_union_of_mixed_spaces_decodes(self, people):
        mixed = union_all(people, people.materialize())
        assert not isinstance(mixed, IdRelation)
        assert len(mixed) == 6
        assert mixed.bag_equal(union_all(people.materialize(), people.materialize()))

    def test_different_dictionaries_cannot_silently_combine(self, graph, people):
        other = Graph()
        other.add(Triple(EX.term("u9"), RDF_TYPE, EX.Blogger))
        x = Variable("x")
        foreign = BGPEvaluator(other).evaluate_ids(
            BGPQuery([x], [TriplePattern(x, RDF_TYPE, EX.Blogger)])
        )
        foreign = rename(foreign, {"x": "y"})
        # join with no shared dictionary falls back to decoded values
        joined = join_on(project(people, ("x",)), foreign, [("x", "y")])
        assert len(joined) == 0  # u9 is not among u1..u3 once decoded

    def test_group_aggregate_decodes_measure_and_keeps_dims_encoded(self, people):
        aggregated = group_aggregate(
            people, by=("city",), measure="age", function="avg", output_column="age"
        )
        assert isinstance(aggregated, IdRelation)
        assert aggregated.encoded_columns == {"city"}
        cells = {row[0]: row[1] for row in aggregated.materialize()}
        assert cells[EX.term("Madrid")] == pytest.approx(31.5)
        assert cells[EX.term("NY")] == pytest.approx(35.0)

    def test_group_aggregate_count_fast_path(self, people):
        counted = group_aggregate(
            people, by=("city",), measure="x", function="count", output_column="n"
        )
        cells = {row[0]: row[1] for row in counted.materialize()}
        assert cells == {EX.term("Madrid"): 2, EX.term("NY"): 1}


class TestAdoption:
    def test_relation_like_requires_consistent_dictionaries(self, people, graph):
        other = Graph()
        other.add(Triple(EX.term("u9"), RDF_TYPE, EX.Blogger))
        x = Variable("x")
        foreign = BGPEvaluator(other).evaluate_ids(
            BGPQuery([x], [TriplePattern(x, RDF_TYPE, EX.Blogger)])
        )
        from repro.algebra.relation import relation_like

        with pytest.raises(SchemaMismatchError):
            relation_like(("x", "age"), [], people, foreign)

    def test_adopt_rejects_duplicate_columns(self):
        with pytest.raises(SchemaMismatchError):
            Relation.adopt(("a", "a"), [])


class TestCompiledSelectSemantics:
    def test_missing_column_on_empty_relation_is_a_noop(self):
        """σ over zero rows never evaluates the predicate."""
        empty = Relation(("a",), [])
        assert len(select(empty, sigma_predicate(b=DimensionRestriction.to_value(1)))) == 0

    def test_sigma_ignores_a_dimension_the_relation_lacks(self):
        """As ``Sigma.allows_row`` does: the dimension may have been drilled out."""
        relation = Relation(("a",), [(1,), (2,)])
        assert select(relation, sigma_predicate(b=DimensionRestriction.to_value(1))).rows == [(1,), (2,)]
        assert select(relation, sigma_predicate(
            a=DimensionRestriction.to_value(2), b=DimensionRestriction.to_value(1)
        )).rows == [(2,)]
