"""Unit tests for the BGPQuery model (heads, bodies, rootedness, m̄)."""

import pytest

from repro.errors import QueryDefinitionError, QueryNotRootedError
from repro.rdf import EX, Literal, RDF
from repro.rdf.terms import Variable
from repro.rdf.triples import TriplePattern
from repro.bgp.query import BGPQuery

RDF_TYPE = RDF.term("type")


def paper_rooted_query() -> BGPQuery:
    """The rooted BGP example of Section 2 (root x1)."""
    x1, x2, x3 = Variable("x1"), Variable("x2"), Variable("x3")
    y1, y2 = Variable("y1"), Variable("y2")
    return BGPQuery(
        [x1, x2, x3],
        [
            TriplePattern(x1, EX.acquaintedWith, x2),
            TriplePattern(x1, EX.identifiedBy, y1),
            TriplePattern(x1, EX.wrotePost, y2),
            TriplePattern(y2, EX.postedOn, x3),
        ],
        name="q",
    )


class TestConstruction:
    def test_head_and_body_accessors(self):
        query = paper_rooted_query()
        assert query.head_names == ("x1", "x2", "x3")
        assert len(query.body) == 4
        assert query.arity() == 3

    def test_strings_accepted_in_head(self):
        query = BGPQuery(["x"], [TriplePattern(Variable("x"), RDF_TYPE, EX.Blogger)])
        assert query.head == (Variable("x"),)

    def test_empty_head_rejected(self):
        with pytest.raises(QueryDefinitionError):
            BGPQuery([], [TriplePattern(Variable("x"), RDF_TYPE, EX.Blogger)])

    def test_duplicate_head_variables_rejected(self):
        with pytest.raises(QueryDefinitionError):
            BGPQuery(["x", "x"], [TriplePattern(Variable("x"), RDF_TYPE, EX.Blogger)])

    def test_empty_body_rejected(self):
        with pytest.raises(QueryDefinitionError):
            BGPQuery(["x"], [])

    def test_unsafe_head_variable_rejected(self):
        with pytest.raises(QueryDefinitionError):
            BGPQuery(["x", "missing"], [TriplePattern(Variable("x"), RDF_TYPE, EX.Blogger)])

    def test_non_pattern_body_rejected(self):
        with pytest.raises(QueryDefinitionError):
            BGPQuery(["x"], ["not a pattern"])  # type: ignore[list-item]


class TestVariables:
    def test_variables_and_existentials(self):
        query = paper_rooted_query()
        assert query.variables() == {Variable(name) for name in ("x1", "x2", "x3", "y1", "y2")}
        assert query.existential_variables() == {Variable("y1"), Variable("y2")}

    def test_predicates(self):
        query = paper_rooted_query()
        assert EX.wrotePost in query.predicates()


class TestRootedness:
    def test_paper_example_is_rooted_in_x1(self):
        query = paper_rooted_query()
        assert query.is_rooted_in("x1")
        assert query.root() == Variable("x1")
        assert query.require_rooted() is query

    def test_not_rooted_in_leaf_variable(self):
        query = paper_rooted_query()
        # From x2 one can only reach x1's component through x1, which the
        # undirected reachability allows; a genuinely disconnected query is
        # needed to break rootedness.
        disconnected = BGPQuery(
            ["x", "z"],
            [
                TriplePattern(Variable("x"), RDF_TYPE, EX.Blogger),
                TriplePattern(Variable("z"), RDF_TYPE, EX.Site),
            ],
        )
        assert not disconnected.is_rooted_in("x")
        with pytest.raises(QueryNotRootedError):
            disconnected.root()

    def test_unknown_root_variable(self):
        query = paper_rooted_query()
        assert not query.is_rooted_in("nope")

    def test_single_pattern_query_is_rooted(self):
        query = BGPQuery(["x"], [TriplePattern(Variable("x"), RDF_TYPE, EX.Blogger)])
        assert query.is_rooted_in("x")


class TestTransformations:
    def test_with_head(self):
        query = paper_rooted_query()
        narrowed = query.with_head(["x1", "x3"])
        assert narrowed.head_names == ("x1", "x3")
        assert narrowed.body == query.body

    def test_substitute_grounds_and_drops_from_head(self):
        query = paper_rooted_query()
        grounded = query.substitute({Variable("x2"): EX.user2})
        assert grounded.head_names == ("x1", "x3")
        assert TriplePattern(Variable("x1"), EX.acquaintedWith, EX.user2) in grounded.body

    def test_substitute_cannot_remove_entire_head(self):
        query = BGPQuery(["x"], [TriplePattern(Variable("x"), RDF_TYPE, EX.Blogger)])
        with pytest.raises(QueryDefinitionError):
            query.substitute({Variable("x"): EX.user1})

class TestEqualityAndDisplay:
    def test_equality_ignores_body_order(self):
        x = Variable("x")
        patterns = [
            TriplePattern(x, RDF_TYPE, EX.Blogger),
            TriplePattern(x, EX.hasAge, Variable("dage")),
        ]
        a = BGPQuery(["x", "dage"], patterns)
        b = BGPQuery(["x", "dage"], list(reversed(patterns)))
        assert a == b
        assert hash(a) == hash(b)

    def test_equality_requires_same_head_order(self):
        x = Variable("x")
        patterns = [TriplePattern(x, EX.hasAge, Variable("dage"))]
        assert BGPQuery(["x", "dage"], patterns) != BGPQuery(["dage", "x"], patterns)

    def test_to_text_is_paper_like(self):
        query = paper_rooted_query()
        text = query.to_text()
        assert text.startswith("q(?x1, ?x2, ?x3) :- ")
        assert "acquaintedWith" in text
