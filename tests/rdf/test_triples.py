"""Unit tests for triples and triple patterns."""

import pytest

from repro.errors import InvalidTripleError
from repro.rdf import EX, RDF
from repro.rdf.terms import BlankNode, IRI, Literal, Variable
from repro.rdf.triples import Triple, TriplePattern


class TestTriple:
    def test_construction_and_accessors(self):
        triple = Triple(EX.user1, EX.hasAge, Literal(28))
        assert triple.subject == EX.user1
        assert triple.predicate == EX.hasAge
        assert triple.object == Literal(28)
        assert triple.as_tuple() == (EX.user1, EX.hasAge, Literal(28))

    def test_blank_node_subject_allowed(self):
        triple = Triple(BlankNode("b1"), EX.knows, EX.user2)
        assert triple.subject == BlankNode("b1")

    def test_literal_subject_rejected(self):
        with pytest.raises(InvalidTripleError):
            Triple(Literal("x"), EX.hasAge, Literal(28))  # type: ignore[arg-type]

    def test_literal_predicate_rejected(self):
        with pytest.raises(InvalidTripleError):
            Triple(EX.user1, Literal("p"), Literal(28))  # type: ignore[arg-type]

    def test_blank_predicate_rejected(self):
        with pytest.raises(InvalidTripleError):
            Triple(EX.user1, BlankNode("b"), Literal(28))  # type: ignore[arg-type]

    def test_variable_positions_rejected(self):
        with pytest.raises(InvalidTripleError):
            Triple(Variable("x"), EX.hasAge, Literal(28))  # type: ignore[arg-type]

    def test_equality_and_hash(self):
        a = Triple(EX.user1, EX.hasAge, Literal(28))
        b = Triple(EX.user1, EX.hasAge, Literal(28))
        c = Triple(EX.user1, EX.hasAge, Literal(29))
        assert a == b and hash(a) == hash(b)
        assert a != c

    def test_n3_rendering(self):
        triple = Triple(EX.user1, EX.livesIn, EX.term("Madrid"))
        assert triple.n3() == "<http://example.org/user1> <http://example.org/livesIn> <http://example.org/Madrid> ."

    def test_iteration(self):
        triple = Triple(EX.user1, EX.hasAge, Literal(28))
        assert list(triple) == [EX.user1, EX.hasAge, Literal(28)]

    def test_immutable(self):
        triple = Triple(EX.user1, EX.hasAge, Literal(28))
        with pytest.raises(AttributeError):
            triple.subject = EX.user2  # type: ignore[misc]


class TestTriplePattern:
    def test_variables(self):
        pattern = TriplePattern(Variable("x"), EX.hasAge, Variable("dage"))
        assert pattern.variables() == {Variable("x"), Variable("dage")}

    def test_literal_subject_rejected(self):
        with pytest.raises(InvalidTripleError):
            TriplePattern(Literal("x"), EX.p, Variable("o"))

    def test_literal_predicate_rejected(self):
        with pytest.raises(InvalidTripleError):
            TriplePattern(Variable("s"), Literal("p"), Variable("o"))

    def test_matching_binds_variables(self):
        pattern = TriplePattern(Variable("x"), EX.hasAge, Variable("dage"))
        triple = Triple(EX.user1, EX.hasAge, Literal(28))
        binding = pattern.bind(triple)
        assert binding == {Variable("x"): EX.user1, Variable("dage"): Literal(28)}
        assert pattern.matches(triple)

    def test_matching_respects_existing_binding(self):
        pattern = TriplePattern(Variable("x"), EX.hasAge, Variable("dage"))
        triple = Triple(EX.user1, EX.hasAge, Literal(28))
        assert pattern.bind(triple, {Variable("x"): EX.user1}) is not None
        assert pattern.bind(triple, {Variable("x"): EX.user2}) is None

    def test_repeated_variable_must_agree(self):
        pattern = TriplePattern(Variable("x"), EX.knows, Variable("x"))
        assert pattern.matches(Triple(EX.user1, EX.knows, EX.user1))
        assert not pattern.matches(Triple(EX.user1, EX.knows, EX.user2))

    def test_constant_mismatch(self):
        pattern = TriplePattern(EX.user1, EX.hasAge, Variable("dage"))
        assert not pattern.matches(Triple(EX.user2, EX.hasAge, Literal(28)))

    def test_substitute(self):
        pattern = TriplePattern(Variable("x"), EX.hasAge, Variable("dage"))
        grounded = pattern.substitute({Variable("x"): EX.user1})
        assert grounded == TriplePattern(EX.user1, EX.hasAge, Variable("dage"))
        fully = grounded.substitute({Variable("dage"): Literal(28)})
        assert not fully.variables()

    def test_substitute_does_not_touch_unbound(self):
        pattern = TriplePattern(Variable("x"), EX.hasAge, Variable("dage"))
        assert pattern.substitute({}) == pattern

    def test_equality_and_hash(self):
        a = TriplePattern(Variable("x"), EX.hasAge, Variable("dage"))
        b = TriplePattern(Variable("x"), EX.hasAge, Variable("dage"))
        assert a == b and hash(a) == hash(b)

    def test_rdf_type_pattern(self):
        pattern = TriplePattern(Variable("x"), RDF.term("type"), EX.Blogger)
        assert pattern.matches(Triple(EX.user1, RDF.term("type"), EX.Blogger))
