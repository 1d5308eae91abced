"""Unit tests for RDF terms (IRI, Literal, BlankNode, Variable)."""

import os
import pickle
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest

from repro.errors import InvalidTermError
from repro.rdf.dictionary import TermDictionary
from repro.rdf.terms import (
    IRI,
    BlankNode,
    Literal,
    Variable,
    XSD_BOOLEAN,
    XSD_DECIMAL,
    XSD_DOUBLE,
    XSD_INTEGER,
    XSD_STRING,
    fresh_blank_node,
)


class TestIRI:
    def test_value_and_n3(self):
        iri = IRI("http://example.org/user1")
        assert iri.value == "http://example.org/user1"
        assert iri.n3() == "<http://example.org/user1>"

    def test_equality_and_hash(self):
        assert IRI("http://a.example/x") == IRI("http://a.example/x")
        assert IRI("http://a.example/x") != IRI("http://a.example/y")
        assert hash(IRI("http://a.example/x")) == hash(IRI("http://a.example/x"))

    def test_iri_is_not_equal_to_its_string(self):
        assert IRI("http://a.example/x") != "http://a.example/x"

    def test_local_name_variants(self):
        assert IRI("http://example.org/ns#Blogger").local_name() == "Blogger"
        assert IRI("http://example.org/users/user1").local_name() == "user1"
        assert IRI("urn:uuid:abc").local_name() == "abc"

    def test_rejects_empty_and_bad_characters(self):
        with pytest.raises(InvalidTermError):
            IRI("")
        with pytest.raises(InvalidTermError):
            IRI("http://example.org/has space")
        with pytest.raises(InvalidTermError):
            IRI("http://example.org/<bad>")

    def test_rejects_non_string(self):
        with pytest.raises(InvalidTermError):
            IRI(42)  # type: ignore[arg-type]

    def test_immutable(self):
        iri = IRI("http://example.org/x")
        with pytest.raises(AttributeError):
            iri.value = "other"  # type: ignore[misc]

    def test_ordering(self):
        assert IRI("http://a.example/a") < IRI("http://a.example/b")

    def test_kind_flags(self):
        iri = IRI("http://example.org/x")
        assert iri.is_iri and not iri.is_literal and not iri.is_blank and not iri.is_variable


class TestLiteral:
    def test_plain_string_literal(self):
        literal = Literal("hello")
        assert literal.lexical == "hello"
        assert literal.datatype == XSD_STRING
        assert literal.language is None
        assert literal.n3() == '"hello"'

    def test_integer_inference_and_conversion(self):
        literal = Literal(42)
        assert literal.datatype == XSD_INTEGER
        assert literal.to_python() == 42
        assert literal.is_numeric

    def test_float_and_decimal_and_bool(self):
        assert Literal(2.5).datatype == XSD_DOUBLE
        assert Literal(2.5).to_python() == pytest.approx(2.5)
        assert Literal(Decimal("3.14")).datatype == XSD_DECIMAL
        assert Literal(Decimal("3.14")).to_python() == Decimal("3.14")
        assert Literal(True).datatype == XSD_BOOLEAN
        assert Literal(True).to_python() is True
        assert Literal(False).to_python() is False

    def test_language_tagged(self):
        literal = Literal("bonjour", language="FR")
        assert literal.language == "fr"
        assert literal.n3() == '"bonjour"@fr'

    def test_language_and_datatype_mutually_exclusive(self):
        with pytest.raises(InvalidTermError):
            Literal("x", datatype=XSD_STRING, language="en")

    def test_invalid_language_tag(self):
        with pytest.raises(InvalidTermError):
            Literal("x", language="not a tag!")

    def test_explicit_datatype_as_iri(self):
        literal = Literal("7", datatype=IRI(XSD_INTEGER))
        assert literal.datatype == XSD_INTEGER
        assert literal.to_python() == 7

    def test_malformed_numeric_falls_back_to_string(self):
        literal = Literal("not-a-number", datatype=XSD_INTEGER)
        assert literal.to_python() == "not-a-number"

    def test_escaping_in_n3(self):
        literal = Literal('say "hi"\nplease')
        assert literal.n3() == '"say \\"hi\\"\\nplease"'

    def test_equality_considers_datatype(self):
        assert Literal("28", datatype=XSD_INTEGER) != Literal("28")
        assert Literal("28", datatype=XSD_INTEGER) == Literal(28)

    def test_numeric_ordering(self):
        assert Literal(9) < Literal(10)
        assert Literal(2.5) < Literal(3)

    def test_ill_typed_numeric_orders_by_its_lexical_form(self):
        ill_typed = Literal("abc", datatype=XSD_INTEGER)
        one = Literal("1", datatype=XSD_INTEGER)
        assert one < ill_typed and not ill_typed < one  # ("1", …) < ("abc", …)
        assert sorted([ill_typed, Literal(10), one]) == [one, Literal(10), ill_typed]

    def test_rejects_unsupported_python_type(self):
        with pytest.raises(InvalidTermError):
            Literal([1, 2, 3])  # type: ignore[arg-type]

    def test_immutable(self):
        literal = Literal("x")
        with pytest.raises(AttributeError):
            literal.lexical = "y"  # type: ignore[misc]


class TestBlankNode:
    def test_label_and_n3(self):
        node = BlankNode("b1")
        assert node.label == "b1"
        assert node.n3() == "_:b1"

    def test_equality(self):
        assert BlankNode("b1") == BlankNode("b1")
        assert BlankNode("b1") != BlankNode("b2")

    def test_invalid_labels(self):
        with pytest.raises(InvalidTermError):
            BlankNode("")
        with pytest.raises(InvalidTermError):
            BlankNode("has space")

    def test_fresh_blank_nodes_are_distinct(self):
        first = fresh_blank_node()
        second = fresh_blank_node()
        assert first != second
        assert first.label != second.label


class TestVariable:
    def test_name_and_n3(self):
        variable = Variable("dage")
        assert variable.name == "dage"
        assert variable.n3() == "?dage"

    def test_question_mark_prefix_is_stripped(self):
        assert Variable("?x") == Variable("x")
        assert Variable("$x") == Variable("x")

    def test_copy_constructor(self):
        assert Variable(Variable("x")) == Variable("x")

    def test_invalid_names(self):
        with pytest.raises(InvalidTermError):
            Variable("")
        with pytest.raises(InvalidTermError):
            Variable("1x")
        with pytest.raises(InvalidTermError):
            Variable("a-b")

    def test_variable_is_not_an_iri(self):
        variable = Variable("x")
        assert variable.is_variable and not variable.is_iri

    def test_distinct_from_equally_named_literal(self):
        assert Variable("x") != Literal("x")


_TERMS = (
    IRI("http://example.org/user1"),
    Literal("28", datatype=XSD_INTEGER),
    Literal("chat", language="fr"),
    BlankNode("b1"),
    Variable("dage"),
)


class TestHashOnce:
    """A term hashes once, at construction, over its value."""

    @pytest.mark.parametrize("term", _TERMS, ids=lambda term: type(term).__name__)
    def test_pickle_ships_the_value_not_the_hash(self, term):
        _, (_, state) = term.__reduce__()
        assert "_hash" not in state
        clone = pickle.loads(pickle.dumps(term))
        assert clone == term and hash(clone) == hash(term)
        with pytest.raises(AttributeError):
            clone.anything = 1

    def test_term_pickled_under_another_hash_seed_finds_its_entry(self):
        """A hash pickled from another process would miss every dict lookup."""
        ours = os.environ.get("PYTHONHASHSEED", "")
        seed = str(int(ours) + 1) if ours.isdigit() else "1"
        src = Path(__file__).resolve().parents[2] / "src"
        environment = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(src))
        script = (
            "import pickle, sys\n"
            "from repro.rdf.terms import IRI, Literal\n"
            "terms = [IRI('http://example.org/user1'), Literal('chat', language='fr')]\n"
            "sys.stdout.buffer.write(pickle.dumps((terms, [hash(t) for t in terms])))\n"
        )
        output = subprocess.run(
            [sys.executable, "-c", script], env=environment, capture_output=True, check=True, timeout=60
        ).stdout
        terms, foreign_hashes = pickle.loads(output)
        assert [hash(term) for term in terms] != foreign_hashes  # the seeds really differ
        entries = {_TERMS[0]: "iri", _TERMS[2]: "literal"}
        assert [entries[term] for term in terms] == ["iri", "literal"]

    def test_equal_terms_from_two_dictionaries_hash_equal(self):
        first, second = TermDictionary(), TermDictionary()
        second.encode(IRI("http://example.org/other"))  # shifts every later id
        for term in _TERMS[:4]:
            ids = first.encode(term), second.encode(pickle.loads(pickle.dumps(term)))
            assert ids[0] != ids[1]
            decoded = first.decode(ids[0]), second.decode(ids[1])
            assert decoded[0] == decoded[1] and hash(decoded[0]) == hash(decoded[1])
        assert hash(Literal(28)) == hash(Literal("28", datatype=XSD_INTEGER))
