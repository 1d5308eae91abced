"""Unit tests for the N-Triples parser and serializer."""

import pytest

from repro.errors import ParseError
from repro.rdf import EX, Graph, IRI, Literal, Triple
from repro.rdf.ntriples import (
    dump_ntriples,
    load_ntriples,
    parse_ntriples,
    parse_ntriples_line,
    serialize_ntriples,
)
from repro.rdf.terms import BlankNode


class TestParseLine:
    def test_simple_iri_triple(self):
        triple = parse_ntriples_line(
            "<http://example.org/user1> <http://example.org/livesIn> <http://example.org/Madrid> ."
        )
        assert triple == Triple(EX.user1, EX.livesIn, EX.term("Madrid"))

    def test_plain_literal(self):
        triple = parse_ntriples_line('<http://a.example/s> <http://a.example/p> "hello" .')
        assert triple.object == Literal("hello")

    def test_typed_literal(self):
        triple = parse_ntriples_line(
            '<http://a.example/s> <http://a.example/p> "28"^^<http://www.w3.org/2001/XMLSchema#integer> .'
        )
        assert triple.object == Literal(28)

    def test_language_literal(self):
        triple = parse_ntriples_line('<http://a.example/s> <http://a.example/p> "bonjour"@fr .')
        assert triple.object == Literal("bonjour", language="fr")

    def test_blank_nodes(self):
        triple = parse_ntriples_line("_:b1 <http://a.example/p> _:b2 .")
        assert triple.subject == BlankNode("b1")
        assert triple.object == BlankNode("b2")

    def test_escaped_characters_in_literal(self):
        triple = parse_ntriples_line('<http://a.example/s> <http://a.example/p> "line\\nbreak \\"q\\"" .')
        assert triple.object.lexical == 'line\nbreak "q"'

    def test_unicode_escape(self):
        triple = parse_ntriples_line('<http://a.example/s> <http://a.example/p> "caf\\u00E9" .')
        assert triple.object.lexical == "café"

    def test_comment_and_blank_lines_return_none(self):
        assert parse_ntriples_line("") is None
        assert parse_ntriples_line("   ") is None
        assert parse_ntriples_line("# a comment") is None

    def test_trailing_comment_allowed(self):
        triple = parse_ntriples_line("<http://a.example/s> <http://a.example/p> <http://a.example/o> . # note")
        assert triple is not None

    def test_missing_dot_raises(self):
        with pytest.raises(ParseError):
            parse_ntriples_line("<http://a.example/s> <http://a.example/p> <http://a.example/o>")

    def test_garbage_raises(self):
        with pytest.raises(ParseError):
            parse_ntriples_line("this is not n-triples .")

    def test_literal_subject_raises(self):
        with pytest.raises(ParseError):
            parse_ntriples_line('"x" <http://a.example/p> <http://a.example/o> .')


class TestDocumentRoundtrip:
    def test_parse_document_string(self):
        text = "\n".join(
            [
                "# bloggers",
                "<http://example.org/user1> <http://example.org/hasAge> \"28\"^^<http://www.w3.org/2001/XMLSchema#integer> .",
                "<http://example.org/user1> <http://example.org/livesIn> <http://example.org/Madrid> .",
                "",
            ]
        )
        graph = parse_ntriples(text)
        assert len(graph) == 2
        assert Triple(EX.user1, EX.hasAge, Literal(28)) in graph

    def test_serialize_is_sorted_and_parseable(self):
        graph = Graph()
        graph.add(Triple(EX.user2, EX.hasAge, Literal(35)))
        graph.add(Triple(EX.user1, EX.hasAge, Literal(28)))
        text = serialize_ntriples(graph)
        lines = [line for line in text.splitlines() if line]
        assert lines == sorted(lines)
        assert parse_ntriples(text) == graph

    def test_roundtrip_preserves_term_kinds(self):
        graph = Graph()
        graph.add(Triple(EX.s, EX.p, Literal("plain")))
        graph.add(Triple(EX.s, EX.p, Literal("tagged", language="en")))
        graph.add(Triple(EX.s, EX.p, Literal(3.5)))
        graph.add(Triple(BlankNode("b0"), EX.p, EX.o))
        assert parse_ntriples(serialize_ntriples(graph)) == graph

    def test_empty_graph_serializes_to_empty_string(self):
        assert serialize_ntriples(Graph()) == ""

    def test_file_roundtrip(self, tmp_path):
        graph = Graph()
        graph.add(Triple(EX.user1, EX.livesIn, EX.term("Madrid")))
        path = str(tmp_path / "data.nt")
        dump_ntriples(graph, path)
        assert load_ntriples(path) == graph

    def test_parse_into_existing_graph(self):
        graph = Graph()
        graph.add(Triple(EX.user1, EX.hasAge, Literal(28)))
        parse_ntriples("<http://example.org/user2> <http://example.org/hasAge> \"35\"^^<http://www.w3.org/2001/XMLSchema#integer> .", graph)
        assert len(graph) == 2

    def test_parse_error_reports_line_number(self):
        text = "<http://a.example/s> <http://a.example/p> <http://a.example/o> .\nbroken line ."
        with pytest.raises(ParseError) as excinfo:
            parse_ntriples(text)
        assert excinfo.value.line == 2


class TestMalformedInputs:
    """Error paths: every rejection names the problem and the line."""

    def test_unclosed_iri_raises(self):
        with pytest.raises(ParseError):
            parse_ntriples_line("<http://a.example/s <http://a.example/p> <http://a.example/o> .")

    def test_missing_object_raises(self):
        with pytest.raises(ParseError):
            parse_ntriples_line("<http://a.example/s> <http://a.example/p> .")

    def test_blank_node_predicate_raises(self):
        with pytest.raises(ParseError):
            parse_ntriples_line("<http://a.example/s> _:b1 <http://a.example/o> .")

    def test_literal_predicate_raises(self):
        with pytest.raises(ParseError):
            parse_ntriples_line('<http://a.example/s> "p" <http://a.example/o> .')

    def test_trailing_garbage_after_dot_raises(self):
        with pytest.raises(ParseError):
            parse_ntriples_line("<http://a.example/s> <http://a.example/p> <http://a.example/o> . junk")

    def test_error_carries_line_number_from_document(self):
        text = "\n".join(
            [
                "# fine",
                "<http://a.example/s> <http://a.example/p> <http://a.example/o> .",
                "<http://a.example/s> <http://a.example/p> broken .",
            ]
        )
        with pytest.raises(ParseError) as excinfo:
            parse_ntriples(text)
        assert excinfo.value.line == 3


class TestRoundtripAtScale:
    def test_generated_instance_roundtrips(self):
        # The full literal/IRI space of a generated dataset survives
        # serialize -> parse: this is the path every benchmark instance
        # would take through disk.
        from repro.datagen import BloggerConfig, blogger_dataset

        instance = blogger_dataset(BloggerConfig(bloggers=25, seed=11)).instance
        assert parse_ntriples(serialize_ntriples(instance)) == instance

    def test_big_unicode_escape(self):
        triple = parse_ntriples_line(
            '<http://a.example/s> <http://a.example/p> "\\U0001F600" .'
        )
        assert triple.object.lexical == "\U0001F600"
