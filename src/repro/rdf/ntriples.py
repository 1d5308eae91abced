"""N-Triples parser and serializer.

Implements the line-oriented N-Triples syntax (a subset of Turtle): one
triple per line, full IRIs in angle brackets, quoted literals with optional
``@lang`` or ``^^<datatype>``, ``_:label`` blank nodes, ``#`` comments.

The parser is intentionally strict about structure (three terms and a final
dot per statement) but lenient about surrounding whitespace.
"""

from __future__ import annotations

import re
from typing import IO, Iterable, List, Union

from repro.errors import InvalidTermError, ParseError
from repro.rdf.graph import Graph
from repro.rdf.terms import IRI, BlankNode, Literal, Term
from repro.rdf.triples import Triple

__all__ = ["parse_ntriples", "parse_ntriples_line", "serialize_ntriples", "load_ntriples", "dump_ntriples"]


_UNESCAPES = {
    "\\\\": "\\",
    '\\"': '"',
    "\\n": "\n",
    "\\r": "\r",
    "\\t": "\t",
}

_TERM_RE = re.compile(
    r"""
    \s*
    (?:
        <(?P<iri>[^>]*)>
      | _:(?P<bnode>[A-Za-z0-9_][A-Za-z0-9_.-]*)
      | "(?P<literal>(?:[^"\\]|\\.)*)"
        (?:
            @(?P<lang>[a-zA-Z]{1,8}(?:-[a-zA-Z0-9]{1,8})*)
          | \^\^<(?P<datatype>[^>]*)>
        )?
    )
    """,
    re.VERBOSE,
)


def _unescape(value: str) -> str:
    result = value
    for escaped, plain in _UNESCAPES.items():
        result = result.replace(escaped, plain)
    # Unicode escapes \uXXXX and \UXXXXXXXX.
    def decode_unicode(match: re.Match) -> str:
        return chr(int(match.group(1) or match.group(2), 16))

    return re.sub(r"\\u([0-9A-Fa-f]{4})|\\U([0-9A-Fa-f]{8})", decode_unicode, result)


def _parse_term(text: str, position: int, line_number: int) -> tuple[Term, int]:
    match = _TERM_RE.match(text, position)
    if not match:
        raise ParseError(f"expected an RDF term at: {text[position:position + 40]!r}", line=line_number)
    try:
        if match.group("iri") is not None:
            return IRI(_unescape(match.group("iri"))), match.end()
        if match.group("bnode") is not None:
            return BlankNode(match.group("bnode")), match.end()
        lexical = _unescape(match.group("literal"))
        language = match.group("lang")
        datatype = match.group("datatype")
        if language:
            return Literal(lexical, language=language), match.end()
        if datatype:
            return Literal(lexical, datatype=datatype), match.end()
        return Literal(lexical), match.end()
    except InvalidTermError as exc:
        # e.g. an unclosed IRI swallowing the rest of the line: report it as
        # a parse failure with the line number, not a bare term error.
        raise ParseError(str(exc), line=line_number) from exc


def parse_ntriples_line(line: str, line_number: int = 0) -> Triple | None:
    """Parse one N-Triples statement; return None for blank/comment lines."""
    stripped = line.strip()
    if not stripped or stripped.startswith("#"):
        return None
    subject, position = _parse_term(line, 0, line_number)
    predicate, position = _parse_term(line, position, line_number)
    object_, position = _parse_term(line, position, line_number)
    remainder = line[position:].strip()
    if remainder not in (".", ". "):
        if not remainder.startswith("."):
            raise ParseError("statement does not end with '.'", line=line_number)
        trailing = remainder[1:].strip()
        if trailing and not trailing.startswith("#"):
            raise ParseError(f"unexpected trailing content: {trailing!r}", line=line_number)
    try:
        return Triple(subject, predicate, object_)  # type: ignore[arg-type]
    except Exception as exc:
        raise ParseError(str(exc), line=line_number) from exc


def parse_ntriples(source: Union[str, Iterable[str], IO[str]], graph: Graph | None = None) -> Graph:
    """Parse N-Triples from a string (whole document) or iterable of lines.

    Returns ``graph`` (a new :class:`Graph` when not supplied) with the
    parsed triples added.
    """
    if graph is None:
        graph = Graph()
    if isinstance(source, str):
        lines: Iterable[str] = source.splitlines()
    else:
        lines = source
    for line_number, line in enumerate(lines, start=1):
        triple = parse_ntriples_line(line, line_number)
        if triple is not None:
            graph.add(triple)
    return graph


def serialize_ntriples(graph: Graph, sort: bool = True) -> str:
    """Serialize a graph to an N-Triples string.

    With ``sort=True`` (the default) statements are emitted in lexicographic
    order of their N3 form, yielding a canonical text for diffing in tests.
    """
    statements: List[str] = [triple.n3() for triple in graph]
    if sort:
        statements.sort()
    return "\n".join(statements) + ("\n" if statements else "")


def load_ntriples(path: str, graph: Graph | None = None) -> Graph:
    """Load an N-Triples file from disk."""
    if graph is None:
        graph = Graph(name=path)
    with open(path, "r", encoding="utf-8") as handle:
        return parse_ntriples(handle, graph)


def dump_ntriples(graph: Graph, path: str, sort: bool = True) -> None:
    """Write a graph to an N-Triples file."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(serialize_ntriples(graph, sort=sort))
