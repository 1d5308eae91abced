"""Textual syntax for BGP queries.

The examples and tests write queries in a notation close to the paper's::

    c(?x, ?dage, ?dcity) :- ?x rdf:type ex:Blogger ,
                            ?x ex:hasAge ?dage ,
                            ?x ex:livesIn ?dcity

Grammar
-------
* head: ``name(?v1, ?v2, ...)`` — variables are always written with ``?``;
* ``:-`` separates head and body;
* the body is a comma-separated list of triple patterns ``s p o``;
* terms: ``?var``, ``<full-iri>``, ``prefix:local`` (resolved against a
  :class:`~repro.rdf.namespaces.PrefixMap`), quoted literals with optional
  ``@lang`` / ``^^datatype``, bare integers / decimals / booleans;
* a bare identifier without a colon is resolved against the *default
  namespace* (``ex:`` unless overridden), so the paper's ``hasAge`` works
  as-is;
* ``.`` may optionally terminate the body; ``#`` starts a comment.
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from repro.errors import QueryParseError
from repro.rdf.namespaces import EX, Namespace, PrefixMap, RDF
from repro.rdf.terms import (
    IRI,
    Literal,
    TermOrVariable,
    Variable,
    XSD_BOOLEAN,
    XSD_DECIMAL,
    XSD_DOUBLE,
    XSD_INTEGER,
)
from repro.rdf.triples import TriplePattern
from repro.bgp.query import BGPQuery

__all__ = ["parse_query", "parse_triple_patterns", "default_prefixes"]


_HEAD_RE = re.compile(
    r"^\s*(?P<name>[A-Za-z_][A-Za-z0-9_]*)\s*\(\s*(?P<vars>[^)]*)\)\s*$"
)

_TOKEN_RE = re.compile(
    r"""
      (?P<comment>\#[^\n]*)
    | (?P<iri><[^>]*>)
    | (?P<string>"(?:[^"\\]|\\.)*")(?:@(?P<lang>[a-zA-Z]{1,8}(?:-[a-zA-Z0-9]{1,8})*)|\^\^(?P<dt_iri><[^>]*>|[A-Za-z_][\w.-]*:[\w.-]+))?
    | (?P<var>\?[A-Za-z_][A-Za-z0-9_]*)
    | (?P<double>[+-]?(?:\d+\.\d*|\.\d+|\d+)[eE][+-]?\d+)
    | (?P<decimal>[+-]?\d*\.\d+)
    | (?P<integer>[+-]?\d+)
    | (?P<boolean>\btrue\b|\bfalse\b)
    | (?P<a>\ba\b)
    | (?P<pname>[A-Za-z_][\w.-]*:[\w.-]+)
    | (?P<bare>[A-Za-z_][\w-]*)
    | (?P<comma>,)
    | (?P<dot>\.)
    | (?P<ws>\s+)
    """,
    re.VERBOSE,
)


def default_prefixes(default_namespace: Namespace = EX) -> PrefixMap:
    """A prefix map binding rdf/rdfs/xsd/ex, used when none is supplied."""
    prefixes = PrefixMap()
    prefixes.bind("ex", default_namespace)
    return prefixes


def _tokenize_body(text: str) -> List[Tuple[str, re.Match]]:
    tokens: List[Tuple[str, re.Match]] = []
    position = 0
    while position < len(text):
        match = _TOKEN_RE.match(text, position)
        if not match:
            raise QueryParseError(f"unexpected character {text[position]!r} in query body")
        kind = match.lastgroup
        # The string alternative may set lastgroup to lang/dt_iri; normalise.
        if match.group("string") is not None:
            kind = "string"
        if kind not in ("ws", "comment"):
            tokens.append((kind, match))
        position = match.end()
    return tokens


def _term_from_token(
    kind: str,
    match: re.Match,
    prefixes: PrefixMap,
    default_namespace: Namespace,
) -> TermOrVariable:
    text = match.group(0)
    if kind == "var":
        return Variable(text[1:])
    if kind == "iri":
        return IRI(text[1:-1])
    if kind == "pname":
        try:
            return prefixes.expand(match.group("pname"))
        except Exception as exc:
            raise QueryParseError(str(exc)) from exc
    if kind == "a":
        return RDF.term("type")
    if kind == "bare":
        return default_namespace.term(match.group("bare"))
    if kind == "string":
        lexical = match.group("string")[1:-1]
        language = match.group("lang")
        datatype_text = match.group("dt_iri")
        if language:
            return Literal(lexical, language=language)
        if datatype_text:
            if datatype_text.startswith("<"):
                return Literal(lexical, datatype=datatype_text[1:-1])
            return Literal(lexical, datatype=prefixes.expand(datatype_text))
        return Literal(lexical)
    if kind == "integer":
        return Literal(match.group("integer"), datatype=XSD_INTEGER)
    if kind == "decimal":
        return Literal(match.group("decimal"), datatype=XSD_DECIMAL)
    if kind == "double":
        return Literal(match.group("double"), datatype=XSD_DOUBLE)
    if kind == "boolean":
        return Literal(match.group("boolean"), datatype=XSD_BOOLEAN)
    raise QueryParseError(f"unexpected token {text!r} in query body")


def parse_triple_patterns(
    text: str,
    prefixes: Optional[PrefixMap] = None,
    default_namespace: Namespace = EX,
) -> List[TriplePattern]:
    """Parse a comma-separated list of triple patterns (a query body)."""
    prefixes = prefixes or default_prefixes(default_namespace)
    tokens = _tokenize_body(text)
    patterns: List[TriplePattern] = []
    current: List[TermOrVariable] = []
    for kind, match in tokens:
        if kind in ("comma", "dot"):
            if current:
                if len(current) != 3:
                    raise QueryParseError(
                        f"a triple pattern needs exactly 3 terms, got {len(current)}: "
                        f"{' '.join(t.n3() for t in current)}"
                    )
                patterns.append(TriplePattern(current[0], current[1], current[2]))
                current = []
            continue
        current.append(_term_from_token(kind, match, prefixes, default_namespace))
        if len(current) > 3:
            raise QueryParseError(
                "a triple pattern needs exactly 3 terms; did you forget a ',' separator?"
            )
    if current:
        if len(current) != 3:
            raise QueryParseError(
                f"a triple pattern needs exactly 3 terms, got {len(current)} at end of body"
            )
        patterns.append(TriplePattern(current[0], current[1], current[2]))
    if not patterns:
        raise QueryParseError("empty query body")
    return patterns


def parse_query(
    text: str,
    prefixes: Optional[PrefixMap] = None,
    default_namespace: Namespace = EX,
) -> BGPQuery:
    """Parse a full ``name(?x, ...) :- body`` query."""
    if ":-" not in text:
        raise QueryParseError("missing ':-' separator between head and body")
    head_text, _, body_text = text.partition(":-")
    head_match = _HEAD_RE.match(head_text)
    if not head_match:
        raise QueryParseError(f"malformed query head: {head_text.strip()!r}")
    name = head_match.group("name")
    variable_texts = [item.strip() for item in head_match.group("vars").split(",") if item.strip()]
    if not variable_texts:
        raise QueryParseError("the query head must list at least one variable")
    head_variables = []
    for variable_text in variable_texts:
        if not variable_text.startswith("?"):
            raise QueryParseError(
                f"head variables must be written with '?', got {variable_text!r}"
            )
        head_variables.append(Variable(variable_text[1:]))
    body = parse_triple_patterns(body_text, prefixes, default_namespace)
    return BGPQuery(head_variables, body, name=name)
