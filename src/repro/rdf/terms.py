"""RDF terms: IRIs, literals, blank nodes and query variables.

The term model follows the RDF 1.1 abstract syntax.  Terms are immutable,
hashable value objects so that they can be used freely as dictionary keys,
set members and columns of bag relations.

Design notes
------------
* ``IRI`` wraps a plain string; no network resolution is ever attempted.
* ``Literal`` carries an optional datatype IRI and an optional language tag
  (mutually exclusive per RDF 1.1).  A small set of XSD datatypes is mapped
  to native Python values (int, float, Decimal, bool) for use by aggregation
  functions; see :meth:`Literal.to_python`.
* ``BlankNode`` identity is its label within a single document / graph scope.
* ``Variable`` is not an RDF term proper but shares the same interface so
  that triple *patterns* can hold either terms or variables uniformly.
"""

from __future__ import annotations

import re
import threading
from decimal import Decimal, InvalidOperation
from typing import Union

from repro.errors import InvalidTermError

__all__ = [
    "Term",
    "IRI",
    "Literal",
    "BlankNode",
    "Variable",
    "TermOrVariable",
    "fresh_blank_node",
]


_IRI_FORBIDDEN = re.compile(r"[\x00-\x20<>\"{}|^`\\]")
_LANG_TAG = re.compile(r"^[a-zA-Z]{1,8}(-[a-zA-Z0-9]{1,8})*$")
_VARIABLE_NAME = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_BNODE_LABEL = re.compile(r"^[A-Za-z0-9_][A-Za-z0-9_.-]*$")


class Term:
    """Abstract base class of all RDF terms (and of :class:`Variable`); a term
    hashes once, at construction, over its value (not a dictionary id)."""

    __slots__ = ("_hash",)

    def _freeze(self, *values) -> None:
        """Set the value slots — each subclass's ``__slots__`` — and the hash."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_hash", hash((type(self).__name__, *values)))

    def __hash__(self) -> int:
        return self._hash

    def __setattr__(self, name, val):  # immutability guard
        raise AttributeError(f"{type(self).__name__} instances are immutable")

    def __lt__(self, other: "Term") -> bool:
        if type(other) is not type(self):
            return NotImplemented
        (name,) = self.__slots__  # one value slot; Literal orders by its own rule
        return getattr(self, name) < getattr(other, name)

    def __reduce__(self):
        # Immutable terms (which graphs and queries ship to worker processes)
        # unpickle through _freeze, which re-hashes: a str hashes differently
        # in another process (spawn, PYTHONHASHSEED), so no hash is shipped.
        state = {name: getattr(self, name) for name in self.__slots__}
        return (_restore_term, (type(self), state))

    def n3(self) -> str:
        """Return the term in N-Triples / Turtle surface syntax."""
        raise NotImplementedError

    @property
    def is_iri(self) -> bool:
        return isinstance(self, IRI)

    @property
    def is_literal(self) -> bool:
        return isinstance(self, Literal)

    @property
    def is_blank(self) -> bool:
        return isinstance(self, BlankNode)

    @property
    def is_variable(self) -> bool:
        return isinstance(self, Variable)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}({self.n3()})"


class IRI(Term):
    """An IRI reference, e.g. ``IRI("http://example.org/user1")``.

    The constructor performs a light well-formedness check: the IRI must be a
    non-empty string without whitespace, angle brackets or other characters
    forbidden by the N-Triples grammar.
    """

    __slots__ = ("value",)

    def __init__(self, value: str):
        if not isinstance(value, str):
            raise InvalidTermError(f"IRI value must be a string, got {type(value).__name__}")
        if not value:
            raise InvalidTermError("IRI value must be a non-empty string")
        if _IRI_FORBIDDEN.search(value):
            raise InvalidTermError(f"IRI contains forbidden characters: {value!r}")
        self._freeze(value)

    def n3(self) -> str:
        return f"<{self.value}>"

    def local_name(self) -> str:
        """Return the fragment / last path segment, a convenience for display."""
        value = self.value
        for separator in ("#", "/", ":"):
            index = value.rfind(separator)
            if index != -1 and index + 1 < len(value):
                return value[index + 1 :]
        return value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IRI) and self.value == other.value

    __hash__ = Term.__hash__

    def __str__(self) -> str:
        return self.value


# Datatype IRIs used for literal <-> Python conversion.  Kept here (rather
# than importing from namespaces.py) to avoid a circular import; the
# namespaces module re-exports richer constants.
_XSD = "http://www.w3.org/2001/XMLSchema#"
XSD_STRING = _XSD + "string"
XSD_INTEGER = _XSD + "integer"
XSD_DECIMAL = _XSD + "decimal"
XSD_DOUBLE = _XSD + "double"
XSD_FLOAT = _XSD + "float"
XSD_BOOLEAN = _XSD + "boolean"
XSD_DATE = _XSD + "date"
XSD_DATETIME = _XSD + "dateTime"
RDF_LANGSTRING = "http://www.w3.org/1999/02/22-rdf-syntax-ns#langString"

_NUMERIC_DATATYPES = {XSD_INTEGER, XSD_DECIMAL, XSD_DOUBLE, XSD_FLOAT}

_ESCAPES = {
    "\\": "\\\\",
    '"': '\\"',
    "\n": "\\n",
    "\r": "\\r",
    "\t": "\\t",
}


def _escape_literal(value: str) -> str:
    return "".join(_ESCAPES.get(char, char) for char in value)


class Literal(Term):
    """An RDF literal with optional datatype or language tag.

    Parameters
    ----------
    lexical:
        The lexical form.  Non-string Python values (int, float, bool,
        Decimal) are accepted and converted: the datatype is inferred when
        not given explicitly.
    datatype:
        Datatype IRI (as :class:`IRI` or string).  Mutually exclusive with
        ``language``.
    language:
        BCP-47 language tag; implies datatype ``rdf:langString``.
    """

    __slots__ = ("lexical", "datatype", "language")

    def __init__(
        self,
        lexical: Union[str, int, float, bool, Decimal],
        datatype: Union["IRI", str, None] = None,
        language: str | None = None,
    ):
        if language is not None and datatype is not None:
            raise InvalidTermError("a literal cannot have both a language tag and a datatype")

        inferred: str | None = None
        if isinstance(lexical, bool):  # bool before int: bool is a subclass of int
            lexical = "true" if lexical else "false"
            inferred = XSD_BOOLEAN
        elif isinstance(lexical, int):
            lexical = str(lexical)
            inferred = XSD_INTEGER
        elif isinstance(lexical, float):
            lexical = repr(lexical)
            inferred = XSD_DOUBLE
        elif isinstance(lexical, Decimal):
            lexical = str(lexical)
            inferred = XSD_DECIMAL
        elif not isinstance(lexical, str):
            raise InvalidTermError(
                f"literal lexical form must be str/int/float/bool/Decimal, got {type(lexical).__name__}"
            )

        if language is not None:
            if not _LANG_TAG.match(language):
                raise InvalidTermError(f"invalid language tag: {language!r}")
            datatype_value = RDF_LANGSTRING
            language = language.lower()
        else:
            if datatype is None:
                datatype_value = inferred or XSD_STRING
            elif isinstance(datatype, IRI):
                datatype_value = datatype.value
            elif isinstance(datatype, str):
                datatype_value = datatype
            else:
                raise InvalidTermError("datatype must be an IRI or a string")

        self._freeze(lexical, datatype_value, language)

    # -- conversion --------------------------------------------------------

    def to_python(self):
        """Return the closest native Python value for this literal.

        Numeric XSD datatypes map to ``int``/``float``/``Decimal``, booleans
        to ``bool``; everything else (including dates) stays a string.
        Malformed numeric lexical forms fall back to the string form rather
        than raising, mirroring SPARQL's lenient treatment of ill-typed
        literals in aggregation inputs.
        """
        datatype = self.datatype
        lexical = self.lexical
        try:
            if datatype == XSD_INTEGER:
                return int(lexical)
            if datatype in (XSD_DOUBLE, XSD_FLOAT):
                return float(lexical)
            if datatype == XSD_DECIMAL:
                return Decimal(lexical)
            if datatype == XSD_BOOLEAN:
                if lexical in ("true", "1"):
                    return True
                if lexical in ("false", "0"):
                    return False
        except (ValueError, InvalidOperation):
            return lexical
        return lexical

    @property
    def is_numeric(self) -> bool:
        """True when the literal's datatype is one of the XSD numeric types."""
        return self.datatype in _NUMERIC_DATATYPES

    # -- presentation ------------------------------------------------------

    def n3(self) -> str:
        quoted = f'"{_escape_literal(self.lexical)}"'
        if self.language is not None:
            return f"{quoted}@{self.language}"
        if self.datatype == XSD_STRING:
            return quoted
        return f"{quoted}^^<{self.datatype}>"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Literal)
            and self.lexical == other.lexical
            and self.datatype == other.datatype
            and self.language == other.language
        )

    __hash__ = Term.__hash__

    def __lt__(self, other: "Literal") -> bool:
        if not isinstance(other, Literal):
            return NotImplemented
        if self.is_numeric and other.is_numeric:
            mine, theirs = self.to_python(), other.to_python()
            # An ill-typed form (``"abc"^^xsd:integer``) stays a str: order it by its lexical key.
            if not isinstance(mine, str) and not isinstance(theirs, str):
                return float(mine) < float(theirs)
        return (self.lexical, self.datatype) < (other.lexical, other.datatype)

    def __str__(self) -> str:
        return self.lexical


class BlankNode(Term):
    """A blank node, identified by a label that is scoped to a document/graph."""

    __slots__ = ("label",)

    def __init__(self, label: str):
        if not isinstance(label, str) or not label:
            raise InvalidTermError("blank node label must be a non-empty string")
        if not _BNODE_LABEL.match(label):
            raise InvalidTermError(f"invalid blank node label: {label!r}")
        self._freeze(label)

    def n3(self) -> str:
        return f"_:{self.label}"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BlankNode) and self.label == other.label

    __hash__ = Term.__hash__

    def __str__(self) -> str:
        return self.label


class Variable(Term):
    """A query variable, used in triple patterns and query heads.

    Variables compare by name only; ``Variable("x") == Variable("x")``.
    """

    __slots__ = ("name",)

    def __init__(self, name: str):
        if isinstance(name, Variable):
            name = name.name
        if not isinstance(name, str) or not name:
            raise InvalidTermError("variable name must be a non-empty string")
        if name.startswith("?") or name.startswith("$"):
            name = name[1:]
        if not _VARIABLE_NAME.match(name):
            raise InvalidTermError(f"invalid variable name: {name!r}")
        self._freeze(name)

    def n3(self) -> str:
        return f"?{self.name}"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Variable) and self.name == other.name

    __hash__ = Term.__hash__

    def __str__(self) -> str:
        return self.name


def _restore_term(cls, state):
    """Unpickling helper: rebuild (and re-hash) a term without re-validating."""
    instance = cls.__new__(cls)
    instance._freeze(*(state[name] for name in cls.__slots__))
    return instance


TermOrVariable = Union[IRI, Literal, BlankNode, Variable]


_blank_counter_lock = threading.Lock()
_blank_counter = 0


def fresh_blank_node(prefix: str = "b") -> BlankNode:
    """Return a new blank node with a process-unique label.

    Used by the Turtle parser for anonymous nodes and by the data generators.
    """
    global _blank_counter
    with _blank_counter_lock:
        _blank_counter += 1
        count = _blank_counter
    return BlankNode(f"{prefix}{count}")
