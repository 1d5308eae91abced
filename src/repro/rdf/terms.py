"""RDF terms: IRIs, literals, blank nodes and query variables.

The term model follows the RDF 1.1 abstract syntax.  Terms are immutable
and **interned**: a constructor validates and normalises its arguments, then
returns the one live instance of that value, so equality and hashing are
``object``'s identity, run in C — a dict keyed by tuples of terms (a cube's
cell map) never calls Python per key.  The intern table holds terms weakly,
and unpickling and :mod:`copy` re-intern.

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

import os
import re
import threading
import weakref
from decimal import Decimal, InvalidOperation
from typing import Dict, Union

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
    """Abstract base class of all RDF terms (and of :class:`Variable`).

    Every concrete term is interned: ``IRI("a") is IRI("a")`` and
    ``Literal(28) is Literal("28", XSD_INTEGER)``, while terms of different
    kinds with one spelling (``IRI("a")``, ``BlankNode("a")``,
    ``Literal("a")``) stay distinct objects, hence unequal.
    """

    __slots__ = ("__weakref__",)

    def __setattr__(self, name, val):  # immutability guard
        raise AttributeError(f"{type(self).__name__} instances are immutable")

    def __lt__(self, other: "Term") -> bool:
        if type(other) is not type(self):
            return NotImplemented
        (name,) = self.__slots__  # one value slot; Literal orders by its own rule
        return getattr(self, name) < getattr(other, name)

    def __reduce__(self):
        # The value is shipped, never an identity: unpickling re-interns.
        state = {name: getattr(self, name) for name in self.__slots__}
        return (_restore_term, (type(self), state))

    def n3(self) -> str:
        """Return the term in N-Triples / Turtle surface syntax."""
        raise NotImplementedError

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

    def __new__(cls, value: str):
        if not isinstance(value, str):
            raise InvalidTermError(f"IRI value must be a string, got {type(value).__name__}")
        if not value:
            raise InvalidTermError("IRI value must be a non-empty string")
        if _IRI_FORBIDDEN.search(value):
            raise InvalidTermError(f"IRI contains forbidden characters: {value!r}")
        return _intern(cls, value)

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

    def __new__(
        cls,
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

        return _intern(cls, lexical, datatype_value, language)

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

    def __lt__(self, other: "Literal") -> bool:
        if not isinstance(other, Literal):
            return NotImplemented
        if self.is_numeric and other.is_numeric:
            mine, theirs = self.to_python(), other.to_python()
            # An ill-typed form (``"abc"^^xsd:integer``) stays a str: order it by its lexical key.
            if not isinstance(mine, str) and not isinstance(theirs, str):
                try:  # int, float and Decimal compare exactly with each other
                    return mine < theirs
                except InvalidOperation:  # a Decimal NaN is unordered, as float NaN is
                    return False
        return (self.lexical, self.datatype) < (other.lexical, other.datatype)

    def __str__(self) -> str:
        return self.lexical


class BlankNode(Term):
    """A blank node, identified by a label that is scoped to a document/graph."""

    __slots__ = ("label",)

    def __new__(cls, label: str):
        if not isinstance(label, str) or not label:
            raise InvalidTermError("blank node label must be a non-empty string")
        if not _BNODE_LABEL.match(label):
            raise InvalidTermError(f"invalid blank node label: {label!r}")
        return _intern(cls, label)

    def n3(self) -> str:
        return f"_:{self.label}"

    def __str__(self) -> str:
        return self.label


class Variable(Term):
    """A query variable, used in triple patterns and query heads.

    Variables compare by name only; ``Variable("x") is Variable("?x")``.
    """

    __slots__ = ("name",)

    def __new__(cls, name: str):
        if isinstance(name, Variable):
            return name
        if not isinstance(name, str) or not name:
            raise InvalidTermError("variable name must be a non-empty string")
        if name.startswith("?") or name.startswith("$"):
            name = name[1:]
        if not _VARIABLE_NAME.match(name):
            raise InvalidTermError(f"invalid variable name: {name!r}")
        return _intern(cls, name)

    def n3(self) -> str:
        return f"?{self.name}"

    def __str__(self) -> str:
        return self.name


class _Entry(weakref.ref):
    __slots__ = ("key",)  # the intern table's weak reference to one term, and its key


#: ``(class, *value slots)`` → weak reference to the one live term.
_TABLE: Dict[tuple, _Entry] = {}
_TABLE_LOCK = threading.RLock()  # re-entrant: a GC pass inside _intern runs _forget
if hasattr(os, "register_at_fork"):  # a forked child must not inherit a lock another thread held
    os.register_at_fork(after_in_child=_TABLE_LOCK._at_fork_reinit)


def _intern(cls, *values) -> Term:
    """The live ``cls`` term holding ``values`` (already validated and
    normalised); built and entered in the table when there is none."""
    key = (cls, *values)
    entry = _TABLE.get(key)
    term = None if entry is None else entry()
    if term is None:
        with _TABLE_LOCK:  # two threads building one value get one instance
            entry = _TABLE.get(key)
            term = None if entry is None else entry()
            if term is None:
                term = object.__new__(cls)
                for name, value in zip(cls.__slots__, values):
                    object.__setattr__(term, name, value)
                entry = _TABLE[key] = _Entry(term, _forget)
                entry.key = key
    return term


def _forget(entry: _Entry, table=_TABLE, lock=_TABLE_LOCK) -> None:
    """A freed term's callback: drop its entry, unless a new instance of the
    same value has already replaced it."""
    with lock:
        if table.get(entry.key) is entry:
            del table[entry.key]


def _restore_term(cls, state):
    """Unpickling helper: the interned term of the shipped value (no re-validation)."""
    return _intern(cls, *(state[name] for name in cls.__slots__))


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
