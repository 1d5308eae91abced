"""Triples and triple patterns.

A :class:`Triple` is a ground RDF statement (no variables); a
:class:`TriplePattern` may contain :class:`~repro.rdf.terms.Variable` in any
position and is the building block of BGP queries.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Set, Tuple, Union

from repro.errors import InvalidTripleError
from repro.rdf.terms import IRI, BlankNode, Literal, Term, TermOrVariable, Variable

__all__ = ["Triple", "TriplePattern", "Binding"]

SubjectTerm = Union[IRI, BlankNode]
PredicateTerm = IRI
ObjectTerm = Union[IRI, BlankNode, Literal]

#: A variable binding: maps variables to ground terms.
Binding = Dict[Variable, Term]


class Triple:
    """A ground RDF triple ``(subject, predicate, object)``.

    Positional constraints of RDF are enforced: the subject is an IRI or
    blank node, the predicate an IRI, and the object an IRI, blank node or
    literal.  Triples are immutable and hashable.
    """

    __slots__ = ("subject", "predicate", "object")

    def __init__(self, subject: SubjectTerm, predicate: PredicateTerm, object: ObjectTerm):
        if not isinstance(subject, (IRI, BlankNode)):
            raise InvalidTripleError(
                f"triple subject must be an IRI or blank node, got {type(subject).__name__}"
            )
        if not isinstance(predicate, IRI):
            raise InvalidTripleError(
                f"triple predicate must be an IRI, got {type(predicate).__name__}"
            )
        if not isinstance(object, (IRI, BlankNode, Literal)):
            raise InvalidTripleError(
                f"triple object must be an IRI, blank node or literal, got {type(object).__name__}"
            )
        super().__setattr__("subject", subject)
        super().__setattr__("predicate", predicate)
        super().__setattr__("object", object)

    def __setattr__(self, name, value):
        raise AttributeError("Triple instances are immutable")

    def __reduce__(self):
        # The immutability guard breaks default slots unpickling; rebuild
        # through the constructor (terms pickle on their own).
        return (Triple, (self.subject, self.predicate, self.object))

    def as_tuple(self) -> Tuple[SubjectTerm, PredicateTerm, ObjectTerm]:
        return (self.subject, self.predicate, self.object)

    def n3(self) -> str:
        return f"{self.subject.n3()} {self.predicate.n3()} {self.object.n3()} ."

    def __iter__(self) -> Iterator[Term]:
        return iter(self.as_tuple())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Triple) and self.as_tuple() == other.as_tuple()

    def __hash__(self) -> int:
        return hash(self.as_tuple())

    def __repr__(self) -> str:  # pragma: no cover
        return f"Triple({self.subject.n3()} {self.predicate.n3()} {self.object.n3()})"


class TriplePattern:
    """A triple pattern: each position holds a ground term or a variable.

    Triple patterns support:

    * :meth:`variables` — the set of variables occurring in the pattern;
    * :meth:`matches` — whether a ground triple matches the pattern under an
      optional pre-existing binding;
    * :meth:`bind` — extend a binding with the assignments induced by a
      matching triple;
    * :meth:`substitute` — apply a binding, producing a new (possibly ground)
      pattern.
    """

    __slots__ = ("subject", "predicate", "object")

    def __init__(
        self,
        subject: TermOrVariable,
        predicate: TermOrVariable,
        object: TermOrVariable,
    ):
        if isinstance(subject, Literal):
            raise InvalidTripleError("a literal cannot appear in subject position")
        if isinstance(predicate, (Literal, BlankNode)):
            raise InvalidTripleError("the predicate must be an IRI or a variable")
        for name, term in (("subject", subject), ("predicate", predicate), ("object", object)):
            if not isinstance(term, Term):
                raise InvalidTripleError(f"pattern {name} must be a Term, got {type(term).__name__}")
        super().__setattr__("subject", subject)
        super().__setattr__("predicate", predicate)
        super().__setattr__("object", object)

    def __setattr__(self, name, value):
        raise AttributeError("TriplePattern instances are immutable")

    def __reduce__(self):
        # See Triple.__reduce__: constructor-based pickling around the guard.
        return (TriplePattern, (self.subject, self.predicate, self.object))

    # -- introspection -----------------------------------------------------

    def as_tuple(self) -> Tuple[TermOrVariable, TermOrVariable, TermOrVariable]:
        return (self.subject, self.predicate, self.object)

    def variables(self) -> Set[Variable]:
        return {term for term in self.as_tuple() if isinstance(term, Variable)}

    # -- matching ----------------------------------------------------------

    def matches(self, triple: Triple, binding: Optional[Binding] = None) -> bool:
        """Return True when ``triple`` matches this pattern.

        When ``binding`` is given, variables already bound must match the
        corresponding triple component.
        """
        return self.bind(triple, binding) is not None

    def bind(self, triple: Triple, binding: Optional[Binding] = None) -> Optional[Binding]:
        """Return the extension of ``binding`` induced by matching ``triple``.

        Returns ``None`` when the triple does not match.  The input binding
        is never mutated.
        """
        result: Binding = dict(binding) if binding else {}
        for pattern_term, triple_term in zip(self.as_tuple(), triple.as_tuple()):
            if isinstance(pattern_term, Variable):
                bound = result.get(pattern_term)
                if bound is None:
                    result[pattern_term] = triple_term
                elif bound != triple_term:
                    return None
            elif pattern_term != triple_term:
                return None
        return result

    def substitute(self, binding: Binding) -> "TriplePattern":
        """Return a copy of the pattern with bound variables replaced."""

        def replace(term: TermOrVariable) -> TermOrVariable:
            if isinstance(term, Variable) and term in binding:
                return binding[term]  # type: ignore[return-value]
            return term

        return TriplePattern(replace(self.subject), replace(self.predicate), replace(self.object))

    # -- presentation ------------------------------------------------------

    def n3(self) -> str:
        return f"{self.subject.n3()} {self.predicate.n3()} {self.object.n3()} ."

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TriplePattern) and self.as_tuple() == other.as_tuple()

    def __hash__(self) -> int:
        return hash(("TriplePattern",) + self.as_tuple())

    def __repr__(self) -> str:  # pragma: no cover
        return f"TriplePattern({self.subject.n3()} {self.predicate.n3()} {self.object.n3()})"
