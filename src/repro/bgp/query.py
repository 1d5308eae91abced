"""Conjunctive (BGP) queries.

A :class:`BGPQuery` is the conjunctive subset of SPARQL used throughout the
paper: a head ``q(x̄)`` listing distinguished (answer) variables, and a body
that is a set of triple patterns.  Queries are evaluated over a
:class:`~repro.rdf.graph.Graph` with either **set** semantics (the default,
used for classifiers and for node/edge definitions of analytical schemas) or
**bag** semantics (used for measure queries).

The module also provides the derived notions the paper relies on:

* rootedness (every variable reachable from a distinguished root variable);
* the set of non-distinguished (existential) variables;
* variable renaming and substitution (used to build extended classifiers);
* the ``m̄`` construction (same body, head = all body variables) from
  Definition 3.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Set, Tuple, Union

from repro.errors import QueryDefinitionError, QueryNotRootedError
from repro.rdf.terms import Term, Variable
from repro.rdf.triples import TriplePattern

__all__ = ["BGPQuery"]


def _as_variable(value: Union[str, Variable]) -> Variable:
    if isinstance(value, Variable):
        return value
    return Variable(value)


class BGPQuery:
    """A basic graph pattern query ``q(x̄) :- t₁, ..., t_α``.

    Parameters
    ----------
    head:
        The distinguished variables, in answer-column order.  Strings are
        accepted and converted to :class:`Variable`.
    body:
        The triple patterns (order is irrelevant semantically; it is kept
        for display and as the optimizer's fallback order).
    name:
        Optional query name used in textual rendering (``q``, ``c``, ``m``...).

    Invariants checked at construction:

    * the head is non-empty and duplicate-free;
    * every head variable occurs in the body (safety).
    """

    __slots__ = ("name", "_head", "_body")

    def __init__(
        self,
        head: Sequence[Union[str, Variable]],
        body: Iterable[TriplePattern],
        name: str = "q",
    ):
        head_variables = tuple(_as_variable(variable) for variable in head)
        if not head_variables:
            raise QueryDefinitionError("a BGP query must have at least one head variable")
        if len(set(head_variables)) != len(head_variables):
            raise QueryDefinitionError(f"duplicate variables in query head: {head_variables}")
        body_patterns = tuple(body)
        if not body_patterns:
            raise QueryDefinitionError("a BGP query must have a non-empty body")
        for pattern in body_patterns:
            if not isinstance(pattern, TriplePattern):
                raise QueryDefinitionError(
                    f"query body must contain TriplePattern objects, got {type(pattern).__name__}"
                )
        body_variables: Set[Variable] = set()
        for pattern in body_patterns:
            body_variables |= pattern.variables()
        missing = [variable for variable in head_variables if variable not in body_variables]
        if missing:
            raise QueryDefinitionError(
                f"head variables {[v.name for v in missing]} do not occur in the query body"
            )
        self.name = name
        self._head = head_variables
        self._body = body_patterns

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------

    @property
    def head(self) -> Tuple[Variable, ...]:
        """The distinguished variables, in answer-column order."""
        return self._head

    @property
    def body(self) -> Tuple[TriplePattern, ...]:
        """The triple patterns of the body."""
        return self._body

    @property
    def head_names(self) -> Tuple[str, ...]:
        return tuple(variable.name for variable in self._head)

    def variables(self) -> Set[Variable]:
        """All variables occurring in the body."""
        result: Set[Variable] = set()
        for pattern in self._body:
            result |= pattern.variables()
        return result

    def existential_variables(self) -> Set[Variable]:
        """Body variables that are not distinguished (not in the head)."""
        return self.variables() - set(self._head)

    def arity(self) -> int:
        return len(self._head)

    # ------------------------------------------------------------------
    # rootedness (Section 2 of the paper)
    # ------------------------------------------------------------------

    def is_rooted_in(self, root: Union[str, Variable]) -> bool:
        """True when every variable is reachable from ``root`` through triples.

        Reachability follows triple patterns in both directions (a pattern
        connects every pair of its variables), which matches the paper's
        graph representation of a rooted BGP.
        """
        root_variable = _as_variable(root)
        if root_variable not in self.variables():
            return False
        adjacency: Dict[Variable, Set[Variable]] = {}
        for pattern in self._body:
            pattern_variables = pattern.variables()
            for variable in pattern_variables:
                adjacency.setdefault(variable, set()).update(pattern_variables - {variable})
        reached = {root_variable}
        frontier = [root_variable]
        while frontier:
            current = frontier.pop()
            for neighbour in adjacency.get(current, ()):
                if neighbour not in reached:
                    reached.add(neighbour)
                    frontier.append(neighbour)
        return reached >= self.variables()

    def root(self) -> Variable:
        """The query root: the first head variable, checked for rootedness."""
        candidate = self._head[0]
        if not self.is_rooted_in(candidate):
            raise QueryNotRootedError(
                f"query {self.name!r} is not rooted in its first head variable {candidate.n3()}"
            )
        return candidate

    def require_rooted(self) -> "BGPQuery":
        """Validate rootedness (raises when violated) and return self."""
        self.root()
        return self

    # ------------------------------------------------------------------
    # transformations
    # ------------------------------------------------------------------

    def with_head(self, head: Sequence[Union[str, Variable]], name: Optional[str] = None) -> "BGPQuery":
        """Return a query with the same body and a different head."""
        return BGPQuery(head, self._body, name=name or self.name)

    def substitute(self, binding: Dict[Variable, Term]) -> "BGPQuery":
        """Ground some variables of the query (drops them from the head).

        Used to build the members of an extended classifier
        ``c_Σ(x, d₁, ..., dₙ)``: each ``c(x, χ₁, ..., χₙ)`` is the classifier
        with the dimension variables substituted by constants.
        """
        new_body = [pattern.substitute(binding) for pattern in self._body]
        new_head = [variable for variable in self._head if variable not in binding]
        if not new_head:
            raise QueryDefinitionError("substitution would remove every head variable")
        return BGPQuery(new_head, new_body, name=self.name)

    # ------------------------------------------------------------------
    # structural introspection used by the drill-in auxiliary query
    # ------------------------------------------------------------------

    def predicates(self) -> Set[Term]:
        """The set of constant predicates used in the body."""
        return {
            pattern.predicate
            for pattern in self._body
            if not isinstance(pattern.predicate, Variable)
        }

    # ------------------------------------------------------------------
    # equality / presentation
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        """Syntactic equality: same head (ordered) and same set of body patterns."""
        if not isinstance(other, BGPQuery):
            return NotImplemented
        return self._head == other._head and set(self._body) == set(other._body)

    def __hash__(self) -> int:
        return hash((self._head, frozenset(self._body)))

    def to_text(self) -> str:
        """Render the query in the paper's ``q(x̄) :- body`` notation."""
        head = ", ".join(f"?{variable.name}" for variable in self._head)
        atoms = []
        for pattern in self._body:
            atoms.append(
                " ".join(
                    term.n3() if not isinstance(term, Variable) else f"?{term.name}"
                    for term in pattern.as_tuple()
                )
            )
        return f"{self.name}({head}) :- " + ", ".join(atoms)

    def __repr__(self) -> str:  # pragma: no cover
        return f"BGPQuery({self.to_text()})"
