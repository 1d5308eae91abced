"""The auxiliary DRILL-IN query ``q_aux`` (Definition 6).

Answering ``Q_DRILL-IN`` from ``pres(Q)`` requires the values of the new
dimension ``d_{n+1}`` for each fact, information that ``pres(Q)`` does not
carry.  Algorithm 2 obtains it by evaluating, against the AnS instance, a
small *auxiliary query* built from the classifier:

* start with the classifier triples mentioning ``d_{n+1}``;
* repeatedly add classifier triples sharing a **non-distinguished**
  (existential) variable with a triple already selected — distinguished
  variables do not propagate, because their values are already present in
  ``pres(Q)`` and will be used as join columns;
* the distinguished variables of ``q_aux`` are the classifier-distinguished
  variables occurring in the selected triples, plus ``d_{n+1}``.

The returned query is joined with ``pres(Q)`` on exactly those
classifier-distinguished variables (``dvars``).
"""

from __future__ import annotations

from typing import List, Sequence, Set, Tuple, Union

from repro.errors import InvalidOperationError
from repro.rdf.terms import Variable
from repro.rdf.triples import TriplePattern
from repro.bgp.query import BGPQuery

__all__ = ["build_auxiliary_query", "auxiliary_join_columns"]


def build_auxiliary_query(
    classifier: BGPQuery,
    new_dimensions: Union[str, Variable, Sequence[Union[str, Variable]]],
    name: str = "q_aux",
) -> BGPQuery:
    """Build ``q_aux(dvars, d_{n+1}, ...)`` for one or more new dimensions.

    The paper defines the construction for a single dimension; for several
    new dimensions the natural generalization is used: the seed set contains
    the triples mentioning any of them, and every new dimension is appended
    to the head.

    Raises
    ------
    InvalidOperationError
        When a requested dimension is not a non-distinguished variable of
        the classifier body.
    """
    if isinstance(new_dimensions, (str, Variable)):
        new_dimensions = [new_dimensions]
    new_variables = [
        dimension if isinstance(dimension, Variable) else Variable(dimension)
        for dimension in new_dimensions
    ]
    if not new_variables:
        raise InvalidOperationError("at least one new dimension is required to build q_aux")

    distinguished: Set[Variable] = set(classifier.head)
    body_variables = classifier.variables()
    for variable in new_variables:
        if variable in distinguished:
            raise InvalidOperationError(
                f"?{variable.name} is already distinguished in the classifier; "
                "drill-in requires a non-distinguished variable"
            )
        if variable not in body_variables:
            raise InvalidOperationError(
                f"?{variable.name} does not occur in the classifier body"
            )

    # Seed: triples containing any of the new dimensions.
    body: List[TriplePattern] = []
    selected: Set[TriplePattern] = set()
    for pattern in classifier.body:
        if pattern.variables() & set(new_variables):
            body.append(pattern)
            selected.add(pattern)

    # Closure through shared *non-distinguished* variables of the classifier.
    existential = classifier.existential_variables()
    changed = True
    while changed:
        changed = False
        reachable_existentials: Set[Variable] = set()
        for pattern in selected:
            reachable_existentials |= pattern.variables() & existential
        for pattern in classifier.body:
            if pattern in selected:
                continue
            if pattern.variables() & reachable_existentials:
                body.append(pattern)
                selected.add(pattern)
                changed = True

    # Head: classifier-distinguished variables occurring in the selected
    # triples, in classifier-head order, followed by the new dimensions.
    selected_variables: Set[Variable] = set()
    for pattern in selected:
        selected_variables |= pattern.variables()
    head: List[Variable] = [
        variable for variable in classifier.head if variable in selected_variables
    ]
    head.extend(new_variables)
    return BGPQuery(head, body, name=name)


def auxiliary_join_columns(classifier: BGPQuery, auxiliary: BGPQuery) -> Tuple[str, ...]:
    """The ``dvars`` on which ``pres(Q)`` and ``q_aux`` are joined.

    These are the classifier-distinguished variables that made it into the
    auxiliary query head (everything in the head except the new dimensions,
    i.e. except the variables that are not distinguished in the classifier).
    """
    distinguished = set(classifier.head)
    return tuple(variable.name for variable in auxiliary.head if variable in distinguished)
