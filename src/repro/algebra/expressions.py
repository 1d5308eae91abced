"""The value conversion selections (σ) and restrictions compare by.

The one σ predicate is Σ (the paper's Definition 2,
:class:`~repro.analytics.sigma.SigmaPredicate`): a relation compiles it
against its own schema, testing each restricted column's stored values (term
ids where the relation is encoded) against the set
:meth:`~repro.algebra.relation.Relation.values_passing` found, one test per
distinct value.

Values are compared through :func:`comparable`, which converts RDF literals
to native Python values so that a dimension bound to ``Literal("28",
xsd:integer)`` falls in the range ``[20, 30]``.  A term id's comparable value
is :meth:`~repro.rdf.dictionary.TermDictionary.value`, kept by its dictionary.
"""

from __future__ import annotations

__all__ = ["comparable"]


def comparable(value: object) -> object:
    """Return a plain Python value suitable for comparisons.

    RDF literals are converted with :meth:`Literal.to_python`; IRIs and
    blank nodes compare by their string form; everything else is returned
    unchanged.
    """
    to_python = getattr(value, "to_python", None)
    if callable(to_python):
        return to_python()
    n3 = getattr(value, "n3", None)
    if callable(n3) and not isinstance(value, (str, int, float, bool)):
        return str(value)
    return value
