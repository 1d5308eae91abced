"""Row predicates for selections (σ) and the value conversion they compare by.

A selection predicate is any callable taking a row dictionary (column name →
value) and returning a boolean.  The structured σ of the pipeline is Σ (the
paper's Definition 2, :class:`~repro.analytics.sigma.SigmaPredicate`),
which also **compiles** against a concrete relation schema:
:func:`compile_predicate` lets it resolve its columns to positions once and
test each row's stored value (a term id where the relation is encoded)
against the set :meth:`~repro.algebra.relation.Relation.values_passing`
found, one test per distinct value.  Any other callable receives per-row
mappings, decoded on id-space relations.

Values are compared through :func:`comparable`, which converts RDF literals
to native Python values so that a dimension bound to ``Literal("28",
xsd:integer)`` falls in the range ``[20, 30]``.  A term id's comparable value
is :meth:`~repro.rdf.dictionary.TermDictionary.value`, kept by its dictionary.
"""

from __future__ import annotations

from typing import Callable, Mapping

__all__ = ["RowPredicate", "comparable", "compile_predicate"]

#: Signature of a selection predicate.
RowPredicate = Callable[[Mapping[str, object]], bool]


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


def compile_predicate(predicate: RowPredicate, relation) -> Callable[[tuple], bool]:
    """Compile a row predicate into a positional test over ``relation``'s rows.

    A predicate with a ``compile`` method (Σ) compiles to direct index
    access; any other callable falls back to a per-row mapping — built
    through :meth:`~repro.algebra.relation.Relation.row_as_dict`, which
    decodes encoded columns, so even opaque predicates see decoded values on
    id-space relations.
    """
    compiler = getattr(predicate, "compile", None)
    if callable(compiler):
        return compiler(relation)
    as_dict = relation.row_as_dict
    return lambda row: bool(predicate(as_dict(row)))
