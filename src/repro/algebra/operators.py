"""Bag-relational algebra operators: σ, π, δ, ⋈, ×, ∪, rename.

Every operator is a pure function from relations to a new relation; inputs
are never mutated.  All operators have **bag semantics** (Section 3 of the
paper: "all relational algebra operators are assumed to have bag
semantics"); duplicate elimination is explicit via :func:`dedup` (δ).

Operators are *value-space preserving*: applied to id-space relations
(:class:`~repro.algebra.relation.IdRelation`) they compute on integer ids
and return id-space results carrying the encoding metadata forward, so the
whole ``pres(Q)``/``ans(Q)`` pipeline runs without decoding a single term.
Mixed-space inputs (e.g. an encoded ``pres(Q)`` joined with a relation
restored from disk) are aligned by materializing the encoded side first —
correctness over speed on that cold path.

They are also *storage preserving*: σ, π, δ, ρ and ⋈ validate here and
dispatch to the input's own implementation of the relation protocol (row
:class:`~repro.algebra.relation.Relation` or
:class:`~repro.algebra.columnar.ColumnarIdRelation`), so the engine is the
one the input was built in — and so does ∪, whose array form concatenates
the columns of operands sharing storage, dictionary and encoding.  × (⋈'s
empty-pairs case) has only a row algorithm and says so through ``to_rows``.
"""

from __future__ import annotations

from typing import List, Mapping, Sequence, Tuple

from repro.errors import SchemaMismatchError, UnknownColumnError
from repro.algebra.relation import IdRelation, Relation, relation_like

__all__ = [
    "select",
    "project",
    "dedup",
    "rename",
    "join_on",
    "union_all",
    "cross_product",
]


def select(relation: Relation, predicate) -> Relation:
    """σ: keep the rows satisfying ``predicate``, a Σ predicate
    (:meth:`~repro.analytics.sigma.Sigma.predicate`).

    It is compiled once against the relation's column positions (row
    storage) or to a boolean mask (columnar storage).
    """
    return relation.select(predicate)


def project(relation: Relation, columns: Sequence[str]) -> Relation:
    """π: keep only the named columns (bag semantics: duplicates are kept)."""
    return relation.project(columns)


def dedup(relation: Relation) -> Relation:
    """δ: duplicate elimination, preserving first-occurrence order."""
    return relation.dedup()


def rename(relation: Relation, mapping: Mapping[str, str]) -> Relation:
    """ρ: rename columns according to ``mapping`` (old name → new name)."""
    for old in mapping:
        if not relation.has_column(old):
            raise UnknownColumnError(f"cannot rename unknown column {old!r}")
    return relation.rename(mapping)


def _join_operands(
    left: Relation, right: Relation, join_pairs: Sequence[Tuple[str, str]]
) -> Tuple[Relation, Relation]:
    """Bring both join inputs into one value space.

    Ids only join with ids of the *same* dictionary; when the two sides
    disagree on a join column's encoding (or on the dictionary itself),
    both are decoded so the hash keys compare by term value.
    """
    left_id = isinstance(left, IdRelation)
    right_id = isinstance(right, IdRelation)
    if not (left_id or right_id):
        return left, right
    if left_id and right_id and left.dictionary is not right.dictionary:
        return _decoded(left, right)
    for left_name, right_name in join_pairs:
        left_encoded = left_id and left.is_encoded(left_name)
        right_encoded = right_id and right.is_encoded(right_name)
        if left_encoded != right_encoded:
            return _decoded(left, right)
    return left, right


def _decoded(*relations: Relation) -> List[Relation]:
    """The join inputs in the decoded value space (hence in row storage)."""
    return [relation.to_rows("join:mixed-space").materialize() for relation in relations]


def join_on(
    left: Relation,
    right: Relation,
    join_pairs: Sequence[Tuple[str, str]],
) -> Relation:
    """Equi-join on explicit column pairs ``(left_column, right_column)``.

    Right-side join columns are dropped from the output when they carry the
    same name as the corresponding left column (natural-join behaviour);
    differently-named right join columns are kept.
    With an empty ``join_pairs`` this degenerates to the cross product.
    """
    if not join_pairs:
        return cross_product(left, right)

    left, right = _join_operands(left, right, join_pairs)
    dropped_right_columns = {r for l, r in join_pairs if l == r}
    kept_right_names = [name for name in right.columns if name not in dropped_right_columns]
    overlap = set(left.columns) & set(kept_right_names)
    if overlap:
        raise SchemaMismatchError(
            f"join would produce duplicate columns {sorted(overlap)}; rename one side first"
        )
    return left.join_on(right, join_pairs, kept_right_names)


def cross_product(left: Relation, right: Relation) -> Relation:
    """×: Cartesian product (schemas must be disjoint)."""
    overlap = set(left.columns) & set(right.columns)
    if overlap:
        raise SchemaMismatchError(
            f"cross product requires disjoint schemas; shared columns {sorted(overlap)}"
        )
    left, right = left.to_rows("product:no-array-form"), right.to_rows("product:no-array-form")
    if (
        isinstance(left, IdRelation)
        and isinstance(right, IdRelation)
        and left.dictionary is not right.dictionary
    ):
        left, right = left.materialize(), right.materialize()
    columns = tuple(left.columns) + tuple(right.columns)
    rows = [left_row + right_row for left_row in left for right_row in right]
    return relation_like(columns, rows, left, right)


def union_all(*relations: Relation) -> Relation:
    """∪ (bag union): concatenate union-compatible relations, in the first
    one's column order and — when all share it — in its storage."""
    if not relations:
        raise SchemaMismatchError("union_all requires at least one relation")
    first = relations[0]
    others = []
    for other in relations[1:]:
        if other.columns != first.columns:
            if set(other.columns) != set(first.columns):
                raise SchemaMismatchError(
                    f"union of incompatible schemas: {first.columns} vs {other.columns}"
                )
            other = other.reorder(first.columns)
        others.append(other)
    return first.union_all(others)
