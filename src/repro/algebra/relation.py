"""Bag relations: the tabular data structure the OLAP algorithms operate on.

The paper phrases its rewriting algorithms (Algorithm 1 and 2, and the DICE
selection of Proposition 1) in terms of relational algebra **with bag
semantics** over tables such as ``pres(Q)`` and ``ans(Q)``.  A
:class:`Relation` is exactly such a table: an ordered list of column names
plus a list of rows (tuples), where duplicate rows are meaningful.

Rows hold arbitrary hashable Python values; in this project they are RDF
terms (for dimension and fact columns), integers (for the ``newk()`` key
column of extended measure results) and Python numbers (for aggregated
measures).

Two value spaces coexist:

* a plain :class:`Relation` holds *decoded* values (RDF term objects,
  numbers);
* an :class:`IdRelation` keeps designated columns as dictionary-encoded
  integer ids, tagged with the owning
  :class:`~repro.rdf.dictionary.TermDictionary`.  The execution engine works
  on id relations end-to-end and decodes only at the result boundary via
  :meth:`IdRelation.materialize` / :meth:`IdRelation.iter_decoded` (late
  materialization, the classical dictionary-encoded RDF engine design).
"""

from __future__ import annotations

from itertools import compress, count
from operator import itemgetter, not_
from typing import Callable, Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.errors import AggregationError, SchemaMismatchError, UnknownColumnError
from repro.algebra.aggregates import POISONED_GROUP

__all__ = ["Relation", "IdRelation", "Row", "relation_like"]


def tuple_getter(positions: Sequence[int]) -> Callable[[Row], Tuple]:
    """A fast row → tuple-of-positions extractor (always returns a tuple).

    ``operator.itemgetter`` unpacks to a scalar for a single position; this
    wrapper keeps the tuple shape the operators rely on for keys and rows.
    """
    if not positions:
        return lambda row: ()
    if len(positions) == 1:
        index = positions[0]
        return lambda row: (row[index],)
    return itemgetter(*positions)

#: A row is a tuple of values, positionally aligned with the relation schema.
Row = Tuple


class Relation:
    """An ordered-schema bag of rows.

    Parameters
    ----------
    columns:
        Column names, in order.  Names must be unique.
    rows:
        Iterable of tuples (or lists), each of the same arity as ``columns``.

    The relational operators are the free functions of
    :mod:`repro.algebra.operators` and :mod:`repro.algebra.grouping`; they
    dispatch to this class's *relation protocol* methods (the row
    algorithms), return new relations and never mutate their inputs.
    """

    __slots__ = ("_columns", "_rows", "_index_of")

    def __init__(self, columns: Sequence[str], rows: Optional[Iterable[Sequence]] = None):
        columns = tuple(columns)
        if len(set(columns)) != len(columns):
            raise SchemaMismatchError(f"duplicate column names in schema: {columns}")
        self._columns: Tuple[str, ...] = columns
        self._index_of: Dict[str, int] = {name: index for index, name in enumerate(columns)}
        materialized: List[Row] = []
        if rows is not None:
            arity = len(columns)
            for row in rows:
                row_tuple = tuple(row)
                if len(row_tuple) != arity:
                    raise SchemaMismatchError(
                        f"row arity {len(row_tuple)} does not match schema arity {arity}: {row_tuple!r}"
                    )
                materialized.append(row_tuple)
        self._rows = materialized

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def adopt(cls, columns: Sequence[str], rows: List[Row]) -> "Relation":
        """Adopt a pre-validated row list without copying or re-checking arity.

        The operators' fast path: they construct correct-arity tuples by
        design, so per-row validation would only re-verify what the code
        already guarantees.  The list is adopted as-is — callers must not
        reuse it.
        """
        relation = cls.__new__(cls)
        relation._init_adopted(tuple(columns), rows)
        return relation

    def _init_adopted(self, columns: Tuple[str, ...], rows: List[Row]) -> None:
        self._columns = columns
        self._index_of = {name: index for index, name in enumerate(columns)}
        if len(self._index_of) != len(columns):
            raise SchemaMismatchError(f"duplicate column names in schema: {columns}")
        self._rows = rows

    @classmethod
    def empty(cls, columns: Sequence[str]) -> "Relation":
        """An empty relation with the given schema."""
        return cls(columns, [])

    # ------------------------------------------------------------------
    # schema
    # ------------------------------------------------------------------

    @property
    def columns(self) -> Tuple[str, ...]:
        return self._columns

    @property
    def arity(self) -> int:
        return len(self._columns)

    def has_column(self, name: str) -> bool:
        return name in self._index_of

    def column_index(self, name: str) -> int:
        """Return the position of a column; raise :class:`UnknownColumnError` otherwise."""
        try:
            return self._index_of[name]
        except KeyError:
            raise UnknownColumnError(f"unknown column {name!r}; schema is {self._columns}") from None

    def column_indexes(self, names: Sequence[str]) -> Tuple[int, ...]:
        return tuple(self.column_index(name) for name in names)

    # ------------------------------------------------------------------
    # rows
    # ------------------------------------------------------------------

    @property
    def rows(self) -> List[Row]:
        """The underlying row list.  Treat as read-only."""
        return self._rows

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    def __bool__(self) -> bool:
        return bool(self._rows)

    def add_row(self, row: Sequence) -> None:
        """Append one row (used by builders; operators never mutate inputs)."""
        row_tuple = tuple(row)
        if len(row_tuple) != self.arity:
            raise SchemaMismatchError(
                f"row arity {len(row_tuple)} does not match schema arity {self.arity}"
            )
        self._rows.append(row_tuple)

    def extend(self, rows: Iterable[Sequence]) -> None:
        for row in rows:
            self.add_row(row)

    def column_values(self, name: str) -> List:
        """Return the list of values in the named column (with duplicates)."""
        index = self.column_index(name)
        return [row[index] for row in self.rows]

    def distinct_values(self, name: str) -> set:
        """Return the set of distinct values in the named column."""
        index = self.column_index(name)
        return {row[index] for row in self.rows}

    def values_passing(self, name: str, test: Callable[[object], bool]) -> set:
        """The distinct stored values of one column (term ids where it is
        encoded) whose *decoded* value passes ``test``, each tested once —
        Σ's selection on either engine is membership in this set."""
        decode = self.column_decoder(name)
        if decode is None:
            return {value for value in self.distinct_values(name) if test(value)}
        return {value for value in self.distinct_values(name) if test(decode(value))}

    # ------------------------------------------------------------------
    # value space (overridden by IdRelation)
    # ------------------------------------------------------------------

    def materialize(self) -> "Relation":
        """Return the decoded view of this relation (self for plain relations)."""
        return self

    def iter_decoded(self) -> Iterator[Row]:
        """Iterate over decoded rows (the rows themselves for plain relations)."""
        return iter(self.rows)

    def decoded_columns(self) -> List[Sequence]:
        """The relation transposed: one sequence of decoded values per column."""
        rows = self.rows
        return list(zip(*rows)) if rows else [()] * len(self._columns)

    def column_decoder(self, name: str) -> Optional[Callable[[object], object]]:
        """Return the id→term decoder for an encoded column, or None.

        Plain relations hold decoded values everywhere, so this is always
        None here; :class:`IdRelation` returns the dictionary decoder for
        its encoded columns.  Operators and predicates use this to stay
        positional while remaining correct on both value spaces.
        """
        return None

    def _new(self, columns: Sequence[str], rows: Iterable[Sequence]) -> "Relation":
        """Construct a same-space relation (metadata-preserving factory)."""
        return Relation(columns, rows)

    # ------------------------------------------------------------------
    # comparison
    # ------------------------------------------------------------------

    def to_multiset(self) -> Dict[Row, int]:
        """Return the bag of rows as a multiplicity map."""
        counts: Dict[Row, int] = {}
        for row in self.rows:
            counts[row] = counts.get(row, 0) + 1
        return counts

    def bag_equal(self, other: "Relation", ignore_column_order: bool = False) -> bool:
        """Bag equality: same schema and same rows with the same multiplicities.

        With ``ignore_column_order=True`` the comparison first aligns the
        other relation's columns to this relation's order.
        """
        if not isinstance(other, Relation):
            return False
        if ignore_column_order:
            if set(self._columns) != set(other._columns):
                return False
            other = other.reorder(self._columns)
        elif self._columns != other._columns:
            return False
        left, right = _comparison_pair(self, other)
        return left.to_multiset() == right.to_multiset()

    def __eq__(self, other: object) -> bool:
        """Relations compare by bag equality with identical schemas."""
        if not isinstance(other, Relation):
            return NotImplemented
        return self.bag_equal(other)

    def __hash__(self):  # relations are mutable via add_row
        raise TypeError("Relation objects are unhashable")

    # ------------------------------------------------------------------
    # simple reshaping (pure, returns new relations)
    # ------------------------------------------------------------------

    def reorder(self, columns: Sequence[str]) -> "Relation":
        """Return a relation with the same rows, columns re-ordered."""
        if set(columns) != set(self._columns) or len(columns) != len(self._columns):
            raise SchemaMismatchError(
                f"reorder columns {tuple(columns)} must be a permutation of {self._columns}"
            )
        indexes = self.column_indexes(columns)
        return self._new(columns, (tuple(row[i] for i in indexes) for row in self._rows))

    def copy(self) -> "Relation":
        return self._new(self._columns, self.rows)

    # ------------------------------------------------------------------
    # the relation protocol, row storage (the free functions of
    # :mod:`~repro.algebra.operators` / :mod:`~repro.algebra.grouping`
    # validate and dispatch here; ``ColumnarIdRelation`` is the other
    # implementation, so an operator's engine is its input's storage)
    # ------------------------------------------------------------------

    def to_rows(self, reason: str) -> "Relation":
        """This relation in row storage — itself; columnar storage converts and counts."""
        return self

    def select(self, predicate) -> "Relation":
        test = predicate.compile(self)
        return relation_like(self._columns, [row for row in self._rows if test(row)], self)

    def project(self, columns: Sequence[str]) -> "Relation":
        getter = tuple_getter(self.column_indexes(columns))
        return relation_like(tuple(columns), [getter(row) for row in self._rows], self)

    def dedup(self) -> "Relation":
        return relation_like(self._columns, list(dict.fromkeys(self._rows)), self)

    def rename(self, mapping: Mapping[str, str]) -> "Relation":
        return Relation(tuple(mapping.get(name, name) for name in self._columns), self._rows)

    def map_column(self, name: str, function: Callable[[object], object]) -> "Relation":
        """Replace one column's values by ``function`` of them (ROLL-UP's
        parent substitution), calling it once per *distinct* value.

        ``function`` maps decoded values to decoded values; an encoded column
        stays encoded — a result that is no term of the graph gets a derived
        id (:meth:`~repro.rdf.dictionary.TermDictionary.encode_derived`).
        """
        index = self.column_index(name)
        image = self._column_image(name, {row[index] for row in self._rows}, function)
        rows = [row[:index] + (image[row[index]],) + row[index + 1 :] for row in self._rows]
        return relation_like(self._columns, rows, self)

    def _column_image(self, name: str, distinct: Iterable, function) -> Dict[object, object]:
        """``{stored value: stored image}`` of ``function`` over one column's
        distinct stored values — the identity encoding on a plain column."""
        return {value: function(value) for value in distinct}

    def with_rows(self, rows: List[Row]) -> "Relation":
        """This schema, value space and storage over other ``rows`` (adopted)."""
        return relation_like(self._columns, rows, self)

    def with_dictionary(self, dictionary) -> "Relation":
        """The same rows read against ``dictionary`` — one that agrees with
        this relation's on every id it holds (a later generation of the same
        graph); nothing is copied.  A plain relation holds no ids: itself."""
        return self

    def column_max(self, name: str, default: int = 0):
        """The largest value of one column (``default`` when empty)."""
        return max(self.column_values(name), default=default)

    def splice(self, columns: Sequence[str], keys, rows: "Relation", touching=None):
        """A delta refresh's splice: this bag with the rows whose tuple over
        ``columns`` is in ``keys`` (a set of value tuples) replaced by ``rows``,
        each of which holds one of the keys, in this storage and value space.

        Returns ``(spliced, removed, touched)``: ``removed`` the replaced rows in
        row order and, when ``touching`` names columns, ``touched`` the rows of
        ``spliced`` whose tuple over them is that of a removed or inserted row,
        in ``spliced``'s order (None otherwise).  Row storage keeps the other
        rows in order and appends ``rows``.
        """
        spliced, removed, _, rows = self.splice_runs(columns, keys, rows)
        return spliced, removed, None if touching is None else spliced._touched(removed, rows, touching)

    def splice_runs(self, columns: Sequence[str], keys, rows: "Relation"):
        """:meth:`splice` without ``touching``, telling how it spliced:
        ``(spliced, removed, (lo, hi, at, to), rows)`` — the disjoint ascending
        runs ``[lo, hi)`` of this relation replaced, each, by the rows
        ``[at, to)`` of the ``rows`` returned (reordered where the storage keeps
        the result ordered) — so a sequence parallel to the rows splices alike."""
        key_of = tuple_getter(self.column_indexes(columns))
        hits = list(map(keys.__contains__, map(key_of, self._rows)))
        gone, length = list(compress(count(), hits)), len(self._rows)
        spliced = self.with_rows([*compress(self._rows, map(not_, hits)), *rows.rows])
        ends = [position + 1 for position in gone]
        runs = ([*gone, length], [*ends, length], [0] * (len(gone) + 1), [0] * len(gone) + [len(rows)])
        return spliced, self.with_rows(list(compress(self._rows, hits))), runs, rows

    def _touched(self, removed: "Relation", rows: "Relation", touching: Sequence[str]) -> "Relation":
        """The rows of this splice result whose tuple over ``touching`` is that
        of a ``removed`` or an inserted row (``rows``), in row order."""
        group_of = tuple_getter(self.column_indexes(touching))
        groups = set(map(group_of, removed.rows)) | set(map(group_of, rows.rows))
        return self.with_rows([row for row in self._rows if group_of(row) in groups])

    def union_all(self, others: Sequence["Relation"]) -> "Relation":
        """∪ with relations of this schema (bag union: rows concatenated)."""
        relations = aligned_rows([self, *others])
        rows = [row for relation in relations for row in relation.rows]
        return relation_like(self._columns, rows, *relations)

    def take(self, indexes) -> "Relation":
        """Gather rows by position: a slice or an iterable of row numbers."""
        rows = self._rows
        picked = rows[indexes] if isinstance(indexes, slice) else [rows[i] for i in indexes]
        return relation_like(self._columns, picked, self)

    def prepend_keys(self, key_column: str, keys: range) -> "Relation":
        """``mᵏ``: one fresh ``newk()`` key per row, as a plain leading column."""
        rows = [(key,) + row for key, row in zip(keys, self._rows)]
        return relation_like((key_column,) + self._columns, rows, self)

    def join_on(
        self,
        right: "Relation",
        join_pairs: Sequence[Tuple[str, str]],
        kept_right_columns: Sequence[str],
    ) -> "Relation":
        """Hash equi-join; :func:`~repro.algebra.operators.join_on` aligned the
        value spaces and chose which right columns survive."""
        right = right.to_rows("join:mixed-storage")
        # Single-column equi-joins (the fact-variable join of Definition 4 and
        # the engine's hottest operation) hash the bare value — an int in id
        # space — instead of a 1-tuple.
        if len(join_pairs) == 1:
            left_key = self.column_index(join_pairs[0][0])
            right_key = right.column_index(join_pairs[0][1])
            left_key_of = lambda row: row[left_key]  # noqa: E731
            right_key_of = lambda row: row[right_key]  # noqa: E731
        else:
            left_key_of = tuple_getter(self.column_indexes([l for l, _ in join_pairs]))
            right_key_of = tuple_getter(right.column_indexes([r for _, r in join_pairs]))
        right_part_of = tuple_getter(right.column_indexes(kept_right_columns))

        # Build a hash table on the smaller input to bound memory.
        rows: List[Row] = []
        table: Dict[object, List[Row]] = {}
        empty: List[Row] = []
        if len(right) <= len(self):
            for row in right._rows:
                table.setdefault(right_key_of(row), []).append(right_part_of(row))
            for left_row in self._rows:
                for right_part in table.get(left_key_of(left_row), empty):
                    rows.append(left_row + right_part)
        else:
            for row in self._rows:
                table.setdefault(left_key_of(row), []).append(row)
            for right_row in right._rows:
                matches = table.get(right_key_of(right_row), empty)
                if matches:
                    right_part = right_part_of(right_row)
                    for left_row in matches:
                        rows.append(left_row + right_part)
        return relation_like(self._columns + tuple(kept_right_columns), rows, self, right)

    def group_states(self, by: Sequence[str], measure: str, aggregate):
        """One partition's γ: a dict of one aggregate state per group.

        ``None`` measures are filtered, encoded measure values are read as
        their dictionary's :meth:`~repro.rdf.dictionary.TermDictionary.value`
        (never, for ``raw_states`` aggregates), and a group whose bag is
        undefined under ⊕ is held as :data:`~repro.algebra.aggregates.POISONED_GROUP`
        so the omission survives a merge.
        """
        measure_index = self.column_index(measure)
        key_of = tuple_getter(self.column_indexes(by))
        # count / count_distinct states are built from the raw column values
        # (term ids on encoded relations) — no conversion while grouping.
        value_of = None
        if not aggregate.raw_states and self.column_decoder(measure) is not None:
            value_of = self.dictionary.value
        bags: Dict[Tuple, List] = {}
        for row in self._rows:
            bags.setdefault(key_of(row), []).append(row[measure_index])
        states: Dict[Tuple, object] = {}
        for key, bag in bags.items():
            values = [value for value in bag if value is not None]
            if not values:
                continue
            try:
                if not aggregate.raw_states:
                    if value_of is not None:
                        values = list(map(value_of, values))
                    values = aggregate.prepare(values)
                states[key] = aggregate.make(values)
            except AggregationError:
                states[key] = POISONED_GROUP
        return states

    # ------------------------------------------------------------------
    # presentation
    # ------------------------------------------------------------------

    def head(self, count: int = 10) -> "Relation":
        """Return the first ``count`` rows (for display)."""
        return self.take(slice(count))

    def sorted(self) -> "Relation":
        """Return the relation with rows sorted by their repr (stable display order)."""
        return self._new(self._columns, sorted(self.rows, key=repr))

    def to_text(self, max_rows: int = 20) -> str:
        """Render an ASCII table of the relation (used by examples and the CLI)."""
        shown = self.rows[:max_rows]
        headers = [str(column) for column in self._columns]
        rendered = [[_render_value(value) for value in row] for row in shown]
        widths = [len(header) for header in headers]
        for row in rendered:
            for index, cell in enumerate(row):
                widths[index] = max(widths[index], len(cell))
        separator = "-+-".join("-" * width for width in widths)
        lines = [
            " | ".join(header.ljust(width) for header, width in zip(headers, widths)),
            separator,
        ]
        for row in rendered:
            lines.append(" | ".join(cell.ljust(width) for cell, width in zip(row, widths)))
        if len(self) > max_rows:
            lines.append(f"... ({len(self) - max_rows} more rows)")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Relation(columns={self._columns}, rows={len(self._rows)})"


class IdRelation(Relation):
    """A relation whose designated columns hold dictionary-encoded term ids.

    Parameters
    ----------
    columns, rows:
        As for :class:`Relation`; values in encoded columns are integer ids
        of the owning dictionary, values elsewhere are plain Python objects
        (``newk()`` keys, aggregated measures, ...).
    dictionary:
        The :class:`~repro.rdf.dictionary.TermDictionary` the ids belong to
        (in practice: the dictionary of the graph the rows were matched on).
    encoded:
        The names of the id-encoded columns; defaults to every column.

    Operators propagate the encoding metadata (see :func:`relation_like`),
    so selections, projections, joins, dedup and grouping all run on machine
    integers; terms are only materialized at the result boundary.
    """

    __slots__ = ("_dictionary", "_encoded")

    @classmethod
    def adopt_encoded(
        cls,
        columns: Sequence[str],
        rows: List[Row],
        dictionary,
        encoded: Optional[Iterable[str]] = None,
    ) -> "IdRelation":
        """Adopt a pre-validated id row list (see :meth:`Relation.adopt`)."""
        relation = cls.__new__(cls)
        columns = tuple(columns)
        relation._init_adopted(columns, rows)
        relation._dictionary = dictionary
        relation._encoded = (
            frozenset(columns) if encoded is None else frozenset(encoded) & set(columns)
        )
        return relation

    def __init__(
        self,
        columns: Sequence[str],
        rows: Optional[Iterable[Sequence]] = None,
        dictionary=None,
        encoded: Optional[Iterable[str]] = None,
    ):
        super().__init__(columns, rows)
        if dictionary is None:
            raise SchemaMismatchError("an IdRelation requires the owning TermDictionary")
        self._dictionary = dictionary
        if encoded is None:
            self._encoded: FrozenSet[str] = frozenset(self._columns)
        else:
            self._encoded = frozenset(encoded) & set(self._columns)

    # -- metadata ------------------------------------------------------

    @property
    def dictionary(self):
        """The term dictionary the encoded ids belong to."""
        return self._dictionary

    @property
    def encoded_columns(self) -> FrozenSet[str]:
        """Names of the columns holding term ids."""
        return self._encoded

    def is_encoded(self, name: str) -> bool:
        return name in self._encoded

    def column_decoder(self, name: str) -> Optional[Callable[[object], object]]:
        if name in self._encoded:
            return self._dictionary.decode
        return None

    def rename(self, mapping: Mapping[str, str]) -> "Relation":
        columns = tuple(mapping.get(name, name) for name in self._columns)
        encoded = {mapping.get(name, name) for name in self._encoded}
        return IdRelation(columns, self._rows, dictionary=self._dictionary, encoded=encoded)

    def with_dictionary(self, dictionary) -> "Relation":
        return IdRelation.adopt_encoded(self._columns, self._rows, dictionary, self._encoded)

    def _new(self, columns: Sequence[str], rows: Iterable[Sequence]) -> "Relation":
        encoded = self._encoded & set(columns)
        if not encoded:
            return Relation(columns, rows)
        return IdRelation(columns, rows, dictionary=self._dictionary, encoded=encoded)

    # -- late materialization ------------------------------------------

    def materialize(self) -> Relation:
        """Decode every encoded column and return a plain relation."""
        return Relation.adopt(self._columns, list(self.iter_decoded()))

    def iter_decoded(self) -> Iterator[Row]:
        """Iterate over the decoded rows (decoded column-wise, up front)."""
        columns = self.decoded_columns()
        return zip(*columns) if columns else iter(self.rows)

    def decoded_columns(self) -> List[Sequence]:
        """The one decode: transpose, then per encoded column one
        ``{id: term}`` table over its *distinct* ids mapped back over it."""
        columns = super().decoded_columns()
        decode = self._dictionary.decode
        for index, name in enumerate(self._columns):
            if name in self._encoded:
                terms = {value_id: decode(value_id) for value_id in set(columns[index])}
                columns[index] = list(map(terms.__getitem__, columns[index]))
        return columns

    def _column_image(self, name: str, distinct: Iterable, function) -> Dict[object, object]:
        if name not in self._encoded:
            return super()._column_image(name, distinct, function)
        decode, encode = self._dictionary.decode, self._dictionary.encode_derived
        return {value_id: encode(function(decode(value_id))) for value_id in distinct}

    def to_text(self, max_rows: int = 20) -> str:
        return self.materialize().to_text(max_rows=max_rows)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"IdRelation(columns={self._columns}, rows={len(self._rows)}, "
            f"encoded={sorted(self._encoded)})"
        )


def _comparison_pair(left: Relation, right: Relation) -> Tuple[Relation, Relation]:
    """Bring two relations into the decoded space before row comparison.

    Two id relations over the *same* dictionary compare directly on ids
    (the encoding is bijective); any other mix is decoded first.
    """
    if isinstance(left, IdRelation) and isinstance(right, IdRelation):
        if left.dictionary is right.dictionary and left.encoded_columns == right.encoded_columns:
            return left, right
    return left.materialize(), right.materialize()


def aligned_rows(relations: Sequence[Relation]) -> List[Relation]:
    """∪ inputs in row storage and one value space: ids only when every
    input is encoded against one dictionary with one encoding per column."""
    relations = [relation.to_rows("union:no-array-form") for relation in relations]
    id_relations = [relation for relation in relations if isinstance(relation, IdRelation)]
    if not id_relations:
        return relations
    dictionary = id_relations[0].dictionary
    aligned = (
        len(id_relations) == len(relations)
        and all(relation.dictionary is dictionary for relation in id_relations)
        and len({relation.encoded_columns for relation in id_relations}) == 1
    )
    if aligned:
        return relations
    return [relation.materialize() for relation in relations]


def relation_like(
    columns: Sequence[str],
    rows: Optional[Iterable[Sequence]],
    *sources: Relation,
    plain_columns: Sequence[str] = (),
) -> Relation:
    """Construct an operator result carrying the sources' encoding metadata.

    The encoded column set of the result is the union of the sources'
    encoded columns restricted to ``columns`` (minus ``plain_columns``,
    used when an operator overwrites a column with decoded values, e.g. the
    aggregated measure of γ).  Sources must already live in one id space;
    operators align mixed-space inputs by materializing before combining.

    Rows are **adopted**, not validated: callers construct correct-arity
    tuples by design (a list argument is taken over without copying).
    """
    dictionary = None
    encoded: set = set()
    for source in sources:
        if isinstance(source, IdRelation):
            if dictionary is None:
                dictionary = source.dictionary
            elif dictionary is not source.dictionary:
                raise SchemaMismatchError(
                    "cannot combine relations encoded against different dictionaries; "
                    "materialize one side first"
                )
            encoded |= source.encoded_columns
    encoded &= set(columns)
    encoded -= set(plain_columns)
    row_list = rows if type(rows) is list else list(rows or ())
    if dictionary is None or not encoded:
        return Relation.adopt(columns, row_list)
    return IdRelation.adopt_encoded(columns, row_list, dictionary, encoded)


def _render_value(value: object) -> str:
    """Human-friendly cell rendering: RDF terms use their short/N3 form."""
    n3 = getattr(value, "n3", None)
    if callable(n3):
        local = getattr(value, "local_name", None)
        if callable(local):
            return local()
        return str(value)
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)
