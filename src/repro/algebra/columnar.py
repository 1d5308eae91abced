"""numpy-backed columnar storage: the relation protocol over ``int64`` arrays.

The row engine represents every relation as a Python list of tuples and
iterates it row by row — the dominant cost of from-scratch evaluation once
BGP matching, Σ-selection, the fact-variable join and γ all run in id space.
:class:`ColumnarIdRelation` stores encoded columns as contiguous ``int64``
arrays and implements the relation protocol of
:class:`~repro.algebra.relation.Relation` on them —

* ``select`` — Σ-selection via boolean masks (a column's distinct ids, memoized
  per relation, are tested once by ``values_passing``; the mask is ``np.isin``);
* ``project`` / ``rename`` / ``reorder`` / ``prepend_keys`` — share the arrays;
* ``map_column`` — ROLL-UP's parent substitution: the function runs once per
  (memoized) distinct id, one gather writes the column (the distinct ids and
  each row's position among them come from tables over a dense id span);
* ``dedup`` — δ via the run heads of one sorted packed key, first occurrences
  kept in order;
* ``union_all`` — ∪ by concatenating columns;
* ``splice`` — a delta refresh's replacement of the affected facts' rows: in
  a relation ordered by its fact, the runs are found by ``searchsorted`` and
  the re-derived rows go in at their facts' positions (one ``concatenate``
  per column); the touched groups' rows are found in one packed-key pass;
* ``join_on`` — the int-keyed equi-join (the fact-variable join of
  Definition 4): :func:`expand_sorted` over the right side, argsorted only
  when it is not already in key order, which reads each key's run from an
  offsets table when the ids are dense;
* ``group_states`` — γ's states via the same packed-key group boundaries with
  ``reduceat`` reductions for COUNT/SUM/AVG/MIN/MAX, held in array form
  (:class:`ArrayGroupStates`) so shards merge (concatenate + re-reduce)
  and a whole relation finalizes into a columnar ``ans(Q)`` without boxing
  one Python state per group; COUNT-DISTINCT's state is the δ of the
  ``(group, id)`` pairs, and :func:`distinct_count_states` counts them.

The engine of an operator is the storage of its input: the BGP solver
chooses it once, when it constructs a relation, and every protocol method
returns the storage it was given.  Rows leave the arrays through **one**
conversion, :meth:`ColumnarIdRelation.to_rows`, which takes the reason and
counts it in :data:`ROW_CONVERSIONS`; whatever has no array form (an opaque
σ callable, a multi-pair ⋈, γ over big ints) converts there, by name, and
then runs the row implementation, so semantics never depend on the engine.

Engine selection
----------------

numpy is an **optional extra** (``pip install repro-rdf-olap[fast]``).
:func:`resolve_engine` decides which engine a component runs:

* an explicit ``engine="rows"`` / ``engine="columnar"`` argument wins;
* otherwise the ``REPRO_ENGINE`` environment variable decides;
* otherwise (``auto``) the columnar engine is used when numpy is importable
  and the row engine when it is not.

Forcing ``columnar`` without numpy raises
:class:`~repro.errors.ConfigurationError` naming the ``[fast]`` extra —
never a silent degradation to the row engine.
"""

from __future__ import annotations

import os
from collections import Counter
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import AggregationError, AlgebraError, ConfigurationError, SchemaMismatchError
from repro.algebra.aggregates import COUNT, AggregateFunction, get_aggregate
from repro.algebra.relation import IdRelation, Relation, Row, relation_like

try:  # pragma: no cover - exercised via both CI legs (with and without numpy)
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

__all__ = [
    "HAVE_NUMPY",
    "ENGINE_ENV_VAR",
    "ENGINES",
    "ROW_CONVERSIONS",
    "resolve_engine",
    "ColumnarIdRelation",
    "distinct_count_states",
    "ArrayGroupStates",
    "dedup_arrays",
    "expand_sorted",
]

#: True when numpy is importable (the ``[fast]`` extra is installed).
HAVE_NUMPY = _np is not None

#: Environment variable overriding the default engine choice.
ENGINE_ENV_VAR = "REPRO_ENGINE"

#: The two executable engines (``"auto"`` resolves to one of them).
ENGINES = ("rows", "columnar")

#: ``to_rows`` reason → how often a columnar relation left its arrays for it.
ROW_CONVERSIONS: Counter = Counter()

_FAST_EXTRA_HINT = (
    "the columnar engine requires numpy; install the [fast] extra "
    "(pip install 'repro-rdf-olap[fast]') or select engine='rows'"
)


def resolve_engine(engine: Optional[str] = None) -> str:
    """Resolve an engine request to ``"rows"`` or ``"columnar"``.

    Parameters
    ----------
    engine:
        ``"rows"``, ``"columnar"``, ``"auto"`` or None (= ``"auto"``).  An
        explicit engine wins over the ``REPRO_ENGINE`` environment variable;
        ``"auto"`` defers to the variable and then to numpy availability.

    Raises
    ------
    ConfigurationError
        When the request (or the environment variable) is not a known
        engine, or when ``columnar`` is forced but numpy is absent.

    Examples
    --------
    >>> resolve_engine("rows")
    'rows'
    >>> resolve_engine() in ("rows", "columnar")
    True
    """
    requested = engine if engine is not None else "auto"
    if requested == "auto":
        env = os.environ.get(ENGINE_ENV_VAR, "").strip()
        if env:
            if env not in ENGINES:
                raise ConfigurationError(
                    f"{ENGINE_ENV_VAR}={env!r} is not a valid engine; expected one of {ENGINES}"
                )
            requested = env
        else:
            return "columnar" if HAVE_NUMPY else "rows"
    if requested not in ENGINES:
        raise ConfigurationError(
            f"unknown engine {requested!r}; expected 'rows', 'columnar' or 'auto'"
        )
    if requested == "columnar" and not HAVE_NUMPY:
        raise ConfigurationError(_FAST_EXTRA_HINT)
    return requested


def _as_int64(array) -> "_np.ndarray":
    array = _np.asarray(array)
    if array.dtype != _np.int64:
        array = array.astype(_np.int64)
    return array


def _concatenate(arrays: List["_np.ndarray"]) -> "_np.ndarray":
    """``np.concatenate`` that converts no value: the non-empty arrays, joined
    as ``object`` when their dtypes differ instead of promoted to a common one."""
    filled = [array for array in arrays if len(array)] or arrays[:1]
    if len({array.dtype for array in filled}) > 1:
        filled = [array.astype(object) for array in filled]
    return _np.concatenate(filled)


def _value_array(values: List) -> "_np.ndarray":
    """γ's aggregated column: ``int64`` when every value is a Python ``int``,
    ``float64`` when every one is a ``float``, otherwise ``object``."""
    kinds = set(map(type, values))
    dtype = _np.int64 if kinds <= {int} else _np.float64 if kinds == {float} else object
    column = _np.empty(len(values), dtype)
    column[:] = values
    return column


class ColumnarIdRelation(IdRelation):
    """An :class:`~repro.algebra.relation.IdRelation` stored column-wise.

    Every column is a contiguous numpy array — ``int64`` for term ids and
    the ``newk()`` keys; γ's aggregated column keeps its values' Python
    types (see :func:`_value_array`) — and the relation protocol (σ, π, δ,
    ρ, ⋈, γ, ``take``, ``reorder``, ``prepend_keys``) runs on the arrays
    and returns columnar relations.
    It is an operator output, immutable; row tuples exist only in what
    :meth:`to_rows` returns (the ``rows`` accessor, iteration and
    comparisons go through it under the reason ``"api:rows"``).

    Construct via :meth:`from_arrays`; the protocol methods and the BGP
    evaluator's column-block solver are the only producers.
    """

    __slots__ = ("_column_arrays", "_length", "_distinct")

    @classmethod
    def from_arrays(
        cls,
        columns: Sequence[str],
        arrays: Dict[str, "_np.ndarray"],
        dictionary,
        encoded: Optional[Iterable[str]] = None,
        length: Optional[int] = None,
    ) -> "ColumnarIdRelation":
        """Adopt one array per column (``int64`` if encoded), all of ``length``
        values (default: the first array's; a relation without columns needs it)."""
        if _np is None:  # pragma: no cover - guarded by resolve_engine
            raise ConfigurationError(_FAST_EXTRA_HINT)
        relation = cls.__new__(cls)
        columns = tuple(columns)
        index_of = {name: index for index, name in enumerate(columns)}
        if len(index_of) != len(columns):
            raise SchemaMismatchError(f"duplicate column names in schema: {columns}")
        encoded = frozenset(columns) if encoded is None else frozenset(encoded) & set(columns)
        adopted: Dict[str, "_np.ndarray"] = {}
        for name in columns:
            array = _as_int64(arrays[name]) if name in encoded else _np.asarray(arrays[name])
            if length is None:
                length = len(array)
            elif len(array) != length:
                raise SchemaMismatchError(
                    f"column {name!r} has {len(array)} values, expected {length}"
                )
            adopted[name] = array
        relation._columns = columns
        relation._index_of = index_of
        relation._dictionary = dictionary
        relation._encoded = encoded
        relation._column_arrays = adopted
        relation._length = int(length or 0)
        relation._distinct = {}
        return relation

    def _with(self, columns, arrays, length, encoded=None) -> "ColumnarIdRelation":
        """A relation over (some of) the same dictionary's columns."""
        return ColumnarIdRelation.from_arrays(
            columns, arrays, self._dictionary, self._encoded if encoded is None else encoded, length
        )

    # -- rows: the one way out of the arrays ------------------------------

    def to_rows(self, reason: str) -> Relation:
        """This relation in row storage, same value space — the only place
        column arrays are zipped into tuples; ``reason`` says who needed
        them and is counted in :data:`ROW_CONVERSIONS`."""
        ROW_CONVERSIONS[reason] += 1
        lists = [array.tolist() for array in self._column_arrays.values()]
        rows = list(zip(*lists)) if lists else [()] * self._length
        return relation_like(self._columns, rows, self)

    @property
    def rows(self) -> List[Row]:
        return self.to_rows("api:rows").rows

    def add_row(self, row: Sequence) -> None:
        raise AlgebraError("a ColumnarIdRelation is an operator output and cannot be appended to")

    extend = add_row  # raises whatever it is given, an empty iterable included

    def __len__(self) -> int:
        return self._length

    def __bool__(self) -> bool:
        return self._length > 0

    def column_array(self, name: str) -> "_np.ndarray":
        """The named column's array (read-only)."""
        self.column_index(name)  # raises UnknownColumnError for bad names
        return self._column_arrays[name]

    def column_values(self, name: str) -> List:
        return self.column_array(name).tolist()

    def _distinct_ids(self, name: str, inverse: bool = False):
        """``(distinct, inverse)``: the column's sorted distinct values, memoized on first
        use (two threads may both fill it, equally), and each row's position if asked:
        under :func:`expand_sorted`'s span rule, a presence table and its ``cumsum``."""
        array, distinct = self.column_array(name), self._distinct.get(name)
        span = _dense_span(array) if distinct is None or inverse else None
        if span:
            shifted = array - span[0]
            present = _np.zeros(span[1] - span[0] + 1, dtype=bool)
            present[shifted] = True
            distinct = _np.flatnonzero(present) + span[0]
            positions = (_np.cumsum(present) - 1)[shifted] if inverse else None
        elif distinct is None and inverse:
            distinct, positions = _np.unique(array, return_inverse=True)
        elif distinct is None:  # a sort and a neighbour compare: np.unique alone hashes, ~15x slower
            ordered, positions = _np.sort(array), None
            distinct = ordered[_np.append(True, ordered[1:] != ordered[:-1])[: len(ordered)]]
        else:
            positions = _np.searchsorted(distinct, array) if inverse else None
        self._distinct[name] = distinct
        return distinct, positions

    def distinct_values(self, name: str) -> set:
        return set(self._distinct_ids(name)[0].tolist())

    def decoded_columns(self) -> List[Sequence]:
        """Per column its values, an encoded column's in one gather from the
        dictionary's term table (:meth:`~repro.rdf.dictionary.TermDictionary.decode_many`)
        — no row conversion."""
        return [
            self._dictionary.decode_many(array) if name in self._encoded else array.tolist()
            for name, array in self._column_arrays.items()
        ]

    # -- the relation protocol, on the arrays -----------------------------

    def select(self, predicate) -> "ColumnarIdRelation":
        """σ by Σ's boolean mask."""
        mask = _sigma_mask(self, predicate.sigma)
        return self.take(slice(None) if mask is True else mask)

    def project(self, columns: Sequence[str]) -> "ColumnarIdRelation":
        """π (no copies; the arrays are shared, the bag's cardinality kept)."""
        arrays = {name: self.column_array(name) for name in columns}
        return self._with(tuple(columns), arrays, self._length)

    def dedup(self) -> "ColumnarIdRelation":
        """δ: the head of each run of the (stable) sort is a tuple's first
        occurrence; sorting the heads restores first-occurrence order."""
        if self._length < 2:
            return self
        order, starts = _group_boundaries(list(self._column_arrays.values()), self._length)
        return self.take(_np.sort(order[starts]))

    def rename(self, mapping) -> "ColumnarIdRelation":
        arrays = {mapping.get(name, name): array for name, array in self._column_arrays.items()}
        encoded = {mapping.get(name, name) for name in self._encoded}
        return self._with(tuple(arrays), arrays, self._length, encoded)

    def reorder(self, columns: Sequence[str]) -> "ColumnarIdRelation":
        if set(columns) != set(self._columns) or len(columns) != len(self._columns):
            raise SchemaMismatchError(
                f"reorder columns {tuple(columns)} must be a permutation of {self._columns}"
            )
        return self._with(columns, self._column_arrays, self._length)

    def map_column(self, name: str, function) -> Relation:
        """Substitute one encoded column through ``function``: its image over
        the distinct ids, gathered back by their positions."""
        if name not in self._encoded:
            return self.to_rows("map:plain-column").map_column(name, function)
        distinct, inverse = self._distinct_ids(name, inverse=True)
        image = self._column_image(name, distinct.tolist(), function)
        arrays = dict(self._column_arrays)
        arrays[name] = _np.fromiter(image.values(), dtype=_np.int64, count=len(image))[inverse]
        return self._with(self._columns, arrays, self._length)

    def with_rows(self, rows: List[Row]) -> "ColumnarIdRelation":
        """Id rows (a refresh's re-derived facts) transposed into this storage."""
        block = _np.array(rows, dtype=_np.int64).reshape(len(rows), len(self._columns))
        return self._with(self._columns, dict(zip(self._columns, block.T)), len(rows))

    def __reduce__(self):
        """Pickled as schema and arrays: the ``_distinct`` memo stays behind."""
        return ColumnarIdRelation.from_arrays, (
            self._columns, self._column_arrays, self._dictionary, self._encoded, self._length
        )

    def with_dictionary(self, dictionary) -> "ColumnarIdRelation":
        relation = ColumnarIdRelation.from_arrays(
            self._columns, self._column_arrays, dictionary, self._encoded, self._length
        )
        relation._distinct = self._distinct  # the same arrays
        return relation

    def column_max(self, name: str, default: int = 0):
        return int(self.column_array(name).max()) if self._length else default

    def splice_runs(self, columns: Sequence[str], keys, rows: Relation):
        """A delta refresh's splice (see :meth:`Relation.splice_runs`) in the arrays.

        On one column the relation is ordered by (``pres(Q)`` by its fact),
        the keys' runs are found by ``searchsorted`` and ``rows``, ordered the
        same way, take their places, so the result stays ordered; otherwise
        the matching rows are found by :func:`_rows_in` and ``rows`` follow
        the kept ones.  Either way each column is one ``concatenate`` of the
        kept runs and the inserted ones.  ``rows`` in another storage,
        dictionary or encoding splice as rows.
        """
        if not (
            isinstance(rows, ColumnarIdRelation)
            and rows.dictionary is self._dictionary
            and rows.encoded_columns == self._encoded
        ):
            return self.to_rows("splice:no-array-form").splice_runs(columns, keys, rows)
        if len(columns) == 1 and _ascending(self.column_array(columns[0])):
            name = columns[0]
            wanted = _np.array(sorted({key for key, in keys}), dtype=_np.int64)
            if not _ascending(rows.column_array(name)):
                rows = rows.take(_np.argsort(rows.column_array(name), kind="stable"))
            column, new = self.column_array(name), rows.column_array(name)
            lo, hi = _np.searchsorted(column, wanted), _np.searchsorted(column, wanted, side="right")
            at, to = _np.searchsorted(new, wanted), _np.searchsorted(new, wanted, side="right")
            if int((to - at).sum()) != len(rows):
                raise AlgebraError(f"every spliced row must hold one of the keys in column {name!r}")
        else:
            arrays = [self.column_array(name) for name in columns]
            wanted = _np.array(list(keys), dtype=_np.int64).reshape(len(keys), len(columns))
            picked = _rows_in(arrays, list(wanted.T), len(keys), self._length)
            lo, hi = _np.append(picked, self._length), _np.append(picked + 1, self._length)
            at, to = _np.zeros(len(lo), dtype=_np.int64), _np.zeros(len(lo), dtype=_np.int64)
            to[-1] = len(rows)
        spliced, removed = self._replaced(lo, hi, rows, at, to)
        return spliced, removed, (lo.tolist(), hi.tolist(), at.tolist(), to.tolist()), rows

    def _touched(self, removed: "ColumnarIdRelation", rows: "ColumnarIdRelation", touching: Sequence[str]):
        """:meth:`Relation._touched` in one :func:`_rows_in` pass."""
        groups = [_np.concatenate([removed.column_array(name), rows.column_array(name)]) for name in touching]
        arrays = [self.column_array(name) for name in touching]
        return self.take(_rows_in(arrays, groups, len(removed) + len(rows), self._length))

    def _replaced(self, lo, hi, rows: "ColumnarIdRelation", at, to):
        """``(spliced, removed)``: the disjoint ascending runs ``[lo, hi)`` of
        this relation replaced, each, by the rows ``[at, to)`` of ``rows``."""
        counts = hi - lo
        removed = _np.arange(int(counts.sum())) + _np.repeat(lo - _np.cumsum(counts) + counts, counts)
        kept = list(zip([0, *hi.tolist()], [*lo.tolist(), self._length]))
        inserted = list(zip(at.tolist(), to.tolist()))
        arrays = {}
        for name, array in self._column_arrays.items():
            other, pieces = rows.column_array(name), [array] * (2 * len(inserted) + 1)
            pieces[::2] = [array[start:stop] for start, stop in kept]
            pieces[1::2] = [other[start:stop] for start, stop in inserted]
            arrays[name] = _concatenate(pieces)
        length = self._length - len(removed) + int((to - at).sum())
        return self._with(self._columns, arrays, length), self.take(removed)

    def union_all(self, others: Sequence[Relation]) -> Relation:
        """∪ by concatenating columns; operands that do not share this
        storage, dictionary and encoding are united as rows."""
        if not all(
            isinstance(other, ColumnarIdRelation)
            and other.dictionary is self._dictionary
            and other.encoded_columns == self._encoded
            for other in others
        ):
            return self.to_rows("union:no-array-form").union_all(others)
        arrays = {
            name: _concatenate([array, *(other.column_array(name) for other in others)])
            for name, array in self._column_arrays.items()
        }
        return self._with(self._columns, arrays, self._length + sum(map(len, others)))

    def take(self, indexes) -> "ColumnarIdRelation":
        """Gather rows by position: a slice, a boolean mask or an index array."""
        arrays = {name: array[indexes] for name, array in self._column_arrays.items()}
        length = None if arrays else len(_np.arange(self._length)[indexes])
        return self._with(self._columns, arrays, length)

    def prepend_keys(self, key_column: str, keys: range) -> "ColumnarIdRelation":
        """``mᵏ``: the fresh ``newk()`` keys as a leading ``arange`` column."""
        arrays = {key_column: _np.arange(keys.start, keys.stop, dtype=_np.int64)}
        arrays.update(self._column_arrays)
        return self._with((key_column,) + self._columns, arrays, self._length)

    def join_on(self, right, join_pairs, kept_right_columns) -> Relation:
        """Single-pair ⋈ of two columnar relations via :func:`expand_sorted`
        (:func:`~repro.algebra.operators.join_on` aligned the value spaces);
        other shapes hash-join on rows."""
        if len(join_pairs) != 1 or not isinstance(right, ColumnarIdRelation):
            reason = "join:multi-pair" if len(join_pairs) != 1 else "join:mixed-storage"
            return self.to_rows(reason).join_on(right, join_pairs, kept_right_columns)
        left_column, right_column = join_pairs[0]
        left_idx, right_idx = _expand_matches(
            self.column_array(left_column), right.column_array(right_column)
        )
        arrays = {name: array[left_idx] for name, array in self._column_arrays.items()}
        for name in kept_right_columns:
            arrays[name] = right.column_array(name)[right_idx]
        encoded = self._encoded | (right.encoded_columns & set(kept_right_columns))
        return self._with(self._columns + tuple(kept_right_columns), arrays, len(left_idx), encoded)

    def group_states(self, by: Sequence[str], measure: str, aggregate):
        """One partition's γ states in array form (:class:`ArrayGroupStates`).

        Integer bags reduce exactly (int64 ``reduceat``) and AVG states carry
        exact integer ``(sum, count)`` pairs, so merged shard averages are
        bit-identical to the one-partition answer.  COUNT-DISTINCT, whose
        state is a set of ids per group, holds the δ of its ``(group, id)``
        pairs instead.  An aggregate without array form, or a measure value
        that is not an int64/float64-exact number, takes the dict-form states
        of the rows.
        """
        if aggregate.mergeable and aggregate.name == "count_distinct":
            arrays = [self.column_array(name) for name in (*by, measure)]
            keep = dedup_arrays(arrays)
            pairs = [array[keep] for array in arrays]
            return ArrayGroupStates(aggregate.name, tuple(by), pairs[:-1], pairs[-1:])
        layout = _STATE_ARRAYS.get(aggregate.name) if aggregate.mergeable else None
        values = None
        if layout is not None and self._length and any(of_values for _, of_values in layout):
            values = _measure_value_array(self, measure, aggregate)
            if values is None:
                layout = None
        if layout is None:
            return self.to_rows("gamma:no-array-form").group_states(by, measure, aggregate)
        length = self._length
        key_arrays = [self.column_array(name) for name in by]
        if length == 0:
            empty = _np.empty(0, dtype=_np.int64)
            return ArrayGroupStates(aggregate.name, tuple(by), [empty] * len(by), [empty] * len(layout))
        order, starts = _group_boundaries(key_arrays, length)
        sorted_values = None if values is None else values[order]
        counts = _np.diff(_np.append(starts, length))
        data = [
            _reduce_runs(ufunc, sorted_values, starts) if of_values else counts
            for ufunc, of_values in layout
        ]
        keys = [array[order][starts] for array in key_arrays]
        return ArrayGroupStates(aggregate.name, tuple(by), keys, data)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"ColumnarIdRelation(columns={self._columns}, rows={self._length}, "
            f"encoded={sorted(self._encoded)})"
        )


# ---------------------------------------------------------------------------
# σ: boolean-mask selection
# ---------------------------------------------------------------------------


def _column_mask(relation: ColumnarIdRelation, column: str, test: Callable[[object], bool]):
    """Mask of rows whose (decoded) column value passes ``test``: one
    ``np.isin`` against :meth:`~repro.algebra.relation.Relation.values_passing`;
    ``True`` when every distinct value passes (no mask needed)."""
    array = relation.column_array(column)
    allowed = relation.values_passing(column, test)
    if len(allowed) == len(relation._distinct_ids(column)[0]):
        return True
    return _np.isin(array, _np.asarray(list(allowed), dtype=array.dtype))


def _sigma_mask(relation: ColumnarIdRelation, sigma):
    """Σ's boolean mask: one membership mask per restricted dimension the
    relation holds (True for all rows)."""
    mask = True
    for name in sigma.dimensions:
        restriction = sigma.restriction(name)
        if restriction.is_full or not relation.has_column(name):
            continue
        mask = _combine_and(mask, _column_mask(relation, name, restriction.allows))
    return mask


def _combine_and(left, right):
    if left is True:
        return right
    if right is True:
        return left
    return left & right


# ---------------------------------------------------------------------------
# ⋈: int-keyed equi-join by offsets (dense ids) or searchsorted expansion
# ---------------------------------------------------------------------------

#: How many times its length an id array's span may be to index a table.
_DENSE_SPAN = 4


def _dense_span(ids, ordered: bool = False):
    """``(low, high)`` of an integer id array (``ordered``: sorted) when
    :func:`expand_sorted`'s span rule lets it index a table, else None."""
    if not len(ids) or ids.dtype.kind != "i":
        return None
    low, high = (int(ids[0]), int(ids[-1])) if ordered else (int(ids.min()), int(ids.max()))
    return (low, high) if high - low < _DENSE_SPAN * len(ids) else None


def expand_sorted(left_keys, sorted_keys):
    """Gather indexes of ``left_keys ⋈ sorted_keys`` (right side pre-sorted).

    Returns ``(left_idx, sorted_positions)`` such that
    ``left_keys[left_idx] == sorted_keys[sorted_positions]`` pairwise,
    enumerating every match (bag semantics) grouped by left row, positions
    ascending within a row.  This is the engine's expansion-join primitive:
    the BGP solver joins binding columns against per-predicate sorted
    triple arrays with it, and the fact join against the sorted measure side.

    The span rule: term ids are dense integers, so when the key span
    ``sorted_keys[-1] - sorted_keys[0] + 1`` is at most ``_DENSE_SPAN`` times
    ``len(sorted_keys)``, each key's run is read from an offsets table over
    the span (CSR: a ``cumsum`` of the ``bincount``, O(n + span)) by two
    gathers, and keys outside the span (derived negative ids included) get
    no match.  A wider span takes two ``searchsorted``.  Both give the same
    runs.  :meth:`ColumnarIdRelation._distinct_ids` ranks ids by the same rule.
    """
    span = _dense_span(sorted_keys, ordered=True) if left_keys.dtype.kind == "i" else None
    if span:
        # offsets[i], offsets[i + 1]: the run of key low + i - 1; the first
        # entry serves keys below the span and the last those above it.
        low, high = span
        bincount = _np.bincount(sorted_keys - low)
        offsets = _np.concatenate(([0, 0], _np.cumsum(bincount), [len(sorted_keys)]))
        slots = _np.clip(left_keys, low - 1, high + 1) - (low - 1)
        lo, hi = offsets[slots], offsets[1:][slots]
    else:
        lo = _np.searchsorted(sorted_keys, left_keys, side="left")
        hi = _np.searchsorted(sorted_keys, left_keys, side="right")
    counts = hi - lo
    ends = _np.cumsum(counts)
    total = int(ends[-1]) if len(ends) else 0
    left_idx = _np.repeat(_np.arange(len(left_keys), dtype=_np.int64), counts)
    positions = _np.arange(total, dtype=_np.int64) + _np.repeat(hi - ends, counts)
    return left_idx, positions


def _expand_matches(left_keys, right_keys):
    """Gather indexes of the equi-join ``left_keys ⋈ right_keys``.

    Returns ``(left_idx, right_idx)`` such that
    ``left_keys[left_idx] == right_keys[right_idx]`` pairwise, enumerating
    every match (bag semantics) grouped by left row.
    """
    if _ascending(right_keys):  # the measure side comes out of the solve in fact order
        return expand_sorted(left_keys, right_keys)
    order = _np.argsort(right_keys, kind="stable")
    left_idx, positions = expand_sorted(left_keys, right_keys[order])
    return left_idx, order[positions]


def _ascending(array) -> bool:
    """Whether ``array`` is non-decreasing: one vector compare, no sort."""
    return bool((array[1:] >= array[:-1]).all())


# ---------------------------------------------------------------------------
# γ and δ: one sorted int64 key per row + reduceat reductions
# ---------------------------------------------------------------------------

#: Bits of a non-negative int64: what one packed grouping key can hold.
_KEY_BITS = 63


def _key_codes(array, dense: bool = False):
    """``(codes, width)``: an integer column offset by its minimum (derived ids are
    negative); any other, one too wide or a ``dense`` one as each value's rank."""
    if not dense and array.dtype.kind == "i":
        low = int(array.min())
        width = (int(array.max()) - low).bit_length()
        if width <= _KEY_BITS:
            return _np.subtract(array, low, dtype=_np.int64), width
    distinct, codes = _np.unique(array, return_inverse=True)
    return codes.astype(_np.int64, copy=False), (len(distinct) - 1).bit_length()


def _packed_key(key_arrays: List["_np.ndarray"], length: int):
    """``(key, bits)``: the key columns packed into one int64 per row by bit
    width (the key so far, then the column, re-densified to pass no 63 bits),
    the first column most significant, so equal tuples get equal keys."""
    key, bits = _np.zeros(length, dtype=_np.int64), 0
    for array in key_arrays:
        column, width = _key_codes(array)
        if bits + width > _KEY_BITS:
            key, bits = _key_codes(key, dense=True)
        if bits + width > _KEY_BITS:
            column, width = _key_codes(column, dense=True)
        key, bits = (key << width) | column, bits + width
    return key, bits


def _rows_in(arrays: List["_np.ndarray"], keys: List["_np.ndarray"], count: int, length: int):
    """Ascending positions of the rows whose tuple over ``arrays`` (int64
    columns of ``length`` rows) is one of the ``count`` tuples ``keys`` holds
    (one array per column, parallel; a delta's few).

    One pass over the relation: the first column's values are looked up in
    a presence table of the keys' first components over the column's span
    (``np.isin`` when the span is too wide, under :func:`expand_sorted`'s
    rule).  The few candidates it leaves and the keys are then packed into
    one int64 per tuple (:func:`_packed_key`) and matched by
    ``searchsorted``; no sort touches the relation.
    """
    if not arrays:
        return _np.arange(length if count else 0)
    first, wanted = arrays[0], keys[0]
    span = _dense_span(first)
    if span is None:
        candidates = _np.flatnonzero(_np.isin(first, wanted))
    else:
        table = _np.zeros(span[1] - span[0] + 1, dtype=bool)
        table[wanted[(wanted >= span[0]) & (wanted <= span[1])] - span[0]] = True
        candidates = _np.flatnonzero(table[first - span[0]])
    if len(arrays) == 1 or not len(candidates):
        return candidates
    tuples = [_np.concatenate([array[candidates], part]) for array, part in zip(arrays, keys)]
    packed, _ = _packed_key(tuples, len(candidates) + count)
    found, wanted = packed[: len(candidates)], _np.sort(packed[len(candidates) :])
    slots = _np.minimum(_np.searchsorted(wanted, found), count - 1)
    return candidates[wanted[slots] == found]


def _group_boundaries(key_arrays: List["_np.ndarray"], length: int):
    """Sort rows by the key columns and locate the group runs.

    Returns ``(order, starts)``: ``order`` is the stable sort of the rows by the
    key columns (the first most significant), ``starts`` the positions in it where
    a new group begins.  One sort of one int64 per row: the columns packed by bit
    width (the key so far, then the column, re-densified to pass no 63 bits)
    above the row index, which breaks ties.
    """
    row_bits = (length - 1).bit_length()
    key, bits = _packed_key(key_arrays, length)
    if bits + row_bits > _KEY_BITS:
        key, bits = _key_codes(key, dense=True)
    key = (key << row_bits) | _np.arange(length, dtype=_np.int64)
    key.sort()
    groups = key >> row_bits
    return key & ((1 << row_bits) - 1), _np.flatnonzero(_np.append(True, groups[1:] != groups[:-1]))


def _reduce_runs(ufunc: str, values, starts):
    """One ``ufunc`` reduction per group run.  A float64 sum is Python's
    ``sum`` over the run, in row order as in the row engine: ``np.add.reduceat``
    adds pairwise from eight values on, and float addition does not associate."""
    if ufunc != "add" or values.dtype != _np.float64:
        return getattr(_np, ufunc).reduceat(values, starts)
    listed, bounds = values.tolist(), [*starts.tolist(), len(values)]
    return _np.array([sum(listed[lo:hi]) for lo, hi in zip(bounds, bounds[1:])], dtype=_np.float64)


def dedup_arrays(arrays: List["_np.ndarray"]) -> "_np.ndarray":
    """Indexes of one representative row per distinct tuple (δ, any order)."""
    length = len(arrays[0])
    if length == 0:
        return _np.empty(0, dtype=_np.int64)
    order, starts = _group_boundaries(list(arrays), length)
    return order[starts]


def _measure_value_array(
    relation: ColumnarIdRelation, measure: str, aggregate: AggregateFunction
):
    """Per-row numeric measure values: one kind check and one gather from
    the dictionary's typed column (:meth:`~repro.rdf.dictionary.TermDictionary.numeric_values`).

    Returns an int64 array (all-``int`` bags of magnitude under 2³¹, kept
    exact) or a float64 one (all-``float`` bags), else None — Decimal,
    strings, booleans, larger ints, ints mixed with floats (a group of ints
    alone must still sum to an ``int``) or a custom ``prepare``: the row γ
    owns those semantics, including the skip-the-group answer to undefined
    aggregates.  A column of raw numbers (not ids) is taken as it is when
    its dtype says the same.
    """
    if getattr(aggregate.prepare, "__func__", None) is not AggregateFunction.prepare:
        return None  # a custom conversion: only the row γ applies it
    array = relation.column_array(measure)
    if relation.column_decoder(measure) is not None:
        return relation.dictionary.numeric_values(array)
    if array.dtype == _np.float64 or (
        array.dtype == _np.int64 and -(1 << 31) < array.min() and array.max() < (1 << 31)
    ):
        return array
    return None


def _distinct_value_codes(relation: ColumnarIdRelation, measure: str):
    """Per-row codes identifying the *comparable decoded value* of the measure.

    Two ids decoding to equal comparable values (``"28"`` and ``"28.0"``)
    receive the same code — the distinctness space of count_distinct.
    """
    distinct, inverse = relation._distinct_ids(measure, inverse=True)
    values = distinct.tolist()
    if relation.column_decoder(measure) is not None:
        values = list(map(relation.dictionary.value, values))
    code_of: Dict[object, int] = {}
    codes = [code_of.setdefault(value, len(code_of)) for value in values]
    return _np.asarray(codes, dtype=_np.int64)[inverse]


def _key_rows(key_arrays: List["_np.ndarray"], count: int) -> List[Row]:
    """The group-key tuples of ``count`` groups, as plain Python scalars."""
    if not key_arrays:
        return [()] * count
    return list(zip(*(array.tolist() for array in key_arrays)))


# ---------------------------------------------------------------------------
# array-form aggregate states (γ without boxing one state per group)
# ---------------------------------------------------------------------------

#: The one aggregate → array-state table.  Each state array is named by the
#: reduce ufunc that merges it and — when the flag is True — also builds it
#: from the measure values; flag False arrays are built from the group's row
#: count.  ``count_distinct`` holds pairs, not one reducible state per group;
#: custom aggregates keep dict-form states.
_STATE_ARRAYS: Dict[str, Tuple[Tuple[str, bool], ...]] = {
    "count": (("add", False),),
    "sum": (("add", True),),
    "avg": (("add", True), ("add", False)),
    "min": (("minimum", True),),
    "max": (("maximum", True),),
}


class ArrayGroupStates:
    """Array form of one partition's γ state map.

    The dict form (:func:`repro.algebra.grouping.group_partial_states`)
    boxes one Python state per group; the array form keeps one row per
    group across parallel arrays — ``keys`` (one int64 array per grouping
    column) plus the aggregate's state arrays — so merging two shards'
    states is a concatenate + group-reduce, not a per-group dict fold.

    ``count`` / ``sum`` / ``avg`` / ``min`` / ``max`` over exactly
    representable numeric bags hold one row per group.  ``count_distinct``
    holds one row per distinct ``(group…, id)`` pair of the partition, its
    one data array the ids: :func:`len` counts pairs, not groups, a merge
    concatenates the pairs and :meth:`finalized` counts each group's
    distinct comparable values.  Anything else stays in dict form.  All
    attributes are plain picklable data (states cross process boundaries).
    """

    __slots__ = ("function", "key_columns", "keys", "data")

    def __init__(
        self,
        function: str,
        key_columns: Tuple[str, ...],
        keys: List["_np.ndarray"],
        data: List["_np.ndarray"],
    ):
        self.function = function
        self.key_columns = tuple(key_columns)
        self.keys = list(keys)
        self.data = list(data)

    def __len__(self) -> int:
        """Rows held: groups, or ``(group…, id)`` pairs for ``count_distinct``."""
        return len(self.data[0])

    def _boxed_states(self) -> Iterable:
        """One Python state per group: a single state array boxes to its
        scalar, several to a tuple — the dict form's ``(sum, count)`` pair of
        ``avg`` — so the aggregate's one ``finalize`` serves both forms."""
        data_lists = [array.tolist() for array in self.data]
        return data_lists[0] if len(data_lists) == 1 else zip(*data_lists)

    def to_dict(self) -> Dict[Tuple, object]:
        """Box into the dict-state form (to mix with dict partitions):
        ``count_distinct``'s pairs become ``{key: frozenset(ids)}``."""
        keys = _key_rows(self.keys, len(self))
        if self.function != "count_distinct":
            return dict(zip(keys, self._boxed_states()))
        members: Dict[Tuple, set] = {}
        for key, member in zip(keys, self.data[0].tolist()):
            members.setdefault(key, set()).add(member)
        return {key: frozenset(ids) for key, ids in members.items()}

    def finalized(self, columns: Sequence[str], dictionary, encoded, value=None) -> ColumnarIdRelation:
        """γ's output in the arrays: the key arrays as the grouping
        ``columns`` (``encoded`` of them ids of ``dictionary``), then the
        aggregate's own ``finalize`` of each state; a distributive aggregate's
        state is its value, so its one int64/float64 state array is taken as is.
        ``count_distinct``'s pairs are counted by :func:`distinct_count_states`
        against ``dictionary`` (their ids are its ids when ``value`` is given)."""
        if self.function == "count_distinct":
            ids = (*encoded, columns[-1]) if value is not None else encoded
            pairs = ColumnarIdRelation.from_arrays(
                columns, dict(zip(columns, self.keys + self.data)), dictionary, ids, len(self)
            )
            counts = distinct_count_states(pairs, columns[:-1], columns[-1])
            return counts.finalized(columns, dictionary, encoded)
        aggregate, measures = get_aggregate(self.function), self.data[0]
        if not aggregate.distributive or measures.dtype == object:
            measures = _value_array([aggregate.finalize(s, value) for s in self._boxed_states()])
        arrays = dict(zip(columns, self.keys))
        arrays[columns[-1]] = measures
        return ColumnarIdRelation.from_arrays(columns, arrays, dictionary, encoded, len(self))

    def merge(self, other: "ArrayGroupStates") -> "ArrayGroupStates":
        """Combine two partitions' states (associative and commutative)."""
        if self.function != other.function or self.key_columns != other.key_columns:
            raise AggregationError("cannot merge mismatched array group states")
        keys = [_np.concatenate([mine, theirs]) for mine, theirs in zip(self.keys, other.keys)]
        # int64 and float64 shards re-reduce as objects: an all-int group stays int.
        data = [_concatenate([mine, theirs]) for mine, theirs in zip(self.data, other.data)]
        length = len(data[0])
        if length == 0 or self.function == "count_distinct":
            return ArrayGroupStates(self.function, self.key_columns, keys, data)
        order, starts = _group_boundaries(keys, length)
        merged_keys = [array[order][starts] for array in keys]
        merged_data = [
            getattr(_np, ufunc).reduceat(array[order], starts)
            for (ufunc, _), array in zip(_STATE_ARRAYS[self.function], data)
        ]
        return ArrayGroupStates(self.function, self.key_columns, merged_keys, merged_data)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"ArrayGroupStates({self.function}, {len(self)} rows, "
            f"keys={self.key_columns})"
        )


def distinct_count_states(
    relation: ColumnarIdRelation, by: Sequence[str], measure: str
) -> ArrayGroupStates:
    """γ_{by, count_distinct(measure)} as ``count`` states, in one sort.

    The rows are sorted by group, then by a code of the measure's
    *comparable decoded* value (``"28"`` and ``"28.0"`` share one); the
    heads of the ``(group, code)`` runs are the distinct pairs, and a
    group's distinct count is the number of heads it spans.
    """
    if not relation:
        return relation.group_states(by, measure, COUNT)
    key_arrays = [relation.column_array(name) for name in by]
    codes = _distinct_value_codes(relation, measure)
    order, starts = _group_boundaries([*key_arrays, codes], len(relation))
    heads = [array[order[starts]] for array in key_arrays]
    new_group = _np.zeros(len(starts), dtype=bool)
    new_group[0] = True
    for array in heads:
        new_group[1:] |= array[1:] != array[:-1]
    groups = _np.flatnonzero(new_group)
    counts = _np.diff(_np.append(groups, len(starts)))
    return ArrayGroupStates("count", tuple(by), [array[groups] for array in heads], [counts])
