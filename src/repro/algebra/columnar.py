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
  (memoized) distinct id, one gather writes the column;
* ``dedup`` — δ via the run heads of one sorted packed key, first occurrences
  kept in order;
* ``split_on`` / ``union_all`` — the (anti-)semi-join against a set of id
  tuples by ``np.isin`` masks, and ∪ by concatenating columns (the splice of
  a delta refresh);
* ``join_on`` — the int-keyed equi-join (the fact-variable join of
  Definition 4) via argsort + ``searchsorted`` expansion;
* ``group_states`` — γ's states via the same packed-key group boundaries with
  ``reduceat`` reductions for COUNT/SUM/AVG/MIN/MAX, held in array form
  (:class:`ArrayGroupStates`) so shards merge (concatenate + re-reduce)
  and a whole relation finalizes into a columnar ``ans(Q)`` without boxing
  one Python state per group; :func:`distinct_count_states` is the serial
  COUNT-DISTINCT (``count`` over the δ of ``(group, value)`` pairs).

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
        use (two threads may both fill it, equally), and each row's position if asked."""
        array, distinct = self.column_array(name), self._distinct.get(name)
        if distinct is not None:
            return distinct, _np.searchsorted(distinct, array) if inverse else None
        found = _np.unique(array, return_inverse=inverse)
        distinct, positions = found if inverse else (found, None)
        self._distinct[name] = distinct
        return distinct, positions

    def distinct_values(self, name: str) -> set:
        return set(self._distinct_ids(name)[0].tolist())

    def decoded_columns(self) -> List[Sequence]:
        """Per encoded column, its distinct ids decoded once and gathered
        back by their positions — no row conversion."""
        columns = []
        for name, array in self._column_arrays.items():
            if name in self._encoded:
                distinct, inverse = self._distinct_ids(name, inverse=True)
                terms = list(map(self._dictionary.decode, distinct.tolist()))
                columns.append(list(map(terms.__getitem__, inverse.tolist())))
            else:
                columns.append(array.tolist())
        return columns

    # -- the relation protocol, on the arrays -----------------------------

    def select(self, predicate) -> Relation:
        """σ by Σ's boolean mask; any other predicate runs on rows."""
        mask = _predicate_mask(self, predicate)
        if mask is None:
            return self.to_rows("sigma:opaque-predicate").select(predicate)
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

    def with_dictionary(self, dictionary) -> "ColumnarIdRelation":
        relation = ColumnarIdRelation.from_arrays(
            self._columns, self._column_arrays, dictionary, self._encoded, self._length
        )
        relation._distinct = self._distinct  # the same arrays
        return relation

    def column_max(self, name: str, default: int = 0):
        return int(self.column_array(name).max()) if self._length else default

    def split_on(self, columns: Sequence[str], keys, rest: bool = True):
        """``(⋉, ▷)`` by mask: per-column ``np.isin`` against the keys'
        components finds the candidates (exactly the matches for one column);
        with several columns the few candidates are confirmed as tuples."""
        arrays = [self.column_array(name) for name in columns]
        mask = _np.full(self._length, bool(keys))
        for position, array in enumerate(arrays):
            components = _np.fromiter({key[position] for key in keys}, dtype=_np.int64)
            mask &= _np.isin(array, components)
        if len(arrays) > 1:
            candidates = _np.flatnonzero(mask)
            tuples = zip(*(array[candidates].tolist() for array in arrays))
            mask[candidates] = [row in keys for row in tuples]
        return self.take(mask), self.take(~mask) if rest else None

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
        """Single-pair ⋈ of two columnar relations via argsort + ``searchsorted``
        expansion (:func:`~repro.algebra.operators.join_on` aligned the value
        spaces); other shapes hash-join on rows."""
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

    def group_states(self, by: Sequence[str], measure: str, aggregate, serial: bool = False):
        """One partition's γ states in array form (:class:`ArrayGroupStates`).

        Integer bags reduce exactly (int64 ``reduceat``) and AVG states carry
        exact integer ``(sum, count)`` pairs, so merged shard averages are
        bit-identical to the one-partition answer.  COUNT-DISTINCT, whose
        state is a set of ids per group, answers as
        :func:`distinct_count_states` when ``serial`` (no merge follows) and
        boxes only the δ of its ``(group, id)`` pairs otherwise.  An aggregate
        without array form, or a measure value that is not an
        int64/float64-exact number, takes the dict-form states of the rows.
        """
        if aggregate.mergeable and aggregate.name == "count_distinct":
            if serial:
                return distinct_count_states(self, by, measure)
            arrays = [self.column_array(name) for name in (*by, measure)]
            keep = dedup_arrays(arrays)
            keys = _key_rows([array[keep] for array in arrays[:-1]], len(keep))
            ids: Dict[Tuple, List[int]] = {}
            for key, value in zip(keys, arrays[-1][keep].tolist()):
                ids.setdefault(key, []).append(value)
            return {key: aggregate.make(values) for key, values in ids.items()}
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


def _predicate_mask(relation: ColumnarIdRelation, predicate):
    """Σ's boolean mask: one membership mask per restricted dimension the
    relation holds (True for all rows); None for any other predicate."""
    # Duck-typed via the public accessor so algebra need not import the
    # analytics layer.
    sigma = getattr(predicate, "sigma", None)
    if sigma is None or not hasattr(sigma, "dimensions"):
        return None
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
# ⋈: int-keyed equi-join via argsort + searchsorted expansion
# ---------------------------------------------------------------------------


def expand_sorted(left_keys, sorted_keys):
    """Gather indexes of ``left_keys ⋈ sorted_keys`` (right side pre-sorted).

    Returns ``(left_idx, sorted_positions)`` such that
    ``left_keys[left_idx] == sorted_keys[sorted_positions]`` pairwise,
    enumerating every match (bag semantics) grouped by left row.  This is
    the engine's expansion-join primitive: the BGP evaluator's column-block
    solver keeps per-predicate triple arrays pre-sorted and joins binding
    columns against them with two ``searchsorted`` calls.
    """
    lo = _np.searchsorted(sorted_keys, left_keys, side="left")
    hi = _np.searchsorted(sorted_keys, left_keys, side="right")
    counts = hi - lo
    total = int(counts.sum())
    left_idx = _np.repeat(_np.arange(len(left_keys), dtype=_np.int64), counts)
    if total:
        starts = _np.repeat(lo, counts)
        prefix = _np.cumsum(counts) - counts
        offsets = _np.arange(total, dtype=_np.int64) - _np.repeat(prefix, counts)
        positions = starts + offsets
    else:
        positions = _np.empty(0, dtype=_np.int64)
    return left_idx, positions


def _expand_matches(left_keys, right_keys):
    """Gather indexes of the equi-join ``left_keys ⋈ right_keys``.

    Returns ``(left_idx, right_idx)`` such that
    ``left_keys[left_idx] == right_keys[right_idx]`` pairwise, enumerating
    every match (bag semantics) grouped by left row.
    """
    order = _np.argsort(right_keys, kind="stable")
    left_idx, positions = expand_sorted(left_keys, right_keys[order])
    return left_idx, order[positions]


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


def _group_boundaries(key_arrays: List["_np.ndarray"], length: int):
    """Sort rows by the key columns and locate the group runs.

    Returns ``(order, starts)``: ``order`` is the stable sort of the rows by the
    key columns (the first most significant), ``starts`` the positions in it where
    a new group begins.  One sort of one int64 per row: the columns packed by bit
    width (the key so far, then the column, re-densified to pass no 63 bits)
    above the row index, which breaks ties.
    """
    row_bits = (length - 1).bit_length()
    key, bits = _np.zeros(length, dtype=_np.int64), 0
    for array in key_arrays:
        column, width = _key_codes(array)
        if bits + width > _KEY_BITS:
            key, bits = _key_codes(key, dense=True)
        if bits + width > _KEY_BITS:
            column, width = _key_codes(column, dense=True)
        key, bits = (key << width) | column, bits + width
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
#: count.  Aggregates absent here (``count_distinct``, custom ones) keep
#: dict-form states.
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

    Supported for ``count``/``sum``/``avg``/``min``/``max`` over exactly
    representable numeric bags; anything else stays in dict form.  All
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
        return len(self.data[0])

    def _boxed_states(self) -> Iterable:
        """One Python state per group: a single state array boxes to its
        scalar, several to a tuple — the dict form's ``(sum, count)`` pair of
        ``avg`` — so the aggregate's one ``finalize`` serves both forms."""
        data_lists = [array.tolist() for array in self.data]
        return data_lists[0] if len(data_lists) == 1 else zip(*data_lists)

    def to_dict(self) -> Dict[Tuple, object]:
        """Box into the dict-state form (to mix with dict partitions)."""
        return dict(zip(_key_rows(self.keys, len(self)), self._boxed_states()))

    def finalized(self, columns: Sequence[str], dictionary, encoded, value=None) -> ColumnarIdRelation:
        """γ's output in the arrays: the key arrays as the grouping
        ``columns`` (``encoded`` of them ids of ``dictionary``), then the
        aggregate's own ``finalize`` of each state; a distributive aggregate's
        state is its value, so its one int64/float64 state array is taken as is."""
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
        if length == 0:
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
            f"ArrayGroupStates({self.function}, {len(self)} groups, "
            f"keys={self.key_columns})"
        )


def distinct_count_states(
    relation: ColumnarIdRelation, by: Sequence[str], measure: str
) -> ArrayGroupStates:
    """Serial γ_{by, count_distinct(measure)} as ``count`` states over δ.

    The one aggregate whose state (a set of ids per group) has no array
    form: over a whole relation the distinct count of a group is the plain
    count of its distinct ``(group, value)`` pairs, so the serial case
    deduplicates on the *comparable decoded* value and counts, instead of
    boxing one set per group.
    """
    arrays = [relation.column_array(name) for name in by]
    arrays.append(_distinct_value_codes(relation, measure))
    return relation.take(dedup_arrays(arrays)).group_states(by, measure, COUNT)
