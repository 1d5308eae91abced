"""Term dictionary: bidirectional mapping between RDF terms and integer ids.

RDF stores conventionally encode terms into fixed-size integers so that the
triple indexes and join processing operate on machine words instead of
strings.  :class:`TermDictionary` provides that encoding layer for
:class:`~repro.rdf.graph.Graph`.

Identifiers are dense, starting at 0, and are assigned in first-seen order,
which makes encoded datasets deterministic for a deterministic insertion
order — a property the benchmarks rely on for reproducibility.
"""

from __future__ import annotations

import os
import threading
from typing import Dict, Iterator, List, Tuple

from repro.errors import DictionaryError
from repro.algebra.expressions import comparable
from repro.rdf.terms import Term

__all__ = ["TermDictionary"]

#: Guards the assigning paths of :meth:`TermDictionary.encode_derived` and of
#: the typed value column (two pool threads of one serving generation share a
#: dictionary).  Module-level so that dictionaries — heap graphs are pickled
#: into worker processes — stay picklable.
_LOCK = threading.Lock()
if hasattr(os, "register_at_fork"):  # a forked child must not inherit a lock another thread held
    os.register_at_fork(after_in_child=_LOCK._at_fork_reinit)

#: Kinds in the typed value column; 0 is "not filled yet".
_INT, _FLOAT, _OTHER = 1, 2, 3


class TermDictionary:
    """Bidirectional term <-> integer id mapping.

    The dictionary is append-only: terms are never removed, even when the
    triples mentioning them are deleted from the graph.  This keeps encoded
    relations valid across graph mutations.

    Beside the terms sits a side table of **derived values** — ROLL-UP
    parents that are not terms of the graph (a bucket IRI, a band label) —
    under stable *negative* ids (:meth:`encode_derived`).  :meth:`decode`
    understands them, so an id relation can hold them and keep this very
    dictionary object; nothing else does: they are not counted by ``len``,
    not listed by :meth:`items` / :meth:`terms`, not copied, and never reach
    a snapshot or a graph fingerprint.

    :meth:`value` keeps each id's comparable value once it is asked for:
    append-only ids never change meaning, so the memo is never stale.  The
    same values also sit in a **typed column** — id-indexed numpy arrays of a
    kind and an int64 or float64 value, filled once per id on the first
    :meth:`numeric_values` that asks for it and grown geometrically as ids
    are appended — from which γ gathers a measure column in one step.  The
    terms themselves sit in a **term table** of the same layout (a filled
    flag and an object array), from which :meth:`decode_many` decodes a
    whole id column in one gather.
    """

    def __init__(self):
        self._term_to_id: Dict[Term, int] = {}
        self._id_to_term: List[Term] = []
        self._derived_ids: Dict[object, int] = {}
        self._derived_values: List[object] = []
        self._values: Dict[int, object] = {}
        self._typed = None  # (kinds int8, values int64, head): see _fill_typed
        self._table = None  # (filled bool, terms object, head): see decode_many

    def __len__(self) -> int:
        return len(self._id_to_term)

    def __contains__(self, term: Term) -> bool:
        return term in self._term_to_id

    def encode(self, term: Term) -> int:
        """Return the id of ``term``, assigning a fresh id when unseen."""
        existing = self._term_to_id.get(term)
        if existing is not None:
            return existing
        new_id = len(self._id_to_term)
        self._term_to_id[term] = new_id
        self._id_to_term.append(term)
        return new_id

    def encode_existing(self, term: Term) -> int:
        """Return the id of ``term``; raise when the term was never encoded."""
        existing = self._term_to_id.get(term)
        if existing is None:
            raise DictionaryError(f"term not in dictionary: {term.n3()}")
        return existing

    def lookup(self, term: Term) -> int | None:
        """Return the id of ``term`` or None when unknown (no assignment)."""
        return self._term_to_id.get(term)

    def encode_derived(self, value: object) -> int:
        """The id of a value an operator *derived* (a ROLL-UP parent).

        The graph's own id when ``value`` is one of its terms; otherwise a
        negative id from the side table, assigned on first sight and stable
        for the life of the dictionary.  Works on read-only dictionaries:
        no term is ever added.
        """
        found = self.lookup(value)
        if found is None:
            found = self._derived_ids.get(value)
        if found is None:
            with _LOCK:
                found = self._derived_ids.get(value)
                if found is None:
                    self._derived_values.append(value)
                    found = self._derived_ids[value] = -len(self._derived_values)
        return found

    def decode(self, term_id: int) -> Term:
        """Return the term (or derived value) with the given id."""
        if 0 <= term_id < len(self._id_to_term):
            return self._id_to_term[term_id]
        return self._decode_derived(term_id)

    def decode_many(self, ids) -> list:
        """The terms (or derived values) of ``ids``, a numpy int array, as a
        list: one gather from the term table, which is laid out as the typed
        column is (see :meth:`_fill_typed`), so one gather decodes a column
        that mixes term and derived ids.  An id :meth:`decode` refuses raises
        :class:`DictionaryError` here too."""
        if not len(ids):
            return []
        table, low, high = self._table, int(ids.min()), int(ids.max())
        if table is None or not (high < table[2] <= low + len(table[0]) and table[0][ids].all()):
            table = self._fill_table(ids, low, high)
        return table[1][ids].tolist()

    def _fill_table(self, ids, low: int, high: int):
        """:meth:`decode` each distinct id of ``ids`` (``low..high``), then
        grow the term table to cover them, store them and publish it.  Only
        asked ids are filled — spare slots stay empty, so an id past the
        dictionary's ends misses and is refused here, and a snapshot's
        dictionary decodes no term it is not asked for."""
        import numpy as np  # only the columnar decode calls this: rdf/ imports no numpy

        ordered = np.sort(ids)  # np.unique hashes: slower here than a sort
        distinct = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
        found = np.fromiter(map(self.decode, distinct.tolist()), object, len(distinct))
        with _LOCK:  # decoded outside: two threads filling one id store one interned term
            filled, terms, head = _grown(self._table, (np.bool_, object), low, high, len(self))
            terms[distinct] = found
            filled[distinct] = True  # after the term: a reader that sees the flag sees the term
            self._table = filled, terms, head
        return self._table

    def value(self, term_id: int) -> object:
        """The comparable value of an id: :func:`~repro.algebra.expressions.comparable`
        of its :meth:`decode`, converted on first ask and kept for the
        dictionary's life (two threads filling one id store equal values)."""
        try:
            return self._values[term_id]
        except KeyError:
            found = self._values[term_id] = comparable(self.decode(term_id))
            return found

    def numeric_values(self, ids):
        """The values of ``ids`` (a non-empty numpy array of ids) in one
        gather from the typed column, or None.

        The answer is an int64 array when every id's :meth:`value` is an
        ``int`` of magnitude under 2³¹ (a SUM of fewer than 2³¹ of them
        cannot overflow), a float64 one when every one is a ``float``, and
        None for anything else — Decimal, bool, string, a larger int, or a
        mix of ints and floats — which the row γ owns.
        """
        typed, low, high = self._typed, int(ids.min()), int(ids.max())
        kinds = None
        if typed is not None and typed[2] - len(typed[0]) <= low and high < typed[2]:
            kinds = typed[0][ids]
        if kinds is None or not kinds.all():
            typed = self._fill_typed(ids if kinds is None else ids[kinds == 0], low, high)
            kinds = typed[0][ids]
        kind = int(kinds[0])
        if kind == _OTHER or not (kinds == kind).all():
            return None
        return typed[1][ids] if kind == _INT else typed[1].view("float64")[ids]

    def _fill_typed(self, missing, low: int, high: int):
        """Convert the ``missing`` ids, then grow the typed column to cover
        ids ``low..high`` and store them.  The column is ``(kinds, values,
        head)``: term ids index the first ``head`` slots, and a derived id
        ``-k`` the k-th slot from the end (numpy's negative indexing); a float
        is kept as its bits in the int64 ``values``, read through a float64
        view."""
        import numpy as np  # only the columnar γ calls this: rdf/ imports no numpy

        # Converted outside the lock (two threads filling one id store equal
        # values); the lock only covers growing and storing.
        converted: Dict[int, Dict[int, object]] = {_INT: {}, _FLOAT: {}, _OTHER: {}}  # kind → id → value
        for term_id in set(missing.tolist()):
            value = self.value(term_id)
            small_int = type(value) is int and -(1 << 31) < value < (1 << 31)
            kind = _INT if small_int else _FLOAT if type(value) is float else _OTHER
            converted[kind][term_id] = 0 if kind == _OTHER else value
        with _LOCK:
            kinds, values, head = _grown(self._typed, (np.int8, np.int64), low, high, len(self))
            for kind, found in converted.items():
                term_ids = np.fromiter(found, np.intp, len(found))
                (values.view(np.float64) if kind == _FLOAT else values)[term_ids] = list(found.values())
                kinds[term_ids] = kind  # after the value: a reader that sees the kind sees its value
            self._typed = kinds, values, head
        return self._typed

    def _decode_derived(self, term_id: int) -> object:
        if not -len(self._derived_values) <= term_id < 0:
            raise DictionaryError(f"unknown term id: {term_id}")
        return self._derived_values[-term_id - 1]

    def items(self) -> Iterator[Tuple[Term, int]]:
        return iter(self._term_to_id.items())

    def terms(self) -> Iterator[Term]:
        return iter(self._id_to_term)

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_table"] = None  # the receiver's terms are its own interned instances
        return state

    def copy(self) -> "TermDictionary":
        clone = TermDictionary()
        clone._term_to_id = dict(self._term_to_id)
        clone._id_to_term = list(self._id_to_term)
        return clone

    def __repr__(self) -> str:  # pragma: no cover
        return f"TermDictionary({len(self)} terms)"


def _grown(table, dtypes, low: int, high: int, count: int):
    """``table`` — ``(arrays…, head)`` or None — with room for ids
    ``low..high``: a new, zero-filled copy when they fall outside it, the
    head grown to at least ``count`` and doubling, the tail doubling; the
    caller fills it and publishes it."""
    import numpy as np

    *arrays, head = table or (*(np.zeros(0, dtype) for dtype in dtypes), 0)
    tail = len(arrays[0]) - head
    if high < head and -low <= tail:
        return (*arrays, head)
    grown_head = max(high + 1, 2 * head, count) if high >= head else head
    grown_tail = max(-low, 2 * tail) if -low > tail else tail
    size = grown_head + grown_tail
    fresh = [np.zeros(size, array.dtype) for array in arrays]
    for old, new in zip(arrays, fresh):
        new[:head], new[size - tail :] = old[:head], old[head:]
    return (*fresh, grown_head)
