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

import threading
from typing import Dict, Iterator, List, Tuple

from repro.errors import DictionaryError
from repro.algebra.expressions import comparable
from repro.rdf.terms import Term

__all__ = ["TermDictionary"]

#: Guards the assigning path of :meth:`TermDictionary.encode_derived` (two
#: pool threads of one serving generation share a dictionary).  Module-level
#: so that dictionaries — heap graphs are pickled into worker processes —
#: stay picklable.
_DERIVED_LOCK = threading.Lock()


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
    append-only ids never change meaning, so the memo is never stale.
    """

    def __init__(self):
        self._term_to_id: Dict[Term, int] = {}
        self._id_to_term: List[Term] = []
        self._derived_ids: Dict[object, int] = {}
        self._derived_values: List[object] = []
        self._values: Dict[int, object] = {}

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
            with _DERIVED_LOCK:
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

    def value(self, term_id: int) -> object:
        """The comparable value of an id: :func:`~repro.algebra.expressions.comparable`
        of its :meth:`decode`, converted on first ask and kept for the
        dictionary's life (two threads filling one id store equal values)."""
        try:
            return self._values[term_id]
        except KeyError:
            found = self._values[term_id] = comparable(self.decode(term_id))
            return found

    def _decode_derived(self, term_id: int) -> object:
        if not -len(self._derived_values) <= term_id < 0:
            raise DictionaryError(f"unknown term id: {term_id}")
        return self._derived_values[-term_id - 1]

    def items(self) -> Iterator[Tuple[Term, int]]:
        return iter(self._term_to_id.items())

    def terms(self) -> Iterator[Term]:
        return iter(self._id_to_term)

    def copy(self) -> "TermDictionary":
        clone = TermDictionary()
        clone._term_to_id = dict(self._term_to_id)
        clone._id_to_term = list(self._id_to_term)
        return clone

    def __repr__(self) -> str:  # pragma: no cover
        return f"TermDictionary({len(self)} terms)"
