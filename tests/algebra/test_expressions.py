"""Unit tests for the value conversion σ compares by.

The semantics of Σ's restrictions (equality, value sets, ranges) are in
``tests/analytics/test_sigma.py``.
"""

import pytest

from repro.algebra.expressions import comparable
from repro.rdf import EX, Literal


class TestComparable:
    def test_literal_conversion(self):
        assert comparable(Literal(28)) == 28
        assert comparable(Literal("Madrid")) == "Madrid"
        assert comparable(Literal(2.5)) == pytest.approx(2.5)

    def test_iri_converts_to_string(self):
        assert comparable(EX.Madrid) == "http://example.org/Madrid"

    def test_plain_python_passthrough(self):
        assert comparable(42) == 42
        assert comparable("text") == "text"
        assert comparable(None) is None
