"""Persisted materialized results: cache-entry files and their value records."""

import os
from decimal import Decimal

import pytest

from repro.errors import SnapshotFormatError
from repro.rdf import EX, BlankNode, Literal
from repro.algebra.aggregates import AggregateFunction
from repro.analytics import AnalyticalQuery
from repro.olap import DrillIn, DrillOut, OLAPSession, Slice
from repro.olap.cache import ResultCache
from repro.storage.snapshot import Container, decode_records, record_table


class TestValueRecords:
    def test_terms_and_plain_values_round_trip_with_their_types(self):
        values = [
            EX.user1,
            BlankNode("b0"),
            Literal(28),
            Literal("35"),
            Literal("chat", language="fr"),
            "plain text",
            "",
            1,
            2**70,
            3.5,
            True,
            None,
            Decimal("0.10"),
            1,  # duplicates are records like any other
        ]
        decoded = decode_records(*record_table(values)[:3])
        assert decoded == values
        assert list(map(type, decoded)) == list(map(type, values))

    def test_empty_table(self):
        assert decode_records(*record_table([])[:3]) == []

    def test_a_value_without_a_record_is_rejected(self):
        with pytest.raises(SnapshotFormatError):
            record_table([(1, 2)])


def _entry_path(store):
    (name,) = os.listdir(store)
    return os.path.join(store, name)


class TestEntryFiles:
    def test_an_entry_is_one_container_file(self, example2_instance, sites_query, tmp_path):
        store = str(tmp_path / "cache")
        OLAPSession(example2_instance, cache_dir=store).execute(sites_query)
        path = _entry_path(store)
        assert os.path.isfile(path)
        entry = Container(path, kind="cache-entry")
        header = entry.header
        assert header["canonical_key"] == sites_query.canonical_key
        assert (header["aggregate"], header["instance_triples"]) == ("count", len(example2_instance))
        partial = header["relations"]["partial"]
        assert partial["columns"] == ["x", "dage", "dcity", "k", "vsite"]
        assert set(partial["encoded"]) == {"x", "dage", "dcity", "vsite"}
        assert header["relations"]["answer"]["columns"] == ["dage", "dcity", "vsite"]
        sections = entry.read_sections()
        assert {"partial.k", "partial.x", "answer.vsite", "term_kinds"} <= set(sections)
        assert sections["partial.k"].format == "q"
        with pytest.raises(SnapshotFormatError, match="not a graph snapshot"):
            Container(path)

    def test_the_value_table_holds_only_the_values_the_entry_references(
        self, example2_instance, sites_query, tmp_path
    ):
        store = str(tmp_path / "cache")
        session = OLAPSession(example2_instance, cache_dir=store)
        session.execute(sites_query)
        materialized = session.materialized(sites_query)
        partial = materialized.partial.relation  # ans(Q)'s dimension values are among pres(Q)'s
        referenced = set().union(*map(partial.distinct_values, ("x", "dage", "dcity", "vsite")))
        sections = Container(_entry_path(store), kind="cache-entry").read_sections()
        table = decode_records(sections["term_kinds"], sections["term_offsets"], sections["term_blob"])
        assert sorted(table, key=repr) == sorted(referenced, key=repr)
        assert len(table) < len(example2_instance.dictionary)

    def test_a_value_without_a_record_keeps_the_entry_in_memory_only(
        self, example2_instance, sites_query, tmp_path
    ):
        spread = AggregateFunction(
            "spread_persistence_oracle", lambda bag: (min(bag), max(bag)), False, numeric_only=False
        )
        query = AnalyticalQuery(sites_query.classifier, sites_query.measure, spread, name="Q_spread")
        store = str(tmp_path / "cache")
        session = OLAPSession(example2_instance, cache_dir=store)
        cube = session.execute(query)
        assert cube.cell(Literal(28), EX.term("Madrid")) == ("http://example.org/s1", "http://example.org/s2")
        assert os.listdir(store) == []
        assert session.execute(query).cells() == cube.cells()
        assert session.history[-1].strategy == "cache"

    def test_another_aggregate_is_another_entry(self, example2_instance, sites_query, tmp_path):
        store = str(tmp_path / "cache")
        OLAPSession(example2_instance, cache_dir=store).execute(sites_query)
        other = AnalyticalQuery(sites_query.classifier, sites_query.measure, "sum", name=sites_query.name)
        cold = ResultCache(capacity=4, store_dir=store)
        assert cold.get(other, example2_instance) is None
        assert (cold.stats.disk_hits, cold.stats.disk_rejects) == (0, 0)


class TestSessionIntegration:
    def test_warm_start_enables_rewriting_without_reexecution(
        self, example2_instance, sites_query, tmp_path
    ):
        store = str(tmp_path / "cache")
        first = OLAPSession(example2_instance, cache_dir=store)
        first.execute(sites_query)
        reference = first.transform(sites_query, DrillOut("dage"), strategy="rewrite")

        second = OLAPSession(example2_instance, cache_dir=store)
        second.execute(sites_query)
        assert second.history[-1].strategy == "cache[disk]"
        restored_cube = second.transform(sites_query, DrillOut("dage"), strategy="rewrite")
        assert restored_cube.same_cells(reference)
        sliced = second.transform(sites_query, Slice("dage", Literal(35)), strategy="rewrite")
        assert len(sliced) == 1

    def test_drill_in_after_warm_start(self, figure3_instance, views_query, tmp_path):
        store = str(tmp_path / "cache")
        OLAPSession(figure3_instance, cache_dir=store).execute(views_query)

        second = OLAPSession(figure3_instance, cache_dir=store)
        second.execute(views_query)
        assert second.history[-1].strategy == "cache[disk]"
        refined = second.transform(views_query, DrillIn("d3"), strategy="rewrite")
        assert refined.cell(Literal("URL1"), Literal("firefox")) == 100
