"""Unit tests for RDFS saturation."""

import pytest

from repro.rdf import EX, Graph, Literal, RDF, RDFS, Triple
from repro.rdf.reasoning import RDFSClosure, RDFSRules, is_schema_triple, saturate, schema_triples

RDF_TYPE = RDF.term("type")
SUBCLASS = RDFS.term("subClassOf")
SUBPROPERTY = RDFS.term("subPropertyOf")
DOMAIN = RDFS.term("domain")
RANGE = RDFS.term("range")


@pytest.fixture()
def schema_graph() -> Graph:
    graph = Graph()
    graph.add(Triple(EX.Blogger, SUBCLASS, EX.Person))
    graph.add(Triple(EX.Person, SUBCLASS, EX.Agent))
    graph.add(Triple(EX.wrotePost, SUBPROPERTY, EX.authored))
    graph.add(Triple(EX.wrotePost, DOMAIN, EX.Blogger))
    graph.add(Triple(EX.wrotePost, RANGE, EX.BlogPost))
    return graph


class TestRules:
    def test_schema_triple_detection(self, schema_graph):
        assert all(is_schema_triple(t) for t in schema_graph)
        assert not is_schema_triple(Triple(EX.user1, RDF_TYPE, EX.Blogger))
        assert len(list(schema_triples(schema_graph))) == len(schema_graph)

    def test_transitive_superclasses(self, schema_graph):
        rules = RDFSRules(schema_graph)
        assert rules.superclasses(EX.Blogger) == {EX.Person, EX.Agent}
        assert rules.superclasses(EX.Agent) == set()

    def test_superproperties_domains_ranges(self, schema_graph):
        rules = RDFSRules(schema_graph)
        assert rules.superproperties(EX.wrotePost) == {EX.authored}
        assert rules.domains(EX.wrotePost) == {EX.Blogger}
        assert rules.ranges(EX.wrotePost) == {EX.BlogPost}

    def test_entail_subproperty_and_typing(self, schema_graph):
        rules = RDFSRules(schema_graph)
        entailed = rules.entail(Triple(EX.user1, EX.wrotePost, EX.post1))
        assert Triple(EX.user1, EX.authored, EX.post1) in entailed
        assert Triple(EX.user1, RDF_TYPE, EX.Blogger) in entailed
        assert Triple(EX.post1, RDF_TYPE, EX.BlogPost) in entailed

    def test_entail_subclass_typing(self, schema_graph):
        rules = RDFSRules(schema_graph)
        entailed = rules.entail(Triple(EX.user1, RDF_TYPE, EX.Blogger))
        assert Triple(EX.user1, RDF_TYPE, EX.Person) in entailed
        assert Triple(EX.user1, RDF_TYPE, EX.Agent) in entailed

    def test_range_not_applied_to_literal_objects(self):
        graph = Graph()
        graph.add(Triple(EX.hasAge, RANGE, EX.Age))
        rules = RDFSRules(graph)
        entailed = rules.entail(Triple(EX.user1, EX.hasAge, Literal(28)))
        assert entailed == set()


    def test_consequences_close_one_triple(self, schema_graph):
        rules = RDFSRules(schema_graph)
        triple = Triple(EX.user1, EX.wrotePost, EX.post1)
        assert rules.consequences(triple) == set(saturate(Graph([triple]).union(schema_graph))) - {
            triple, *schema_graph
        }


class TestSaturation:
    def test_saturation_reaches_fixpoint(self, schema_graph):
        graph = schema_graph.copy()
        graph.add(Triple(EX.user1, EX.wrotePost, EX.post1))
        closed = saturate(graph)
        assert Triple(EX.user1, RDF_TYPE, EX.Blogger) in closed
        # Chained entailment: typing then subclass propagation.
        assert Triple(EX.user1, RDF_TYPE, EX.Person) in closed
        assert Triple(EX.user1, RDF_TYPE, EX.Agent) in closed
        assert Triple(EX.user1, EX.authored, EX.post1) in closed
        # Saturating again adds nothing.
        assert saturate(closed) == closed

    def test_saturate_copies_by_default(self, schema_graph):
        graph = schema_graph.copy()
        graph.add(Triple(EX.user1, EX.wrotePost, EX.post1))
        before = len(graph)
        saturate(graph)
        assert len(graph) == before

    def test_saturate_in_place(self, schema_graph):
        graph = schema_graph.copy()
        graph.add(Triple(EX.user1, EX.wrotePost, EX.post1))
        result = saturate(graph, in_place=True)
        assert result is graph
        assert Triple(EX.user1, RDF_TYPE, EX.Agent) in graph

    def test_graph_without_schema_is_unchanged(self):
        graph = Graph([Triple(EX.user1, EX.hasAge, Literal(28))])
        assert saturate(graph) == graph

    def test_cyclic_subclass_hierarchy_terminates(self):
        graph = Graph()
        graph.add(Triple(EX.A, SUBCLASS, EX.B))
        graph.add(Triple(EX.B, SUBCLASS, EX.A))
        graph.add(Triple(EX.x, RDF_TYPE, EX.A))
        closed = saturate(graph)
        assert Triple(EX.x, RDF_TYPE, EX.B) in closed


class TestClosure:
    """RDFSClosure follows its source by support counts and equals a fresh
    saturation after every sync."""

    @staticmethod
    def _synced(closure):
        closure.sync()
        assert set(closure.graph) == set(saturate(closure.source))

    def test_data_writes_move_the_support_counts(self, schema_graph):
        source = schema_graph.copy()
        closure = RDFSClosure(source)
        wrote = Triple(EX.user1, EX.wrotePost, EX.post1)
        typed = Triple(EX.user1, RDF_TYPE, EX.Person)
        source.add(wrote)
        source.add(typed)  # asserted, and entailed by ``wrote``
        self._synced(closure)
        source.remove(wrote)
        self._synced(closure)
        assert typed in closure.graph  # still asserted
        source.add(wrote)
        source.remove(typed)
        self._synced(closure)
        assert typed in closure.graph  # still entailed
        source.remove(wrote)
        self._synced(closure)
        assert typed not in closure.graph
        assert set(closure.graph) == set(schema_graph)

    def test_schema_writes_move_the_graph_by_its_difference(self, schema_graph, monkeypatch):
        source = schema_graph.copy()
        source.add(Triple(EX.user1, EX.wrotePost, EX.post1))
        closure = RDFSClosure(source)
        monkeypatch.setattr(Graph, "clear", lambda self: pytest.fail("cleared the closure"))
        for write in (source.remove, source.add):
            version = closure.graph.version
            write(Triple(EX.Person, SUBCLASS, EX.Agent))
            self._synced(closure)
            delta = closure.graph.deltas_since(version)
            assert len(delta) == 2  # the axiom and (user1 rdf:type Agent)
