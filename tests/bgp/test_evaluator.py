"""Unit tests for BGP query evaluation (set and bag semantics)."""

from collections import Counter

import pytest

from repro.errors import EvaluationError
from repro.rdf import EX, Graph, Literal, RDF, Triple
from repro.rdf.terms import Variable
from repro.rdf.triples import TriplePattern
from repro.bgp.evaluator import BGPEvaluator, evaluate_query
from repro.bgp.parser import parse_query
from repro.bgp.query import BGPQuery

RDF_TYPE = RDF.term("type")


@pytest.fixture()
def example2_like_graph() -> Graph:
    """user1 posts twice on s1 and once on s2; user3 once on s2."""
    graph = Graph()
    for user in (EX.user1, EX.user3):
        graph.add(Triple(user, RDF_TYPE, EX.Blogger))
    graph.add(Triple(EX.user1, EX.hasAge, Literal(28)))
    graph.add(Triple(EX.user3, EX.hasAge, Literal(35)))
    posts = {"p1": (EX.user1, "s1"), "p2": (EX.user1, "s1"), "p3": (EX.user1, "s2"), "p4": (EX.user3, "s2")}
    for name, (author, site) in posts.items():
        post = EX.term(name)
        graph.add(Triple(author, EX.wrotePost, post))
        graph.add(Triple(post, EX.postedOn, EX.term(site)))
    return graph


class TestSetSemantics:
    def test_single_pattern(self, example2_like_graph):
        query = parse_query("q(?x) :- ?x rdf:type ex:Blogger")
        result = evaluate_query(query, example2_like_graph)
        assert result.columns == ("x",)
        assert set(result.column_values("x")) == {EX.user1, EX.user3}

    def test_join_on_shared_variable(self, example2_like_graph):
        query = parse_query("q(?x, ?s) :- ?x wrotePost ?p, ?p postedOn ?s")
        result = evaluate_query(query, example2_like_graph)
        # Set semantics collapses the two embeddings of (user1, s1).
        assert result.to_multiset() == {
            (EX.user1, EX.term("s1")): 1,
            (EX.user1, EX.term("s2")): 1,
            (EX.user3, EX.term("s2")): 1,
        }

    def test_projection_deduplicates(self, example2_like_graph):
        query = parse_query("q(?x) :- ?x wrotePost ?p, ?p postedOn ?s")
        result = evaluate_query(query, example2_like_graph)
        assert len(result) == 2

    def test_constant_in_pattern(self, example2_like_graph):
        query = parse_query("q(?x) :- ?x hasAge 28")
        result = evaluate_query(query, example2_like_graph)
        assert result.column_values("x") == [EX.user1]

    def test_unknown_constant_gives_empty_result(self, example2_like_graph):
        query = parse_query("q(?x) :- ?x hasAge 99")
        assert len(evaluate_query(query, example2_like_graph)) == 0
        query2 = parse_query("q(?x) :- ?x unknownProperty ?y")
        assert len(evaluate_query(query2, example2_like_graph)) == 0

    def test_empty_graph(self):
        query = parse_query("q(?x) :- ?x rdf:type ex:Blogger")
        assert len(evaluate_query(query, Graph())) == 0


class TestBagSemantics:
    def test_bag_counts_embeddings(self, example2_like_graph):
        query = parse_query("m(?x, ?s) :- ?x wrotePost ?p, ?p postedOn ?s")
        result = evaluate_query(query, example2_like_graph, semantics="bag")
        # user1 posts twice on s1 (two embeddings through p1 and p2).
        assert result.to_multiset() == {
            (EX.user1, EX.term("s1")): 2,
            (EX.user1, EX.term("s2")): 1,
            (EX.user3, EX.term("s2")): 1,
        }

    def test_set_is_dedup_of_bag(self, example2_like_graph):
        query = parse_query("m(?x, ?s) :- ?x wrotePost ?p, ?p postedOn ?s")
        bag = evaluate_query(query, example2_like_graph, semantics="bag")
        set_result = evaluate_query(query, example2_like_graph, semantics="set")
        assert set(bag.rows) == set(set_result.rows)
        assert len(bag) >= len(set_result)

    def test_invalid_semantics(self, example2_like_graph):
        query = parse_query("q(?x) :- ?x rdf:type ex:Blogger")
        evaluator = BGPEvaluator(example2_like_graph)
        with pytest.raises(EvaluationError):
            evaluator.evaluate(query, semantics="multiset")


class TestEvaluatorFeatures:
    def test_seed_restricts_results(self, example2_like_graph):
        evaluator = BGPEvaluator(example2_like_graph)
        query = parse_query("q(?x, ?s) :- ?x wrotePost ?p, ?p postedOn ?s")
        user3 = example2_like_graph.encode_term(EX.user3)
        result = evaluator.evaluate(query, seed={Variable("x"): [user3]})
        assert result.rows == [(EX.user3, EX.term("s2"))]

    def test_empty_seed_gives_empty_result(self, example2_like_graph):
        evaluator = BGPEvaluator(example2_like_graph)
        query = parse_query("q(?x) :- ?x rdf:type ex:Blogger")
        assert len(evaluator.evaluate(query, seed={Variable("x"): []})) == 0

    @pytest.mark.parametrize("semantics, expected", [("set", 1), ("bag", 2)])
    def test_seed_columns_bind_jointly_per_row(self, example2_like_graph, semantics, expected):
        """Row i of the seed binds x and s together (a VALUES row, not a
        cross product): (user3, s1) has no embedding, (user1, s1) has two."""
        graph = example2_like_graph
        seed = {
            Variable("x"): [graph.encode_term(EX.user1), graph.encode_term(EX.user3)],
            Variable("s"): [graph.encode_term(EX.term("s1"))] * 2,
        }
        query = parse_query("q(?x, ?s) :- ?x wrotePost ?p, ?p postedOn ?s")
        result = BGPEvaluator(graph).evaluate(query, semantics, seed=seed)
        assert result.rows == [(EX.user1, EX.term("s1"))] * expected

    def test_count_matches_len(self, example2_like_graph):
        evaluator = BGPEvaluator(example2_like_graph)
        query = parse_query("q(?x, ?s) :- ?x wrotePost ?p, ?p postedOn ?s")
        assert evaluator.count(query) == len(evaluator.evaluate(query))
        assert evaluator.count(query, semantics="bag") == 4

    def test_repeated_variable_within_pattern(self):
        graph = Graph()
        graph.add(Triple(EX.a, EX.knows, EX.a))
        graph.add(Triple(EX.a, EX.knows, EX.b))
        query = BGPQuery(["x"], [TriplePattern(Variable("x"), EX.knows, Variable("x"))])
        result = evaluate_query(query, graph)
        assert result.rows == [(EX.a,)]

    def test_cyclic_join_shape(self):
        graph = Graph()
        graph.add(Triple(EX.a, EX.p, EX.b))
        graph.add(Triple(EX.b, EX.q, EX.a))
        graph.add(Triple(EX.b, EX.q, EX.c))
        x, y = Variable("x"), Variable("y")
        query = BGPQuery([x, y], [TriplePattern(x, EX.p, y), TriplePattern(y, EX.q, x)])
        result = evaluate_query(query, graph)
        assert result.rows == [(EX.a, EX.b)]

    def test_cross_product_of_disconnected_patterns(self, example2_like_graph):
        query = parse_query("q(?x, ?y) :- ?x rdf:type ex:Blogger, ?y postedOn ?s")
        result = evaluate_query(query, example2_like_graph)
        # 2 bloggers x 4 posts (p1..p4) = 8 distinct (x, y) combinations.
        assert len(result) == 8

    def test_literal_results_are_decoded(self, example2_like_graph):
        query = parse_query("q(?x, ?a) :- ?x hasAge ?a")
        ages = dict(evaluate_query(query, example2_like_graph).rows)
        assert ages[EX.user1] == Literal(28)

    def test_statistics_are_reused(self, example2_like_graph):
        evaluator = BGPEvaluator(example2_like_graph)
        assert evaluator.statistics.triple_count == len(example2_like_graph)
        assert evaluator.graph is example2_like_graph


def _bloggers_with_posts() -> Graph:
    """Blogger ``u{i}`` writes ``i + 1`` posts alternating over sites s0/s1,
    so (blogger, site) has several embeddings from u2 on."""
    graph = Graph()
    for index in range(5):
        user = EX.term(f"u{index}")
        graph.add(Triple(user, RDF_TYPE, EX.Blogger))
        for post_index in range(index + 1):
            post = EX.term(f"u{index}_p{post_index}")
            graph.add(Triple(user, EX.wrotePost, post))
            graph.add(Triple(post, EX.postedOn, EX.term(f"s{post_index % 2}")))
    return graph


class TestSeededEvaluation:
    """A seed of several rows is the full evaluation restricted to them —
    on either storage and either engine (seeded calls take the row solver,
    unseeded ones the columnar solver where it applies)."""

    @pytest.fixture(params=["heap", "snapshot"])
    def graph(self, request, tmp_path):
        graph = _bloggers_with_posts()
        if request.param == "heap":
            return graph
        pytest.importorskip("numpy")
        from repro.storage.snapshot import load_snapshot, save_snapshot

        path = str(tmp_path / "bloggers.snap")
        save_snapshot(graph, path)
        return load_snapshot(path)

    @pytest.fixture(params=["rows", "columnar"])
    def engine(self, request, monkeypatch):
        if request.param == "columnar":
            pytest.importorskip("numpy")
        monkeypatch.setenv("REPRO_ENGINE", request.param)
        return request.param

    @pytest.mark.parametrize("semantics", ["set", "bag"])
    def test_three_subject_seed_equals_restricted_full_evaluation(self, graph, engine, semantics):
        evaluator = BGPEvaluator(graph)
        assert evaluator.engine == engine
        query = parse_query("q(?x, ?s) :- ?x wrotePost ?p, ?p postedOn ?s")
        chosen = [EX.term(f"u{index}") for index in (4, 1, 2)]
        seed = {Variable("x"): [graph.encode_term(term) for term in chosen]}
        seeded = evaluator.evaluate(query, semantics, seed=seed)
        full = evaluator.evaluate(query, semantics)
        expected = Counter(row for row in full.rows if row[0] in chosen)
        assert Counter(seeded.rows) == expected
        assert set(expected) == {
            (EX.term("u4"), EX.term("s0")), (EX.term("u4"), EX.term("s1")),
            (EX.term("u1"), EX.term("s0")), (EX.term("u1"), EX.term("s1")),
            (EX.term("u2"), EX.term("s0")), (EX.term("u2"), EX.term("s1")),
        }
        assert max(expected.values()) == (3 if semantics == "bag" else 1)
