"""Unit tests for BGP query evaluation (set and bag semantics)."""

import hashlib
import pickle
from collections import Counter

import pytest

from repro.errors import EvaluationError
from repro.rdf import EX, Graph, Literal, RDF, Triple
from repro.rdf.terms import Variable
from repro.rdf.triples import TriplePattern
from repro.bgp.evaluator import BGPEvaluator, evaluate_query
from repro.bgp.parser import parse_query
from repro.bgp.query import BGPQuery
from repro.datagen.generic import GenericConfig, generic_dataset, generic_query

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


class TestGraphOwnsColumns:
    """The column arrays live on the graph: shared by every evaluator,
    dropped per predicate by the mutation that touches it, never pickled."""

    @pytest.fixture(autouse=True)
    def _numpy(self):
        pytest.importorskip("numpy")

    @staticmethod
    def _arrays(graph, p_id, other_id):
        return (
            graph.columnar_predicate_pairs(p_id),
            graph.columnar_sorted_pairs(p_id, 0),
            graph.columnar_sorted_pairs(p_id, 2),
            graph.columnar_candidates(None, p_id, other_id, 0),
        )

    def test_two_evaluators_read_the_same_arrays(self, example2_like_graph, monkeypatch):
        graph = example2_like_graph
        served = ({}, {})  # (hook, args) -> arrays, per evaluator
        phase = [0]
        for name in ("columnar_predicate_pairs", "columnar_sorted_pairs", "columnar_candidates"):
            hook = getattr(graph, name)

            def recording(*args, _hook=hook, _name=name):
                found = served[phase[0]][(_name, args)] = _hook(*args)
                return found

            monkeypatch.setattr(graph, name, recording)
        query = parse_query("q(?x, ?s) :- ?x rdf:type ex:Blogger, ?x wrotePost ?p, ?p postedOn ?s")
        first = BGPEvaluator(graph, engine="columnar").evaluate_ids(query)
        phase[0] = 1
        second = BGPEvaluator(graph, engine="columnar").evaluate_ids(query)
        assert Counter(first.rows) == Counter(second.rows)
        assert served[1], "the columnar solver read no graph column"
        for key, arrays in served[1].items():
            assert arrays is served[0][key], key

    @pytest.mark.parametrize("mutation", ["add", "remove"])
    def test_a_mutation_rebuilds_only_its_predicate(self, example2_like_graph, mutation):
        graph = example2_like_graph
        p1, p2 = graph.encode_term(EX.postedOn), graph.encode_term(EX.wrotePost)
        site, post = graph.encode_term(EX.term("s1")), graph.encode_term(EX.term("p1"))
        before_p1 = self._arrays(graph, p1, site)
        before_p2 = self._arrays(graph, p2, post)
        if mutation == "add":
            changed = graph.add(Triple(EX.term("p9"), EX.postedOn, EX.term("s1")))
        else:
            changed = graph.remove(Triple(EX.term("p2"), EX.postedOn, EX.term("s1")))
        assert changed
        after_p2 = self._arrays(graph, p2, post)
        assert all(new is old for new, old in zip(after_p2, before_p2))
        after_p1 = self._arrays(graph, p1, site)
        assert all(new is not old for new, old in zip(after_p1, before_p1))
        subjects, objects = after_p1[0]
        pairs = set(zip(subjects.tolist(), objects.tolist()))
        expected = {(s, o) for s, _, o in graph.match_ids(None, p1, None)}
        assert pairs == expected and len(subjects) == len(expected)
        touched = graph.encode_term(EX.term("p9" if mutation == "add" else "p2"))
        assert ((touched, site) in pairs) == (mutation == "add")
        assert (touched in after_p1[3].tolist()) == (mutation == "add")

    def test_clear_rebuilds_every_predicate(self, example2_like_graph):
        graph = example2_like_graph
        p1, p2 = graph.encode_term(EX.postedOn), graph.encode_term(EX.wrotePost)
        before = [self._arrays(graph, p, None) for p in (p1, p2)]
        graph.clear()
        for p, old_arrays in zip((p1, p2), before):
            arrays = self._arrays(graph, p, None)
            assert all(new is not old for new, old in zip(arrays, old_arrays))
            assert all(len(part) == 0 for array in arrays[:3] for part in array)

    def test_a_pickled_graph_carries_no_arrays(self, example2_like_graph):
        graph = example2_like_graph
        p1 = graph.encode_term(EX.postedOn)
        subjects, objects = graph.columnar_predicate_pairs(p1)
        received = pickle.loads(pickle.dumps(graph))
        assert received._columns == {}
        assert graph._columns, "pickling must not drop the sender's arrays"
        again = received.columnar_predicate_pairs(p1)
        assert again[0].tolist() == subjects.tolist() and again[1].tolist() == objects.tolist()

    # Each engine's rows, in order, hashed as ``(len, sha256 prefix)``: the
    # figures the evaluator gave while each evaluator built its own column
    # index.  The graph owning the columns must not move a row (float SUM
    # and AVG add in row order).  The instance is built on the row engine,
    # since its triple insertion order is the building engine's row order.
    _ROW_ORDER = {
        ("rows", "classifier"): (712, "f10fafcbc50deff4"),
        ("rows", "measure"): (568, "bbbe08095a3391fc"),
        ("columnar", "classifier"): (712, "bdec821c1358de29"),
        ("columnar", "measure"): (568, "d367efe4f12038b0"),
    }

    @pytest.mark.parametrize("engine", ["rows", "columnar"])
    def test_row_order_is_unchanged_on_the_generic_dataset(self, engine, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "rows")
        config = GenericConfig(facts=300, dimensions=3, values_per_dimension=1.4, zipf_exponent=0.9, seed=17)
        dataset = generic_dataset(config)
        query = generic_query(config, include_detail_in_classifier=True)
        evaluator = BGPEvaluator(dataset.instance, engine=engine)
        for label, bgp, semantics in (("classifier", query.classifier, "set"), ("measure", query.measure, "bag")):
            rows = [tuple(map(int, row)) for row in evaluator.evaluate_ids(bgp, semantics=semantics).rows]
            digest = hashlib.sha256(repr(rows).encode()).hexdigest()[:16]
            assert (len(rows), digest) == self._ROW_ORDER[(engine, label)], label
