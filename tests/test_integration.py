"""Cross-module integration and failure-injection tests."""

from repro import DataGraph, GTEA, QueryBuilder, minimize_query
from repro.analysis import are_equivalent, is_query_satisfiable
from repro.datasets import generate_xmark
from repro.query import evaluate_naive, parse_xpath_query


class TestFullStack:
    def test_xpath_to_minimized_to_engine(self):
        """Frontend -> static analysis -> evaluation, end to end."""
        xmark = generate_xmark(scale=0.02, seed=77)
        query = parse_xpath_query(
            "//open_auction[bidder and bidder]//personref", outputs="spine"
        )
        # The duplicated branch is redundant; minimization removes it.
        assert is_query_satisfiable(query)
        minimized = minimize_query(query)
        assert minimized.size < query.size
        assert are_equivalent(query, minimized)
        engine = GTEA(xmark.graph)
        assert engine.evaluate(minimized) == engine.evaluate(query)
        assert engine.evaluate(query) == evaluate_naive(query, xmark.graph)

    def test_unsatisfiable_query_evaluates_empty(self):
        graph = DataGraph.from_edges("ab", [(0, 1)])
        query = (
            QueryBuilder()
            .backbone("r", label="a")
            .predicate("p", parent="r", label="b")
            .structural("r", "p & !p")
            .build()
        )
        assert not is_query_satisfiable(query)
        assert GTEA(graph).evaluate(query) == set()

    def test_xpath_negation_on_xmark(self):
        xmark = generate_xmark(scale=0.02, seed=77)
        with_seller = parse_xpath_query("//open_auction[seller]")
        without_seller = parse_xpath_query("//open_auction[not(seller)]")
        engine = GTEA(xmark.graph)
        a = engine.evaluate(with_seller)
        b = engine.evaluate(without_seller)
        assert a.isdisjoint(b)
        all_auctions = engine.evaluate(parse_xpath_query("//open_auction"))
        assert a | b == all_auctions


class TestFailureInjection:
    def test_engine_accepts_any_registered_index(self):
        # Historically pruning hard-required the 3-hop index; the generic
        # fallback path now serves every other index identically.
        graph = DataGraph.from_edges("ab", [(0, 1)])
        query = (
            QueryBuilder()
            .backbone("r", label="a")
            .predicate("p", parent="r", label="b")
            .build()
        )
        reference = GTEA(graph, index="3hop").evaluate(query)
        assert reference == {(0,)}
        for index in ("tc", "tree-cover", "interval", "sspi"):
            assert GTEA(graph, index=index).evaluate(query) == reference

    def test_empty_graph(self):
        graph = DataGraph()
        query = QueryBuilder().backbone("r", label="a").build()
        assert GTEA(graph).evaluate(query) == set()
        assert evaluate_naive(query, graph) == set()

    def test_graph_with_no_matching_labels(self):
        graph = DataGraph.from_edges("ab", [(0, 1)])
        query = (
            QueryBuilder()
            .backbone("r", label="zzz")
            .backbone("s", parent="r", label="a")
            .build()
        )
        assert GTEA(graph).evaluate(query) == set()

    def test_single_node_graph_self_loop_cycle(self):
        graph = DataGraph.from_edges("a", [(0, 0)])
        query = (
            QueryBuilder()
            .backbone("r", label="a")
            .backbone("s", parent="r", label="a")
            .outputs("r", "s")
            .build()
        )
        # Under nonempty-path semantics a self-loop makes the node its own
        # descendant.
        assert GTEA(graph).evaluate(query) == {(0, 0)}
        assert evaluate_naive(query, graph) == {(0, 0)}
