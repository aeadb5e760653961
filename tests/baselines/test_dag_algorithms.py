"""TwigStackD and HGJoin+/- against the naive oracle on DAGs."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.baselines import HGJoinPlus, HGJoinStar, TwigStackD
from repro.graph import DataGraph
from repro.query import QueryBuilder, evaluate_naive
from tests.baselines.test_tree_algorithms import conjunctive_tree_queries
from tests.paper_fixtures import fig2_graph, v
from tests.reachability.test_indexes import random_dags

_LABELS = "abc"

ALGORITHMS = [TwigStackD, HGJoinPlus, HGJoinStar]


def _labeled(graph, data):
    for node in graph.nodes():
        graph.set_attr(node, "label", data.draw(st.sampled_from(_LABELS)))
    return graph


@pytest.mark.parametrize("algorithm", ALGORITHMS)
class TestFixedCases:
    def test_diamond_reachability(self, algorithm):
        graph = DataGraph.from_edges("abbc", [(0, 1), (0, 2), (1, 3), (2, 3)])
        query = (
            QueryBuilder()
            .backbone("r", label="a")
            .backbone("x", parent="r", label="b")
            .backbone("y", parent="x", label="c")
            .outputs("r", "x", "y")
            .build()
        )
        assert algorithm(graph).evaluate(query) == {(0, 1, 3), (0, 2, 3)}

    def test_fig2_conjunctive_subquery(self, algorithm):
        # Conjunctive pattern A1 // C1 // D1 on the Fig. 2 graph.
        graph = fig2_graph()
        query = (
            QueryBuilder()
            .backbone("a", paper_label="A1")
            .backbone("c", parent="a", paper_label="C1")
            .backbone("d", parent="c", paper_label="D1")
            .outputs("a", "c", "d")
            .build()
        )
        expected = evaluate_naive(query, graph)
        assert algorithm(graph).evaluate(query) == expected
        assert (v(1), v(3), v(11)) in expected

    def test_pc_edges_on_dag(self, algorithm):
        graph = DataGraph.from_edges("abb", [(0, 1), (0, 2), (1, 2)])
        query = (
            QueryBuilder()
            .backbone("r", label="a")
            .backbone("x", parent="r", edge="pc", label="b")
            .outputs("r", "x")
            .build()
        )
        assert algorithm(graph).evaluate(query) == {(0, 1), (0, 2)}

    def test_empty_result(self, algorithm):
        graph = DataGraph.from_edges("ab", [(0, 1)])
        query = (
            QueryBuilder()
            .backbone("r", label="c")
            .backbone("x", parent="r", label="b")
            .build()
        )
        assert algorithm(graph).evaluate(query) == set()

    def test_single_node_query(self, algorithm):
        graph = DataGraph.from_edges("aba", [(0, 1)])
        query = QueryBuilder().backbone("r", label="a").build()
        assert algorithm(graph).evaluate(query) == {(0,), (2,)}


class TestTwigStackDInternals:
    def test_prefilter_counts_two_traversals(self):
        graph = fig2_graph()
        evaluator = TwigStackD(graph)
        query = (
            QueryBuilder()
            .backbone("a", paper_label="A1")
            .backbone("c", parent="a", paper_label="C1")
            .outputs("a", "c")
            .build()
        )
        __, stats = evaluator.evaluate_with_stats(query)
        # Two whole-graph sweeps plus the candidate scan.
        assert stats.input_nodes >= 2 * graph.num_nodes

    def test_prefilter_removes_unsupported(self):
        graph = fig2_graph()
        evaluator = TwigStackD(graph)
        query = (
            QueryBuilder()
            .backbone("c", paper_label="C1")
            .backbone("e", parent="c", paper_label="E2")
            .outputs("c", "e")
            .build()
        )
        mats = evaluator.candidates(query)
        filtered = evaluator.prefilter(query, mats)
        # v5 (c2) cannot reach an e2 node: dropped by sweep 1.
        assert v(5) not in filtered["c"]
        # v13 is supported from above: kept by sweep 2.
        assert filtered["e"] == [v(13)]


class TestHGJoinInternals:
    def test_plan_sweep_records_best_time(self):
        graph = fig2_graph()
        evaluator = HGJoinPlus(graph)
        query = (
            QueryBuilder()
            .backbone("a", paper_label="A1")
            .backbone("c", parent="a", paper_label="C1")
            .backbone("d", parent="c", paper_label="D1")
            .outputs("a", "c", "d")
            .build()
        )
        evaluator.evaluate(query)
        assert "best_plan" in evaluator.stats.phase_seconds
        assert (
            evaluator.stats.phase_seconds["all_plans"]
            >= evaluator.stats.phase_seconds["best_plan"]
        )

    def test_star_produces_tuple_intermediates(self):
        graph = fig2_graph()
        evaluator = HGJoinPlus(graph)
        query = (
            QueryBuilder()
            .backbone("a", paper_label="A1")
            .backbone("c", parent="a", paper_label="C1")
            .outputs("a", "c")
            .build()
        )
        __, stats = evaluator.evaluate_with_stats(query)
        assert stats.intermediate_tuples > 0

    def test_hgjoin_star_uses_graph_intermediates(self):
        graph = fig2_graph()
        evaluator = HGJoinStar(graph)
        query = (
            QueryBuilder()
            .backbone("a", paper_label="A1")
            .backbone("c", parent="a", paper_label="C1")
            .outputs("a", "c")
            .build()
        )
        __, stats = evaluator.evaluate_with_stats(query)
        assert stats.matching_graph_nodes > 0
        assert stats.matching_graph_edges > 0


@settings(max_examples=60, deadline=None)
@given(random_dags(max_nodes=10), conjunctive_tree_queries(), st.data())
def test_twigstackd_matches_oracle(graph, query, data):
    _labeled(graph, data)
    assert TwigStackD(graph).evaluate(query) == evaluate_naive(query, graph)


@settings(max_examples=60, deadline=None)
@given(random_dags(max_nodes=10), conjunctive_tree_queries(), st.data())
def test_hgjoin_plus_matches_oracle(graph, query, data):
    _labeled(graph, data)
    assert HGJoinPlus(graph).evaluate(query) == evaluate_naive(query, graph)


@settings(max_examples=60, deadline=None)
@given(random_dags(max_nodes=10), conjunctive_tree_queries(), st.data())
def test_hgjoin_star_matches_oracle(graph, query, data):
    _labeled(graph, data)
    assert HGJoinStar(graph).evaluate(query) == evaluate_naive(query, graph)
