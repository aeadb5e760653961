"""GTPQ decomposition wrapper: DNF variants + anti-joins vs the oracle."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.baselines import (
    DecomposingEvaluator,
    TwigStackD,
    enumerate_conjunctive_variants,
)
from repro.graph import DataGraph
from repro.query import QueryBuilder, evaluate_naive
from tests.engine.test_gtea_oracle import random_queries
from tests.paper_fixtures import fig2_graph, fig2_query, FIG2_ANSWER, v
from tests.reachability.test_indexes import random_dags

_LABELS = "abcx"


class TestVariantEnumeration:
    def test_conjunctive_query_is_one_variant(self):
        query = (
            QueryBuilder()
            .backbone("r", label="a")
            .predicate("p", parent="r", label="b")
            .build()
        )
        variants = enumerate_conjunctive_variants(query)
        assert len(variants) == 1
        skeleton, negatives = variants[0]
        assert negatives == []
        assert set(skeleton.nodes) == {"r", "p"}

    def test_disjunction_splits_into_two_variants(self):
        query = (
            QueryBuilder()
            .backbone("r", label="a")
            .predicate("p", parent="r", label="b")
            .predicate("q", parent="r", label="c")
            .structural("r", "p | q")
            .build()
        )
        variants = enumerate_conjunctive_variants(query)
        assert len(variants) == 2
        node_sets = {frozenset(s.nodes) for s, __ in variants}
        assert node_sets == {frozenset({"r", "p"}), frozenset({"r", "q"})}

    def test_negation_becomes_anti_join(self):
        query = (
            QueryBuilder()
            .backbone("r", label="a")
            .predicate("p", parent="r", label="b")
            .structural("r", "!p")
            .build()
        )
        variants = enumerate_conjunctive_variants(query)
        assert len(variants) == 1
        skeleton, negatives = variants[0]
        assert "p" not in skeleton.nodes
        assert negatives == [("r", "p")]

    def test_exponential_variant_count(self):
        # Two independent disjunctions -> 2 x 2 variants, as the paper's
        # related-work analysis predicts.
        query = (
            QueryBuilder()
            .backbone("r", label="a")
            .backbone("s", parent="r", label="a")
            .predicate("p1", parent="r", label="b")
            .predicate("p2", parent="r", label="c")
            .predicate("q1", parent="s", label="b")
            .predicate("q2", parent="s", label="c")
            .structural("r", "p1 | p2")
            .structural("s", "q1 | q2")
            .outputs("r", "s")
            .build()
        )
        assert len(enumerate_conjunctive_variants(query)) == 4


class TestAgainstOracle:
    def test_fig2_query_via_decomposition(self):
        graph = fig2_graph()
        wrapper = DecomposingEvaluator(TwigStackD(graph))
        assert wrapper.evaluate(fig2_query()) == FIG2_ANSWER

    def test_negation_only_query(self):
        graph = fig2_graph()
        query = (
            QueryBuilder()
            .backbone("c", paper_label="C1")
            .predicate("e", parent="c", paper_label="E2")
            .structural("c", "!e")
            .outputs("c")
            .build()
        )
        wrapper = DecomposingEvaluator(TwigStackD(graph))
        assert wrapper.evaluate(query) == {(v(5),)}

    def test_dis_neg_query(self):
        graph = fig2_graph()
        query = (
            QueryBuilder()
            .backbone("c", paper_label="C1")
            .predicate("g", parent="c", paper_label="G1")
            .predicate("e", parent="c", paper_label="E2")
            .structural("c", "(g & !e) | (!g & e)")
            .outputs("c")
            .build()
        )
        wrapper = DecomposingEvaluator(TwigStackD(graph))
        assert wrapper.evaluate(query) == evaluate_naive(query, graph)


@settings(max_examples=60, deadline=None)
@given(random_dags(max_nodes=10), random_queries(), st.data())
def test_decomposition_matches_oracle(graph, query, data):
    for node in graph.nodes():
        graph.set_attr(node, "label", data.draw(st.sampled_from(_LABELS)))
    expected = evaluate_naive(query, graph)
    wrapper = DecomposingEvaluator(TwigStackD(graph))
    assert wrapper.evaluate(query) == expected
