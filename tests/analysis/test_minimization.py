"""Tests for minGTPQ (Algorithm 1, Example 6, Proposition 5)."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.analysis import are_equivalent, are_isomorphic, minimize_query
from repro.query import AttributePredicate, QueryBuilder, evaluate_naive
from tests.paper_fixtures import fig2_query, fig4_q3, fig4_query
from tests.reachability.test_indexes import random_dags


class TestExample6:
    def test_q1_minimizes_to_q3(self):
        """Example 6: Q1 (with fs(u1)=u2) minimizes to the 4-node Q3."""
        q1 = fig4_query("q1", fs_u1="u2")
        minimized = minimize_query(q1)
        # Steps: u5, u8 dropped (non-independent); u2, u4 dropped
        # (subsumed by u6 whose presence fcs guarantees).
        assert set(minimized.nodes) == {"u1", "u3", "u6", "u7"}
        assert minimized.fs("u1").is_constant()  # fs(u1) = 1
        from repro.logic import Var

        assert minimized.fs("u3") == Var("u6")
        assert minimized.fs("u6") == Var("u7")
        assert are_equivalent(minimized, fig4_q3())
        assert are_isomorphic(minimized, fig4_q3())

    def test_q1_equivalent_after_minimization(self):
        q1 = fig4_query("q1", fs_u1="u2")
        assert are_equivalent(q1, minimize_query(q1))


class TestBasicMinimization:
    def test_fig2_query_sheds_its_one_redundancy(self):
        # A finding of this reproduction: the Fig. 2(b) query is not
        # minimal.  The backbone child u4 (D1) of u3 guarantees a D1
        # descendant in every match, so the predicate leaf u8 (also D1,
        # same parent) is redundant: u8 ⊴ u4 and fcs(root) -> p_u4.
        query = fig2_query()
        minimized = minimize_query(query)
        assert set(query.nodes) - set(minimized.nodes) == {"u8"}
        from repro.logic import parse_formula

        assert minimized.fs("u3") == parse_formula("!u6 | u7")
        assert are_equivalent(query, minimized)

    def test_duplicate_predicate_children_collapse(self):
        query = (
            QueryBuilder()
            .backbone("a", label="x")
            .predicate("p", parent="a", label="y")
            .predicate("q", parent="a", label="y")
            .structural("a", "p & q")
            .build()
        )
        minimized = minimize_query(query)
        assert minimized.size == 2  # one copy survives

    def test_subsumed_weaker_branch_collapses(self):
        # p requires a y-descendant; q requires a y-descendant with a
        # z-descendant below it. q's presence implies p's.
        query = (
            QueryBuilder()
            .backbone("a", label="x")
            .predicate("p", parent="a", label="y")
            .predicate("q", parent="a", label="y")
            .predicate("qq", parent="q", label="z")
            .structural("a", "p & q")
            .build()
        )
        minimized = minimize_query(query)
        assert set(minimized.nodes) == {"a", "q", "qq"}

    def test_non_independent_subtree_dropped(self):
        query = (
            QueryBuilder()
            .backbone("a", label="x")
            .predicate("p", parent="a", label="y")
            .predicate("r", parent="p", label="w")
            .predicate("q", parent="a", label="z")
            .structural("a", "(p & q) | (!p & q)")  # p irrelevant
            .build()
        )
        minimized = minimize_query(query)
        assert set(minimized.nodes) == {"a", "q"}

    def test_unsat_attribute_subtree_dropped(self):
        bad = AttributePredicate([("year", ">", 5), ("year", "<", 3)])
        query = (
            QueryBuilder()
            .backbone("a", label="x")
            .predicate("p", parent="a", predicate=bad)
            .predicate("q", parent="a", label="z")
            .structural("a", "q | p")
            .build()
        )
        minimized = minimize_query(query)
        assert set(minimized.nodes) == {"a", "q"}

    def test_single_node_query(self):
        query = QueryBuilder().backbone("a", label="x").build()
        assert minimize_query(query).size == 1

    def test_outputs_never_silently_dropped(self):
        query = (
            QueryBuilder()
            .backbone("a", label="x")
            .backbone("b", parent="a", label="y")
            .backbone("c", parent="a", label="y")
            .outputs("b", "c")
            .build()
        )
        minimized = minimize_query(query)
        assert len(minimized.outputs) == 2
        # b and c are both outputs: the duplicate branch must survive
        # because each output needs its own column.
        assert minimized.size == 3


class TestProposition5:
    def test_minimal_queries_unique_up_to_isomorphism(self):
        # Two differently-written equivalent queries minimize to
        # isomorphic results.
        q_a = (
            QueryBuilder()
            .backbone("a", label="x")
            .predicate("p", parent="a", label="y")
            .predicate("q", parent="a", label="y")
            .structural("a", "p & q")
            .build()
        )
        q_b = (
            QueryBuilder()
            .backbone("a", label="x")
            .predicate("p", parent="a", label="y")
            .structural("a", "p")
            .build()
        )
        assert are_isomorphic(minimize_query(q_a), minimize_query(q_b))


@settings(max_examples=25, deadline=None)
@given(random_dags(max_nodes=8), st.data())
def test_minimization_preserves_answers(graph, data):
    """The minimized query returns identical answers on random graphs."""
    for node in graph.nodes():
        graph.set_attr(node, "label", data.draw(st.sampled_from("xyz")))
    query = (
        QueryBuilder()
        .backbone("a", label="x")
        .predicate("p", parent="a", label="y")
        .predicate("q", parent="a", label="y")
        .predicate("r", parent="a", label="z")
        .structural("a", "(p & q) | (q & r)")
        .build()
    )
    minimized = minimize_query(query)
    assert minimized.size <= query.size
    assert evaluate_naive(query, graph) == evaluate_naive(minimized, graph)
