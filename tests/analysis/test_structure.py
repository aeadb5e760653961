"""Tests for structural analysis: independence, ftr, similarity, fcs."""

from repro.analysis import QueryAnalysis
from repro.logic import Var, is_satisfiable, is_tautology, land, lnot, lor, equivalent
from repro.query import QueryBuilder
from tests.paper_fixtures import fig2_query, fig4_query


class TestIndependentNodes:
    def test_fig2_all_nodes_independent(self):
        # Example 4: "All query nodes are independently constraint nodes."
        analysis = QueryAnalysis(fig2_query())
        assert analysis.independent_nodes == set(fig2_query().nodes)

    def test_fig4_u5_u8_not_independent(self):
        # Example 4: "u5 and u8 are two non-independently constraint nodes"
        # because fs(u3) = (u5 & u6) | (!u5 & u6) does not depend on u5.
        analysis = QueryAnalysis(fig4_query("q1"))
        independent = analysis.independent_nodes
        assert "u5" not in independent
        assert "u8" not in independent
        assert {"u1", "u2", "u3", "u4", "u6", "u7"} <= independent

    def test_descendant_of_non_independent_is_not_independent(self):
        # u8 is a child of u5: non-independence is inherited.
        analysis = QueryAnalysis(fig4_query("q1"))
        assert "u8" not in analysis.independent_nodes

    def test_backbone_nodes_are_independent(self):
        query = (
            QueryBuilder()
            .backbone("a", label="x")
            .backbone("b", parent="a", label="y")
            .predicate("p", parent="a", label="z")
            .structural("a", "p | !p")  # fs ignores p; p not independent
            .build()
        )
        analysis = QueryAnalysis(query)
        assert "b" in analysis.independent_nodes  # backbone, via fext
        assert "p" not in analysis.independent_nodes


class TestTransitivePredicates:
    def test_example4_ftr_u3(self):
        # ftr(u3) = u4 & (!u6 | (u7 & (u9|u10) & u8)) in our parentage
        # (the paper prints the same modulo the backbone conjunct u4).
        analysis = QueryAnalysis(fig2_query())
        expected = land(
            Var("u4"),
            lor(
                lnot(Var("u6")),
                land(Var("u7"), lor(Var("u9"), Var("u10")), Var("u8")),
            ),
        )
        assert equivalent(analysis.ftr("u3"), expected)

    def test_example4_fcs_u1(self):
        # fcs(u1) = u2 & u5 & u3 & u4 & (!u6 | (u7 & (u9|u10) & u8)).
        analysis = QueryAnalysis(fig2_query())
        expected = land(
            Var("u2"),
            Var("u5"),
            Var("u3"),
            Var("u4"),
            lor(
                lnot(Var("u6")),
                land(Var("u7"), lor(Var("u9"), Var("u10")), Var("u8")),
            ),
        )
        assert equivalent(analysis.fcs("u1"), expected)

    def test_leaf_ftr_is_fext(self):
        analysis = QueryAnalysis(fig2_query())
        assert analysis.ftr("u4").is_constant()  # leaf: fext = 1


class TestSimilarityAndSubsumption:
    def test_example4_u2_subsumed_by_u6_in_q1(self):
        q1 = fig4_query("q1")
        analysis = QueryAnalysis(q1)
        # (1) u6 ⊢ u2: B2 subsumes B1.
        assert q1.attribute("u6").subsumes(q1.attribute("u2"))
        # (2) u4 ⊳ u7 (E1 leaf pair) and u2 ⊳ u6.
        assert analysis.similar("u4", "u7")
        assert analysis.similar("u2", "u6")
        # (4) u2 is an AD child of u1, ancestor of u6 => u2 ⊴ u6.
        assert analysis.subsumed("u2", "u6")

    def test_example4_no_subsumption_in_q2(self):
        # In Q2, u2 is a PC child of u1 but u6 is not: u2 is NOT subsumed.
        analysis = QueryAnalysis(fig4_query("q2"))
        assert not analysis.subsumed("u2", "u6")

    def test_subsumption_needs_attribute_direction(self):
        # u6 ⊴ u2 must fail: B1 does not subsume B2.
        analysis = QueryAnalysis(fig4_query("q1"))
        assert not analysis.subsumed("u6", "u2")

    def test_fig2_has_no_subsumption_pairs_at_the_root(self):
        # Example 4 claims "there are no two nodes u and u' such that
        # u ⊴ u'" for Fig. 2 — read as: no pair diverging at the root, so
        # fcs(u1) = ftr(u1).  (Identical sibling leaves such as u9/u10 do
        # mutually subsume under the printed definition; their clauses are
        # tautological implications that never affect satisfiability.)
        query = fig2_query()
        analysis = QueryAnalysis(query)
        root_pairs = [
            (a, b)
            for a, b in analysis.subsumption_pairs()
            if analysis.lowest_common_ancestor(a, b) == query.root
        ]
        assert root_pairs == []
        # Mutual sibling pairs exist and are symmetric.
        pairs = set(analysis.subsumption_pairs())
        assert ("u9", "u10") in pairs and ("u10", "u9") in pairs

    def test_similar_is_reflexive(self):
        analysis = QueryAnalysis(fig2_query())
        for node_id in fig2_query().nodes:
            assert analysis.similar(node_id, node_id)


class TestCompletePredicatesOnFig4:
    def test_example4_q2_fcs_satisfiable(self):
        analysis = QueryAnalysis(fig4_query("q2"))
        assert is_satisfiable(analysis.fcs("u1"))

    def test_example4_q1_fcs_unsatisfiable(self):
        # fs(u1) = !u2 plus the subsumption clause u6 -> (u2 & u4)
        # contradicts fs(u3)'s requirement u6: Q1 is unsatisfiable.
        analysis = QueryAnalysis(fig4_query("q1"))
        assert not is_satisfiable(analysis.fcs("u1"))

    def test_q1_subsumption_clause_present(self):
        analysis = QueryAnalysis(fig4_query("q1"))
        fcs = analysis.fcs("u1")
        # fcs must entail u6 -> (u2 & u4).
        assert is_tautology(lor(lnot(fcs), lor(lnot(Var("u6")), land(Var("u2"), Var("u4")))))
