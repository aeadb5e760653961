"""Unit tests of the query compiler: normalize → logical → physical."""

import pytest

from repro.graph import DataGraph
from repro.plan import (
    CompiledPlan,
    build_logical_plan,
    build_physical_plan,
    compile_query,
    estimate_candidates,
    normalize,
)
from repro.engine import GTEA
from repro.query import AttributePredicate, QueryBuilder, evaluate_naive
from tests.paper_fixtures import fig2_graph, fig2_query, fig4_q3, fig4_query


def chain_graph(labels="aabbcc"):
    edges = [(i, i + 1) for i in range(len(labels) - 1)]
    return DataGraph.from_edges(labels, edges)


def simple_query():
    return (
        QueryBuilder()
        .backbone("r", label="a")
        .backbone("x", parent="r", label="b")
        .predicate("p", parent="x", label="c")
        .outputs("r", "x")
        .build()
    )


def unsatisfiable_fs_query():
    """fs(r) = p & !p over one predicate child: Theorem-1 unsat."""
    return (
        QueryBuilder()
        .backbone("r", label="a")
        .predicate("p", parent="r", label="b")
        .structural("r", "p & !p")
        .outputs("r")
        .build()
    )


def unsatisfiable_backbone_query():
    """A backbone node whose attribute predicate is contradictory."""
    contradiction = AttributePredicate(
        [("label", "=", "b"), ("label", "!=", "b")]
    )
    return (
        QueryBuilder()
        .backbone("r", label="a")
        .backbone("x", parent="r", predicate=contradiction)
        .outputs("r", "x")
        .build()
    )


class TestNormalizePhase:
    def test_untouched_query_reports_no_rewrites(self):
        normalized = normalize(simple_query())
        assert normalized.satisfiable
        assert not normalized.changed
        assert normalized.rewritten is normalized.original
        assert normalized.output_mapping == {"r": "r", "x": "x"}

    def test_unsatisfiable_fs_detected(self):
        normalized = normalize(unsatisfiable_fs_query())
        assert not normalized.satisfiable
        assert any("Theorem 1" in note for note in normalized.notes)

    def test_unsatisfiable_backbone_attribute_detected(self):
        normalized = normalize(unsatisfiable_backbone_query())
        assert not normalized.satisfiable
        assert any("backbone" in note for note in normalized.notes)

    def test_fig4_minimizes_to_q3(self):
        """Paper Example 6: Q1 with fs(u1)=u2 minimizes to Q3."""
        normalized = normalize(fig4_query("q1", fs_u1="u2"))
        assert normalized.changed
        assert set(normalized.rewritten.nodes) == set(fig4_q3().nodes)
        assert normalized.removed_nodes == ("u2", "u4", "u5", "u8")
        assert normalized.output_mapping == {"u3": "u3"}

    def test_fig2_drops_subsumed_u8(self):
        """u8 ⊴ u4 (both D1 AD children of u3): u8 is redundant."""
        normalized = normalize(fig2_query())
        assert normalized.removed_nodes == ("u8",)

    def test_minimize_false_skips_algorithm1(self):
        normalized = normalize(fig2_query(), minimize=False)
        assert normalized.removed_nodes == ()
        assert normalized.satisfiable


class TestLogicalPhase:
    def test_sources_and_estimates(self):
        graph = chain_graph()
        query = simple_query()
        logical = build_logical_plan(graph, normalize(query))
        by_node = {source.node_id: source for source in logical.sources}
        assert by_node["r"].source == "label-index"
        assert by_node["r"].estimate == 2
        assert by_node["p"].kind == "predicate"
        assert logical.total_candidate_estimate == 6

    def test_wildcard_predicate_is_full_scan(self):
        graph = chain_graph()
        query = (
            QueryBuilder()
            .backbone("r")  # wildcard
            .backbone("x", parent="r", label="b")
            .outputs("r", "x")
            .build()
        )
        logical = build_logical_plan(graph, normalize(query))
        by_node = {source.node_id: source for source in logical.sources}
        assert by_node["r"].source == "full-scan"
        assert by_node["r"].estimate == graph.num_nodes

    def test_downward_order_visits_children_before_parents(self):
        graph = fig2_graph()
        query = fig2_query()
        logical = build_logical_plan(graph, normalize(query))
        position = {node: i for i, node in enumerate(logical.downward_order)}
        for child, parent in logical.query.parent.items():
            assert position[child] < position[parent]
        assert set(logical.downward_order) == set(logical.query.nodes)

    def test_downward_order_prefers_cheap_subtrees(self):
        graph = DataGraph.from_edges("abbbc", [(0, 1), (0, 4), (1, 2)])
        query = (
            QueryBuilder()
            .backbone("r", label="a")
            .backbone("many", parent="r", label="b")   # 3 candidates
            .backbone("few", parent="r", label="c")    # 1 candidate
            .outputs("r", "many", "few")
            .build()
        )
        logical = build_logical_plan(graph, normalize(query))
        order = list(logical.downward_order)
        assert order.index("few") < order.index("many")

    def test_obligations_cover_both_phases(self):
        logical = build_logical_plan(fig2_graph(), normalize(fig2_query()))
        phases = {obligation.phase for obligation in logical.obligations}
        assert phases == {"downward", "upward"}


class TestPhysicalPhase:
    def test_auto_index_is_the_closure(self):
        graph = chain_graph()
        normalized = normalize(simple_query())
        logical = build_logical_plan(graph, normalized)
        physical = build_physical_plan(graph, normalized, logical)
        assert physical.index_name == "tc"

    def test_pinned_index_respected(self):
        graph = chain_graph()
        normalized = normalize(simple_query())
        logical = build_logical_plan(graph, normalized)
        physical = build_physical_plan(
            graph, normalized, logical, index="3hop"
        )
        assert physical.index_name == "3hop"
        assert "pinned" in physical.index_reason

    def test_unknown_pinned_index_rejected(self):
        graph = chain_graph()
        with pytest.raises(ValueError, match="unknown index"):
            compile_query(graph, simple_query(), index="nosuchindex")

    def test_unsatisfiable_compiles_to_constant_empty(self):
        graph = chain_graph()
        plan = compile_query(graph, unsatisfiable_fs_query())
        assert plan.unsatisfiable
        assert plan.physical.executor == "constant-empty"

    def test_low_selectivity_conjunctive_runs_on_gtea(self):
        # Three wildcards on a 20-node DAG: every candidate set is the
        # whole graph, and GTEA is still the one executor.
        graph = chain_graph("ab" * 10)
        query = (
            QueryBuilder()
            .backbone("r")
            .backbone("x", parent="r")
            .backbone("y", parent="x")
            .outputs("r", "x", "y")
            .build()
        )
        plan = compile_query(graph, query)
        assert plan.physical.executor == "gtea"
        assert [op.op for op in plan.physical.operators] == [
            "CandidateScan",
            *["DownwardPrune"] * 3,
            "UpwardPrune",
            "BuildMatchingGraph",
            "CollectResults",
        ]
        assert GTEA(graph).execute(plan)[0] == evaluate_naive(query, graph)


class TestCompiledPlan:
    def test_explain_shows_all_three_stages(self):
        plan = compile_query(fig2_graph(), fig2_query())
        text = plan.explain()
        assert "== normalize ==" in text
        assert "== logical plan ==" in text
        assert "== physical plan ==" in text
        assert "minimized: 10 -> 9 nodes" in text

    def test_compile_is_pure_wrt_query(self):
        query = fig2_query()
        before = set(query.nodes)
        compile_query(fig2_graph(), query)
        assert set(query.nodes) == before  # queries are immutable

    def test_estimate_candidates_upper_bounds_reality(self):
        from repro.query import candidate_nodes

        graph = fig2_graph()
        query = fig2_query()
        estimates = estimate_candidates(graph, query)
        for node_id in query.nodes:
            actual = len(candidate_nodes(graph, query, node_id))
            assert estimates[node_id] >= actual

    def test_compiled_plan_is_frozen(self):
        plan = compile_query(fig2_graph(), fig2_query())
        assert isinstance(plan, CompiledPlan)
        with pytest.raises(AttributeError):
            plan.physical = None


class TestMinimizationExposedUnsatisfiability:
    """Regression: found by the randomized differential harness.

    ``fs(n1) = pc_c & !ad_c`` is propositionally satisfiable (Theorem 1
    treats child variables as independent) but structurally empty: a PC
    child with label c entails an AD descendant with label c.
    Minimization folds the containment in and collapses ``fs`` to FALSE
    — which must surface as a constant-empty plan, not as a rewritten
    query whose now-leaf node silently matches everything.
    """

    @staticmethod
    def pc_entails_ad_query():
        return (
            QueryBuilder()
            .backbone("n0", label="d")
            .predicate("n1", parent="n0", label="a")
            .predicate("n2", parent="n1", edge="pc", label="c")
            .predicate("n3", parent="n1", edge="ad", label="c")
            .structural("n0", "n1")
            .structural("n1", "n2 & !n3")
            .outputs("n0")
            .build()
        )

    def test_normalize_recheck_marks_plan_unsatisfiable(self):
        plan = compile_query(chain_graph("dac"), self.pc_entails_ad_query())
        assert plan.unsatisfiable
        assert plan.physical.executor == "constant-empty"
        assert any("exposed unsatisfiability" in note for note in plan.normalized.notes)

    def test_evaluation_matches_oracle(self):
        from repro.engine import GTEA
        graph = DataGraph.from_edges("dacdc", [(0, 1), (1, 2), (3, 4)])
        query = self.pc_entails_ad_query()
        assert evaluate_naive(query, graph) == set()
        assert GTEA(graph).evaluate(query) == set()
        assert GTEA(graph, optimize=False).evaluate(query) == set()

    def test_prune_downward_respects_constant_false_leaf_fext(self):
        """The executor-level half of the fix, exercised directly: a leaf
        whose ``fs`` collapsed to FALSE must refine to the empty set."""
        from repro.engine.prune import PruningContext, downward_step, prune_downward

        graph = chain_graph("aab")
        query = (
            QueryBuilder()
            .backbone("r", label="a")
            .backbone("x", parent="r", label="b")
            .structural("x", "0")
            .outputs("r")
            .build()
        )
        context = PruningContext(graph, query, GTEA(graph).reachability)
        mats = {"r": [0, 1], "x": [2]}
        refined = prune_downward(context, mats)
        assert refined["x"] == ()
        assert refined["r"] == ()
        assert downward_step(context, "x", [2], {}) == ()
