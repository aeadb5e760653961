"""Unit tests of the plan-codegen backend and its session wiring."""

import dataclasses

import pytest

from repro.engine import GTEA, QuerySession
from repro.engine.parallel import ParallelOptions
from repro.graph import DataGraph
from repro.plan import (
    CodegenError,
    analyze_plan,
    compile_plan,
    compile_query,
)
from repro.plan.codegen import emit_plan_source
from repro.query import QueryBuilder, evaluate_naive
from tests.paper_fixtures import fig2_graph, fig2_query


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


def pc_query():
    """A query with a parent-child predicate edge (PC membership test)."""
    return (
        QueryBuilder()
        .backbone("r", label="a")
        .backbone("x", parent="r", label="b")
        .predicate("p", parent="x", edge="pc", label="c")
        .outputs("r", "x")
        .build()
    )


def unsatisfiable_query():
    """fs(r) = p & !p: Theorem-1 unsat, routed to constant-empty."""
    return (
        QueryBuilder()
        .backbone("r", label="a")
        .predicate("p", parent="r", label="b")
        .structural("r", "p & !p")
        .outputs("r")
        .build()
    )


class TestAnalyzePlan:
    def test_simple_query_steps(self):
        graph = chain_graph()
        plan = compile_query(graph, simple_query(), index="3hop")
        analysis = analyze_plan(plan)
        assert analysis.index_name == "3hop"
        assert analysis.three_hop is True
        assert analysis.root == "r"
        assert set(analysis.node_ids) == set(plan.query.nodes)
        steps = {step.node_id: step for step in analysis.steps}
        # Leaves carry fext = 1 (the paper's convention): copy steps.
        assert steps["p"].kind == "copy"
        # x's fext mentions its AD predicate child p.
        assert steps["x"].kind == "filter"
        assert steps["x"].ad_used == ("p",)
        assert steps["x"].pc_used == ()
        # r's fext mentions its backbone AD child x; x's mentions p.
        assert steps["r"].kind == "filter"
        assert steps["r"].ad_used == ("x",)
        # Under the 3-hop index, every mentioned AD child needs its
        # contour; the root is mentioned by nobody.
        assert steps["p"].needs_contour is True
        assert steps["x"].needs_contour is True
        assert steps["r"].needs_contour is False
        # label= predicates pin the candidate scan to the label posting.
        assert steps["r"].label_scan == "a"
        assert analysis.folded_steps >= 1

    def test_pc_child_uses_membership_not_contour(self):
        graph = chain_graph()
        plan = compile_query(graph, pc_query(), index="3hop")
        steps = {step.node_id: step for step in analyze_plan(plan).steps}
        assert steps["x"].pc_used == ("p",)
        assert steps["x"].ad_used == ()
        assert steps["p"].needs_contour is False

    def test_generic_index_skips_contours(self):
        graph = chain_graph()
        plan = compile_query(graph, simple_query(), index="interval")
        analysis = analyze_plan(plan)
        assert analysis.three_hop is False
        assert not any(step.needs_contour for step in analysis.steps)

    def test_fig2_analysis_covers_every_node(self):
        plan = compile_query(fig2_graph(), fig2_query(), index="3hop")
        analysis = analyze_plan(plan)
        assert set(analysis.node_ids) == set(plan.query.nodes)
        assert any(step.kind == "filter" for step in analysis.steps)

    def test_non_gtea_executor_is_rejected(self):
        # The refusal keys on the executor, not on the operator rows.
        graph = chain_graph()
        plan = compile_query(graph, simple_query(), index="3hop")
        relabelled = dataclasses.replace(
            plan, physical=dataclasses.replace(plan.physical, executor="constant-empty")
        )
        with pytest.raises(CodegenError, match="executor 'constant-empty'"):
            analyze_plan(relabelled)

    def test_constant_empty_plan_is_rejected(self):
        graph = chain_graph()
        plan = compile_query(graph, unsatisfiable_query(), index="3hop")
        assert plan.physical.executor == "constant-empty"
        with pytest.raises(CodegenError, match="not specializable"):
            analyze_plan(plan)

    def test_partial_downward_order_is_rejected(self):
        graph = chain_graph()
        plan = compile_query(graph, simple_query(), index="3hop")
        truncated = dataclasses.replace(
            plan,
            physical=dataclasses.replace(
                plan.physical, downward_order=plan.physical.downward_order[:-1]
            ),
        )
        with pytest.raises(CodegenError, match="does not cover"):
            analyze_plan(truncated)


class TestCompilePlan:
    def test_compiled_artifact(self):
        graph = chain_graph()
        plan = compile_query(graph, simple_query(), index="3hop")
        compiled = compile_plan(plan)
        assert compiled.index_name == "3hop"
        assert "def _specialized(state):" in compiled.source
        assert "codegen[source]" in compiled.describe()
        assert "3hop index" in compiled.describe()
        assert "CompiledPlanFunction" in repr(compiled)

    def test_emitted_source_reflects_the_analysis(self):
        graph = chain_graph()
        plan = compile_query(graph, simple_query(), index="3hop")
        source = emit_plan_source(analyze_plan(plan))
        # Label-pinned candidate scans go through the label posting.
        assert "_lbl('a')" in source
        # The const-folded leaf is a straight copy, not a filter loop.
        assert "(copy)" in source
        # The emitted prose names the index decided at compile time.
        assert "3hop index" in source

    def test_compiled_function_agrees_with_the_engine(self):
        graph = fig2_graph()
        query = fig2_query()
        plan = compile_query(graph, query, index="3hop")
        engine = GTEA(graph)
        expected, _ = engine.execute(plan)
        answer, stats = engine.execute(plan, codegen=compile_plan(plan))
        assert answer == expected == evaluate_naive(query, graph)
        # Compiled runs bypass the per-operator stats wrapper.
        assert stats.operator_stats == []

    def test_passing_a_function_where_it_does_not_apply_is_safe(self):
        # The engine's guard asks the shared applicability test, plus
        # what only it knows (index match, output structures): every
        # refused run falls back to the interpreted pipeline.
        graph = fig2_graph()
        query = fig2_query()
        plan = compile_query(graph, query, index="3hop")
        compiled = compile_plan(plan)
        engine = GTEA(graph)
        group = (plan.original.outputs[0],)
        grouped, _ = engine.execute(plan, group_nodes=group)
        for kwargs in (
            {"group_nodes": group},
            {"adaptive": True},
            {"output_structures": [list(plan.original.outputs)]},
        ):
            answer, stats = engine.execute(plan, codegen=compiled, **kwargs)
            assert stats.operator_stats, f"{kwargs} ran the compiled function"
            if "group_nodes" in kwargs:
                assert answer == grouped
        other_index = GTEA(graph, index="interval")
        answer, stats = other_index.execute(plan, codegen=compiled)
        assert stats.operator_stats
        assert answer == evaluate_naive(query, graph)


class TestSessionCodegen:
    def test_setting_validation(self):
        graph = chain_graph()
        for setting in ("yes", "closure"):
            with pytest.raises(ValueError, match="unknown codegen setting"):
                QuerySession(graph, codegen=setting)

    def test_default_is_off(self):
        graph = chain_graph()
        session = QuerySession(graph)
        _, stats = session.evaluate_with_stats(simple_query())
        assert stats.codegen_hits == stats.codegen_misses == 0
        assert stats.codegen_fallbacks == 0

    def test_cold_miss_then_warm_hit(self):
        graph = chain_graph()
        session = QuerySession(graph, result_cache_size=0, codegen="auto")
        query = simple_query()
        answer, cold = session.evaluate_with_stats(query)
        assert answer == evaluate_naive(query, graph)
        assert (cold.codegen_misses, cold.codegen_hits) == (1, 0)
        _, warm = session.evaluate_with_stats(query)
        assert (warm.codegen_misses, warm.codegen_hits) == (0, 1)
        assert session.cache_info()["codegen"]["size"] == 1

    def test_unsatisfiable_plan_never_reaches_codegen(self):
        # Constant-empty plans answer from the session's short-circuit
        # without executing anything, so no codegen counter moves (the
        # explain() note still reports the fallback reason).
        graph = chain_graph()
        session = QuerySession(graph, result_cache_size=0, codegen="auto")
        query = unsatisfiable_query()
        answer, stats = session.evaluate_with_stats(query)
        assert answer == set()
        assert stats.codegen_fallbacks == 0
        assert stats.codegen_hits == stats.codegen_misses == 0

    def test_cached_fallback_reason_counts_as_fallback(self):
        # A negative codegen-cache entry (the fallback reason string)
        # routes the execution to the interpreted pipeline and counts it.
        graph = chain_graph()
        session = QuerySession(graph, result_cache_size=0, codegen="auto")
        query = simple_query()
        session.codegen_cache.put(session.plan(query).fingerprint, "forced fallback")
        answer, stats = session.evaluate_with_stats(query)
        assert answer == evaluate_naive(query, graph)
        assert stats.codegen_fallbacks == 1
        assert stats.codegen_hits == stats.codegen_misses == 0

    def test_adaptive_session_falls_back(self):
        graph = chain_graph()
        session = QuerySession(graph, result_cache_size=0, adaptive=True, codegen="auto")
        _, stats = session.evaluate_with_stats(simple_query())
        assert stats.codegen_fallbacks == 1

    def test_parallel_session_falls_back(self):
        graph = chain_graph()
        options = ParallelOptions(workers=2, backend="serial", min_shard_size=1)
        session = QuerySession(graph, result_cache_size=0, parallel=options, codegen="auto")
        query = simple_query()
        answer, stats = session.evaluate_with_stats(query)
        assert answer == evaluate_naive(query, graph)
        assert stats.codegen_fallbacks == 1

    def test_graph_mutation_invalidates_the_codegen_cache(self):
        graph = chain_graph()
        session = QuerySession(graph, result_cache_size=0, codegen="auto")
        query = simple_query()
        first, cold = session.evaluate_with_stats(query)
        assert cold.codegen_misses == 1
        graph.add_node(label="zzz")
        again, stats = session.evaluate_with_stats(query)
        assert again == first
        assert (stats.codegen_misses, stats.codegen_hits) == (1, 0)

    def test_explain_notes(self):
        graph = chain_graph()
        session = QuerySession(graph, result_cache_size=0, codegen="auto")
        rendered = session.explain(simple_query())
        assert "[codegen] codegen[source]" in rendered
        assert session.explain(unsatisfiable_query()).endswith(
            "[codegen] interpreted fallback (executor 'constant-empty' is not specializable)"
        )
        adaptive = QuerySession(graph, adaptive=True, codegen="auto")
        assert "[codegen] interpreted fallback (adaptive" in adaptive.explain(simple_query())
        options = ParallelOptions(workers=2, backend="serial", min_shard_size=1)
        sharded = QuerySession(graph, parallel=options, codegen="auto")
        assert "[codegen] interpreted fallback (parallel-sharded execution)" in sharded.explain(
            simple_query()
        )

    def test_explain_without_codegen_has_no_note(self):
        graph = chain_graph()
        session = QuerySession(graph)
        assert "[codegen]" not in session.explain(simple_query())

    def test_stats_row_exposes_codegen_counters(self):
        graph = chain_graph()
        session = QuerySession(graph, result_cache_size=0, codegen="auto")
        _, stats = session.evaluate_with_stats(simple_query())
        row = stats.row()
        assert row["codegen_misses"] == 1
        assert row["codegen_hits"] == 0
