"""Unit tests for the physical-operator pipeline (repro.engine.operators).

Covers each operator in isolation (empty inputs, constant-fext leaves,
the constant-empty plan), the driver's backbone-empty early exit, the
compile-time downward order (node-id tie-breaking), and the
estimated-vs-observed ``explain()`` rendering, subtree-cache hits
included."""

from repro.engine import (
    GTEA,
    EvaluationStats,
    ExecutionState,
    QuerySession,
    executed_downward_order,
)
from repro.engine.operators import UpwardPrune, build_gtea_operators, run_pipeline
from repro.graph import DataGraph
from repro.logic import FALSE
from repro.plan import compile_query
from repro.query import AttributePredicate, QueryBuilder, evaluate_naive


def chain_query(root_label="r", child_label="m"):
    return (
        QueryBuilder()
        .backbone("q_root", predicate=AttributePredicate.label(root_label))
        .backbone("q_kid", parent="q_root", predicate=AttributePredicate.label(child_label))
        .outputs("q_root")
        .build()
    )


def skewed_graph():
    """Estimates mislead: label ``h`` is common but its constrained
    candidates are empty; an unlabeled-attribute node is estimated at
    graph size but actually unique."""
    graph = DataGraph()
    root = graph.add_node(label="r")
    for _ in range(10):
        graph.add_edge(root, graph.add_node({"kind": 0}, label="h"))
    for _ in range(5):
        graph.add_edge(root, graph.add_node(label="m"))
    graph.add_edge(root, graph.add_node({"kind": 1}, label="t"))
    return graph


def skewed_empty_query():
    """Child ``a`` estimated at 10 (label ``h``) but actually empty."""
    return (
        QueryBuilder()
        .backbone("root", predicate=AttributePredicate.label("r"))
        .backbone("a", parent="root", predicate=AttributePredicate([("label", "=", "h"), ("kind", "=", 7)]))
        .backbone("b", parent="root", predicate=AttributePredicate.label("m"))
        .outputs("root")
        .build()
    )


def skewed_nonempty_query():
    """Child ``a`` estimated at graph size (no label pin) but actually
    one node; child ``b`` estimated (and actually) at five."""
    return (
        QueryBuilder()
        .backbone("root", predicate=AttributePredicate.label("r"))
        .backbone("a", parent="root", predicate=AttributePredicate([("kind", "=", 1)]))
        .backbone("b", parent="root", predicate=AttributePredicate.label("m"))
        .outputs("root", "a", "b")
        .build()
    )


class TestOperatorUnits:
    def test_candidate_scan_empty_root_short_circuits(self):
        graph = DataGraph.from_edges("mm", [(0, 1)])
        engine = GTEA(graph)
        plan = engine.compile(chain_query(root_label="zzz"))
        results, stats = engine.execute(plan)
        assert results == set()
        ops = [record.op for record in stats.operator_stats]
        # Only the scan ran: no root candidates, nothing to prune.
        assert ops == ["CandidateScan"]
        assert stats.index_lookups == 0

    def test_constant_false_fext_leaf_empties_its_set(self):
        # Rewrites can leave a constant-FALSE structural predicate on a
        # leaf (the PR-3 oracle bug); the DownwardPrune operator must
        # evaluate it rather than skip childless nodes.  The pipeline is
        # driven directly — the normalize phase would short-circuit this
        # query to ConstantEmpty before any operator ran.
        graph = DataGraph.from_edges("rm", [(0, 1)])
        query = (
            QueryBuilder()
            .backbone("q_root", predicate=AttributePredicate.label("r"))
            .backbone("q_kid", parent="q_root", predicate=AttributePredicate.label("m"))
            .structural("q_kid", FALSE)
            .outputs("q_root")
            .build()
        )
        engine = GTEA(graph)
        stats = EvaluationStats()
        state = ExecutionState(engine, query, stats)
        run_pipeline(state, build_gtea_operators(query.bottom_up()))
        assert state.finished and state.answer == set()
        pruned = {
            record.target: record.output_size
            for record in stats.operator_stats
            if record.op == "DownwardPrune"
        }
        assert pruned["q_kid"] == 0

    def test_upward_prune_empty_downward_root_short_circuits(self):
        graph = DataGraph.from_edges("rm", [(0, 1)])
        engine = GTEA(graph)
        plan = engine.compile(chain_query(root_label="r", child_label="m"))
        stats = EvaluationStats()
        state = ExecutionState(engine, plan.query, stats)
        state.down = {node_id: [] for node_id in plan.query.nodes}
        run_pipeline(state, [UpwardPrune()])
        assert state.finished and state.answer == set()

    def test_constant_empty_operator_for_unsat_plans(self):
        graph = DataGraph.from_edges("rm", [(0, 1)])
        query = (
            QueryBuilder()
            .backbone("q_root", predicate=AttributePredicate.label("r"))
            .predicate("p", parent="q_root", predicate=AttributePredicate.label("m"))
            .structural("q_root", "p & !p")
            .outputs("q_root")
            .build()
        )
        engine = GTEA(graph)
        results, stats = engine.evaluate_with_stats(query)
        assert results == set()
        assert [record.op for record in stats.operator_stats] == ["ConstantEmpty"]
        assert stats.input_nodes == 0 and stats.index_lookups == 0
        # Alternative output structures get one empty set per position.
        structured, _ = engine.evaluate_with_stats(
            query, output_structures=[["q_root"], ["q_root"]]
        )
        assert structured == {0: set(), 1: set()}

    def test_repeated_execution_reports_stable_index_probes(self):
        # Regression: the engine's reachability counters are cumulative
        # across executions; each run must be charged only its own
        # probes, not the history since the index was built.
        graph = skewed_graph()
        engine = GTEA(graph)
        plan = engine.compile(skewed_nonempty_query())
        _, first = engine.execute(plan)
        _, second = engine.execute(plan)
        _, third = engine.execute(plan)
        assert first.index_lookups == second.index_lookups == third.index_lookups
        assert first.index_entries == second.index_entries == third.index_entries
        per_op_first = [(r.label, r.index_lookups) for r in first.operator_stats]
        per_op_third = [(r.label, r.index_lookups) for r in third.operator_stats]
        assert per_op_first == per_op_third

    def test_candidate_scan_reports_sizes(self):
        graph = skewed_graph()
        engine = GTEA(graph)
        plan = engine.compile(skewed_nonempty_query())
        _, stats = engine.execute(plan)
        scan = stats.operator_stats[0]
        assert scan.op == "CandidateScan"
        assert scan.output_size == sum(stats.candidates_initial.values())


class TestEarlyExit:
    def test_empty_backbone_leaf_skips_its_siblings(self):
        # The plan visits ``a`` (estimated 5) before its sibling ``b``
        # (estimated 10); ``a`` prunes to the empty set, and every match
        # embeds every backbone node, so nothing after it runs.
        graph = skewed_graph()
        query = (
            QueryBuilder()
            .backbone("root", predicate=AttributePredicate.label("r"))
            .backbone(
                "a",
                parent="root",
                predicate=AttributePredicate([("label", "=", "m"), ("kind", "=", 7)]),
            )
            .backbone("b", parent="root", predicate=AttributePredicate.label("h"))
            .outputs("root")
            .build()
        )
        engine = GTEA(graph)
        plan = engine.compile(query)
        assert plan.physical.downward_order == ("a", "b", "root")
        answer, stats = engine.execute(plan)
        assert answer == evaluate_naive(query, graph) == set()
        downward = [record for record in stats.operator_stats if record.op == "DownwardPrune"]
        assert len(downward) < len(query.nodes)
        assert stats.downward_prune_ops < len(query.nodes)
        assert [(record.target, record.output_size, record.note) for record in downward] == [
            ("a", 0, "early-exit")
        ]
        assert stats.result_count == 0

    def test_backbone_empty_early_exit_skips_remaining_prunes(self):
        graph = skewed_graph()
        query = skewed_empty_query()
        results, stats = GTEA(graph).evaluate_with_stats(query)

        assert results == evaluate_naive(query, graph) == set()
        assert executed_downward_order(stats) == ("b", "a")
        assert stats.downward_prune_ops == len(query.nodes) - 1
        last = [r for r in stats.operator_stats if r.op == "DownwardPrune"][-1]
        assert last.note == "early-exit"
        assert last.target == "a" and last.output_size == 0

    def test_subtree_cache_hit_can_end_the_run(self):
        graph = skewed_graph()
        session = QuerySession(graph, result_cache_size=0)
        query = skewed_empty_query()
        session.evaluate(query)
        answer, stats = session.evaluate_with_stats(query)
        assert answer == set()
        assert stats.downward_prune_ops == 0
        last = [r for r in stats.operator_stats if r.op == "DownwardPrune"][-1]
        assert last.note == "subtree-cache early-exit"

    def test_compile_time_ties_break_on_node_id(self):
        # The same query compiles to the same downward order every time,
        # with tied estimates resolved by node id.
        graph = DataGraph.from_edges("rmmnn", [(0, 1), (0, 2), (0, 3), (0, 4)])
        query = (
            QueryBuilder()
            .backbone("q_root", predicate=AttributePredicate.label("r"))
            .backbone("kid_b", parent="q_root", predicate=AttributePredicate.label("m"))
            .backbone("kid_a", parent="q_root", predicate=AttributePredicate.label("n"))
            .outputs("q_root")
            .build()
        )
        first = compile_query(graph, query)
        second = compile_query(graph, query)
        assert first.physical.downward_order == ("kid_a", "kid_b", "q_root")
        assert first.physical.downward_order == second.physical.downward_order
        assert first.explain() == second.explain()
        _, stats = GTEA(graph).execute(first)
        assert executed_downward_order(stats) == first.physical.downward_order


class TestExplainObserved:
    def test_explain_shows_estimates_without_observations(self):
        graph = skewed_graph()
        session = QuerySession(graph)
        text = session.explain(skewed_nonempty_query())
        assert "operator pipeline:" in text
        assert "CandidateScan" in text and "DownwardPrune(a)" in text
        assert "obs " not in text

    def test_explain_shows_observed_after_execution(self):
        graph = skewed_graph()
        session = QuerySession(graph)
        query = skewed_nonempty_query()
        session.evaluate(query)
        text = session.explain(query)
        assert "est~" in text and "obs in=" in text
        assert "probes=" in text

    def test_explain_marks_skipped_operators_after_early_exit(self):
        graph = skewed_graph()
        session = QuerySession(graph)
        query = skewed_empty_query()
        session.evaluate(query)
        text = session.explain(query)
        assert "[early-exit]" in text
        assert "DownwardPrune(root)" in text and "(not executed)" in text

    def test_explain_marks_subtrees_served_from_the_cache(self):
        session = QuerySession(skewed_graph())
        session.evaluate(skewed_nonempty_query())
        # a and b are the earlier query's subtrees; c and the root are new.
        query = (
            QueryBuilder()
            .backbone("root", predicate=AttributePredicate.label("r"))
            .backbone("a", parent="root", predicate=AttributePredicate([("kind", "=", 1)]))
            .backbone("b", parent="root", predicate=AttributePredicate.label("m"))
            .backbone("c", parent="root", predicate=AttributePredicate.label("h"))
            .outputs("root")
            .build()
        )
        _, stats = session.evaluate_with_stats(query)
        assert stats.subtree_cache_hits == 2 and stats.downward_prune_ops == 2
        rows = {
            line.split()[1]: line
            for line in session.explain(query).splitlines()
            if "DownwardPrune(" in line
        }
        assert set(rows) == {f"DownwardPrune({node})" for node in ("a", "b", "c", "root")}
        for node in ("a", "b"):
            assert rows[f"DownwardPrune({node})"].endswith("probes=0 [subtree-cache]")
        for node in ("c", "root"):
            assert "[subtree-cache]" not in rows[f"DownwardPrune({node})"]
