"""End-to-end tests of the compile → execute pipeline.

Satellite + acceptance coverage: unsatisfiable queries short-circuit to
O(1) with zero index I/O, minimized queries answer exactly like the
unoptimized path (paper fixtures and generated workloads, cross-checked
against the naive oracle), low-selectivity conjunctive queries run on
GTEA, plans are independent of what the session has executed, and
``explain()`` is surfaced through the session and CLI.
"""

import random

import pytest

from repro.bench.cli import build_parser
from repro.bench.cli import main as bench_main
from repro.datasets import fig7_query, generate_arxiv, random_embedded_query
from repro.engine import GTEA, QuerySession
from repro.graph import DataGraph
from repro.query import AttributePredicate, QueryBuilder, evaluate_naive
from repro.query.serialize import query_to_json
from tests.paper_fixtures import FIG2_ANSWER, fig2_graph, fig2_query, fig4_query


def unsatisfiable_query():
    return (
        QueryBuilder()
        .backbone("r", label="a1")
        .predicate("p", parent="r", label="b1")
        .structural("r", "p & !p")
        .outputs("r")
        .build()
    )


def layered_graph(rng, nodes=40, labels="abcx"):
    """A small layered DAG with repeated labels (oracle-friendly)."""
    graph = DataGraph()
    for _ in range(nodes):
        graph.add_node(label=rng.choice(labels))
    for i in range(nodes):
        for j in range(i + 1, min(i + 6, nodes)):
            if rng.random() < 0.25:
                graph.add_edge(i, j)
    return graph


class TestUnsatisfiableShortCircuit:
    def test_session_returns_empty_with_zero_index_io(self):
        session = QuerySession(fig2_graph())
        results, stats = session.evaluate_with_stats(unsatisfiable_query())
        assert results == set()
        assert stats.index_lookups == 0
        assert stats.index_entries == 0
        # No candidate set was built: no fetches, no scan-memo traffic.
        assert stats.input_nodes == 0
        assert stats.candidates_initial == {}
        memo = session.cache_info()["candidate"]
        assert (memo["hits"], memo["misses"]) == (0, 0)

    def test_bare_engine_matches_oracle_on_unsat(self):
        graph = fig2_graph()
        query = unsatisfiable_query()
        engine = GTEA(graph)
        results, stats = engine.evaluate_with_stats(query)
        assert results == evaluate_naive(query, graph) == set()
        assert stats.index_lookups == 0
        assert stats.candidates_initial == {}

    def test_unsat_with_output_structures_returns_empty_dict(self):
        engine = GTEA(fig2_graph())
        answers, stats = engine.evaluate_with_stats(
            unsatisfiable_query(), output_structures=[["r"], ["r"]]
        )
        assert answers == {0: set(), 1: set()}
        assert stats.index_lookups == 0

    def test_warm_unsat_is_a_result_cache_hit(self):
        session = QuerySession(fig2_graph())
        query = unsatisfiable_query()
        session.evaluate(query)
        _, warm = session.evaluate_with_stats(query)
        assert warm.result_cache_hits == 1

    def test_unsat_query_builds_no_index(self):
        session = QuerySession(fig2_graph())
        assert session.evaluate(unsatisfiable_query()) == set()
        assert session.cache_info()["indexes"]["pooled"] == 0

    def test_bare_engine_unsat_builds_no_index(self):
        engine = GTEA(fig2_graph())
        assert engine.evaluate(unsatisfiable_query()) == set()
        assert engine._reachability is None  # still lazy


class TestMinimizedEquivalence:
    def test_fig2_minimized_pipeline_matches_paper_answer(self):
        graph, query = fig2_graph(), fig2_query()
        session = QuerySession(graph)
        plan = session.plan(query)
        assert plan.compiled.normalized.removed_nodes == ("u8",)
        assert session.evaluate(query) == FIG2_ANSWER

    def test_optimized_equals_unoptimized_on_paper_fixtures(self):
        graph = fig2_graph()
        optimized = GTEA(graph, optimize=True)
        raw = GTEA(graph, optimize=False)
        for query in (
            fig2_query(),
            fig4_query("q1"),
            fig4_query("q2"),
            fig4_query("q1", fs_u1="u2"),
        ):
            expected = evaluate_naive(query, graph)
            assert optimized.evaluate(query) == expected
            assert raw.evaluate(query) == expected

    def test_generated_workload_oracle_cross_check(self):
        """datasets.random_queries patterns through the full pipeline."""
        rng = random.Random(23)
        graph = layered_graph(rng)
        session = QuerySession(graph)
        checked = 0
        for size in (3, 4, 5):
            for _ in range(4):
                query = random_embedded_query(graph, size, rng)
                if query is None:
                    continue
                expected = evaluate_naive(query, graph)
                assert session.evaluate(query) == expected
                assert expected  # embedded queries have nonempty answers
                checked += 1
        assert checked >= 6

    def test_redundant_sibling_is_removed_and_answers_agree(self):
        """A predicate duplicating an existing backbone child is dropped."""
        rng = random.Random(5)
        graph = layered_graph(rng)
        query = (
            QueryBuilder()
            .backbone("r", label="a")
            .backbone("b1", parent="r", label="b")
            .predicate("p1", parent="r", label="b")
            .outputs("r", "b1")
            .build()
        )
        session = QuerySession(graph)
        plan = session.plan(query)
        assert plan.compiled.normalized.removed_nodes == ("p1",)
        assert session.evaluate(query) == evaluate_naive(query, graph)


class TestBaselineRouting:
    """The wildcard chain the cost model once sent to TwigStackD: it now
    plans to GTEA and must still answer like the oracle, share its
    label-free candidate scan (the session's scan memo, the "candidate"
    row) and honour group nodes."""

    def routed_case(self):
        rng = random.Random(11)
        graph = layered_graph(rng, nodes=30)
        query = (
            QueryBuilder()
            .backbone("r")
            .backbone("x", parent="r")
            .backbone("y", parent="x")
            .outputs("r", "x", "y")
            .build()
        )
        return graph, query

    def test_routed_query_matches_oracle(self):
        graph, query = self.routed_case()
        engine = GTEA(graph)
        plan = engine.compile(query)
        assert plan.physical.executor == "gtea"
        results, stats = engine.evaluate_with_stats(query)
        assert results == evaluate_naive(query, graph)
        assert "baseline" not in stats.phase_seconds

    def test_routed_query_through_session_uses_candidate_cache(self):
        graph, query = self.routed_case()
        session = QuerySession(graph, result_cache_size=0)
        assert session.plan(query).compiled.physical.executor == "gtea"
        session.evaluate(query)
        memo = session.cache_info()["candidate"]
        assert memo["misses"] == 1  # one wildcard predicate key
        assert memo["hits"] == 2  # shared by the other nodes
        session.evaluate(query)
        assert session.cache_info()["candidate"]["hits"] == 5
        assert session.evaluate(query) == evaluate_naive(query, graph)

    def test_group_nodes_fall_back_to_gtea(self):
        graph, query = self.routed_case()
        engine = GTEA(graph)
        grouped, stats = engine.evaluate_with_stats(query, group_nodes=("y",))
        assert "baseline" not in stats.phase_seconds
        raw = GTEA(graph, optimize=False)
        expected, _ = raw.evaluate_with_stats(query, group_nodes=("y",))
        assert grouped == expected


class TestGteaIsTheOneExecutor:
    """Low-selectivity conjunctive queries on DAGs plan to GTEA and
    answer like the oracle."""

    def test_arxiv_recent_chain_runs_on_gtea(self):
        graph = generate_arxiv(seed=7).graph
        recent = AttributePredicate([("time", ">=", 7500)])
        chain = QueryBuilder().backbone("n0", predicate=recent)
        for depth in range(1, 5):
            chain.backbone(f"n{depth}", parent=f"n{depth - 1}", predicate=recent)
        query = chain.outputs("n0", "n4").build()
        session = QuerySession(graph)
        assert session.plan(query).compiled.physical.executor == "gtea"
        answer = session.evaluate(query)
        assert len(answer) == 44
        assert answer == evaluate_naive(query, graph)


class TestPlannerIsPure:
    """A plan is a function of (query, graph statistics, pooled indexes):
    nothing the session executes moves a later compilation."""

    def test_executions_do_not_move_a_recompilation(self):
        graph = generate_arxiv(seed=7).graph
        # The benchmark's ``arxiv_churn`` recipe: embedded AD patterns of
        # sizes 5/7/9 from one seed.
        rng = random.Random(7)
        queries = []
        for size in (5, 7, 9):
            drawn = 0
            while drawn < 20:
                pattern = random_embedded_query(graph, size, rng)
                if pattern is not None:
                    queries.append(pattern)
                    drawn += 1
        # No label is pinned, so every node is costed at the node count.
        recent = AttributePredicate([("time", ">=", 7900)])
        chain = QueryBuilder().backbone("n0", predicate=recent)
        for depth in range(1, 5):
            chain.backbone(f"n{depth}", parent=f"n{depth - 1}", predicate=recent)
        queries.append(chain.outputs("n0").build())

        session = QuerySession(graph, result_cache_size=0)
        before = [session.plan(query).compiled for query in queries]
        assert {plan.physical.executor for plan in before} == {"gtea"}
        assert session.evaluate(queries[-1]) == evaluate_naive(queries[-1], graph)
        for query in queries:
            for _ in range(5):
                session.evaluate(query)
        session.invalidate()
        after = [session.plan(query).compiled for query in queries]
        assert all(new is not old for new, old in zip(after, before))
        assert [plan.explain() for plan in after] == [plan.explain() for plan in before]


class TestExplainSurface:
    def test_session_explain_shows_all_stages(self):
        session = QuerySession(fig2_graph())
        text = session.explain(fig2_query())
        assert "== normalize ==" in text
        assert "== logical plan ==" in text
        assert "== physical plan ==" in text
        assert "minimized" in text

    def test_explain_mentions_distinct_subtrees(self):
        graph = DataGraph.from_edges("aabbcc", [(i, i + 1) for i in range(5)])
        query = (
            QueryBuilder()
            .backbone("r", label="a")
            .backbone("x", parent="r", label="b")
            .predicate("p", parent="x", label="c")
            .outputs("r", "x")
            .build()
        )
        text = GTEA(graph).compile(query).explain()
        assert "subtrees: 3 rooted, 3 distinct fingerprints" in text

    def test_explain_reuses_the_plan_cache(self):
        session = QuerySession(fig2_graph())
        query = fig2_query()
        session.explain(query)
        hits = session.plan_cache.counters.hits
        session.explain(query)
        assert session.plan_cache.counters.hits == hits + 1

    def test_cli_explain_subcommand(self, capsys):
        code = bench_main(["--scale", "0.02", "explain", "--variant", "q1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "== physical plan ==" in out
        assert "downward prune order" in out

    def test_cli_explain_rejects_unknown_index(self, capsys):
        # --index takes its choices from the registry: argparse refuses
        # an unknown name before a dataset is generated.
        with pytest.raises(SystemExit) as exit_info:
            bench_main(["--scale", "0.02", "explain", "--index", "nosuchindex"])
        err = capsys.readouterr().err
        assert exit_info.value.code == 2
        assert "invalid choice: 'nosuchindex'" in err

    def test_cli_stats_subcommand(self, capsys):
        code = bench_main(["--scale", "0.02", "stats"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        columns = "nodes edges labels roots max_depth avg_depth auto_index"
        assert lines[2].split() == columns.split()
        assert len(lines[3].split()) == 7
        assert lines[3].split()[-1] == "tc"  # what "auto" resolves to

    def test_cli_explain_query_json(self, capsys, tmp_path):
        path = tmp_path / "q1.json"
        path.write_text(
            query_to_json(fig7_query("q1", person_group=2, item_group=4, seller_group=6))
        )
        code = bench_main(["--scale", "0.02", "explain", "--query-json", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "== normalize ==" in out
        assert "== logical plan ==" in out
        assert "== physical plan ==" in out

    @pytest.mark.parametrize("text", [None, "not json {", "[1, 2]"])
    def test_cli_explain_rejects_bad_query_json(self, capsys, tmp_path, text):
        path = tmp_path / "query.json"
        if text is not None:  # None: the path is left unreadable (missing)
            path.write_text(text)
        code = bench_main(["--scale", "0.02", "explain", "--query-json", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("repro-bench: error:")
        assert captured.out == ""

    def test_cli_has_exactly_stats_and_explain(self):
        assert "{stats,explain}" in build_parser().format_usage()
