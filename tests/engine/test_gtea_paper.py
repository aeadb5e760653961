"""GTEA against the paper's running example (Examples 9-12)."""

from repro.engine import GTEA
from repro.engine.prime import compute_prime_subtree, shrink_prime_subtree
from repro.engine.prune import PruningContext, prune_downward, prune_upward
from repro.query import candidate_nodes
from repro.reachability import build_reachability
from tests.paper_fixtures import FIG2_ANSWER, fig2_graph, fig2_query, v


def _mats(graph, query):
    return {u: candidate_nodes(graph, query, u) for u in query.nodes}


class TestExample9PruneDownward:
    def test_downward_pruning_matches_paper(self):
        graph, query = fig2_graph(), fig2_query()
        reach = build_reachability(graph, "3hop")
        context = PruningContext(graph, query, reach)
        mats = prune_downward(context, _mats(graph, query))
        assert set(mats["u2"]) == {v(3), v(8)}
        assert set(mats["u3"]) == {v(3), v(5)}
        assert set(mats["u7"]) == {v(6), v(7)}
        assert set(mats["u1"]) == {v(1), v(2), v(4)}

    def test_predicate_leaf_mats_untouched(self):
        graph, query = fig2_graph(), fig2_query()
        reach = build_reachability(graph, "3hop")
        context = PruningContext(graph, query, reach)
        mats = prune_downward(context, _mats(graph, query))
        assert set(mats["u10"]) == {v(9), v(10), v(13), v(15)}
        assert set(mats["u5"]) == {v(13)}


class TestExample10PruneUpward:
    def test_upward_keeps_supported_candidates(self):
        graph, query = fig2_graph(), fig2_query()
        reach = build_reachability(graph, "3hop")
        context = PruningContext(graph, query, reach)
        mats = prune_downward(context, _mats(graph, query))
        prime = compute_prime_subtree(query, mats)
        assert prime == ["u1", "u2", "u3", "u4"]
        refined = prune_upward(context, mats, prime)
        # Example 10: mat(u1) reaches v3, v8 and v5 -> nothing removed.
        assert set(refined["u2"]) == {v(3), v(8)}
        assert set(refined["u3"]) == {v(3), v(5)}
        assert set(refined["u4"]) == {v(11), v(12), v(14)}


class TestExample11ShrunkPrime:
    def test_shrunk_prime_subtree(self):
        graph, query = fig2_graph(), fig2_query()
        reach = build_reachability(graph, "3hop")
        context = PruningContext(graph, query, reach)
        mats = prune_downward(context, _mats(graph, query))
        prime = compute_prime_subtree(query, mats)
        mats = prune_upward(context, mats, prime)
        fragments = shrink_prime_subtree(query, prime, mats)
        # All four prime nodes have |mat| > 1 in our reconstruction, so
        # the shrunk subtree is one fragment rooted at u1.
        assert fragments == [["u1", "u2", "u3", "u4"]]


class TestFullPipeline:
    def test_fig2_answer(self):
        graph, query = fig2_graph(), fig2_query()
        assert GTEA(graph).evaluate(query) == FIG2_ANSWER

    def test_stats_populated(self):
        graph, query = fig2_graph(), fig2_query()
        results, stats = GTEA(graph).evaluate_with_stats(query)
        assert results == FIG2_ANSWER
        assert stats.result_count == len(FIG2_ANSWER)
        assert stats.input_nodes > 0
        assert stats.matching_graph_nodes > 0
        assert stats.intermediate_cost == 2 * (
            stats.matching_graph_nodes + stats.matching_graph_edges
        )
        # One record per executed operator, in pipeline order, and no
        # second timing mechanism beside them.
        # (one DownwardPrune per node of the rewritten query).
        visited = GTEA(graph).compile(query).query.nodes
        ops = [record.op for record in stats.operator_stats]
        assert ops == [
            "CandidateScan", *["DownwardPrune"] * len(visited),
            "UpwardPrune", "BuildMatchingGraph", "CollectResults",
        ]
        assert {record.target for record in stats.operator_stats[1:-3]} == set(visited)
        assert stats.phase_seconds == {}

    def test_engine_reuse_across_queries(self):
        graph = fig2_graph()
        engine = GTEA(graph)
        assert engine.evaluate(fig2_query()) == FIG2_ANSWER
        assert engine.evaluate(fig2_query()) == FIG2_ANSWER  # idempotent

    def test_example12_maximal_matching_graph(self):
        """With u2, u3, u4 as outputs the graph has v1's two branch lists."""
        from repro.query import QueryBuilder

        graph = fig2_graph()
        query = fig2_query()
        # Rebuild with three outputs as in Example 12.
        from repro.query import query_from_dict, query_to_dict

        spec = query_to_dict(query)
        spec["outputs"] = ["u2", "u3", "u4"]
        query3 = query_from_dict(spec)
        engine = GTEA(graph)
        results = engine.evaluate(query3)
        # Project back to (u2, u4): must equal the paper answer.
        assert {(a, c) for a, _, c in results} == FIG2_ANSWER
        # u3-images are v3 and v5 only.
        assert {b for _, b, _ in results} == {v(3), v(5)}
