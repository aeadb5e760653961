"""Batch evaluation: fingerprint dedup, subtree reuse, per-query stats."""

import random

import pytest

from repro.datasets import random_labeled_graph, random_query_batch
from repro.engine import QuerySession
from repro.graph import DataGraph
from repro.query import AttributePredicate, QueryBuilder, evaluate_naive


def small_graph():
    return DataGraph.from_edges(
        "aabbccdd",
        [(0, 2), (0, 4), (1, 3), (2, 6), (3, 7), (4, 6), (2, 4), (5, 7)],
    )


def query_ab():
    return (
        QueryBuilder()
        .backbone("r", predicate=AttributePredicate.label("a"))
        .backbone("x", parent="r", predicate=AttributePredicate.label("b"))
        .predicate("p", parent="x", predicate=AttributePredicate.label("c"))
        .outputs("r", "x")
        .build()
    )


def query_ab_extended():
    """``query_ab``'s whole pattern grafted under an extra ``a`` root."""
    return (
        QueryBuilder()
        .backbone("t", predicate=AttributePredicate.label("a"))
        .backbone("u", parent="t", predicate=AttributePredicate.label("a"))
        .backbone("v", parent="u", predicate=AttributePredicate.label("b"))
        .predicate("w", parent="v", predicate=AttributePredicate.label("c"))
        .outputs("t", "v")
        .build()
    )


def overlap_workload(seed=7, batch_size=24, overlap=0.7):
    rng = random.Random(seed)
    graph = random_labeled_graph(16, rng, edge_prob=0.2)
    batch = random_query_batch(
        graph, rng, batch_size=batch_size, size_range=(3, 6), overlap=overlap
    )
    return graph, batch


class TestSharedBatchCounters:
    def test_within_batch_subtree_sharing_is_counted(self):
        session = QuerySession(small_graph())
        batch = session.evaluate_many([query_ab(), query_ab_extended()])
        # r/x/p of query_ab reappear as u/v/w of the extended query.
        assert batch.stats.subtree_cache_hits == 3
        assert batch.stats.downward_prune_ops == 4  # 7 occurrences, 4 distinct

    def test_shared_path_does_measurably_fewer_prune_ops(self):
        """Acceptance bar: >= 20 queries, >= 50% overlap, fewer prune ops."""
        graph, batch = overlap_workload(batch_size=24, overlap=0.7)
        assert len(batch) >= 20

        shared_session = QuerySession(graph, result_cache_size=0)
        shared = shared_session.evaluate_many(batch)
        # The cold path: without a subtree cache every query prunes every
        # one of its nodes.
        isolated_session = QuerySession(graph, result_cache_size=0, subtree_cache_size=0)
        isolated = isolated_session.evaluate_many(batch)

        assert shared.results == isolated.results
        for query, answer in zip(batch, shared.results):
            assert answer == evaluate_naive(query, graph)
        # At least half the subtree occurrences must be served by reuse,
        # and the op counter must drop accordingly.
        assert shared.stats.subtree_cache_hits * 2 >= shared.stats.downward_prune_ops
        assert shared.stats.downward_prune_ops < isolated.stats.downward_prune_ops
        assert (
            shared.stats.downward_prune_ops + shared.stats.subtree_cache_hits
            == isolated.stats.downward_prune_ops
        )

    def test_subtree_cache_serves_across_batches(self):
        graph = small_graph()
        session = QuerySession(graph, result_cache_size=0)
        cold = session.evaluate_many([query_ab()])
        assert cold.stats.subtree_cache_hits == 0
        assert cold.stats.subtree_cache_misses == 3
        warm = session.evaluate_many([query_ab_extended()])
        # u/v/w reproduce r/x/p exactly (u's subtree is a -> b[c], the
        # same pattern as r's), so only the fresh root t is pruned anew.
        assert warm.stats.subtree_cache_hits == 3
        assert warm.stats.subtree_cache_misses == 1
        assert warm.stats.downward_prune_ops == 1
        assert warm.results[0] == evaluate_naive(query_ab_extended(), graph)

    def test_subtree_cache_size_zero_disables_cross_batch_reuse(self):
        graph = small_graph()
        session = QuerySession(graph, result_cache_size=0, subtree_cache_size=0)
        session.evaluate_many([query_ab()])
        warm = session.evaluate_many([query_ab_extended()])
        assert warm.stats.subtree_cache_hits == 0
        # Within one batch there is no reuse either: every node is pruned.
        cold = QuerySession(graph, result_cache_size=0, subtree_cache_size=0)
        both = cold.evaluate_many([query_ab(), query_ab_extended()])
        assert both.stats.subtree_cache_hits == 0
        assert both.stats.downward_prune_ops == 7

    def test_cache_info_reports_subtree_cache(self):
        session = QuerySession(small_graph())
        session.evaluate_many([query_ab()])
        info = session.cache_info()
        assert info["subtree"]["size"] == 3


class TestPerQueryStats:
    def test_evaluate_many_reports_per_query_stats(self):
        """Regression: batch counters used to exist only in aggregate."""
        graph = small_graph()
        session = QuerySession(graph, result_cache_size=0)
        q1, q2 = query_ab(), query_ab_extended()
        batch = session.evaluate_many([q1, q2, q1])
        assert len(batch.per_query) == 3

        first, second, duplicate = batch.per_query
        # Prune work on a shared subtree is charged to the first query
        # that runs it; the second query reads it from the subtree cache.
        assert first.downward_prune_ops == 3
        assert first.subtree_cache_misses == 3
        assert first.subtree_cache_hits == 0
        assert second.downward_prune_ops == 1
        assert second.subtree_cache_hits == 3
        # The duplicate input did no evaluation: only its plan-cache probe
        # and the fanned-out result count.
        assert duplicate.plan_cache_hits == 1
        assert duplicate.downward_prune_ops == 0
        assert duplicate.input_nodes == 0
        assert duplicate.result_count == len(batch.results[2])

    def test_per_query_stats_align_with_results_in_order(self):
        graph, batch = overlap_workload(seed=11, batch_size=8)
        outcome = QuerySession(graph).evaluate_many(batch)
        assert len(outcome.per_query) == len(batch)
        for stats, answer in zip(outcome.per_query, outcome.results):
            assert stats.result_count == len(answer)

    def test_aggregate_equals_per_query_sum_for_core_counters(self):
        graph, batch = overlap_workload(seed=13, batch_size=8)
        outcome = QuerySession(graph).evaluate_many(batch)
        for counter in (
            "downward_prune_ops",
            "subtree_cache_hits",
            "subtree_cache_misses",
            "plan_cache_misses",
            "input_nodes",
        ):
            total = sum(getattr(stats, counter) for stats in outcome.per_query)
            assert getattr(outcome.stats, counter) == total, counter


class TestSharedRouting:
    def test_unsatisfiable_queries_ride_along(self):
        unsat = (
            QueryBuilder()
            .backbone("r", predicate=AttributePredicate.label("a"))
            .predicate("p", parent="r", predicate=AttributePredicate.label("b"))
            .structural("r", "p & !p")
            .outputs("r")
            .build()
        )
        session = QuerySession(small_graph())
        batch = session.evaluate_many([query_ab(), unsat])
        assert batch.results[1] == set()
        assert batch.results[0] == evaluate_naive(query_ab(), small_graph())

    def test_group_nodes_fall_back_to_per_query_path(self):
        graph = small_graph()
        session = QuerySession(graph)
        grouped = session.evaluate_many([query_ab()], group_nodes=("x",))
        ungrouped = QuerySession(graph).evaluate_many([query_ab()])
        # The per-query path keys the subtree cache on the original
        # query group evaluation runs: three cold probes, then hits.
        assert grouped.stats.subtree_cache_misses == 3
        assert len(grouped.results[0]) <= len(ungrouped.results[0])
        again = session.evaluate_many([query_ab_extended()], group_nodes=("v",))
        assert again.stats.subtree_cache_hits == 3
        assert again.stats.downward_prune_ops == 1


@pytest.mark.parametrize("index", ["3hop", "tc", "tree-cover"])
def test_shared_path_agrees_on_every_pooled_index(index):
    graph, batch = overlap_workload(seed=3, batch_size=6)
    session = QuerySession(graph, index=index)
    outcome = session.evaluate_many(batch)
    for query, answer in zip(batch, outcome.results):
        assert answer == evaluate_naive(query, graph)
