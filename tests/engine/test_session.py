"""QuerySession: caching, invalidation, batching, index pooling."""

import pytest

from repro.engine import GTEA, QuerySession
from repro.graph import DataGraph
from repro.query import (
    QueryBuilder,
    AttributePredicate,
    evaluate_naive,
    query_to_dict,
    query_to_json,
)


def small_graph():
    return DataGraph.from_edges(
        "aabbccdd",
        [(0, 2), (0, 4), (1, 3), (2, 6), (3, 7), (4, 6), (2, 4), (5, 7)],
    )


def query_ab(extra_pred: bool = True):
    builder = (
        QueryBuilder()
        .backbone("r", predicate=AttributePredicate.label("a"))
        .backbone("x", parent="r", predicate=AttributePredicate.label("b"))
    )
    if extra_pred:
        builder.predicate("p", parent="x", predicate=AttributePredicate.label("c"))
    return builder.outputs("r", "x").build()


def query_abd():
    return (
        QueryBuilder()
        .backbone("r", predicate=AttributePredicate.label("a"))
        .backbone("x", parent="r", predicate=AttributePredicate.label("b"))
        .backbone("y", parent="x", predicate=AttributePredicate.label("d"))
        .outputs("r", "y")
        .build()
    )


class TestCacheAccounting:
    def test_cold_then_warm_hit_miss_counters(self):
        session = QuerySession(small_graph())
        query = query_ab()
        _, cold = session.evaluate_with_stats(query)
        assert cold.plan_cache_hits == 0
        assert cold.plan_cache_misses == 1
        assert cold.result_cache_hits == 0
        assert cold.result_cache_misses == 1
        assert cold.candidate_cache_misses == len(query.nodes)
        assert cold.candidate_cache_hits == 0

        _, warm = session.evaluate_with_stats(query)
        assert warm.plan_cache_hits == 1
        assert warm.plan_cache_misses == 0
        assert warm.result_cache_hits == 1
        assert warm.result_cache_misses == 0
        # Result-cache hits skip candidate fetching entirely.
        assert warm.candidate_cache_hits == 0
        assert warm.input_nodes == 0

    def test_results_match_engine_and_oracle(self):
        graph = small_graph()
        session = QuerySession(graph)
        query = query_ab()
        expected = evaluate_naive(query, graph)
        assert session.evaluate(query) == expected
        assert session.evaluate(query) == expected  # warm copy, not a view
        assert GTEA(graph).evaluate(query) == expected

    def test_cached_result_copies_are_independent(self):
        session = QuerySession(small_graph())
        query = query_ab()
        first = session.evaluate(query)
        first.add(("junk",))
        assert ("junk",) not in session.evaluate(query)

    def test_candidate_cache_shared_across_overlapping_queries(self):
        session = QuerySession(small_graph(), result_cache_size=0)
        _, first = session.evaluate_with_stats(query_ab())
        assert first.candidate_cache_hits == 0
        _, second = session.evaluate_with_stats(query_abd())
        # "a" and "b" predicates are shared with the first query.
        assert second.candidate_cache_hits == 2
        assert second.candidate_cache_misses == 1  # the "d" predicate

    def test_group_nodes_key_result_cache_separately(self):
        session = QuerySession(small_graph())
        query = query_ab()
        session.evaluate(query)
        _, stats = session.evaluate_with_stats(query, group_nodes=("x",))
        assert stats.result_cache_hits == 0
        assert stats.result_cache_misses == 1


class TestPlanCache:
    def test_equivalent_serialized_forms_share_a_plan(self):
        session = QuerySession(small_graph())
        query = query_ab()
        plan = session.plan(query)
        assert session.plan(query_to_dict(query)) is plan
        assert session.plan(query_to_json(query)) is plan

    def test_repeated_json_skips_parsing_via_alias(self):
        session = QuerySession(small_graph())
        text = query_to_json(query_ab())
        plan = session.plan(text)
        hits_before = session.plan_cache.counters.hits
        assert session.plan(text) is plan
        assert session.plan_cache.counters.hits == hits_before + 1

    def test_rejects_unplannable_input(self):
        session = QuerySession(small_graph())
        with pytest.raises(TypeError):
            session.plan(42)


class TestInvalidation:
    def test_graph_mutation_invalidates_and_recomputes(self):
        graph = small_graph()
        session = QuerySession(graph)
        query = query_ab()
        before = session.evaluate(query)
        # New a-node above an existing b-node changes the answer.
        new_node = graph.add_node(label="a")
        graph.add_edge(new_node, 2)
        after = session.evaluate(query)
        assert after == evaluate_naive(query, graph)
        assert after != before
        assert session.result_cache.counters.invalidations == 1

    def test_explicit_invalidate_clears_pool_and_caches(self):
        session = QuerySession(small_graph())
        session.evaluate(query_ab())
        assert len(session.result_cache) == 1
        session.invalidate()
        assert len(session.result_cache) == 0
        assert len(session.plan_cache) == 0
        assert session.cache_info()["indexes"]["pooled"] == 0


class TestBatchEvaluation:
    def test_deduplicates_and_fans_out_in_order(self):
        graph = small_graph()
        session = QuerySession(graph)
        q1, q2 = query_ab(), query_abd()
        batch = session.evaluate_many([q1, q2, q1, query_to_json(q1)])
        assert batch.stats.batch_queries == 4
        assert batch.stats.batch_unique_queries == 2
        assert batch.results[0] == batch.results[2] == batch.results[3]
        assert batch.results[0] == evaluate_naive(q1, graph)
        assert batch.results[1] == evaluate_naive(q2, graph)
        assert batch.fingerprints[0] == batch.fingerprints[2]

    def test_warm_batch_is_all_result_cache_hits(self):
        session = QuerySession(small_graph())
        workload = [query_ab(), query_abd(), query_ab()]
        session.evaluate_many(workload)
        batch = session.evaluate_many(workload)
        assert batch.stats.result_cache_hits == 2  # one per unique query
        assert batch.stats.result_cache_misses == 0
        assert batch.stats.input_nodes == 0

    def test_aggregate_stats_sum_evaluations(self):
        session = QuerySession(small_graph(), result_cache_size=0)
        batch = session.evaluate_many([query_ab(), query_abd()])
        assert batch.stats.evaluations == 2
        assert batch.stats.result_cache_misses == 2
        assert batch.stats.input_nodes > 0


class TestIndexPooling:
    def test_auto_resolves_to_tc_on_tiny_graph(self):
        session = QuerySession(small_graph())
        assert session.resolved_index == "tc"
        assert session.engine().reachability.index.name == "tc"

    def test_pool_reuses_services_per_name(self):
        session = QuerySession(small_graph())
        assert session.reachability("3hop") is session.reachability("3hop")
        assert session.engine("3hop") is session.engine("3hop")
        assert session.engine("3hop") is not session.engine("tc")
        # One holder: ``tc`` is the closure slot's service, not a pool entry.
        assert session.reachability("tc") is session.reachability("tc")
        assert session.reachability("tc") is session._closure.service
        assert session.engine("tc").reachability is session._closure.service
        assert session.cache_info()["indexes"]["pooled"] == 1

    @pytest.mark.parametrize("index", ["3hop", "tc", "tree-cover"])
    def test_all_pooled_indexes_agree(self, index):
        graph = small_graph()
        query = query_ab()
        expected = evaluate_naive(query, graph)
        session = QuerySession(graph, index=index)
        assert session.evaluate(query) == expected
