"""QuerySession: caching, invalidation, batching, index pooling."""

import re
from datetime import date

import pytest

from repro.engine import GTEA, QuerySession
from repro.graph import DataGraph
from repro.query import (
    QueryBuilder,
    AttributePredicate,
    candidate_nodes,
    evaluate_naive,
    query_from_dict,
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


def unpinned(query):
    """``query`` with each ``label = c`` atom written as ``c <= label <= c``:
    the same answers, with no pinned label to read a posting by."""
    data = query_to_dict(query)
    for entry in data["nodes"]:
        entry["atoms"] = [
            [name, bound, constant]
            for name, _, constant in entry["atoms"]
            for bound in (">=", "<=")
        ]
    return query_from_dict(data)


#: the keys of a cache_info() row.
MEMO_ROW = ("hits", "misses", "evictions", "invalidations", "size")


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
        # Every candidate set is a scan of the live graph (a label pins
        # each one here, so the scan memo stays empty).
        graph = session.graph
        assert cold.candidates_initial == {
            node: len(candidate_nodes(graph, query, node)) for node in query.nodes
        }
        assert session.cache_info()["candidate"] == dict.fromkeys(MEMO_ROW, 0)

        _, warm = session.evaluate_with_stats(query)
        assert warm.plan_cache_hits == 1
        assert warm.plan_cache_misses == 0
        assert warm.result_cache_hits == 1
        assert warm.result_cache_misses == 0
        # Result-cache hits skip candidate fetching entirely.
        assert warm.candidates_initial == {}
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
        # A label-pinned scan is the graph's own posting, so only scans
        # without a pinned label are shared, through the scan memo (the
        # "candidate" row), per graph version.
        graph = small_graph()
        session = QuerySession(graph, result_cache_size=0)
        session.evaluate(query_ab())
        session.evaluate(query_abd())
        assert session.cache_info()["candidate"] == dict.fromkeys(MEMO_ROW, 0)
        first = unpinned(query_ab())
        assert session.evaluate(first) == evaluate_naive(first, graph)
        memo = session.cache_info()["candidate"]
        assert (memo["hits"], memo["misses"]) == (0, 3)
        second = unpinned(query_abd())
        assert session.evaluate(second) == evaluate_naive(second, graph)
        memo = session.cache_info()["candidate"]
        # "a" and "b" predicates are shared with the first query.
        assert (memo["hits"], memo["misses"], memo["size"]) == (2, 4, 4)
        graph.add_node(label="a")
        session.evaluate(second)
        memo = session.cache_info()["candidate"]
        assert (memo["invalidations"], memo["misses"], memo["size"]) == (1, 7, 3)

    def test_group_nodes_key_result_cache_separately(self):
        session = QuerySession(small_graph())
        query = query_ab()
        session.evaluate(query)
        _, stats = session.evaluate_with_stats(query, group_nodes=("x",))
        assert stats.result_cache_hits == 0
        assert stats.result_cache_misses == 1


class TestLookup:
    """``lookup`` is evaluate's hit path, runnable on its own."""

    def test_a_cold_or_half_warm_lookup_returns_none_and_counts_nothing(self):
        session = QuerySession(small_graph())
        text = query_to_json(query_ab())
        assert session.lookup(text) is None
        session.evaluate(text)
        # Same plan, other result key: the alias is cached, the answer not.
        assert session.lookup(text, ("x",)) is None
        info = session.cache_info()
        assert [info[row]["hits"] for row in ("plan", "alias", "result")] == [0, 0, 0]
        assert [info[row]["misses"] for row in ("plan", "alias", "result")] == [1, 1, 1]

    def test_a_hit_counts_and_refreshes_like_evaluate(self):
        graph = small_graph()
        texts = [query_to_json(query_ab()), query_to_json(query_abd())]
        looked, evaluated = QuerySession(graph), QuerySession(graph)
        for session in (looked, evaluated):
            for text in texts:
                session.evaluate(text)
        answer = looked.lookup(texts[0])
        assert answer == evaluated.evaluate(texts[0]) == evaluate_naive(query_ab(), graph)
        assert looked.cache_info() == evaluated.cache_info()
        info = looked.cache_info()
        assert (info["alias"]["hits"], info["alias"]["misses"]) == (1, 2)
        assert (info["plan"]["hits"], info["plan"]["misses"]) == (0, 2)  # not read
        assert (info["result"]["hits"], info["result"]["misses"]) == (1, 2)
        for cache in ("plan_cache", "alias_cache", "result_cache"):
            keys = [[key for key, _ in getattr(s, cache).items()] for s in (looked, evaluated)]
            assert keys[0] == keys[1]
        answer.clear()  # a copy, not the cached set
        assert looked.lookup(texts[0]) == evaluated.evaluate(texts[0])

    def test_evaluate_serves_its_hit_through_lookup(self, monkeypatch):
        session = QuerySession(small_graph())
        text = query_to_json(query_ab())
        session.evaluate(text)
        monkeypatch.setattr(session, "_plan_for", None)  # a hit never plans
        answer, stats = session.evaluate_with_stats(text)
        assert answer == evaluate_naive(query_ab(), small_graph())
        assert (stats.plan_cache_hits, stats.plan_cache_misses) == (0, 0)
        assert (stats.result_cache_hits, stats.result_cache_misses) == (1, 0)
        assert stats.result_count == len(answer)

    def test_dict_and_gtpq_queries_never_hit(self):
        session = QuerySession(small_graph())
        query = query_ab()
        for form in (query, query_to_dict(query), query_to_json(query)):
            session.evaluate(form)
        assert session.lookup(query) is None
        assert session.lookup(query_to_dict(query)) is None
        assert session.cache_info()["plan"]["hits"] == 2  # the two evaluations

    def test_a_stale_session_returns_none_and_leaves_the_drop_to_evaluate(self):
        graph = small_graph()
        session = QuerySession(graph)
        text = query_to_json(query_ab())
        session.evaluate(text)
        graph.add_node(label="a")
        assert session.lookup(text) is None
        assert len(session.result_cache) == 1, "lookup drops nothing"
        assert session.evaluate(text) == evaluate_naive(query_ab(), graph)
        assert session.cache_info()["result"]["invalidations"] == 1


class TestGroupNodes:
    def test_a_group_node_must_be_an_output(self):
        session = QuerySession(small_graph())
        query = query_ab()
        for form in (query, query_to_dict(query), query_to_json(query)):
            with pytest.raises(ValueError, match="not outputs"):
                session.evaluate(form, ("nope",))
            with pytest.raises(ValueError, match="not outputs"):
                session.evaluate(form, "x1")  # a string is a sequence of ids
            with pytest.raises(ValueError, match="not outputs"):
                session.evaluate_many([query_abd(), form], ("x",))
        # Nothing was answered under a stray key.
        assert len(session.result_cache) == 0
        assert session.evaluate(query, ("x",)) == session.evaluate(query_to_json(query), ["x"])

    def test_a_stray_key_from_an_older_store_is_not_served(self):
        session = QuerySession(small_graph())
        text = query_to_json(query_ab())
        plan = session.plan(text)
        session.result_cache.put((plan.fingerprint, ("nope",)), frozenset())
        assert session.lookup(text, ("nope",)) is None
        with pytest.raises(ValueError, match="not outputs"):
            session.evaluate(text, ("nope",))


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

    def test_dict_constants_that_print_alike_get_their_own_plans(self):
        """A date and its ISO string render alike under ``str``; a dict
        query is fingerprinted after parsing, so each keeps its type."""
        graph = DataGraph()
        graph.add_node({"day": date(2020, 1, 1)}, label="a")
        graph.add_node({"day": "2020-01-01"}, label="a")

        def day_query(day):
            atoms = [["label", "=", "a"], ["day", "=", day]]
            return {"nodes": [{"id": "r", "kind": "backbone", "atoms": atoms}], "outputs": ["r"]}

        session = QuerySession(graph)
        for day, expected in ((date(2020, 1, 1), {(0,)}), ("2020-01-01", {(1,)})):
            query = day_query(day)
            answer = session.evaluate(query)
            assert answer == evaluate_naive(session.plan(query).query, graph) == expected

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
        assert session.reachability().index.name == "tc"

    def test_pool_reuses_services_per_name(self):
        session = QuerySession(small_graph())
        assert session.reachability("3hop") is session.reachability("3hop")
        assert session.reachability("3hop") is not session.reachability("tc")
        # One holder: ``tc`` is the closure slot's service, not a pool entry.
        assert session.reachability("tc") is session.reachability("tc")
        assert session.reachability("tc") is session._closure.service
        assert session.cache_info()["indexes"]["pooled"] == 1

    @pytest.mark.parametrize("index", ["3hop", "tc", "tree-cover"])
    def test_all_pooled_indexes_agree(self, index):
        graph = small_graph()
        query = query_ab()
        expected = evaluate_naive(query, graph)
        session = QuerySession(graph, index=index)
        assert session.evaluate(query) == expected


class TestRetiredKeywords:
    """``codegen``, ``parallel`` and ``adaptive`` name removed modes: a
    session accepts them, ignores their values and runs as a plain one."""

    @staticmethod
    def drive(session):
        from repro.datasets import fig7_query

        groups = {"person_group": 1, "item_group": 2, "seller_group": 1}
        queries = [fig7_query(variant, **groups) for variant in ("q1", "q2", "q3")]
        before = [session.explain(query) for query in queries]
        answers = [session.evaluate(query_to_json(query)) for query in queries]
        answers.append(session.evaluate(queries[0], group_nodes=queries[0].outputs[-1:]))
        answers.extend(session.evaluate_many(queries).results)
        after = [re.sub(r"[0-9.]+ms", "ms", session.explain(query)) for query in queries]
        return answers, before, after, session.cache_info()

    def test_a_retired_session_runs_like_a_plain_one(self):
        from repro.datasets import generate_xmark

        plain = self.drive(QuerySession(generate_xmark(scale=0.02, seed=97).graph))
        with QuerySession(
            generate_xmark(scale=0.02, seed=97).graph, codegen="auto", parallel=2, adaptive=True
        ) as retired:
            assert self.drive(retired) == plain
        retired.close()  # a no-op, however often
        assert any(plain[0]) and "codegen" not in plain[3]

    def test_an_unknown_keyword_raises(self):
        with pytest.raises(TypeError, match="codegen_typo"):
            QuerySession(small_graph(), codegen_typo=1)
