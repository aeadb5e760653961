"""QuerySession's partial scope: one descendant closure, created by the
first partial-scope plan, filled by the ones after it, kept across
appends, with fallbacks and invalidation.  (The closure is never stored:
a warm restart fills it like a cold session,
``tests/store/test_session_artifacts.py``; appends against the oracle in
``tests/oracle/test_churn_differential.py``.)

The partial scope exists *above* the closure bound
(``AUTO_CLOSURE_MAX_BYTES``); every test here runs with the bound
patched down so that graphs of test size sit above it.  What a session
does under the bound is ``tests/engine/test_closure_rung.py``."""

import pytest

from repro.datasets import index_choice_workload
from repro.engine import GTEA, QuerySession
from repro.graph import DataGraph
from repro.query import AttributePredicate, QueryBuilder, evaluate_naive


pytestmark = pytest.mark.usefixtures("low_closure_bound")


def workload(scale=1, queries=6):
    return index_choice_workload(scale=scale, queries=queries)


def chain_with_wide_apex(length=2000):
    """A chain whose rare-label apex reaches *everything*.

    The label posting lists are tiny (one ``q``, one ``r``), so costing
    picks the partial arm — but the apex's descendant cone is the whole
    graph, so the fill budget blows and execution must fall back.
    """
    graph = DataGraph()
    graph.add_node(label="q")
    graph.add_node(label="r")
    for __ in range(length - 2):
        graph.add_node(label="a")
    for source in range(length - 1):
        graph.add_edge(source, source + 1)
    return graph


def apex_query():
    return (
        QueryBuilder()
        .backbone("a", predicate=AttributePredicate.label("q"))
        .backbone("b", parent="a", predicate=AttributePredicate.label("r"))
        .outputs("a", "b")
        .build()
    )


class TestPartialPool:
    def test_cold_evaluation_builds_once_and_pools(self):
        graph, queries = workload()
        session = QuerySession(graph)
        results, stats = session.evaluate_with_stats(queries[0])
        assert stats.partial_builds == 1
        assert stats.partial_hits == 0
        assert stats.partial_fallbacks == 0
        assert results == evaluate_naive(queries[0], graph)
        row = session.cache_info()["partial"]
        assert row["rows"] == row["fills"] > 0 and row["bytes"] > 0
        assert (row["kept"], row["dropped"]) == (0, 0)

    def test_equal_footprints_share_one_build(self):
        graph, queries = workload()
        session = QuerySession(graph)
        # queries[0]=(q,r) and queries[3]=(r,q) pin the same label set,
        # hence the same non-leaf cones: nothing is left to fill.
        session.evaluate(queries[0])
        filled = session.cache_info()["partial"]["fills"]
        __, stats = session.evaluate_with_stats(queries[3])
        assert stats.partial_builds == 0
        assert stats.partial_hits == 1
        assert session.cache_info()["partial"]["fills"] == filled

    def test_distinct_footprints_fill_one_closure(self):
        # Two disjoint rare-label chains off a bulk of `a` nodes: the
        # q→r and s→t cones cannot overlap, so the second query finds the
        # closure there and none of its rows.
        graph = DataGraph()
        for __ in range(600):
            graph.add_node(label="a")
        for source in range(599):
            graph.add_edge(source, source + 1)
        for source in range(598):
            # Dense enough that the ladder leaves the near-tree rungs —
            # a full build must cost real money for partial to win.
            graph.add_edge(source, source + 2)
        for labels in ("qr", "st"):
            base = graph.num_nodes
            for position in range(30):
                graph.add_node(label=labels[position % 2])
            for position in range(29):
                graph.add_edge(base + position, base + position + 1)
            graph.add_edge(0, base)

        def pair_query(head, tail):
            return (
                QueryBuilder()
                .backbone("a", predicate=AttributePredicate.label(head))
                .backbone("b", parent="a", predicate=AttributePredicate.label(tail))
                .outputs("a", "b")
                .build()
            )

        session = QuerySession(graph)
        __, first = session.evaluate_with_stats(pair_query("q", "r"))
        rows = session.cache_info()["partial"]["rows"]
        __, second = session.evaluate_with_stats(pair_query("s", "t"))
        assert (first.partial_builds, first.partial_hits) == (1, 0)
        assert (second.partial_builds, second.partial_hits) == (0, 1)
        assert rows == 30  # the q/r chain, nothing of the bulk
        assert session.cache_info()["partial"]["rows"] == 60

    def test_full_index_never_materializes_on_the_partial_path(self):
        graph, queries = workload()
        session = QuerySession(graph)
        session.evaluate(queries[0])
        assert session.cache_info()["indexes"]["pooled"] == 0

    def test_invalidate_clears_the_partial_pool(self):
        graph, queries = workload()
        session = QuerySession(graph)
        session.evaluate(queries[0])
        filled = session.cache_info()["partial"]["fills"]
        session.invalidate()
        row = session.cache_info()["partial"]
        assert (row["rows"], row["bytes"], row["dropped"]) == (0, 0, 1)
        # And the session still answers correctly afterwards, from a new
        # closure; ``fills`` keeps counting across the drop.
        answer, stats = session.evaluate_with_stats(queries[0])
        assert answer == evaluate_naive(queries[0], graph)
        assert stats.partial_builds == 1
        assert session.cache_info()["partial"]["fills"] == 2 * filled

    def test_an_append_keeps_the_closure_and_an_old_edge_drops_it(self):
        graph, queries = workload()
        session = QuerySession(graph)
        session.evaluate(queries[0])
        held = session._closure.service
        rows = dict(held.index._rows)
        node = graph.add_node(label="q")
        graph.add_edge(node, graph.num_nodes - 2)
        answer, stats = session.evaluate_with_stats(queries[0])
        assert answer == evaluate_naive(queries[0], graph)
        assert (stats.partial_builds, stats.partial_hits) == (0, 1)
        row = session.cache_info()["partial"]
        assert (row["kept"], row["dropped"]) == (1, 0)
        # One service along the lineage: its rows and numbering only grew.
        assert session._closure.service is held
        assert {c: held.index._rows[c] for c in rows} == rows
        # An edge out of a numbered node breaks the lineage.
        assert held.condensation.scc_of[0] >= 0
        assert any(graph.add_edge(0, target) for target in range(5, 30))
        answer, stats = session.evaluate_with_stats(queries[0])
        assert answer == evaluate_naive(queries[0], graph)
        assert (stats.partial_builds, stats.partial_hits) == (1, 0)
        row = session.cache_info()["partial"]
        assert (row["kept"], row["dropped"]) == (1, 1)
        assert session._closure.service.index._rows is not held.index._rows


class TestPartialFallbacks:
    def test_group_nodes_run_on_the_full_index(self):
        graph, queries = workload()
        session = QuerySession(graph)
        __, stats = session.evaluate_with_stats(queries[0], group_nodes=("b",))
        assert stats.partial_fallbacks == 1
        assert stats.partial_builds == 0
        assert session.cache_info()["partial"]["rows"] == 0

    def test_footprint_blowout_falls_back_to_the_ladder_index(self):
        graph = chain_with_wide_apex()
        query = apex_query()
        session = QuerySession(graph)
        plan = session._plan_for(query)
        assert plan.compiled.physical.index_scope == "partial"
        held = session.reachability("tc")  # handed out before the blow-out
        results, stats = session.evaluate_with_stats(query)
        assert stats.partial_fallbacks == 1
        assert stats.partial_builds == 0
        assert results == evaluate_naive(query, graph)
        # The fallback pooled the *ladder* index, not the partial inner,
        # and gave the rows back.
        assert session.cache_info()["indexes"]["pooled"] == 1
        row = session.cache_info()["partial"]
        assert (row["rows"], row["dropped"]) == (0, 1)
        # The refusal is remembered: the plan is not tried again.
        session.result_cache.clear()
        __, again = session.evaluate_with_stats(query)
        assert again.partial_fallbacks == 1
        assert session.cache_info()["partial"] == row
        # Whoever asks for ``tc`` next gets a fresh, empty closure, never
        # the one the blow-out dropped.
        fresh = session.reachability("tc")
        assert fresh is not held
        assert fresh.index.rows == 0
        assert GTEA(graph, reachability=fresh).evaluate(query) == evaluate_naive(query, graph)

    def test_batch_evaluation_routes_partial_plans(self):
        graph, queries = workload()
        session = QuerySession(graph, result_cache_size=0)
        batch = session.evaluate_many(queries[:3])
        for query, results in zip(queries[:3], batch.results):
            assert results == evaluate_naive(query, graph)
        assert batch.stats.partial_builds + batch.stats.partial_hits >= 3


class TestStructureAttribution:
    """No whole-graph structure pass is left to book: a run numbers the
    components it maps, inside the phases that map them."""

    def test_planning_pays_for_the_snapshot_before_any_build_is_timed(self):
        graph, queries = workload()
        session = QuerySession(graph)
        __, stats = session.evaluate_with_stats(queries[0])
        assert stats.partial_builds == 1
        assert "structure" not in stats.phase_seconds
        assert all(op.op != "StructureBuild" for op in stats.operator_stats)
        row = session.cache_info()["structure"]
        assert (row["builds"], row["extensions"], row["version"]) == (1, 0, graph.version)
        # Above the closure bound the ladder reads ``is_dag``, which
        # completes the numbering.
        assert row["covered"] == graph.num_nodes

    def test_mutations_show_up_as_extensions_or_builds(self):
        graph, queries = workload()
        session = QuerySession(graph)
        session.evaluate(queries[0])
        graph.add_edge(graph.add_node(label="q"), graph.num_nodes - 2)
        session.evaluate(queries[0])
        assert session.cache_info()["structure"]["extensions"] == 1
        # One edge out of a numbered node: a new lineage.
        assert graph.structure().condensation.scc_of[0] >= 0
        assert any(graph.add_edge(0, target) for target in range(5, 30))
        assert session.evaluate(queries[0]) == evaluate_naive(queries[0], graph)
        row = session.cache_info()["structure"]
        assert (row["builds"], row["extensions"]) == (2, 1)
