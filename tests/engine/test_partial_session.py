"""QuerySession partial-index pooling: lazy builds, domain-fingerprint
sharing, fallbacks and invalidation.  (Warm-store round trips of the
pool are covered with every other artifact kind in
``tests/store/test_session_artifacts.py``.)"""

from repro.datasets import index_choice_workload
from repro.engine import QuerySession
from repro.graph import DataGraph
from repro.query import AttributePredicate, QueryBuilder, evaluate_naive


def workload(scale=1, queries=6):
    return index_choice_workload(scale=scale, queries=queries)


def chain_with_wide_apex(length=2000):
    """A chain whose rare-label apex reaches *everything*.

    The label posting lists are tiny (one ``q``, one ``r``), so costing
    picks the partial arm — but the apex's descendant cone is the whole
    graph, so the footprint budget blows and execution must fall back.
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
        assert session.cache_info()["partial"]["size"] == 1
        assert any(op.op == "PartialIndexBuild" for op in stats.operator_stats)
        assert "partial_build" in stats.phase_seconds

    def test_equal_footprints_share_one_build(self):
        graph, queries = workload()
        session = QuerySession(graph)
        # queries[0]=(q,r) and queries[3]=(r,q) pin the same label set,
        # hence the same seed set and the same domain fingerprint.
        session.evaluate(queries[0])
        __, stats = session.evaluate_with_stats(queries[3])
        assert stats.partial_builds == 0
        assert stats.partial_hits == 1
        assert session.cache_info()["partial"]["size"] == 1

    def test_distinct_footprints_build_separately(self):
        # Two disjoint rare-label chains off a bulk of `a` nodes: the
        # q→r and s→t footprints cannot overlap, so each builds its own
        # pooled partial index.
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
        __, second = session.evaluate_with_stats(pair_query("s", "t"))
        assert first.partial_builds == 1
        assert second.partial_builds == 1
        assert second.partial_hits == 0
        assert session.cache_info()["partial"]["size"] == 2

    def test_full_index_never_materializes_on_the_partial_path(self):
        graph, queries = workload()
        session = QuerySession(graph)
        session.evaluate(queries[0])
        assert session.cache_info()["indexes"]["pooled"] == 0

    def test_invalidate_clears_the_partial_pool(self):
        graph, queries = workload()
        session = QuerySession(graph)
        session.evaluate(queries[0])
        session.invalidate()
        assert session.cache_info()["partial"]["size"] == 0
        # And the session still answers correctly afterwards.
        assert session.evaluate(queries[0]) == evaluate_naive(queries[0], graph)

    def test_feedback_files_under_the_scoped_key(self):
        graph, queries = workload()
        session = QuerySession(graph)
        session.evaluate(queries[0])
        assert any(
            key.startswith("tc@partial/") for key in session.cost_profile.snapshot()
        )


class TestPartialFallbacks:
    def test_group_nodes_run_on_the_full_index(self):
        graph, queries = workload()
        session = QuerySession(graph)
        __, stats = session.evaluate_with_stats(queries[0], group_nodes=("b",))
        assert stats.partial_fallbacks == 1
        assert stats.partial_builds == 0
        assert session.cache_info()["partial"]["size"] == 0

    def test_footprint_blowout_falls_back_to_the_ladder_index(self):
        graph = chain_with_wide_apex()
        query = apex_query()
        session = QuerySession(graph)
        plan = session._plan_for(query)
        assert plan.compiled.physical.index_scope == "partial"
        results, stats = session.evaluate_with_stats(query)
        assert stats.partial_fallbacks == 1
        assert stats.partial_builds == 0
        assert results == evaluate_naive(query, graph)
        # The fallback pooled the *ladder* index, not the partial inner.
        assert session.cache_info()["indexes"]["pooled"] == 1
        assert session.cache_info()["partial"]["size"] == 0

    def test_blowout_feedback_records_the_index_actually_used(self):
        graph = chain_with_wide_apex()
        session = QuerySession(graph)
        session.evaluate(apex_query())
        keys = list(session.cost_profile.snapshot())
        assert keys and all("@" not in key for key in keys)

    def test_batch_evaluation_routes_partial_plans(self):
        graph, queries = workload()
        session = QuerySession(graph, result_cache_size=0)
        batch = session.evaluate_many(queries[:3])
        for query, results in zip(queries[:3], batch.results):
            assert results == evaluate_naive(query, graph)
        assert batch.stats.partial_builds + batch.stats.partial_hits >= 3


class TestStructureAttribution:
    """The graph's structural snapshot is neither index arm's cost."""

    def test_planning_pays_for_the_snapshot_before_any_build_is_timed(self):
        graph, queries = workload()
        session = QuerySession(graph)
        __, stats = session.evaluate_with_stats(queries[0])
        assert stats.partial_builds == 1
        assert "structure" not in stats.phase_seconds
        assert all(op.op != "StructureBuild" for op in stats.operator_stats)
        row = session.cache_info()["structure"]
        assert (row["builds"], row["extensions"], row["version"]) == (1, 0, graph.version)

    def test_mutations_show_up_as_extensions_or_builds(self):
        graph, queries = workload()
        session = QuerySession(graph)
        session.evaluate(queries[0])
        graph.add_edge(graph.add_node(label="q"), graph.num_nodes - 2)
        session.evaluate(queries[0])
        assert session.cache_info()["structure"]["extensions"] == 1
        assert any(graph.add_edge(0, target) for target in range(5, 30))  # one old→old edge
        assert session.evaluate(queries[0]) == evaluate_naive(queries[0], graph)
        row = session.cache_info()["structure"]
        assert (row["builds"], row["extensions"]) == (2, 1)

    def test_first_demand_under_execution_is_booked_apart(self, tmp_path):
        # Plans rehydrate from the store, indexes do not: the execution,
        # not the planner, is then the first to need the snapshot.
        graph, queries = workload()
        writer = QuerySession(graph, store=tmp_path)
        writer.evaluate(queries[0])
        writer.persist()
        for kind in ("indexes", "partial-indexes", "results", "profile"):
            writer.store.path(writer.store_fingerprint, kind).unlink(missing_ok=True)

        graph, queries = workload()  # equal content, no snapshot yet
        session = QuerySession(graph, store=tmp_path)
        results, stats = session.evaluate_with_stats(queries[0])
        assert results == evaluate_naive(queries[0], graph)
        assert stats.plan_cache_hits == 1
        ops = [record.op for record in stats.operator_stats]
        assert ops.index("StructureBuild") < ops.index("PartialIndexBuild")
        assert stats.phase_seconds["structure"] > 0.0
        # Calibration reads every operator of the arm but the snapshot.
        (key, row), = session.cost_profile.snapshot().items()
        assert key.startswith("tc@partial/gtea/")
        own = sum(r.seconds for r in stats.operator_stats if r.op != "StructureBuild")
        assert row["seconds"] == round(own, 6)
