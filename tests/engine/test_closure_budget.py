"""QuerySession's closure budget: ``index="auto"`` is one descendant
closure, filled on demand, kept across appends, under a byte budget of
filled bits; a fill past it drops the closure and the session runs the
ladder's pick for the rest of the graph version.  (The closure is never
stored: a warm restart fills it like a cold session,
``tests/store/test_session_artifacts.py``; appends against the oracle in
``tests/oracle/test_churn_differential.py``.)

Every test here runs with the budget patched down (``low_closure_bound``)
so that a graph of test size can pass it.  What a session does far under
the real budget is ``tests/engine/test_closure_rung.py``."""

import pytest

from repro.datasets import index_choice_workload
from repro.engine import GTEA, QuerySession
from repro.graph import DataGraph
from repro.query import AttributePredicate, QueryBuilder, evaluate_naive
from tests.conftest import LOW_CLOSURE_BOUND

pytestmark = pytest.mark.usefixtures("low_closure_bound")

BUDGET_BITS = 8 * LOW_CLOSURE_BOUND


def workload(scale=1, queries=6):
    return index_choice_workload(scale=scale, queries=queries)


def chain_with_wide_apex(length=2000):
    """A chain whose rare-label apex reaches *everything*.

    The label posting lists are tiny (one ``q``, one ``r``), but the
    apex's rows are the whole chain's: ≈ ``length²/2`` filled bits, past
    the patched budget, so the session must fall back.  A forest, so the
    ladder's pick is ``interval``.
    """
    graph = DataGraph()
    graph.add_node(label="q")
    graph.add_node(label="r")
    for __ in range(length - 2):
        graph.add_node(label="a")
    for source in range(length - 1):
        graph.add_edge(source, source + 1)
    return graph


def apex_query(head="q", tail="r"):
    return (
        QueryBuilder()
        .backbone("a", predicate=AttributePredicate.label(head))
        .backbone("b", parent="a", predicate=AttributePredicate.label(tail))
        .outputs("a", "b")
        .build()
    )


def break_lineage(graph):
    """Add an edge out of a numbered node: the lineage ends."""
    scc_of = graph.structure().condensation.scc_of
    source = next(node for node in range(len(scc_of)) if scc_of[node] >= 0)
    assert any(graph.add_edge(source, target) for target in range(graph.num_nodes - 1, source, -1))


def index_line(session, query):
    return next(line for line in session.explain(query).splitlines() if line.startswith("index:"))


class TestUnderBudget:
    def test_cold_evaluation_fills_the_closure_and_pools_nothing(self):
        graph, queries = workload()
        session = QuerySession(graph)
        results = session.evaluate(queries[0])
        assert results == evaluate_naive(queries[0], graph)
        row = session.cache_info()["partial"]
        assert row["rows"] == row["fills"] > 0 and row["bytes"] > 0
        assert (row["kept"], row["dropped"]) == (0, 0)
        assert session.cache_info()["indexes"]["pooled"] == 0
        assert 0 < session._closure.service.index.bits <= BUDGET_BITS

    def test_equal_cones_fill_nothing_new(self):
        graph, queries = workload()
        session = QuerySession(graph)
        # queries[0]=(q,r) and queries[3]=(r,q) pin the same label set,
        # hence the same cones: nothing is left to fill.
        session.evaluate(queries[0])
        filled = session.cache_info()["partial"]["fills"]
        session.evaluate(queries[3])
        assert session.cache_info()["partial"]["fills"] == filled

    def test_distinct_cones_fill_one_closure(self):
        # Two disjoint rare-label chains off a bulk of `a` nodes: the
        # q→r and s→t cones cannot overlap, so the second query finds the
        # closure there and none of its rows.
        graph = DataGraph()
        for __ in range(600):
            graph.add_node(label="a")
        for source in range(599):
            graph.add_edge(source, source + 1)
        for source in range(598):
            graph.add_edge(source, source + 2)
        for labels in ("qr", "st"):
            base = graph.num_nodes
            for position in range(30):
                graph.add_node(label=labels[position % 2])
            for position in range(29):
                graph.add_edge(base + position, base + position + 1)
            graph.add_edge(0, base)

        session = QuerySession(graph)
        session.evaluate(apex_query("q", "r"))
        rows = session.cache_info()["partial"]["rows"]
        session.evaluate(apex_query("s", "t"))
        assert rows == 30  # the q/r chain, nothing of the bulk
        assert session.cache_info()["partial"]["rows"] == 60
        assert session.cache_info()["partial"]["dropped"] == 0

    def test_explain_prints_the_filled_bytes_of_the_budget(self):
        graph, queries = workload()
        session = QuerySession(graph)
        reason = f"closure filled on demand, budget {LOW_CLOSURE_BOUND} bytes"
        assert index_line(session, queries[0]) == f"index: tc ({reason}; filled 0 bytes in 0 rows)"
        session.evaluate(queries[0])
        index = session._closure.service.index
        filled = f"filled {index.bits // 8} bytes in {index.rows} rows"
        assert index_line(session, queries[0]) == f"index: tc ({reason}; {filled})"

    def test_invalidate_drops_the_closure(self):
        graph, queries = workload()
        session = QuerySession(graph)
        session.evaluate(queries[0])
        filled = session.cache_info()["partial"]["fills"]
        session.invalidate()
        row = session.cache_info()["partial"]
        assert (row["rows"], row["bytes"], row["dropped"]) == (0, 0, 1)
        # And the session still answers correctly afterwards, from a new
        # closure; ``fills`` keeps counting across the drop.
        assert session.evaluate(queries[0]) == evaluate_naive(queries[0], graph)
        assert session.cache_info()["partial"]["fills"] == 2 * filled

    def test_an_append_keeps_the_closure_and_an_old_edge_drops_it(self):
        graph, queries = workload()
        session = QuerySession(graph)
        session.evaluate(queries[0])
        held = session._closure.service
        rows = dict(held.index._rows)
        node = graph.add_node(label="q")
        graph.add_edge(node, graph.num_nodes - 2)
        assert session.evaluate(queries[0]) == evaluate_naive(queries[0], graph)
        row = session.cache_info()["partial"]
        assert (row["kept"], row["dropped"]) == (1, 0)
        # One service along the lineage: its rows and numbering only grew.
        assert session._closure.service is held
        assert {c: held.index._rows[c] for c in rows} == rows
        break_lineage(graph)
        assert held.following(graph) is None
        assert session.evaluate(queries[0]) == evaluate_naive(queries[0], graph)
        row = session.cache_info()["partial"]
        assert (row["kept"], row["dropped"]) == (1, 1)
        assert session._closure.service.index._rows is not held.index._rows

    def test_group_nodes_and_batches_run_on_the_closure(self):
        graph, queries = workload()
        session = QuerySession(graph, result_cache_size=0)
        grouped = session.evaluate(queries[0], group_nodes=("b",))
        assert {(a, dict(item)["b"]) for a, group in grouped for item in group} == (
            evaluate_naive(queries[0], graph)
        )
        batch = session.evaluate_many(queries[:3])
        assert batch.results == [evaluate_naive(query, graph) for query in queries[:3]]
        assert session.cache_info()["partial"]["rows"] > 0
        assert session.cache_info()["indexes"]["pooled"] == 0


class TestPastBudget:
    def test_a_blow_out_falls_back_to_the_ladder_pick(self):
        graph = chain_with_wide_apex()
        query = apex_query()
        session = QuerySession(graph)
        held = session.reachability()  # handed out before the blow-out
        results = session.evaluate(query)
        assert results == evaluate_naive(query, graph)
        # The counted bits never passed the budget.
        assert 0 < held.index.bits <= BUDGET_BITS
        assert held.index.rows < graph.num_nodes
        # The closure was dropped and the ladder's pick pooled.
        row = session.cache_info()["partial"]
        assert (row["rows"], row["dropped"]) == (0, 1)
        assert session.cache_info()["indexes"]["pooled"] == 1
        assert session._reach_pool["interval"].index.name == "interval"
        line = "index: interval (tc passed its budget at this graph version)"
        assert index_line(session, query) == line

    def test_the_fallback_fires_once_per_version(self):
        graph = chain_with_wide_apex()
        session = QuerySession(graph, result_cache_size=0)
        for query in (apex_query(), apex_query("q", "a"), apex_query()):
            assert session.evaluate(query) == evaluate_naive(query, graph)
        row = session.cache_info()["partial"]
        assert (row["rows"], row["dropped"]) == (0, 1)  # no closure tried again
        assert session.cache_info()["indexes"]["pooled"] == 1
        # A new version ends the fallback: one more closure, one more
        # blow-out, one pooled index of the new version.
        graph.add_edge(graph.add_node(label="q"), 0)
        assert session.evaluate(apex_query()) == evaluate_naive(apex_query(), graph)
        assert session.cache_info()["partial"]["dropped"] == 2
        assert session.cache_info()["indexes"]["pooled"] == 1

    def test_grouped_and_batched_runs_fall_back_alike(self):
        graph = chain_with_wide_apex()
        query = apex_query()
        grouped = QuerySession(graph).evaluate(query, group_nodes=("b",))
        assert {(a, dict(item)["b"]) for a, group in grouped for item in group} == (
            evaluate_naive(query, graph)
        )
        session = QuerySession(graph)
        batch = session.evaluate_many([query, apex_query("q", "a")])
        assert batch.results == [evaluate_naive(q, graph) for q in (query, apex_query("q", "a"))]
        assert session.cache_info()["partial"]["dropped"] == 1

    def test_a_pinned_closure_and_a_stand_alone_engine_have_no_budget(self):
        graph = chain_with_wide_apex()
        query = apex_query()
        expected = evaluate_naive(query, graph)
        pinned = QuerySession(graph, index="tc")
        assert pinned.evaluate(query) == expected
        assert pinned._closure.service.index.bits > BUDGET_BITS
        assert pinned.cache_info()["partial"]["dropped"] == 0
        assert pinned.cache_info()["indexes"]["pooled"] == 0
        engine = GTEA(graph, index="auto")
        assert engine.evaluate(query) == expected
        assert engine.reachability.index.bits > BUDGET_BITS


class TestStructureAttribution:
    """No whole-graph structure pass is left to book: a run numbers the
    components it maps, inside the phases that map them."""

    def test_planning_reads_no_statistics(self):
        graph, queries = workload()
        session = QuerySession(graph)
        __, stats = session.evaluate_with_stats(queries[0])
        assert "structure" not in stats.phase_seconds
        assert all(op.op != "StructureBuild" for op in stats.operator_stats)
        row = session.cache_info()["structure"]
        assert (row["builds"], row["extensions"], row["version"]) == (1, 0, graph.version)
        # Nothing reads ``is_dag`` under the budget: only the enclave's
        # cones are numbered.
        assert row["covered"] < graph.num_nodes / 10

    def test_the_ladder_completes_the_numbering_after_a_blow_out(self):
        graph = chain_with_wide_apex()
        session = QuerySession(graph)
        session.evaluate(apex_query())
        assert session.cache_info()["structure"]["covered"] == graph.num_nodes

    def test_mutations_show_up_as_extensions_or_builds(self):
        graph, queries = workload()
        session = QuerySession(graph)
        session.evaluate(queries[0])
        graph.add_edge(graph.add_node(label="q"), graph.num_nodes - 2)
        session.evaluate(queries[0])
        assert session.cache_info()["structure"]["extensions"] == 1
        break_lineage(graph)  # a new lineage
        assert session.evaluate(queries[0]) == evaluate_naive(queries[0], graph)
        row = session.cache_info()["structure"]
        assert (row["builds"], row["extensions"]) == (2, 1)
