"""The planner's one index line: ``"auto"`` is ``tc`` at every graph
size, filled on demand under a byte budget, and the shape ladder of
:func:`repro.plan.cost.choose_index` is only what a session falls back
to past it.  No index decision is made per query."""

import dataclasses

import pytest

from repro.graph import GraphStats, graph_stats
from repro.plan import (
    AUTO_CLOSURE_MAX_BYTES,
    PhysicalPlan,
    build_logical_plan,
    build_physical_plan,
    choose_index,
    compile_query,
    normalize,
)
from tests.conftest import LOW_CLOSURE_BOUND


def stats_for(num_nodes, num_edges, *, is_dag=True, num_roots=1):
    return GraphStats(
        num_nodes=num_nodes,
        num_edges=num_edges,
        num_labels=3,
        num_roots=num_roots,
        is_dag=is_dag,
    )


class TestLadderWithoutTheClosure:
    """The fallback pick: forest, near-tree, everything else — at any
    size, since the closure is no rung of it."""

    @pytest.mark.parametrize("num_nodes", [100, 32_768, 100_000])
    def test_the_pick_follows_shape_alone(self, num_nodes):
        assert choose_index(stats_for(num_nodes, num_nodes - 1)) == "interval"
        assert choose_index(stats_for(num_nodes, int(1.05 * num_nodes))) == "tree-cover"
        assert choose_index(stats_for(num_nodes, 3 * num_nodes)) == "3hop"

    def test_cyclic_graphs_skip_the_tree_rungs(self):
        assert choose_index(stats_for(1_000, 999, is_dag=False)) == "3hop"


class TestAutoPlan:
    @pytest.fixture(scope="class")
    def workload(self):
        from repro.datasets import index_choice_workload

        return index_choice_workload(scale=1, queries=2)

    def test_auto_names_tc_with_its_budget(self, workload):
        graph, queries = workload
        physical = compile_query(graph, queries[0]).physical
        assert physical.index_name == "tc"
        reason = f"closure filled on demand, budget {AUTO_CLOSURE_MAX_BYTES} bytes"
        assert physical.index_reason == reason
        assert physical.index_line == f"index: tc ({reason})"
        assert compile_query(graph, queries[0]).explain().count("\nindex: ") == 1

    def test_the_plan_does_not_read_the_graph_size(self, workload, low_closure_bound):
        # Patched below this graph's n²/16: still tc, and the reason
        # carries the budget as it stands.
        graph, queries = workload
        assert graph.num_nodes**2 // 16 > LOW_CLOSURE_BOUND
        physical = compile_query(graph, queries[0]).physical
        assert physical.index_name == "tc"
        assert physical.index_reason.endswith(f"budget {LOW_CLOSURE_BOUND} bytes")

    def test_a_pinned_index_is_kept(self, workload):
        graph, queries = workload
        physical = compile_query(graph, queries[0], index="3hop").physical
        assert physical.index_line == "index: 3hop (pinned by caller)"

    def test_stats_and_pooled_are_accepted_and_ignored(self, workload):
        graph, queries = workload
        normalized = normalize(queries[0])
        logical = build_logical_plan(graph, normalized)
        plain = build_physical_plan(graph, normalized, logical)
        given = build_physical_plan(
            graph, normalized, logical, stats=graph_stats(graph), pooled=("3hop",)
        )
        assert given == plain

    def test_the_plan_carries_no_scope(self):
        names = {spec.name for spec in dataclasses.fields(PhysicalPlan)}
        assert names == {"index_name", "executor", "downward_order", "index_reason", "operators"}
        assert PhysicalPlan.index_scope == "full"
