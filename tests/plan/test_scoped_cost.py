"""Per-query index costing: the (index, scope) arm race of
:func:`repro.plan.cost.choose_scoped_index` and its surface in the
physical plan."""

import pytest

from repro.graph import GraphStats, graph_stats
from repro.plan import (
    PARTIAL_FOOTPRINT_FRACTION,
    choose_scoped_index,
    closure_fill_units,
    compile_query,
    index_build_units,
    scoped_index_key,
)
from repro.plan.logical import CandidateSource


def stats_for(num_nodes, num_edges, *, is_dag=True):
    return GraphStats(
        num_nodes=num_nodes,
        num_edges=num_edges,
        num_labels=3,
        num_roots=1,
        is_dag=is_dag,
    )


def label_source(node_id="a", estimate=20):
    return CandidateSource(
        node_id=node_id,
        kind="backbone",
        source="label-index",
        predicate="label = 'q'",
        estimate=estimate,
    )


def scan_source(node_id="a"):
    return CandidateSource(
        node_id=node_id,
        kind="backbone",
        source="full-scan",
        predicate="kind = 1",
        estimate=10_000,
    )


#: above the closure bound (n ≤ 32 768), where the scoped race runs.
BIG = stats_for(100_000, 250_000)


class TestScopedKey:
    def test_full_scope_keeps_the_bare_name(self):
        assert scoped_index_key("tc", "full") == "tc"

    def test_partial_scope_appends_the_tag(self):
        assert scoped_index_key("tc", "partial") == "tc@partial"


class TestBuildUnits:
    def test_traversal_indexes_are_linear_and_hops_dearer(self):
        # No ``tc`` arm: the closure builds nothing up front, and above
        # its bound the ladder never names it (rows are priced below).
        n, e = 10_000, 25_000
        assert index_build_units("interval", n, e) < index_build_units("3hop", n, e)
        assert index_build_units("tree-cover", n, e) == n + e

    def test_closure_rows_are_one_traversal_widened_by_the_graph(self):
        assert closure_fill_units(100, 300, 0) == 400
        assert closure_fill_units(100, 300, 16_384) == 800
        n, e = 10_000, 25_000  # filling every row: dearer than interval labels,
        assert index_build_units("interval", n, e) < closure_fill_units(n, e, n)
        assert closure_fill_units(n, e, n) < index_build_units("3hop", n, e)  # cheaper than 3-hop


class TestScopedChoiceGates:
    def test_selective_label_sources_pick_partial(self):
        choice = choose_scoped_index(BIG, [label_source(estimate=20)])
        assert choice.scope == "partial"
        assert choice.index_name == "tc"  # footprint fits the tc rung
        assert choice.footprint_estimate is not None
        assert choice.footprint_estimate <= BIG.num_nodes

    def test_tiny_graphs_stay_full(self):
        tiny = stats_for(100, 150)
        choice = choose_scoped_index(tiny, [label_source(estimate=2)])
        assert choice.scope == "full"

    def test_under_the_closure_bound_the_pick_is_the_closure_itself(self):
        # The sources that win the race above the bound have nothing to
        # race under it: the full-scope pick already fills rows on demand.
        fits = stats_for(32_768, 80_000)
        choice = choose_scoped_index(fits, [label_source(estimate=20)])
        assert (choice.index_name, choice.scope) == ("tc", "full")
        assert choice.reason == f"closure: n²/16 = {2**26} bytes ≤ {2**26}"
        over = stats_for(32_769, 80_000)
        assert choose_scoped_index(over, [label_source(estimate=20)]).scope == "partial"
        assert choose_scoped_index(over, []).index_name == "3hop"

    def test_full_scan_source_disqualifies_partial(self):
        choice = choose_scoped_index(BIG, [label_source(), scan_source("b")])
        assert choice.scope == "full"

    def test_no_sources_stays_full(self):
        assert choose_scoped_index(BIG, []).scope == "full"

    def test_fat_footprint_stays_full(self):
        fat = label_source(estimate=int(BIG.num_nodes * PARTIAL_FOOTPRINT_FRACTION))
        choice = choose_scoped_index(BIG, [fat])
        assert choice.scope == "full"

    def test_pooled_full_index_is_free_and_wins(self):
        partial = choose_scoped_index(BIG, [label_source(estimate=20)])
        assert partial.scope == "partial"
        pooled = choose_scoped_index(
            BIG, [label_source(estimate=20)], pooled=("3hop",)
        )
        assert pooled.scope == "full"
        assert "pooled" in pooled.reason

    def test_large_footprint_still_names_tc(self):
        # The partial arm is the descendant closure whatever the cone's
        # size: rows are priced, not a quadratic matrix over the cone.
        choice = choose_scoped_index(BIG, [label_source(estimate=500)])
        assert choice.scope == "partial"
        assert choice.index_name == "tc"
        assert choice.footprint_estimate > 512

    def test_wide_rows_price_the_closure_out_against_a_cheap_full_build(self):
        # A forest's interval labels are one traversal; closure rows over
        # a tenth of a million-node graph (rows of ~60 KiB) are not.
        forest = stats_for(1_000_000, 999_999)
        choice = choose_scoped_index(forest, [label_source(estimate=25_000)])
        assert choice.scope == "full" and choice.index_name == "interval"


@pytest.mark.usefixtures("low_closure_bound")
class TestPhysicalSurface:
    @pytest.fixture(scope="class")
    def workload(self):
        from repro.datasets import index_choice_workload

        return index_choice_workload(scale=1, queries=2)

    def test_partial_choice_lands_in_the_plan_and_explain(self, workload):
        graph, queries = workload
        compiled = compile_query(graph, queries[0])
        physical = compiled.physical
        assert physical.index_scope == "partial"
        assert physical.scoped_index_name == "tc@partial"
        assert physical.footprint_estimate is not None
        header = compiled.explain().splitlines()
        marker = f"[index tc/partial · footprint≈{physical.footprint_estimate}]"
        assert any(marker in line for line in header)

    def test_full_scope_explain_is_unchanged(self, workload):
        graph, __ = workload
        from repro.query import AttributePredicate, QueryBuilder

        query = (
            QueryBuilder()
            .backbone("a", predicate=AttributePredicate.label("a"))
            .backbone("b", parent="a", predicate=AttributePredicate.label("b"))
            .outputs("a")
            .build()
        )
        physical = compile_query(graph, query).physical
        assert physical.index_scope == "full"
        assert "@" not in physical.scoped_index_name
        assert "/partial" not in "\n".join(physical.explain_lines())

    def test_pooled_compile_stays_full(self, workload):
        graph, queries = workload
        physical = compile_query(graph, queries[0], pooled=("3hop",)).physical
        assert physical.index_scope == "full"
        assert "pooled" in physical.index_reason


@pytest.mark.usefixtures("low_closure_bound")
class TestLiveGraphAgreement:
    def test_workload_stats_actually_cross_every_gate(self):
        """The synthetic stats above must match what a real enclave
        workload produces — otherwise the gate tests drift from the
        planner's actual inputs."""
        from repro.datasets import index_choice_workload

        graph, queries = index_choice_workload(scale=1, queries=1)
        stats = graph_stats(graph)
        logical = compile_query(graph, queries[0]).logical
        choice = choose_scoped_index(stats, logical.sources)
        assert choice.scope == "partial"
        assert all(s.source == "label-index" for s in logical.sources)
