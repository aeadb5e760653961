"""The partial scope's public surface: footprints, and the closure that
``build_partial_reachability`` pre-fills for one (correctness against
the full indexes, probe parity).  The closure's own
properties — laziness, lineage, budget — are in ``test_closure.py``."""

import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.graph import DataGraph, reaches
from repro.reachability import (
    Footprint,
    PartialReachability,
    build_partial_reachability,
    build_reachability,
    candidate_cone,
    domain_fingerprint,
)


def random_digraph(rng: random.Random, n: int, extra_edges: int) -> DataGraph:
    graph = DataGraph()
    for __ in range(n):
        graph.add_node(label="x")
    for __ in range(extra_edges):
        graph.add_edge(rng.randrange(n), rng.randrange(n))
    return graph


class TestFootprint:
    def test_cone_is_descendant_closed(self):
        rng = random.Random(7)
        graph = random_digraph(rng, 30, 60)
        cone = candidate_cone(graph, {0, 1})
        for node in cone:
            assert set(graph.successors(node)) <= cone

    def test_budget_blowout_returns_none(self):
        graph = DataGraph()
        for __ in range(10):
            graph.add_node(label="x")
        for i in range(9):
            graph.add_edge(i, i + 1)
        assert candidate_cone(graph, {0}, budget=3) is None
        assert Footprint.from_seeds(graph, {0}, budget=3) is None
        assert Footprint.from_seeds(graph, {0}, budget=10) is not None

    def test_fingerprint_is_order_independent_and_distinct(self):
        assert domain_fingerprint([3, 1, 2]) == domain_fingerprint({2, 3, 1})
        assert domain_fingerprint([1, 2]) != domain_fingerprint([1, 3])

    def test_equal_footprints_share_fingerprint(self):
        graph = DataGraph()
        for __ in range(4):
            graph.add_node(label="x")
        graph.add_edge(0, 2)
        graph.add_edge(1, 2)
        graph.add_edge(2, 3)
        a = Footprint.from_seeds(graph, {0, 1})
        b = Footprint.from_seeds(graph, {1, 0})
        assert a.fingerprint == b.fingerprint


@pytest.mark.parametrize("inner", ["tc", "3hop"])
class TestPartialDifferential:
    def test_matches_oracle_everywhere(self, inner):
        """Probes inside the footprint, across its boundary and from
        sources outside it all agree with the DFS oracle and with the
        full-scope ``inner`` index."""
        rng = random.Random(17)
        for case in range(8):
            graph = random_digraph(rng, 24, 50)
            seeds = {rng.randrange(24) for __ in range(3)}
            footprint = Footprint.from_seeds(graph, seeds)
            service = build_partial_reachability(graph, footprint)
            full = build_reachability(graph, inner)
            for source in range(24):
                for target in range(24):
                    expected = reaches(graph, source, target)
                    assert service.reaches(source, target) == expected, (case, source, target)
                    assert full.reaches(source, target) == expected, (case, source, target)

    def test_scoped_name(self, inner):
        """The partial scope is one index family, the closure's."""
        graph = random_digraph(random.Random(3), 8, 10)
        footprint = Footprint.from_seeds(graph, {0})
        if inner == "tc":
            service = build_partial_reachability(graph, footprint, inner)
            # The registry's ``tc``; the ``@partial`` tag is the plan's
            # (``scoped_index_key``), not the index's.
            assert service.index.name == "tc"
            assert type(service.index) is type(build_reachability(graph, "tc").index)
        else:
            with pytest.raises(ValueError, match="descendant closure"):
                build_partial_reachability(graph, footprint, inner)


class TestProbeParity:
    def test_in_domain_probes_count_like_full_index(self):
        """The closure reports the same lookup counts a full index would
        for the same probe sequence (the ``#index`` metric)."""
        rng = random.Random(23)
        graph = random_digraph(rng, 30, 55)
        footprint = Footprint.from_seeds(graph, {0, 1, 2})
        partial = build_partial_reachability(graph, footprint, "tc")
        full = build_reachability(graph, "tc")
        probes = [(rng.randrange(30), rng.randrange(30)) for __ in range(200)]
        for source, target in probes:
            assert partial.reaches(source, target) == full.reaches(source, target)
        assert partial.counters.lookups == full.counters.lookups

    def test_out_of_domain_false_shortcut_counts_a_probe(self):
        graph = DataGraph()
        for __ in range(3):
            graph.add_node(label="x")
        graph.add_edge(0, 1)  # 2 is isolated, outside the footprint of {0}
        footprint = Footprint.from_seeds(graph, {0})
        service = build_partial_reachability(graph, footprint, "tc")
        before = service.counters.lookups
        assert not service.reaches(0, 2)
        assert service.counters.lookups == before + 1

    def test_unfilled_source_is_filled_once_on_demand(self):
        graph = DataGraph()
        for __ in range(4):
            graph.add_node(label="x")
        graph.add_edge(0, 1)
        graph.add_edge(1, 2)
        footprint = Footprint.from_seeds(graph, {3})  # 0..2 outside the footprint
        service = build_partial_reachability(graph, footprint, "tc")
        assert service.index.rows == 1
        assert service.reaches(0, 2)
        assert service.index.rows == service.index.fills == 4
        assert service.reaches(0, 1) and service.reaches(1, 2)
        assert service.index.fills == 4  # memoized
        assert service.counters.lookups == 3


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_partial_matches_oracle_on_random_digraphs(data):
    n = data.draw(st.integers(min_value=1, max_value=12))
    graph = DataGraph()
    for __ in range(n):
        graph.add_node(label="x")
    pairs = data.draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ),
            max_size=3 * n,
        )
    )
    for source, target in pairs:
        graph.add_edge(source, target)
    seeds = data.draw(st.sets(st.integers(min_value=0, max_value=n - 1), max_size=3))
    footprint = Footprint.from_seeds(graph, seeds)
    service = build_partial_reachability(graph, footprint)
    assert isinstance(service, PartialReachability)
    scc_of = service.condensation.scc_of
    assert service.index.rows == len({scc_of[node] for node in footprint.nodes})
    for source in range(n):
        for target in range(n):
            assert service.reaches(source, target) == reaches(graph, source, target)
