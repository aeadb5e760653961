"""Tests for Tarjan SCC and DAG condensation."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.graph import Condensation, DataGraph, condense, reaches


def random_digraphs(max_nodes: int = 12):
    """Hypothesis strategy for small random digraphs (possibly cyclic)."""

    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=1, max_value=max_nodes))
        edges = draw(
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=n - 1),
                    st.integers(min_value=0, max_value=n - 1),
                ),
                max_size=3 * n,
            )
        )
        graph = DataGraph()
        for __ in range(n):
            graph.add_node(label="x")
        for source, target in edges:
            graph.add_edge(source, target)
        return graph

    return build()


class TestBasicSCC:
    def test_dag_has_singleton_components(self):
        graph = DataGraph.from_edges("abc", [(0, 1), (1, 2)])
        cond = condense(graph)
        assert cond.num_components == 3
        assert cond.is_trivial()
        assert all(not flag for flag in cond.cyclic)

    def test_simple_cycle_collapses(self):
        graph = DataGraph.from_edges("abc", [(0, 1), (1, 2), (2, 0)])
        cond = condense(graph)
        assert cond.num_components == 1
        assert cond.cyclic[0]
        assert sorted(cond.members[0]) == [0, 1, 2]

    def test_self_loop_marks_cyclic(self):
        graph = DataGraph.from_edges("ab", [(0, 0), (0, 1)])
        cond = condense(graph)
        assert cond.num_components == 2
        assert cond.cyclic[cond.scc_of[0]]
        assert not cond.cyclic[cond.scc_of[1]]

    def test_two_cycles_with_bridge(self):
        edges = [(0, 1), (1, 0), (1, 2), (2, 3), (3, 2)]
        graph = DataGraph.from_edges("abcd", edges)
        cond = condense(graph)
        assert cond.num_components == 2
        first = cond.scc_of[0]
        second = cond.scc_of[2]
        assert first != second
        assert cond.successors(first) == [second]
        assert cond.predecessors(second) == [first]

    def test_reverse_topological_numbering(self):
        graph = DataGraph.from_edges("abcd", [(0, 1), (1, 2), (0, 3)])
        cond = condense(graph)
        for component in range(cond.num_components):
            for successor in cond.successors(component):
                assert component > successor

    def test_topological_order_sources_first(self):
        graph = DataGraph.from_edges("abc", [(0, 1), (1, 2)])
        cond = condense(graph)
        order = cond.topological_order()
        position = {component: i for i, component in enumerate(order)}
        for component in range(cond.num_components):
            for successor in cond.successors(component):
                assert position[component] < position[successor]

    def test_deep_chain_does_not_hit_recursion_limit(self):
        n = 50_000
        graph = DataGraph()
        for __ in range(n):
            graph.add_node()
        for i in range(n - 1):
            graph.add_edge(i, i + 1)
        cond = condense(graph)
        assert cond.num_components == n


@settings(max_examples=100, deadline=None)
@given(random_digraphs())
def test_condensation_components_are_mutually_reachable(graph):
    cond = Condensation(graph).complete()
    for members in cond.members:
        if len(members) > 1:
            first = members[0]
            for other in members[1:]:
                assert reaches(graph, first, other)
                assert reaches(graph, other, first)


@settings(max_examples=100, deadline=None)
@given(random_digraphs())
def test_condensation_edges_match_cross_component_reachability(graph):
    cond = Condensation(graph).complete()
    # Every DAG edge corresponds to an actual data edge between components.
    cross_pairs = {
        (cond.scc_of[s], cond.scc_of[t])
        for s, t in graph.edges()
        if cond.scc_of[s] != cond.scc_of[t]
    }
    dag_pairs = {
        (component, successor)
        for component in range(cond.num_components)
        for successor in cond.successors(component)
    }
    assert dag_pairs == cross_pairs


@settings(max_examples=100, deadline=None)
@given(random_digraphs())
def test_cyclic_flag_matches_self_reachability(graph):
    cond = Condensation(graph).complete()
    for node in graph.nodes():
        assert cond.cyclic[cond.scc_of[node]] == reaches(graph, node, node)
