"""Tests for traversal utilities and graph statistics."""

import pytest

from repro.graph import (
    DataGraph,
    ancestors,
    bfs_layers,
    depth_stats,
    descendants,
    graph_stats,
    is_dag,
    node_depths,
    reaches,
    topological_order,
)
from tests.paper_fixtures import fig2_graph, v


class TestTopologicalOrder:
    def test_chain(self):
        graph = DataGraph.from_edges("abc", [(0, 1), (1, 2)])
        assert topological_order(graph) == [0, 1, 2]

    def test_diamond_respects_edges(self):
        graph = DataGraph.from_edges("abcd", [(0, 1), (0, 2), (1, 3), (2, 3)])
        order = topological_order(graph)
        position = {node: i for i, node in enumerate(order)}
        for source, target in graph.edges():
            assert position[source] < position[target]

    def test_cycle_raises(self):
        graph = DataGraph.from_edges("ab", [(0, 1), (1, 0)])
        with pytest.raises(ValueError):
            topological_order(graph)

    def test_is_dag(self):
        assert is_dag(DataGraph.from_edges("ab", [(0, 1)]))
        assert not is_dag(DataGraph.from_edges("ab", [(0, 1), (1, 0)]))
        assert not is_dag(DataGraph.from_edges("a", [(0, 0)]))


class TestReachability:
    def test_strict_semantics_no_self_reach_in_dag(self):
        graph = DataGraph.from_edges("abc", [(0, 1), (1, 2)])
        assert reaches(graph, 0, 2)
        assert not reaches(graph, 2, 0)
        assert not reaches(graph, 0, 0)  # nonempty path required

    def test_self_reach_on_cycle(self):
        graph = DataGraph.from_edges("ab", [(0, 1), (1, 0)])
        assert reaches(graph, 0, 0)

    def test_descendants_and_ancestors(self):
        graph = DataGraph.from_edges("abcd", [(0, 1), (1, 2), (0, 3)])
        assert descendants(graph, 0) == {1, 2, 3}
        assert descendants(graph, 2) == set()
        assert ancestors(graph, 2) == {0, 1}
        assert ancestors(graph, 0) == set()

    def test_descendants_with_cycle_include_self(self):
        graph = DataGraph.from_edges("abc", [(0, 1), (1, 0), (1, 2)])
        assert descendants(graph, 0) == {0, 1, 2}


class TestLayersAndDepths:
    def test_bfs_layers(self):
        graph = DataGraph.from_edges("abcd", [(0, 1), (0, 2), (1, 3)])
        layers = bfs_layers(graph, [0])
        assert layers[0] == [0]
        assert sorted(layers[1]) == [1, 2]
        assert layers[2] == [3]

    def test_node_depths_longest_path(self):
        graph = DataGraph.from_edges("abcd", [(0, 1), (1, 2), (0, 2), (2, 3)])
        depths = node_depths(graph)
        assert depths == [0, 1, 2, 3]


class TestStats:
    def test_fig2_stats(self):
        stats = graph_stats(fig2_graph())
        assert stats.num_nodes == 16
        assert stats.num_edges == 16
        assert stats.num_labels == 8
        assert stats.is_dag

    def test_stats_on_cyclic_graph(self):
        graph = DataGraph.from_edges("abc", [(0, 1), (1, 0), (1, 2)])
        stats = graph_stats(graph)
        assert not stats.is_dag
        assert stats.num_nodes == 3
        assert depth_stats(graph)[0] == 1  # condensation: scc{0,1} -> scc{2}

    def test_row_shape(self):
        row = graph_stats(fig2_graph()).row()
        assert set(row) == {"nodes", "edges", "labels", "roots"}

    def test_fig2_reach_matrix_sanity(self):
        graph = fig2_graph()
        # v7 reaches v16 through chain v7 -> v3 -> v11 -> v16.
        assert reaches(graph, v(7), v(16))
        # v8 reaches only v13 (its removal from mat(u3) in Example 9).
        assert descendants(graph, v(8)) == {v(13)}
