"""Factory registry completeness, ``"auto"`` (``tc`` at every size) and
the shape ladder a session falls back to past the closure's budget."""

from dataclasses import replace

import pytest

from repro.graph import DataGraph, graph_stats
from repro.plan import choose_index
from repro.reachability import available_indexes, build_reachability, resolve_index
from repro.reachability.factory import AUTO_CLOSURE_MAX_BYTES


def balanced_tree(depth: int, fanout: int = 2) -> DataGraph:
    graph = DataGraph()
    graph.add_node(label="n")
    frontier = [0]
    for _ in range(depth):
        next_frontier = []
        for parent in frontier:
            for _ in range(fanout):
                child = graph.add_node(label="n")
                graph.add_edge(parent, child)
                next_frontier.append(child)
        frontier = next_frontier
    return graph


def dense_dag(num_nodes: int, fanout: int = 6) -> DataGraph:
    graph = DataGraph()
    for _ in range(num_nodes):
        graph.add_node(label="n")
    for source in range(num_nodes):
        for offset in range(1, fanout + 1):
            target = source + offset
            if target < num_nodes:
                graph.add_edge(source, target)
    return graph


class TestRegistry:
    def test_all_five_indexes_registered(self):
        assert available_indexes() == ["3hop", "interval", "sspi", "tc", "tree-cover"]

    @pytest.mark.parametrize("name", ["interval"])
    def test_previously_unregistered_indexes_build(self, name):
        graph = balanced_tree(3)
        service = build_reachability(graph, name)
        assert service.index.name == name
        assert service.reaches(0, graph.num_nodes - 1)
        assert not service.reaches(graph.num_nodes - 1, 0)

    def test_unknown_name_mentions_auto(self):
        with pytest.raises(ValueError, match="auto"):
            build_reachability(balanced_tree(1), "nope")


class TestAutoSelection:
    """``"auto"`` is ``tc`` whatever the graph; :func:`choose_index` is
    the ladder a session falls back to, and never names ``tc``."""

    def test_tiny_graph_selects_transitive_closure(self):
        graph = balanced_tree(3)
        service = build_reachability(graph, "auto")
        assert service.index.name == "tc"
        assert service.reaches(0, graph.num_nodes - 1)
        assert not service.reaches(graph.num_nodes - 1, 0)

    def test_auto_is_the_closure_at_every_size(self):
        assert AUTO_CLOSURE_MAX_BYTES == 64 * 2**20
        cyclic = balanced_tree(9)
        cyclic.add_edge(cyclic.num_nodes - 1, 0)
        tree = balanced_tree(15)  # 65 535 nodes: n(n−1)/2 bits pass the budget
        assert tree.num_nodes * (tree.num_nodes - 1) // 2 > 8 * AUTO_CLOSURE_MAX_BYTES
        for graph in (balanced_tree(3), dense_dag(712), cyclic, tree):
            assert resolve_index(graph, "auto") == "tc"
        stats = graph_stats(dense_dag(20))
        for num_nodes in (20, 32768, 32769):
            assert choose_index(replace(stats, num_nodes=num_nodes, num_edges=99999)) == "3hop"

    def test_large_forest_selects_interval(self):
        tree = balanced_tree(15)
        assert choose_index(graph_stats(tree)) == "interval"

    def test_small_forest_selects_interval(self):
        assert choose_index(graph_stats(balanced_tree(3))) == "interval"

    def test_near_tree_dag_selects_tree_cover(self):
        graph = balanced_tree(9)
        # A handful of cross edges: no longer a forest, still near-tree.
        for node in range(0, 40, 4):
            graph.add_edge(node, graph.num_nodes - 1 - node)
        assert choose_index(graph_stats(graph)) == "tree-cover"

    def test_dense_dag_selects_three_hop(self):
        graph = dense_dag(712)
        assert choose_index(graph_stats(graph)) == "3hop"

    def test_large_cyclic_graph_selects_three_hop(self):
        graph = balanced_tree(9)
        graph.add_edge(graph.num_nodes - 1, 0)  # one giant back edge
        assert choose_index(graph_stats(graph)) == "3hop"

    def test_resolve_index_passes_explicit_names_through(self):
        graph = balanced_tree(2)
        assert resolve_index(graph, "sspi") == "sspi"
        assert resolve_index(graph, "auto") == "tc"

    def test_build_reachability_accepts_auto(self):
        graph = balanced_tree(3)
        service = build_reachability(graph, "auto")
        assert service.index.name == "tc"
        assert service.reaches(0, graph.num_nodes - 1)
