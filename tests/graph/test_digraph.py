"""Unit tests for the DataGraph substrate."""

import random

import pytest

from repro.graph import DataGraph
from tests.paper_fixtures import FIG2_EDGES, FIG2_LABELS, fig2_graph, v


class TestConstruction:
    def test_empty_graph(self):
        graph = DataGraph()
        assert graph.num_nodes == 0
        assert graph.num_edges == 0
        assert list(graph.edges()) == []

    def test_add_node_returns_sequential_ids(self):
        graph = DataGraph()
        assert graph.add_node() == 0
        assert graph.add_node() == 1

    def test_add_node_with_label_shorthand(self):
        graph = DataGraph()
        node = graph.add_node(label="a1")
        assert graph.label(node) == "a1"
        assert graph.attrs(node) == {"label": "a1"}

    def test_add_node_with_attrs(self):
        graph = DataGraph()
        node = graph.add_node({"tag": "author", "value": "Alice"})
        assert graph.attrs(node)["value"] == "Alice"
        assert graph.label(node) is None

    def test_add_edge(self):
        graph = DataGraph.from_edges("ab", [(0, 1)])
        assert graph.has_edge(0, 1)
        assert not graph.has_edge(1, 0)
        assert graph.num_edges == 1

    def test_parallel_edges_collapse(self):
        graph = DataGraph.from_edges("ab", [(0, 1)])
        assert not graph.add_edge(0, 1)
        assert graph.num_edges == 1

    def test_self_loop_allowed(self):
        graph = DataGraph.from_edges("a", [(0, 0)])
        assert graph.has_edge(0, 0)

    def test_edge_bounds_checked(self):
        graph = DataGraph.from_edges("a", [])
        with pytest.raises(IndexError):
            graph.add_edge(0, 5)
        with pytest.raises(IndexError):
            graph.attrs(3)


class TestAdjacency:
    def test_successors_predecessors(self):
        graph = DataGraph.from_edges("abc", [(0, 1), (0, 2), (1, 2)])
        assert sorted(graph.successors(0)) == [1, 2]
        assert sorted(graph.predecessors(2)) == [0, 1]
        assert graph.out_degree(0) == 2
        assert graph.in_degree(2) == 2

    def test_roots_and_leaves(self):
        graph = DataGraph.from_edges("abc", [(0, 1), (1, 2)])
        assert graph.roots() == [0]
        assert graph.leaves() == [2]

    def test_edges_iteration(self):
        edges = [(0, 1), (1, 2), (0, 2)]
        graph = DataGraph.from_edges("abc", edges)
        assert sorted(graph.edges()) == sorted(edges)


class TestLabelIndex:
    def test_nodes_with_label(self):
        graph = DataGraph.from_edges("aba", [])
        assert graph.nodes_with_label("a") == (0, 2)
        assert graph.nodes_with_label("b") == (1,)
        assert graph.nodes_with_label("z") == ()

    def test_label_index_invalidated_on_add(self):
        graph = DataGraph()
        graph.add_node(label="x")
        assert graph.nodes_with_label("x") == (0,)
        graph.add_node(label="x")
        assert graph.nodes_with_label("x") == (0, 1)

    def test_repeated_scans_share_one_posting_without_rebuild(self):
        """Regression: no per-call copy, no index rebuild while unmutated."""
        graph = DataGraph.from_edges("abab", [(0, 1)])
        first = graph.nodes_with_label("a")
        index_before = graph._label_index
        assert index_before is not None
        for _ in range(3):
            assert graph.nodes_with_label("a") is first  # shared tuple
        assert graph._label_index is index_before  # never rebuilt
        graph.add_node(label="a")
        assert graph.nodes_with_label("a") == (0, 2, 4)
        assert first == (0, 2)  # a posting handed out is never modified
        assert graph._label_index is index_before  # appended to, not rebuilt
        assert graph.structure_info()["label_builds"] == 1

    def test_distinct_labels(self):
        graph = DataGraph.from_edges("aabc", [])
        assert graph.distinct_labels() == {"a", "b", "c"}
        assert graph.num_labels == 3

    @pytest.mark.parametrize("seed", range(20))
    def test_appended_postings_equal_a_rebuild(self, seed):
        """Appends after the first lookup extend the postings; every label
        — one first seen in an append included — reads as a from-scratch
        rebuild would, and unlabelled nodes stay out."""
        rng = random.Random(seed)
        labels = [None, "a", "b", ("tuple", 1), 3]
        graph = DataGraph()
        for _ in range(rng.randint(0, 10)):
            graph.add_node(label=rng.choice(labels))
        graph.nodes_with_label("a")  # builds the postings
        held = {label: graph.nodes_with_label(label) for label in labels[1:]}
        copies = dict(held)
        for step in range(30):
            label = rng.choice([*labels, f"fresh{step}"])
            attrs = {"kind": "x"} if rng.random() < 0.3 else None
            graph.add_node(attrs, label=label)
        rebuilt = DataGraph()
        for node in graph.nodes():
            rebuilt.add_node(graph.attrs(node))
        for label in rebuilt.distinct_labels() | set(labels[1:]):
            assert graph.nodes_with_label(label) == rebuilt.nodes_with_label(label)
        assert graph.distinct_labels() == rebuilt.distinct_labels()
        assert graph.num_labels == rebuilt.num_labels
        assert graph.nodes_with_label(None) == ()
        assert graph.structure_info()["label_builds"] == 1
        assert held == copies  # postings handed out earlier never change

    def test_appends_before_the_first_lookup_build_nothing(self):
        graph = DataGraph.from_edges("ab", [])
        graph.add_node(label="c")
        assert graph._label_index is None
        assert graph.structure_info()["label_builds"] == 0

    @pytest.mark.parametrize("built", [False, True])
    def test_unhashable_label_never_leaves_a_half_added_node(self, built):
        graph = DataGraph.from_edges("ab", [])
        if built:
            graph.nodes_with_label("a")
            with pytest.raises(TypeError):
                graph.add_node(label=["not", "hashable"])
            assert (graph.num_nodes, graph.num_roots, graph.version) == (2, 2, 2)
            assert graph.nodes_with_label("a") == (0,)
        else:  # as before: the node is added whole, the lookup fails
            graph.add_node(label=["not", "hashable"])
            assert graph.num_nodes == 3
            with pytest.raises(TypeError):
                graph.nodes_with_label("a")


class TestSetAttr:
    @pytest.mark.parametrize("seed", range(20))
    def test_label_writes_keep_the_postings_equal_to_a_rebuild(self, seed):
        """Any mix of label writes (a new label, the last node of a label
        leaving it, ``None``, the same label again), other attribute
        writes and appends reads as a from-scratch rebuild would."""
        rng = random.Random(seed)
        labels = [None, "a", "b", ("tuple", 1), 3]
        graph = DataGraph()
        for _ in range(rng.randint(1, 10)):
            graph.add_node(label=rng.choice(labels))
        graph.nodes_with_label("a")  # builds the postings
        held = {label: graph.nodes_with_label(label) for label in labels[1:]}
        copies = dict(held)
        for step in range(40):
            version = graph.version
            node = rng.randrange(graph.num_nodes)
            roll = rng.random()
            if roll < 0.6:
                graph.set_attr(node, "label", rng.choice([*labels, f"fresh{step}"]))
            elif roll < 0.8:
                graph.set_attr(node, "kind", step)
            else:
                graph.add_node(label=rng.choice(labels))
            assert graph.version == version + 1
        rebuilt = DataGraph()
        for node in graph.nodes():
            rebuilt.add_node(graph.attrs(node))
        assert graph._label_index == rebuilt._postings()
        assert graph.num_labels == rebuilt.num_labels
        assert graph.nodes_with_label(None) == ()
        assert graph.structure_info()["label_builds"] == 1
        assert held == copies  # postings handed out earlier never change

    def test_a_write_before_the_first_lookup_builds_nothing(self):
        graph = DataGraph.from_edges("ab", [])
        graph.set_attr(0, "label", "b")
        assert graph._label_index is None
        assert graph.nodes_with_label("b") == (0, 1)
        assert graph.attrs(0) == {"label": "b"}

    def test_attrs_is_a_read_only_view(self):
        """A write through ``attrs()`` raises and leaves postings and
        version alone; ``set_attr`` is the write the graph sees."""
        graph = DataGraph.from_edges("ab", [])
        assert graph.nodes_with_label("a") == (0,)
        with pytest.raises(TypeError):
            graph.attrs(0)["label"] = "b"
        assert graph.nodes_with_label("a") == (0,) and graph.version == 2
        graph.set_attr(0, "label", "b")
        assert graph.attrs(0) == {"label": "b"}
        assert graph.nodes_with_label("b") == (0, 1) and graph.version == 3

    def test_an_attribute_write_keeps_the_structural_lineage(self):
        graph = DataGraph.from_edges("abc", [(0, 1), (1, 2)])
        lineage = graph.structure().lineage
        graph.set_attr(1, "label", "z")
        graph.set_attr(2, "rank", 7)
        assert graph.structure().lineage is lineage
        info = graph.structure_info()
        assert (info["builds"], info["version"]) == (1, graph.version)

    def test_unhashable_label_leaves_the_node_as_it_was(self):
        graph = DataGraph.from_edges("ab", [])
        graph.nodes_with_label("a")
        with pytest.raises(TypeError):
            graph.set_attr(0, "label", ["not", "hashable"])
        assert (graph.label(0), graph.version) == ("a", 2)
        assert graph.nodes_with_label("a") == (0,)

    def test_out_of_range_node(self):
        with pytest.raises(IndexError):
            DataGraph.from_edges("a", []).set_attr(1, "label", "b")


class TestFig2Fixture:
    def test_shape(self):
        graph = fig2_graph()
        assert graph.num_nodes == 16
        assert graph.num_edges == len(FIG2_EDGES)

    def test_labels(self):
        graph = fig2_graph()
        for paper_id, label in FIG2_LABELS.items():
            assert graph.label(v(paper_id)) == label

    def test_paper_label_convention_attrs(self):
        graph = fig2_graph()
        assert graph.attrs(v(13)) == {"label": "e2", "tag": "e", "rank": 2}

    def test_example3_reachability_facts(self):
        """Spot-check reach facts the examples rely on (via DFS oracle)."""
        from repro.graph import reaches

        graph = fig2_graph()
        assert reaches(graph, v(3), v(13))   # v3 in mat(u2)
        assert reaches(graph, v(8), v(13))   # v8 in mat(u2)
        assert not reaches(graph, v(5), v(13))  # v5 pruned from mat(u2)
        assert not reaches(graph, v(5), v(16))  # v5 |= u3 via !u6
        assert reaches(graph, v(3), v(6))    # v3 |= u3 via u7
        assert reaches(graph, v(3), v(11))   # ... and u8
        assert reaches(graph, v(1), v(3))    # match (v1, v3, v3, v11)
        assert reaches(graph, v(2), v(4))    # v2 inherits v4's valuation
