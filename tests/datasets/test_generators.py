"""Tests for the dataset generators."""

from repro.datasets import (
    generate_arxiv,
    generate_dblp,
    generate_xmark,
    table1_row,
)
from repro.graph import depth_stats, graph_stats, is_dag, topological_order
from repro.reachability import IntervalLabeling


class TestXMark:
    def test_deterministic(self):
        a = generate_xmark(scale=0.02, seed=1)
        b = generate_xmark(scale=0.02, seed=1)
        assert a.graph.num_nodes == b.graph.num_nodes
        assert sorted(a.graph.edges()) == sorted(b.graph.edges())

    def test_scale_grows_linearly(self):
        small = generate_xmark(scale=0.02, seed=1)
        large = generate_xmark(scale=0.08, seed=1)
        ratio = large.graph.num_nodes / small.graph.num_nodes
        assert 3.0 < ratio < 5.0

    def test_is_dag_with_tree_plus_references(self):
        xmark = generate_xmark(scale=0.02, seed=3)
        assert is_dag(xmark.graph)
        # More edges than a pure tree: the reference edges.
        assert xmark.graph.num_edges > xmark.graph.num_nodes - 1
        assert len(xmark.forest_edges) == xmark.graph.num_nodes - 1

    def test_forest_view_is_a_forest(self):
        from repro.graph import DataGraph

        xmark = generate_xmark(scale=0.02, seed=3)
        forest = DataGraph()
        for node in xmark.graph.nodes():
            forest.add_node(dict(xmark.graph.attrs(node)))
        for source, target in xmark.forest_edges:
            forest.add_edge(source, target)
        IntervalLabeling(forest)  # raises if not a forest

    def test_person_groups(self):
        xmark = generate_xmark(scale=0.05, seed=3)
        labels = {xmark.graph.label(p) for p in xmark.persons}
        assert labels <= {f"person{i}" for i in range(10)}
        assert len(labels) > 3  # several groups hit at this scale

    def test_references_point_at_entities(self):
        xmark = generate_xmark(scale=0.02, seed=3)
        persons = set(xmark.persons)
        items = set(xmark.items)
        graph = xmark.graph
        for source, target in graph.edges():
            if (source, target) in xmark.forest_edges:
                continue
            assert target in persons or target in items

    def test_table1_row(self):
        xmark = generate_xmark(scale=0.02, seed=3)
        row = table1_row(xmark)
        assert row["nodes"] == xmark.graph.num_nodes
        assert row["scale"] == 0.02


class TestArxiv:
    def test_paper_scale_statistics(self):
        arxiv = generate_arxiv(seed=1)
        stats = graph_stats(arxiv.graph)
        assert stats.num_nodes == 9562
        # Edge count within 15% of the paper's 28120.
        assert abs(stats.num_edges - 28120) / 28120 < 0.15
        # Label count within 15% of the paper's 1132.
        assert abs(stats.num_labels - 1132) / 1132 < 0.15

    def test_is_dag(self):
        arxiv = generate_arxiv(num_papers=300, num_authors=60, seed=2)
        assert topological_order(arxiv.graph) is not None

    def test_deeper_than_xmark(self):
        # The property driving Fig. 9: arXiv is denser/deeper than XMark.
        arxiv = generate_arxiv(num_papers=800, num_authors=160, seed=2)
        xmark = generate_xmark(scale=0.05, seed=2)
        assert depth_stats(arxiv.graph)[0] > depth_stats(xmark.graph)[0]

    def test_authors_are_sinks(self):
        arxiv = generate_arxiv(num_papers=100, num_authors=20, seed=2)
        for author in arxiv.authors:
            assert arxiv.graph.out_degree(author) == 0


class TestDblp:
    def test_structure(self):
        dblp = generate_dblp(num_proceedings=5, papers_per_proceedings=4, seed=1)
        assert len(dblp.proceedings) == 5
        assert len(dblp.inproceedings) == 20
        assert is_dag(dblp.graph)

    def test_crossref_edges_link_papers_to_proceedings(self):
        dblp = generate_dblp(num_proceedings=3, papers_per_proceedings=2, seed=1)
        graph = dblp.graph
        proceedings = set(dblp.proceedings)
        crossrefs = [
            n for n in graph.nodes() if graph.attrs(n).get("label") == "crossref"
        ]
        assert crossrefs
        for crossref in crossrefs:
            targets = [
                t for t in graph.successors(crossref) if t in proceedings
            ]
            assert len(targets) == 1

    def test_paper_years_match_proceedings(self):
        dblp = generate_dblp(num_proceedings=3, papers_per_proceedings=2, seed=1)
        graph = dblp.graph
        for paper in dblp.inproceedings:
            year_nodes = [
                c for c in graph.successors(paper)
                if graph.attrs(c).get("label") == "year"
            ]
            assert len(year_nodes) == 1
            assert 1995 <= graph.attrs(year_nodes[0])["value"] <= 2015
