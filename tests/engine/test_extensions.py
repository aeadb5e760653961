"""Engine extensions: group operator (Sec. 4.3 Remark) and multiple
output structures (Appendix D)."""

from repro.datasets import generate_dblp
from repro.engine import GTEA
from repro.query import QueryBuilder, evaluate_naive
from tests.paper_fixtures import FIG2_ANSWER, fig2_graph, fig2_query, v


class TestGroupOperator:
    def test_grouped_output_collapses_subtree_matches(self):
        graph = fig2_graph()
        # Group u4's matches under each u3 image.
        from repro.query import query_from_dict, query_to_dict

        spec = query_to_dict(fig2_query())
        spec["outputs"] = ["u3", "u4"]
        query = query_from_dict(spec)
        engine = GTEA(graph)
        plain = engine.evaluate(query)
        grouped = engine.evaluate(query, group_nodes=("u4",))
        # Plain: one row per (u3, u4) pair; grouped: one row per u3 image
        # carrying the set of its u4 matches.
        assert len(grouped) == len({row[0] for row in plain})
        for u3_image, group_element in grouped:
            expected = {row[1] for row in plain if row[0] == u3_image}
            members = {dict(item)["u4"] for item in group_element}
            assert members == expected

    def test_group_on_dblp_authors(self):
        dblp = generate_dblp(num_proceedings=5, papers_per_proceedings=3, seed=2)
        query = (
            QueryBuilder()
            .backbone("paper", label="inproceedings")
            .backbone("author", parent="paper", edge="pc", label="author")
            .outputs("paper", "author")
            .build()
        )
        engine = GTEA(dblp.graph)
        plain = engine.evaluate(query)
        grouped = engine.evaluate(query, group_nodes=("author",))
        # One grouped row per paper, carrying exactly its author set.
        assert len(grouped) == len({row[0] for row in plain})
        for paper, group_element in grouped:
            expected = {row[1] for row in plain if row[0] == paper}
            members = {dict(item)["author"] for item in group_element}
            assert members == expected


class TestMultipleOutputStructures:
    def test_appendix_d_two_structures(self):
        """Appendix D: several output-node lists over one matching graph."""
        graph = fig2_graph()
        query = fig2_query()
        engine = GTEA(graph)
        answers, stats = engine.evaluate_with_stats(
            query, output_structures=[["u2", "u4"], ["u4"], ["u2"]]
        )
        assert answers[0] == FIG2_ANSWER
        assert answers[1] == {(b,) for __, b in FIG2_ANSWER}
        assert answers[2] == {(a,) for a, __ in FIG2_ANSWER}
        assert stats.result_count == sum(len(a) for a in answers.values())

    def test_structures_match_separate_queries(self):
        graph = fig2_graph()
        from repro.query import query_from_dict, query_to_dict

        engine = GTEA(graph)
        base = fig2_query()
        answers, __ = engine.evaluate_with_stats(
            base, output_structures=[["u3", "u4"], ["u2", "u3"]]
        )
        for position, outputs in enumerate([["u3", "u4"], ["u2", "u3"]]):
            spec = query_to_dict(base)
            spec["outputs"] = outputs
            separate = query_from_dict(spec)
            assert answers[position] == evaluate_naive(separate, graph)

    def test_empty_answer_structures(self):
        graph = fig2_graph()
        query = (
            QueryBuilder()
            .backbone("a", paper_label="G1")
            .backbone("b", parent="a", paper_label="A1")
            .outputs("a")
            .build()
        )
        answers, __ = GTEA(graph).evaluate_with_stats(
            query, output_structures=[["a"], ["a", "b"]]
        )
        assert answers == {0: set(), 1: set()}


class TestStatsShape:
    def test_intermediate_cost_formula(self):
        graph = fig2_graph()
        __, stats = GTEA(graph).evaluate_with_stats(fig2_query())
        assert stats.intermediate_cost == 2 * (
            stats.matching_graph_nodes + stats.matching_graph_edges
        ) + stats.intermediate_tuples
        assert stats.intermediate_tuples == 0  # GTEA never builds tuples

    def test_feature_counters_merge_per_field(self):
        """Every feature counter folds into an aggregate by adding up."""
        from repro.engine.stats import EvaluationStats

        fired = EvaluationStats(
            subtree_cache_hits=3,
            batch_queries=1,
            batch_unique_queries=2,
        )
        total = EvaluationStats.aggregate([EvaluationStats(), fired, fired])
        assert total.subtree_cache_hits == 6
        assert total.subtree_cache_misses == 0
        assert (total.batch_queries, total.batch_unique_queries) == (2, 4)
        assert total.downward_prune_ops == 0
