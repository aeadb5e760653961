"""Tests for the benchmark harness (AlgorithmSuite, table formatting)."""

import pytest

from repro.bench import AlgorithmSuite, format_table, mean
from repro.datasets import exp2_query, fig7_query, generate_xmark
from repro.query import AttributePredicate, QueryBuilder


@pytest.fixture(scope="module")
def suite():
    xmark = generate_xmark(scale=0.02, seed=55)

    def crosses(query):
        out = set()
        for node_id in ("person", "person2", "item_elem"):
            if node_id in query.parent:
                out.add(node_id)
        if query.parent.get("item") == "item_ref":
            out.add("item")
        return out

    return AlgorithmSuite(
        xmark.graph,
        forest_edges=xmark.forest_edges,
        cross_children_of=crosses,
    )


class TestAlgorithmSuite:
    def test_algorithm_roster(self, suite):
        assert suite.algorithms() == [
            "GTEA", "GTEA (tc)", "TwigStackD", "HGJoin+", "HGJoin*",
            "TwigStack", "Twig2Stack",
        ]

    def test_all_algorithms_agree_on_conjunctive_query(self, suite):
        query = fig7_query("q1", person_group=1)
        reference = None
        for name in suite.algorithms():
            measurement = suite.run(name, query)
            assert measurement.seconds >= 0
            assert measurement.result_count == len(measurement.answer)
            if reference is None:
                reference = measurement.answer
            else:
                assert measurement.answer == reference, name

    def test_gtpq_runs_via_decomposition(self, suite):
        query = exp2_query("DIS1", person_group=1, seller_group=2, item_group=1)
        gtea = suite.run("GTEA", query)
        twigstackd = suite.run("TwigStackD", query)
        twigstack = suite.run("TwigStack", query)
        assert gtea.answer == twigstackd.answer == twigstack.answer

    def test_hgjoin_rejects_gtpq(self, suite):
        query = exp2_query("DIS1", person_group=1, seller_group=2, item_group=1)
        with pytest.raises(ValueError, match="cannot evaluate GTPQs"):
            suite.run("HGJoin+", query)

    def test_unknown_algorithm(self, suite):
        with pytest.raises(ValueError, match="unknown algorithm"):
            suite.run("nope", fig7_query("q1"))

    def test_hgjoin_best_plan_adjustment(self, suite):
        query = fig7_query("q1", person_group=1)
        measurement = suite.run("HGJoin+", query)
        stats = measurement.stats
        assert stats.phase_seconds["best_plan"] <= stats.phase_seconds["all_plans"]
        # Reported time charges the best plan only (paper convention).
        assert measurement.seconds <= stats.phase_seconds["all_plans"] + 1.0

    def test_unsatisfiable_gtpq_runs_the_constant_empty_plan(self, suite):
        query = (
            QueryBuilder()
            .backbone("person", predicate=AttributePredicate.label("person"))
            .predicate("name", parent="person", predicate=AttributePredicate.label("name"))
            .structural("person", "name & !name")
            .outputs("person")
            .build()
        )
        measurement = suite.run("GTEA", query)
        assert measurement.answer == set()
        assert measurement.stats.input_nodes == 0
        assert [record.op for record in measurement.stats.operator_stats] == ["ConstantEmpty"]

    def test_measurement_millis(self, suite):
        measurement = suite.run("GTEA", fig7_query("q1", person_group=1))
        assert measurement.millis == pytest.approx(measurement.seconds * 1e3)


class TestFormatting:
    def test_format_table_alignment(self):
        text = format_table("T", ["a", "bb"], [[1, 2.5], ["xxx", 4]])
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[2] and "bb" in lines[2]
        assert "2.500" in lines[3]
        assert "xxx" in lines[4]

    def test_format_table_empty_rows(self):
        text = format_table("T", ["col"], [])
        assert "col" in text

    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0
        assert mean([]) == 0.0
