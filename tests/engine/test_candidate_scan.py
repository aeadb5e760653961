"""The engine's candidate scan against the oracle's.

``repro.engine.operators.scan_candidates`` reads a pinned ``label = c``
atom off the graph's label posting and checks only the node's other
atoms, against the live attribute dicts; ``repro.query.naive
.candidate_nodes`` checks every atom of every node it visits through
``DataGraph.attrs``.  The two must return the same nodes in the same
order for every predicate shape, label type and mutation.
"""

import math
from unittest import mock

import pytest

from repro.datasets import generate_xmark
from repro.engine import QuerySession
from repro.engine.operators import scan_candidates
from repro.graph import DataGraph
from repro.query import AttributePredicate, QueryBuilder, candidate_nodes, evaluate_naive

NAN = math.nan


def one_node_query(predicate):
    return QueryBuilder().backbone("u", predicate=predicate).build()


def assert_same_scan(graph, atoms):
    predicate = AttributePredicate(atoms)
    expected = candidate_nodes(graph, one_node_query(predicate), "u")
    actual = scan_candidates(graph, predicate)
    assert list(actual) == expected
    return expected


def typed_graph():
    """Labels that hash alike but are not all equal, plus nodes without one."""
    graph = DataGraph()
    for label in (5, 5.0, True, "5", 1, NAN, "a", "a", "b", None):
        graph.add_node({"label": label, "year": 2000 + graph.num_nodes, "tag": "x"})
    graph.add_node({"year": 1999})  # no label at all
    graph.add_node({"label": float("nan"), "year": 2020})  # another NaN object
    return graph


ATOM_CASES = [
    pytest.param([("label", "=", "a")], id="pinned"),
    pytest.param([("label", "=", "a"), ("year", ">=", 2007)], id="pinned-plus-range"),
    pytest.param([("year", "<", 2008), ("label", "=", "a"), ("tag", "=", "x")], id="pinned-mid"),
    pytest.param([("label", "=", "a"), ("label", "=", "b")], id="two-labels-disjoint"),
    pytest.param([("label", "=", "a"), ("label", "=", "a")], id="two-labels-same"),
    pytest.param([("label", "=", 5), ("label", "=", 5.0)], id="two-labels-equal-types"),
    pytest.param([("label", "!=", "a")], id="label-not-equal"),
    pytest.param([("label", "!=", "a"), ("label", "=", "b")], id="not-equal-then-pinned"),
    pytest.param([("year", ">", 2003)], id="no-label-atom"),
    pytest.param([], id="no-atom"),
    pytest.param([("label", "=", 5)], id="int"),
    pytest.param([("label", "=", 5.0)], id="float"),
    pytest.param([("label", "=", True)], id="bool"),
    pytest.param([("label", "=", 1)], id="int-equal-to-true"),
    pytest.param([("label", "=", "5")], id="string"),
    pytest.param([("label", "=", NAN)], id="nan"),
    pytest.param([("label", "=", NAN), ("label", "=", "a")], id="nan-then-pinned"),
    pytest.param([("label", "=", None)], id="none"),
    pytest.param([("label", "=", "absent")], id="absent-label"),
    pytest.param([("label", "=", "absent"), ("year", ">", 0)], id="absent-plus-range"),
]


@pytest.mark.parametrize("atoms", ATOM_CASES)
def test_scan_equals_the_oracle(atoms):
    assert_same_scan(typed_graph(), atoms)


def test_the_graphs_own_nan_label_object():
    """A posting keyed by a NaN object is found by identity, yet NaN
    equals no label: the scan must not hand that posting out."""
    graph = typed_graph()
    own_nan = graph.label(5)
    assert own_nan != own_nan and graph.nodes_with_label(own_nan) == (5,)
    assert assert_same_scan(graph, [("label", "=", own_nan)]) == []


def test_label_types_that_hash_alike():
    graph = typed_graph()
    # 5 == 5.0, and True == 1: one posting each; "5" is a different label.
    assert assert_same_scan(graph, [("label", "=", 5)]) == [0, 1]
    assert assert_same_scan(graph, [("label", "=", True)]) == [2, 4]
    assert assert_same_scan(graph, [("label", "=", "5")]) == [3]


def test_a_pinned_label_scan_returns_the_posting_itself():
    graph = typed_graph()
    assert scan_candidates(graph, AttributePredicate.label("a")) is graph.nodes_with_label("a")


def test_a_pure_label_scan_over_xmark_reads_no_attributes():
    graph = generate_xmark(scale=0.02, seed=97).graph
    labels = sorted(graph.distinct_labels())
    expected = {
        label: candidate_nodes(graph, one_node_query(AttributePredicate.label(label)), "u")
        for label in labels
    }

    def refuse(self, node):
        raise AssertionError("the label scan read DataGraph.attrs")

    with mock.patch.object(DataGraph, "attrs", refuse):
        for label in labels:
            assert list(scan_candidates(graph, AttributePredicate.label(label))) == expected[label]
        # The session's provider and the interpreted pipeline too.
        query = (
            QueryBuilder()
            .backbone("p", label="person0")
            .backbone("a", parent="p", edge="pc", label="address")
            .backbone("c", parent="a", edge="ad", label="city")
            .outputs("p", "c")
            .build()
        )
        answer = QuerySession(graph).evaluate(query)
    assert answer and answer == evaluate_naive(query, graph)


@pytest.mark.parametrize(
    "atoms",
    [[("label", "=", "a")], [("label", "=", "a"), ("year", ">=", 2)], [("year", ">=", 2)]],
)
def test_the_scan_follows_add_node_and_set_attr(atoms):
    graph = DataGraph.from_edges("abab", [(0, 1)])
    for node in graph.nodes():
        graph.set_attr(node, "year", node)
    assert_same_scan(graph, atoms)  # builds the postings
    graph.add_node({"label": "a", "year": 7})
    assert assert_same_scan(graph, atoms)[-1] == 4
    graph.set_attr(2, "label", "b")  # leaves the "a" posting
    graph.set_attr(1, "label", "a")  # joins it, out of id order
    graph.set_attr(0, "year", 9)
    graph.set_attr(4, "year", 0)
    assert_same_scan(graph, atoms)
    graph.set_attr(3, "label", None)
    assert_same_scan(graph, atoms)
