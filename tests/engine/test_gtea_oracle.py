"""Property tests: GTEA must agree with the naive oracle everywhere.

Random graphs (DAGs and cyclic digraphs) x random GTPQs covering AD/PC
edges, conjunction, disjunction and negation — the decisive correctness
check of the whole engine — plus a stand-alone engine over a graph that
mutates under it.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.engine import GTEA
from repro.graph import DataGraph
from repro.query import QueryBuilder, evaluate_naive
from tests.reachability.test_indexes import random_dags, random_digraphs

_LABELS = "abcx"


def labeled(graph, data):
    for node in graph.nodes():
        graph.set_attr(
            node, "label", data.draw(st.sampled_from(_LABELS), label=f"label_{node}")
        )
    return graph


@st.composite
def random_queries(draw):
    """Random small GTPQs over labels a/b/c/x with varied shapes."""
    builder = QueryBuilder()
    builder.backbone("r", label=draw(st.sampled_from(_LABELS)))
    shape = draw(
        st.sampled_from(
            ["chain", "star", "negation", "disjunction", "mixed", "deep"]
        )
    )
    edge = lambda: draw(st.sampled_from(["ad", "ad", "pc"]))  # mostly AD
    label = lambda: draw(st.sampled_from(_LABELS))
    if shape == "chain":
        builder.backbone("b1", parent="r", edge=edge(), label=label())
        builder.backbone("b2", parent="b1", edge=edge(), label=label())
        builder.outputs("r", "b1", "b2")
    elif shape == "star":
        builder.backbone("b1", parent="r", edge=edge(), label=label())
        builder.predicate("p1", parent="r", edge=edge(), label=label())
        builder.predicate("p2", parent="r", edge=edge(), label=label())
        builder.structural("r", "p1 & p2")
        builder.outputs("r", "b1")
    elif shape == "negation":
        builder.predicate("p1", parent="r", edge=edge(), label=label())
        builder.predicate("p2", parent="r", edge=edge(), label=label())
        builder.structural("r", draw(st.sampled_from(["!p1", "p1 & !p2", "!p1 & !p2"])))
        builder.outputs("r")
    elif shape == "disjunction":
        builder.predicate("p1", parent="r", edge=edge(), label=label())
        builder.predicate("p2", parent="r", edge=edge(), label=label())
        builder.backbone("b1", parent="r", edge=edge(), label=label())
        builder.structural("r", "p1 | p2")
        builder.outputs("r", "b1")
    elif shape == "mixed":
        builder.predicate("p1", parent="r", edge=edge(), label=label())
        builder.predicate("p2", parent="r", edge=edge(), label=label())
        builder.predicate("p3", parent="p1", edge=edge(), label=label())
        builder.structural("r", draw(
            st.sampled_from(["(p1 & !p2)", "p1 | !p2", "!(p1 & p2)", "!(p1 | p2)"])
        ))
        builder.structural("p1", "p3")
        builder.outputs("r")
    else:  # deep
        builder.backbone("b1", parent="r", edge=edge(), label=label())
        builder.backbone("b2", parent="b1", edge=edge(), label=label())
        builder.predicate("p1", parent="b1", edge=edge(), label=label())
        builder.predicate("p2", parent="p1", edge=edge(), label=label())
        builder.structural("b1", draw(st.sampled_from(["p1", "!p1"])))
        builder.structural("p1", "p2")
        builder.outputs("r", "b2")
    return builder.build()


@settings(max_examples=120, deadline=None)
@given(random_dags(max_nodes=12), random_queries(), st.data())
def test_gtea_matches_oracle_on_dags(graph, query, data):
    labeled(graph, data)
    expected = evaluate_naive(query, graph)
    assert GTEA(graph).evaluate(query) == expected


@settings(max_examples=80, deadline=None)
@given(random_digraphs(max_nodes=10), random_queries(), st.data())
def test_gtea_matches_oracle_on_cyclic_graphs(graph, query, data):
    labeled(graph, data)
    expected = evaluate_naive(query, graph)
    assert GTEA(graph).evaluate(query) == expected


@settings(max_examples=40, deadline=None)
@given(random_dags(max_nodes=12), st.data())
def test_gtea_pc_only_queries(graph, data):
    """Pure parent-child patterns (the hard case of Section 4.4)."""
    labeled(graph, data)
    query = (
        QueryBuilder()
        .backbone("r", label=data.draw(st.sampled_from(_LABELS)))
        .backbone("c1", parent="r", edge="pc", label=data.draw(st.sampled_from(_LABELS)))
        .predicate("p1", parent="c1", edge="pc", label=data.draw(st.sampled_from(_LABELS)))
        .structural("c1", data.draw(st.sampled_from(["p1", "!p1"])))
        .outputs("r", "c1")
        .build()
    )
    expected = evaluate_naive(query, graph)
    assert GTEA(graph).evaluate(query) == expected


@pytest.mark.parametrize("index", ["3hop", "tc", "auto", "interval", "tree-cover", "sspi"])
def test_stand_alone_engine_follows_graph_mutations(index):
    """An engine that built its own index rebuilds it after the graph's
    version moves: an old→old edge changes the answer, an append adds
    nodes the old index has no slot for."""
    graph = DataGraph()
    a, b, c = (graph.add_node(label=label) for label in "abc")
    graph.add_edge(a, b)
    query = (
        QueryBuilder()
        .backbone("x", label="a")
        .backbone("y", parent="x", label="c")
        .outputs("x", "y")
        .build()
    )
    engine = GTEA(graph, index=index)
    assert engine.evaluate(query) == evaluate_naive(query, graph) == set()
    graph.add_edge(b, c)
    assert engine.evaluate(query) == evaluate_naive(query, graph) == {(a, c)}
    d = graph.add_node(label="c")
    graph.add_edge(c, d)
    assert engine.evaluate(query) == evaluate_naive(query, graph) == {(a, c), (a, d)}


def test_stand_alone_auto_stays_the_closure_over_the_budget(low_closure_bound):
    """``"auto"`` is ``tc`` at every size: appends that push a star over
    the (patched) budget keep the pick, and a stand-alone engine's
    closure, which has no budget, is rebuilt and answers."""
    graph = DataGraph()
    root = graph.add_node(label="a")
    for _ in range(499):
        graph.add_edge(root, graph.add_node(label="b"))
    query = (
        QueryBuilder()
        .backbone("x", label="a")
        .backbone("y", parent="x", label="b")
        .outputs("x", "y")
        .build()
    )
    engine = GTEA(graph, index="auto")
    assert engine.resolved_index() == "tc"
    assert engine.evaluate(query) == evaluate_naive(query, graph)
    assert engine.resolved_index() == "tc"
    for _ in range(100):
        graph.add_edge(root, graph.add_node(label="b"))
    assert engine.resolved_index() == "tc"
    assert engine.evaluate(query) == evaluate_naive(query, graph)
    assert engine.reachability.index.name == "tc"
    assert engine.reachability.index.budget is None
