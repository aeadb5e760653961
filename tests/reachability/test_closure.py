"""The lazily filled descendant closure: exact for every pair, in any
probe order, across append-only extensions with the memo kept — and not
reused across anything else — and its budget of filled bits."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.graph import DataGraph, reaches
from repro.reachability import (
    ClosureBudgetError,
    DescendantClosure,
    PartialReachability,
    build_reachability,
)


@st.composite
def digraphs(draw, min_nodes=1, max_nodes=12):
    """Random digraphs; both edge directions, so cycles and self-loops occur."""
    n = draw(st.integers(min_value=min_nodes, max_value=max_nodes))
    graph = DataGraph()
    for _ in range(n):
        graph.add_node(label="x")
    node = st.integers(min_value=0, max_value=n - 1)
    for source, target in draw(st.lists(st.tuples(node, node), max_size=3 * n)):
        graph.add_edge(source, target)
    return graph


def append_delta(draw, graph):
    """New nodes whose edges all leave new nodes (cycles among them included)."""
    first = graph.num_nodes
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        graph.add_node(label="y")
    new = st.integers(min_value=first, max_value=graph.num_nodes - 1)
    anywhere = st.integers(min_value=0, max_value=graph.num_nodes - 1)
    for source, target in draw(st.lists(st.tuples(new, anywhere), max_size=10)):
        graph.add_edge(source, target)


def all_pairs(draw, graph):
    pairs = [(s, t) for s in graph.nodes() for t in graph.nodes()]
    return draw(st.permutations(pairs))


def assert_rows_equal_bfs(graph: DataGraph, closure: DescendantClosure):
    """Every stored row holds exactly the other components a BFS over the
    data graph reaches from its component."""
    members = graph.structure().condensation.members
    for component, row in closure._rows.items():
        source = members[component][0]
        assert row == sum(
            1 << other
            for other, nodes in enumerate(members)
            if other != component and reaches(graph, source, nodes[0])
        ), component


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_reaches_equals_tc_and_dfs_for_all_pairs_in_any_order(data):
    graph = data.draw(digraphs())
    service = PartialReachability(graph)
    full = build_reachability(graph, "tc")
    for source, target in all_pairs(data.draw, graph):
        expected = reaches(graph, source, target)
        assert service.reaches(source, target) == expected == full.reaches(source, target)
        assert service.counters.lookups == full.counters.lookups  # one lookup per probe
    assert_rows_equal_bfs(graph, service.index)


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_memo_survives_append_only_extensions(data):
    graph = data.draw(digraphs())
    service = PartialReachability(graph)
    probes = [(s, t, reaches(graph, s, t)) for s, t in all_pairs(data.draw, graph)[:30]]
    for source, target, expected in probes:
        assert service.reaches(source, target) == expected
    given = {node: id_ for node, id_ in enumerate(service.condensation.scc_of) if id_ >= 0}
    for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
        append_delta(data.draw, graph)
        rows_before = dict(service.index._rows)
        # One service along the lineage: rows and numbering are kept, not copied.
        assert service.following(graph) is service
        assert service.dag.succ is graph.structure().condensation._succ
        for source, target in all_pairs(data.draw, graph):
            assert service.reaches(source, target) == reaches(graph, source, target)
        # Old rows were exact already: none was recomputed or changed.
        assert {c: service.index._rows[c] for c in rows_before} == rows_before
        assert_rows_equal_bfs(graph, service.index)
    # Ids given before the appends never changed.
    assert {node: service.condensation.scc_of[node] for node in given} == given


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_an_old_to_old_edge_changes_the_lineage(data):
    graph = data.draw(digraphs(min_nodes=2))
    service = PartialReachability(graph)
    service.index.fill(range(service.condensation.complete().num_components))
    assert service.following(graph) is service
    node = st.integers(min_value=0, max_value=graph.num_nodes - 1)
    source, target = data.draw(node), data.draw(node)
    if not graph.add_edge(source, target):
        return
    assert service.following(graph) is None  # the memo must not be reused
    fresh = PartialReachability(graph)
    assert fresh.index._rows is not service.index._rows
    for s, t in all_pairs(data.draw, graph):
        assert fresh.reaches(s, t) == reaches(graph, s, t)


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_budget_abort_leaves_every_stored_row_exact(data):
    graph = data.draw(digraphs(min_nodes=2))
    budget = data.draw(st.integers(min_value=0, max_value=40))
    index = DescendantClosure(graph.structure().dag, budget)
    component = st.integers(min_value=0, max_value=index.dag.num_nodes - 1)
    for _ in range(6):
        wanted = data.draw(st.sets(component, max_size=4))
        try:
            index.fill(wanted)
        except ClosureBudgetError:
            pass
        else:
            assert wanted <= index._rows.keys()
        assert index.bits == sum(row.bit_length() for row in index._rows.values())
        assert index.bits <= budget
        assert index.fills == len(index._rows)
        assert_rows_equal_bfs(graph, index)


def test_the_budget_counts_filled_bits_and_raises_before_the_row():
    graph = DataGraph()
    for _ in range(100):
        graph.add_node(label="x")
    for node in range(99):
        graph.add_edge(node, node + 1)
    # Row c of a chain holds c bits: 0 + 1 + ... + 9 = 45 bits for the
    # ten rows under component 10, whose own row would add 10 more.
    service = PartialReachability(graph, budget_bits=45)
    head = service.component_of(0)
    with pytest.raises(ClosureBudgetError):
        service.index.fill([head])
    assert (service.index.rows, service.index.bits) == (10, 45)
    unbounded = build_reachability(graph, "tc")
    assert unbounded.index.budget_bits is None
    assert unbounded.reaches(0, 99)
    assert unbounded.index.bits == 100 * 99 // 2  # n(n−1)/2: the most n rows hold


def test_fill_is_iterative_on_a_deep_chain():
    graph = DataGraph()
    for _ in range(5000):
        graph.add_node(label="x")
    for node in range(4999):
        graph.add_edge(node, node + 1)
    service = PartialReachability(graph)
    assert service.reaches(0, 4999) and not service.reaches(4999, 0)
    assert service.index.rows == service.index.fills == 5000
