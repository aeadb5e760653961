"""The AD-kernel contract: every index family answers the same three questions.

``DagIndex.downward``, ``upward`` and ``edges`` are GTEA's only access to
an index for AD (ancestor-descendant) edges.  The base class answers them
with pairwise ``reaches`` probes; 3-hop (chain-shared contour scans) and
``tc`` (the row kernel) override them.  On small digraphs with cycles and
self-loops, each family's answer must equal the base class's pairwise
answer on the same index, ``edges`` in the same order, and both must
equal strict reachability read off the graph itself.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.graph import DataGraph
from repro.reachability import DagIndex, available_indexes, build_reachability
from tests.engine.test_downward_kernel import digraphs


def strict_descendants(graph, node):
    """The nodes ``node`` reaches through a nonempty path."""
    seen, stack = set(), list(graph.successors(node))
    while stack:
        current = stack.pop()
        if current not in seen:
            seen.add(current)
            stack.extend(graph.successors(current))
    return seen


def prepared(reach, nodes):
    """``nodes`` as ``reach``'s index prepares a query node's set."""
    components = list(dict.fromkeys(reach.components(nodes)))
    return reach.index.prepare(components, reach.condensation.cyclic)


@st.composite
def cases(draw):
    graph = draw(digraphs())
    node = st.integers(0, graph.num_nodes - 1)
    candidates = draw(st.lists(node, unique=True))
    # Any order: a set's components keep the order of first appearance.
    sets = draw(st.lists(st.lists(node, unique=True), min_size=1, max_size=3))
    return graph, candidates, sets


@settings(max_examples=300, deadline=None)
@given(cases(), st.sampled_from(available_indexes()))
def test_every_family_equals_the_pairwise_base(case, name):
    graph, candidates, node_sets = case
    reach = build_reachability(graph, name)
    index = reach.index
    below = {node: strict_descendants(graph, node) for node in graph.nodes()}
    component_of = dict(zip(candidates, reach.components(candidates)))
    components = dict.fromkeys(component_of.values())
    sets = [prepared(reach, nodes) for nodes in node_sets]

    # downward: the candidate components that reach some member of a set.
    expected = [
        {component_of[node] for node in candidates if below[node] & set(nodes)}
        for nodes in node_sets
    ]
    assert DagIndex.downward(index, components, sets) == expected
    assert index.downward(components, sets) == expected

    for nodes, members in zip(node_sets, sets):
        # upward: the candidate components some member of the set reaches.
        expected = {
            component_of[node]
            for node in candidates
            if any(node in below[source] for source in nodes)
        }
        assert DagIndex.upward(index, components, members) == expected
        assert index.upward(components, members) == expected

        # edges: the set's components one source reaches, in the set's order.
        member_of = dict(zip(nodes, reach.components(nodes)))
        for source in candidates:
            reached = {member_of[node] for node in nodes if node in below[source]}
            expected = [component for component in members.components if component in reached]
            pairwise = DagIndex.edges(index, component_of[source], members)
            assert pairwise == expected
            assert index.edges(component_of[source], members) == expected


def test_cyclic_components_hit_a_set_through_themselves_in_every_family():
    """On 0 -> 1 <-> 2 -> 3 and 4 -> 4, a set holding 2 and 4 is hit by
    the cycle and the self-loop through themselves, and by nothing else
    that lies below them."""
    graph = DataGraph.from_edges("xxxxx", [(0, 1), (1, 2), (2, 1), (2, 3), (4, 4)])
    for name in available_indexes():
        reach = build_reachability(graph, name)
        index = reach.index
        cycle, loop, sink = reach.components([1, 4, 3])
        members = prepared(reach, [2, 4])
        assert members.cyclic == {cycle, loop}
        assert index.downward({cycle, loop, sink}, [members]) == [{cycle, loop}]
        assert index.upward({cycle, loop, sink}, members) == {cycle, loop, sink}
        assert index.edges(cycle, members) == [cycle]
        assert index.edges(sink, members) == []
