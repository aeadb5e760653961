"""The row kernel against the loops it replaced.

``tc``'s AD kernels (``DescendantClosure.downward``, ``upward`` and
``edges``) test a component against a *set* with one AND against a
mask.  The per-pair ``reaches`` loops they replaced are kept here
verbatim as the reference (``PruningContext.component_reaches_any``
inlined, and restated over the kernels' arguments); the kernels must
return the same survivors and the same branch lists **in the same
order**, agree with the 3-hop chain/contour kernels (whose branch lists
are compared sorted, as they were when those came out in chain order),
and keep doing so over append-only extensions of the graph with the rows
kept.
"""

from unittest import mock

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.engine import GTEA, matching_graph
from repro.engine.matching_graph import build_matching_graph
from repro.engine.prune import PruningContext, prune_downward, prune_upward
from repro.graph import DataGraph
from repro.query import QueryBuilder, evaluate_naive
from repro.query.gtpq import EdgeType
from repro.query.naive import candidate_nodes
from repro.reachability import PartialReachability, build_reachability, mask
from repro.reachability.partial import hit_components


# ----------------------------------------------------------------------
# The replaced loops, verbatim from the parent commit
# ----------------------------------------------------------------------
def _reference_downward(reach, components, targets):
    dag_index = reach.index
    hits = []
    for target in targets:
        target_components = sorted(target.components)
        hit = set()
        for component in components:
            for other in target_components:
                if other == component:
                    if reach.is_cyclic_component(component):
                        hit.add(component)
                        break
                elif dag_index.reaches(component, other):
                    hit.add(component)
                    break
        hits.append(hit)
    return hits


def _reference_upward(reach, components, sources):
    dag_index = reach.index
    parent_components = sorted(sources.components)
    return {
        component
        for component in components
        if any(
            dag_index.reaches(parent, component)
            if parent != component
            else reach.is_cyclic_component(component)
            for parent in parent_components
        )
    }


def _reference_edges(reach, source_component, targets):
    dag_index = reach.index
    hits = []
    for component in targets.components:
        if component == source_component:
            if reach.is_cyclic_component(component):
                hits.append(component)
        elif dag_index.reaches(source_component, component):
            hits.append(component)
    return hits


def kept_loops(reach):
    """``reach``'s three AD kernels swapped back to the per-pair loops."""
    index = reach.index
    return (
        mock.patch.object(index, "downward", lambda *args: _reference_downward(reach, *args)),
        mock.patch.object(index, "upward", lambda *args: _reference_upward(reach, *args)),
        mock.patch.object(index, "edges", lambda *args: _reference_edges(reach, *args)),
    )


def prepared(reach, nodes):
    """``nodes`` as ``reach``'s index prepares a set."""
    components = list(dict.fromkeys(reach.components(nodes)))
    return reach.index.prepare(components, reach.condensation.cyclic)


# ----------------------------------------------------------------------
# Generated cases
# ----------------------------------------------------------------------
LABELS = "abc"


@st.composite
def digraphs(draw):
    """Small labelled digraphs; cycles and self-loops included."""
    size = draw(st.integers(1, 12))
    labels = draw(st.lists(st.sampled_from(LABELS), min_size=size, max_size=size))
    node = st.integers(0, size - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=3 * size))
    return DataGraph.from_edges(labels, edges)


def append_delta(draw, graph):
    """New nodes whose edges all leave new nodes (cycles among them included)."""
    first = graph.num_nodes
    for _ in range(draw(st.integers(1, 4))):
        graph.add_node(label=draw(st.sampled_from(LABELS)))
    new = st.integers(first, graph.num_nodes - 1)
    anywhere = st.integers(0, graph.num_nodes - 1)
    for source, target in draw(st.lists(st.tuples(new, anywhere), max_size=10)):
        graph.add_edge(source, target)


def formula_texts(names):
    """AND / OR / NOT over ``names``, as the structural-predicate parser reads it."""
    return st.recursive(
        st.sampled_from(names),
        lambda inner: st.one_of(
            inner.map(lambda f: f"!({f})"),
            st.tuples(inner, inner).map(lambda fs: f"({fs[0]} & {fs[1]})"),
            st.tuples(inner, inner).map(lambda fs: f"({fs[0]} | {fs[1]})"),
        ),
        max_leaves=6,
    )


@st.composite
def gtpqs(draw):
    """Random GTPQs: backbone and predicate children over AD and PC edges,
    ``fs`` a random formula over each node's predicate children."""
    size = draw(st.integers(2, 7))
    builder = QueryBuilder().backbone("n0", label=draw(st.sampled_from(LABELS)))
    backbone = {"n0"}
    predicates: dict[str, list[str]] = {}
    for position in range(1, size):
        node_id = f"n{position}"
        parent = f"n{draw(st.integers(0, position - 1))}"
        edge = draw(st.sampled_from(["ad", "ad", "pc"]))
        label = draw(st.sampled_from(LABELS))
        if parent in backbone and draw(st.booleans()):
            builder.backbone(node_id, parent=parent, edge=edge, label=label)
            backbone.add(node_id)
        else:
            builder.predicate(node_id, parent=parent, edge=edge, label=label)
            predicates.setdefault(parent, []).append(node_id)
    for node_id, children in predicates.items():
        if draw(st.booleans()):
            builder.structural(node_id, draw(formula_texts(children)))
    return builder.outputs(*sorted(backbone)).build()


def phases(graph, query, reach):
    """Downward survivors, upward survivors and branch lists of ``query``,
    with the whole query tree as the prime subtree and as one fragment so
    that every AD edge goes through all three sites."""
    context = PruningContext(graph, query, reach)
    mats = {node_id: candidate_nodes(graph, query, node_id) for node_id in query.nodes}
    down = prune_downward(context, mats)
    tree = list(query.depth_first())
    up = prune_upward(context, down, tree)
    return down, up, build_matching_graph(context, up, [tree]).branches


def in_any_order(branches):
    return {
        key: {child: sorted(targets) for child, targets in lists.items()}
        for key, lists in branches.items()
    }


def assert_kernel_equals_kept_loops_and_three_hop(graph, query, closure):
    # The closure reads the lineage's own growing rows.
    assert closure.dag.succ is graph.structure().condensation._succ
    kernel = phases(graph, query, closure)
    loops = kept_loops(closure)
    with loops[0], loops[1], loops[2]:
        kept = phases(graph, query, closure)
    assert kernel == kept  # survivors and branch lists, order included
    down, up, branches = phases(graph, query, build_reachability(graph, "3hop"))
    assert (down, up) == kernel[:2]
    assert in_any_order(branches) == in_any_order(kernel[2])
    return kernel


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_kernel_equals_kept_loops_and_three_hop_across_appends(data):
    graph = data.draw(digraphs())
    query = data.draw(gtpqs())
    closure = PartialReachability(graph)
    assert_kernel_equals_kept_loops_and_three_hop(graph, query, closure)
    for _ in range(data.draw(st.integers(0, 2))):
        append_delta(data.draw, graph)
        rows = closure.index._rows
        closure = closure.following(graph)
        assert closure.index._rows is rows  # kept, and read by the kernel below
        assert_kernel_equals_kept_loops_and_three_hop(graph, query, closure)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_engine_answers_on_the_kernel_equal_naive(data):
    graph = data.draw(digraphs())
    query = data.draw(gtpqs())
    assert GTEA(graph, index="tc").evaluate(query) == evaluate_naive(query, graph)


def test_the_generated_queries_reach_every_site():
    """The strategies are not vacuous: AD children under NOT and OR, AD
    edges in the upward pass and in the matching graph all occur."""
    graph = DataGraph.from_edges("abcabc", [(0, 1), (1, 2), (2, 1), (0, 3), (3, 4), (4, 5), (5, 5)])
    query = (
        QueryBuilder()
        .backbone("n0", label="a")
        .backbone("n1", parent="n0", edge="ad", label="b")
        .predicate("n2", parent="n1", edge="ad", label="c")
        .predicate("n3", parent="n1", edge="pc", label="c")
        .structural("n1", "!n2 | n3")
        .outputs("n0", "n1")
        .build()
    )
    closure = PartialReachability(graph)
    down, up, branches = assert_kernel_equals_kept_loops_and_three_hop(graph, query, closure)
    # Survivor sets are read-only sequences: a pruned set is a tuple.
    assert {node: list(nodes) for node, nodes in down.items()} == {
        "n2": [2, 5],
        "n3": [2, 5],
        "n1": [1, 4],
        "n0": [0, 3],
    }
    assert list(up["n1"]) == [1, 4] and branches[("n0", 0)]["n1"] == [1, 4]
    assert closure.counters.lookups > 0 and closure.index.rows > 0


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 40), unique=True), st.sets(st.integers(0, 40)))
def test_hit_components_come_out_in_branch_order_whichever_walk_is_shorter(order, hit):
    """Few hits are walked by set bit (ascending), many by component; both
    must come out in the child's first-occurrence order, as the kept loop
    iterates ``by_component``."""
    rank = {component: position for position, component in enumerate(order)}
    hits = mask(hit & rank.keys())
    expected = [component for component in order if component in hit]
    assert hit_components(hits, rank) == expected


# ----------------------------------------------------------------------
# mask()
# ----------------------------------------------------------------------
@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 5000)))
def test_mask_is_the_or_of_the_bits(components):
    expected = 0
    for component in components:
        expected |= 1 << component
    assert mask(components) == mask(set(components)) == mask(iter(components)) == expected


def test_mask_edges():
    assert mask([]) == mask(()) == mask({}) == 0
    assert mask([0]) == 1
    assert mask([7]) == 0x80 and mask([8]) == 0x100  # a byte's highest bit, the next byte's lowest
    assert mask([0, 0, 0]) == 1
    assert mask([13328]) == 1 << 13328 and mask([13328]).bit_length() == 13329
    assert mask({0: "by", 9: "key"}) == 0b1000000001  # a dict is read by key


# ----------------------------------------------------------------------
# Lookup accounting
# ----------------------------------------------------------------------
def test_one_lookup_per_row_test():
    """Downward: one per (candidate component × AD child); upward: one per
    distinct candidate component; matching: one per distinct source
    component — where the per-pair loops counted one per ``reaches``."""
    #      0 -> 1 -> 2 <-> 3 (one cyclic component) -> 4;  5 -> 4;  6 isolated
    graph = DataGraph.from_edges("aabbcad", [(0, 1), (1, 2), (2, 3), (3, 2), (3, 4), (5, 4)])
    query = (
        QueryBuilder()
        .backbone("u", label="a")
        .backbone("v", parent="u", edge="ad", label="b")
        .predicate("w", parent="u", edge="ad", label="c")
        .predicate("x", parent="u", edge="pc", label="b")
        .outputs("u", "v")
        .build()
    )
    assert query.edge_type("x") is EdgeType.CHILD
    closure = PartialReachability(graph)
    context = PruningContext(graph, query, closure)
    counters = closure.counters
    scc_of = closure.condensation.complete().scc_of
    assert scc_of[2] == scc_of[3] and len(set(scc_of)) == 6

    index = closure.index
    components = set(closure.components([0, 1, 5]))

    # Downward at u: candidates 0, 1, 5 (three components) × AD children v, w.
    targets = [prepared(closure, [2, 3]), prepared(closure, [4])]
    v, w = index.downward(components, targets)
    assert counters.lookups == 3 * 2
    assert scc_of[5] not in v and scc_of[5] in w
    assert scc_of[0] in v and scc_of[0] in w
    # The cyclic same-component rule: a node of the cycle reaches its own component.
    v, w = index.downward({scc_of[2], scc_of[4]}, [prepared(closure, [3]), prepared(closure, [4])])
    assert counters.lookups == 6 + 2 * 2
    assert scc_of[2] in v and scc_of[2] in w
    assert scc_of[4] not in v and scc_of[4] not in w

    # Upward into v: candidates 2, 3 share a component, 6 has its own.
    counters.reset()
    parents = prepared(closure, [0, 5])
    assert index.upward({scc_of[2], scc_of[6]}, parents) == {scc_of[2]}
    assert counters.lookups == 2
    counters.reset()
    assert index.upward({scc_of[2]}, prepared(closure, [3])) == {scc_of[2]}
    assert counters.lookups == 1

    # Matching u -> v: sources 0, 1, 5 are three components; 2, 3 are one.
    counters.reset()
    result = matching_graph.MatchingGraph()
    mats = {"u": [0, 1, 5], "v": [2, 3]}
    matching_graph._ad_edges(context, result, "u", "v", mats)
    assert counters.lookups == 3
    assert result.branches == {
        ("u", 0): {"v": [2, 3]},
        ("u", 1): {"v": [2, 3]},
        ("u", 5): {"v": []},
    }
    counters.reset()
    context.prepared.clear()
    matching_graph._ad_edges(context, result, "v", "v", {"v": [3, 2]})
    assert counters.lookups == 1
    assert result.branches[("v", 2)] == result.branches[("v", 3)] == {"v": [3, 2]}

    # The kept loops count one per pair probed instead.
    counters.reset()
    _reference_downward(closure, components, targets)
    assert counters.lookups == 6  # here: every component × one target component each
