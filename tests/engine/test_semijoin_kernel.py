"""The set-at-a-time semijoins against the per-candidate loops they replaced.

Upward PC pruning keeps the candidates that are children of a refined
parent (one ``DataGraph.children_of`` and one ``filter``), the generic
upward AD filter decides each distinct component once and ``compress``-es
the candidates, and the matching graph's PC branch lists ``filter`` each
source's successor tuple.  The loops they replaced — one
``predecessors()`` call, one memo probe or one comprehension step per
candidate — are kept here verbatim as the reference, and the kernels must
return the same survivors and branch lists **in the same order** and
count the same index lookups, on seeded random graphs with cyclic
components and on XMark.
"""

import random

import pytest

from repro.datasets import exp2_query, fig7_query, generate_xmark
from repro.datasets.random_queries import random_labeled_graph, random_query_batch
from repro.datasets.workloads import TABLE4_PREDICATES
from repro.engine import prune
from repro.engine.matching_graph import MatchingGraph, _pc_edges
from repro.engine.prime import compute_prime_subtree
from repro.engine.prune import PruningContext, prune_downward, prune_upward
from repro.graph import DataGraph
from repro.query import QueryBuilder
from repro.query.gtpq import EdgeType
from repro.query.naive import candidate_nodes
from repro.reachability import build_reachability
from repro.reachability.contour import merge_succ_lists

INDEXES = ("3hop", "interval", "tc")


# ----------------------------------------------------------------------
# The replaced loops, verbatim from the parent commit
# ----------------------------------------------------------------------
def _reference_prune_upward(context, mats, prime):
    query, index, reach = context.query, context.index, context.reach
    parents = context.graph.predecessors
    prime_set = set(prime)
    refined = {node_id: list(nodes) for node_id, nodes in mats.items()}
    succ_contours = {}
    for node_id in prime:  # pre-order: parents first
        children = [c for c in query.children[node_id] if c in prime_set]
        if not children:
            continue
        parent_nodes = refined[node_id]
        parent_components = context.dag_images(parent_nodes)
        parent_component_set = set(parent_components)
        contour = None
        if index is not None:
            contour = succ_contours.get(node_id)
            if contour is None:
                contour = merge_succ_lists(index, parent_components)
                succ_contours[node_id] = contour
        parent_data_set = set(parent_nodes)
        for child_id in children:
            if query.edge_type(child_id) is EdgeType.CHILD:
                refined[child_id] = [
                    candidate
                    for candidate in refined[child_id]
                    if not parent_data_set.isdisjoint(parents(candidate))
                ]
            elif index is not None:
                refined[child_id] = prune._filter_upward_ad(
                    context, refined[child_id], contour, parent_component_set
                )
            else:
                refined[child_id] = _reference_filter_upward_ad_generic(
                    context, refined[child_id], parent_components
                )
            if index is not None:
                succ_contours[child_id] = merge_succ_lists(
                    index, context.dag_images(refined[child_id])
                )
    return refined


def _reference_filter_upward_ad_generic(context, candidates, parent_components):
    reach = context.reach
    dag_index = reach.index
    rows = dag_index.rows_for(parent_components)
    if rows is not None:
        below = 0
        for parent in parent_components:
            below |= rows[parent]
        cyclic_parents = set(filter(reach.is_cyclic_component, parent_components))
    reached = {}
    survivors = []
    for candidate, component in zip(candidates, reach.components(candidates)):
        hit = reached.get(component)
        if hit is None:
            if rows is not None:
                dag_index.counters.lookups += 1
                hit = bool(below >> component & 1) or component in cyclic_parents
            else:
                hit = any(
                    dag_index.reaches(parent, component)
                    if parent != component
                    else reach.is_cyclic_component(component)
                    for parent in parent_components
                )
            reached[component] = hit
        if hit:
            survivors.append(candidate)
    return survivors


def _reference_pc_edges(graph, result, parent_id, child_id, mats):
    child_set = set(mats[child_id])
    for source in mats[parent_id]:
        targets = [t for t in graph.successors(source) if t in child_set]
        result.branches.setdefault((parent_id, source), {})[child_id] = targets


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def cyclic_random_graph(seed):
    """A seeded random graph with back edges (cycles) and self-loops."""
    rng = random.Random(seed)
    graph = random_labeled_graph(rng.randint(6, 40), rng, edge_prob=0.12, cycle_edges=4)
    for node in rng.sample(range(graph.num_nodes), 2):
        graph.add_edge(node, node)
    return graph, rng


def random_cases():
    """(graph, query) pairs: 25 seeded graphs, six queries each."""
    for seed in range(25):
        graph, rng = cyclic_random_graph(seed)
        for query in random_query_batch(graph, rng, batch_size=6, size_range=(2, 6)):
            yield graph, query


def xmark_cases():
    graph = generate_xmark(scale=0.02, seed=97).graph
    queries = [
        fig7_query(name, person_group=group) for name in ("q1", "q2", "q3") for group in range(3)
    ]
    queries += [exp2_query(name, item_group=2) for name in TABLE4_PREDICATES]
    return [(graph, query) for query in queries]


def downward(graph, query, index):
    context = PruningContext(graph, query, build_reachability(graph, index))
    mats = {node_id: candidate_nodes(graph, query, node_id) for node_id in query.nodes}
    return context, prune_downward(context, mats)


def counted(context, function, *args):
    """``function(*args)`` and the index counters it moved."""
    before = context.reach.counters.snapshot()
    result = function(*args)
    after = context.reach.counters.snapshot()
    return result, {key: after[key] - before[key] for key in after}


def assert_upward_equal(graph, query, index):
    context, down = downward(graph, query, index)
    if not down[query.root]:
        return None
    prime = compute_prime_subtree(query, down, list(query.outputs))
    # The reference first: a lazily filled closure then has its rows for
    # both runs, so the two count the same lookups from the same state.
    expected, reference_counts = counted(context, _reference_prune_upward, context, down, prime)
    actual, kernel_counts = counted(context, prune_upward, context, down, prime)
    assert actual == expected  # survivors, order included
    assert kernel_counts == reference_counts
    return actual


# ----------------------------------------------------------------------
# Upward pruning (PC semijoin and generic AD filter together)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("index", INDEXES)
def test_upward_prune_equals_reference_on_random_cyclic_graphs(index):
    nonempty = 0
    for graph, query in random_cases():
        nonempty += assert_upward_equal(graph, query, index) is not None
    assert nonempty >= 50  # the cases reach the upward pass


@pytest.mark.parametrize("index", INDEXES)
def test_upward_prune_equals_reference_on_xmark(index):
    nonempty = 0
    for graph, query in xmark_cases():
        nonempty += assert_upward_equal(graph, query, index) is not None
    assert nonempty >= 5


def test_pc_semijoin_keeps_children_of_refined_parents():
    """0 -> 1, 0 -> 2, 3 -> 2, 4 -> 4: the PC child keeps, in its own
    order, exactly the candidates with a parent among the refined ones."""
    graph = DataGraph.from_edges("abbab", [(0, 1), (0, 2), (3, 2), (4, 4)])
    query = (
        QueryBuilder()
        .backbone("p", label="a")
        .backbone("c", parent="p", edge="pc", label="b")
        .outputs("p", "c")
        .build()
    )
    context = PruningContext(graph, query, build_reachability(graph, "tc"))
    mats = {"p": [3], "c": [4, 2, 1]}
    assert prune_upward(context, mats, ["p", "c"])["c"] == [2]
    assert _reference_prune_upward(context, mats, ["p", "c"])["c"] == [2]


# ----------------------------------------------------------------------
# _filter_upward_ad_generic on its own: survivors and the lookups delta
# ----------------------------------------------------------------------
@pytest.mark.parametrize("index", ["tc", "interval"])
def test_generic_upward_ad_filter_equals_reference(index):
    for seed in range(40):
        graph, rng = cyclic_random_graph(seed)
        context = PruningContext(graph, None, build_reachability(graph, index))
        nodes = list(graph.nodes())
        parents = rng.sample(nodes, rng.randint(1, min(4, len(nodes))))
        # Any order, as a shard of a candidate list may come.
        candidates = rng.sample(nodes, rng.randint(0, len(nodes)))
        parent_components = context.dag_images(parents)
        expected, reference_counts = counted(
            context, _reference_filter_upward_ad_generic, context, candidates, parent_components
        )
        actual, kernel_counts = counted(
            context, prune._filter_upward_ad_generic, context, candidates, parent_components
        )
        assert actual == expected
        assert kernel_counts == reference_counts
        if index == "tc":
            distinct = set(context.reach.components(candidates))
            assert kernel_counts["lookups"] == len(distinct)


# ----------------------------------------------------------------------
# _pc_edges: the matching graph's PC branch lists
# ----------------------------------------------------------------------
def pc_edge_cases():
    for seed in range(40):
        graph, rng = cyclic_random_graph(seed)
        nodes = list(graph.nodes())
        mats = {
            "p": sorted(rng.sample(nodes, rng.randint(0, len(nodes)))),
            "c": sorted(rng.sample(nodes, rng.randint(0, len(nodes)))),
        }
        yield graph, mats
    graph = generate_xmark(scale=0.02, seed=97).graph
    for parent, child in (("person0", "address"), ("open_auction", "bidder"), ("item0", "name")):
        mats = {
            "p": list(graph.nodes_with_label(parent)),
            "c": list(graph.nodes_with_label(child)),
        }
        assert mats["p"] and mats["c"]
        yield graph, mats


def test_pc_edges_equal_reference_in_order():
    for graph, mats in pc_edge_cases():
        expected, actual = MatchingGraph(), MatchingGraph()
        _reference_pc_edges(graph, expected, "p", "c", mats)
        _pc_edges(graph, actual, "p", "c", mats)
        assert actual.branches == expected.branches  # target lists, order included


# ----------------------------------------------------------------------
# DataGraph.parents_of / children_of
# ----------------------------------------------------------------------
def test_parents_and_children_of_are_unions_of_adjacency():
    for seed in range(40):
        graph, rng = cyclic_random_graph(seed)
        nodes = rng.sample(range(graph.num_nodes), rng.randint(0, graph.num_nodes))
        parents, children = set(), set()
        for node in nodes:
            parents.update(graph.predecessors(node))
            children.update(graph.successors(node))
        for form in (nodes, tuple(nodes), set(nodes)):
            assert graph.parents_of(form) == parents
            assert graph.children_of(form) == children


@pytest.mark.parametrize("method", ["parents_of", "children_of"])
def test_bulk_adjacency_checks_ids(method):
    graph = DataGraph.from_edges("abc", [(0, 1), (1, 2), (2, 2)])
    bulk = getattr(graph, method)
    assert bulk([]) == set()
    assert getattr(DataGraph(), method)([]) == set()
    assert bulk([1, 2]) == {"parents_of": {0, 1, 2}, "children_of": {2}}[method]
    for bad in ([3], [0, 3], [-1], [-1, 2], [2, 0, 7]):
        with pytest.raises(IndexError):
            bulk(bad)
    with pytest.raises(IndexError):
        getattr(DataGraph(), method)([0])
