"""Allocation guards: the graph and its structural snapshot allocate per
edge and per cycle, not per node.

Every list is a container the cyclic garbage collector walks, and a
collection that walks one list per node of a large graph shows up as a
pause inside whichever operation happens to trigger it.  Counting
``type(o) is list`` objects in ``gc.get_objects()`` with the collector
off is stable across Python versions (other container types are tracked
or untracked differently from one release to the next).
"""

import gc
from contextlib import contextmanager

from repro.datasets import fig7_query, generate_xmark
from repro.engine import QuerySession
from repro.graph import DataGraph

#: Lists a structure build or a first answer may add on top of one per
#: component with successors: the outer arrays, Tarjan's work lists, and
#: what one query's plan and prune passes keep (about 90 on XMark).
SLACK = 256


def tracked_lists() -> int:
    return sum(1 for obj in gc.get_objects() if type(obj) is list)


@contextmanager
def lists_added():
    """Yields a one-item list that holds, on exit, how many lists the block
    left alive; the collector is off meanwhile so the count is exact."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        added = [-tracked_lists()]
        yield added
        added[0] += tracked_lists()
    finally:
        if enabled:
            gc.enable()


def xmark_graph() -> DataGraph:
    return generate_xmark(scale=0.05, seed=97).graph


def with_successors(condensation) -> int:
    """Components numbered so far that have successors."""
    return sum(1 for row in condensation._succ if row)


def test_nodes_without_edges_hold_no_lists():
    graph = DataGraph()
    with lists_added() as added:
        for node in range(2000):
            graph.add_node({"label": "x", "key": node})
    assert added[0] < 16
    graph.add_edge(0, 1)
    assert graph.successors(0) == [1] and graph.predecessors(1) == [0]
    assert graph.successors(1) == () and graph.predecessors(0) == ()


def test_structure_allocates_per_component_with_successors():
    graph = xmark_graph()
    with lists_added() as added:
        condensation = graph.structure().complete()
    # Most components are leaves, so one list per component breaks the bound.
    assert with_successors(condensation) + SLACK < condensation.num_components
    assert added[0] <= with_successors(condensation) + SLACK


def test_first_answer_allocates_per_component_with_successors():
    graph = xmark_graph()
    session = QuerySession(graph)
    query = fig7_query("q1", person_group=2, item_group=0, seller_group=0)
    with lists_added() as added:
        answers = session.evaluate(query)
    assert answers
    # Only the cones the answer read are numbered, and paid for.
    numbered = graph.structure().condensation
    assert numbered.covered < graph.num_nodes
    assert added[0] <= with_successors(numbered) + SLACK
