"""Threads numbering one graph together.

Sessions in different threads may share one graph, so two threads may
ask for the components of overlapping node sets at once.  Numbering is serialized by
the lineage's lock and a reader takes none: every id a thread reads must
be final, and the numbering the threads leave must equal a
from-scratch condensation up to relabelling.  CI runs this module under
``python -X dev -W error``, so an exception in a worker thread fails the
run instead of passing as a warning.
"""

import random
import sys
import threading

import pytest

from repro.datasets import generate_xmark
from repro.graph import Condensation, DataGraph
from repro.reachability import PartialReachability


def xmark():
    return generate_xmark(scale=0.02, seed=97).graph


def cyclic_xmark():
    """XMark with a few back edges, so walks hand off to Tarjan too."""
    graph = xmark()
    rng = random.Random(5)
    for _ in range(40):
        graph.add_edge(rng.randrange(graph.num_nodes), rng.randrange(graph.num_nodes))
    return graph


@pytest.fixture
def tiny_switch_interval():
    """Switch threads as often as the interpreter allows."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(interval)


def assert_equals_fresh_build(condensation: Condensation, graph: DataGraph) -> None:
    """Same partition, ``cyclic`` flags and successor rows as a fresh
    build, ids relabelled; successors have smaller ids."""
    fresh = Condensation(graph).complete()
    relabel = {}
    for ours, theirs in zip(condensation.scc_of, fresh.scc_of):
        assert ours >= 0 and relabel.setdefault(ours, theirs) == theirs
    assert len(relabel) == len(set(relabel.values())) == fresh.num_components
    for ours, theirs in relabel.items():
        assert condensation.cyclic[ours] == fresh.cyclic[theirs]
        row = condensation.successors(ours)
        assert all(successor < ours for successor in row)
        assert sorted(relabel[successor] for successor in row) == list(fresh.successors(theirs))


@pytest.mark.parametrize("make_graph", [xmark, cyclic_xmark])
def test_two_threads_number_overlapping_cones(make_graph, tiny_switch_interval):
    graph = make_graph()
    service = PartialReachability(graph)
    barrier = threading.Barrier(2)
    seen: list[dict[int, int]] = [{}, {}]
    errors: list[BaseException] = []

    def work(position: int) -> None:
        rng = random.Random(position)
        try:
            barrier.wait()
            for _ in range(60):
                # Overlapping batches: both threads draw from one half of
                # the graph most of the time.
                nodes = rng.sample(range(graph.num_nodes // 2), 12)
                nodes.append(rng.randrange(graph.num_nodes))
                for node, component in zip(nodes, service.components(nodes)):
                    assert component >= 0
                    assert seen[position].setdefault(node, component) == component
                    # The row and the flag of an id read are already there.
                    service.condensation.successors(component)
                    service.is_cyclic_component(component)
        except BaseException as error:  # re-raised in the main thread
            errors.append(error)
            raise

    threads = [threading.Thread(target=work, args=(position,)) for position in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    condensation = service.condensation
    # Every id either thread read is the final one.
    for ids in seen:
        assert {node: condensation.scc_of[node] for node in ids} == ids
    assert condensation.covers >= 2  # both threads numbered something
    assert_equals_fresh_build(condensation.complete(), graph)
