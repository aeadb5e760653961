"""A query miss leaves no cyclic garbage behind.

Objects caught in a reference cycle outlive their last use until the
cyclic collector runs, and its runs land on whichever later operation
crosses the allocation threshold.  With the collector disabled, every
miss of an XMark Fig. 7 / Exp-1 stream, of an Exp-2 stream and of the
arXiv stream with appends (the benchmark's own seed-12 inputs, at 0.3 of
a round) must leave ``gc.collect()`` nothing to free: what an execution
builds — its state, pruning context, operators and memo entries — is
freed by reference counting alone.
"""

import gc
import importlib.util
import sys
from pathlib import Path

import pytest

from repro.engine import QuerySession

E2E_WORKLOADS = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e" / "workloads.py"


def e2e_workloads():
    spec = importlib.util.spec_from_file_location("e2e_workloads", E2E_WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses resolve annotations through here
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    return workloads


@pytest.fixture
def collector_off():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.mark.parametrize("workload", ["xmark_tpq", "xmark_gtpq", "arxiv_churn"])
def test_every_miss_is_freed_by_reference_counting(workload, collector_off):
    workloads = e2e_workloads()
    inputs = workloads.build_inputs(workload, 12, 0.3)
    graph = workloads.make_graph(workload)
    session = QuerySession(graph)
    gc.collect()  # what building the inputs and the graph left
    misses = 0
    for position, op in enumerate(inputs.ops):
        if op.kind == "mutate":
            workloads.apply_mutation(graph, op)
            continue
        before = session.cache_info()["result"]["misses"]
        assert session.evaluate(op.text) == op.reference, position
        misses += session.cache_info()["result"]["misses"] - before
        assert gc.collect() == 0, f"op {position} left cyclic garbage"
    assert misses == inputs.query_ops
