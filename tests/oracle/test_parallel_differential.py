"""Randomized differential testing of sharded, concurrent execution.

Seeded random (graph, workload) cases cross-check the sharded executor
of :mod:`repro.engine.parallel` three ways:

* **semantics** — sharded answers must equal ``evaluate_naive`` (the
  Section-2 oracle) and the serial engine exactly;
* **determinism** — a sharded run (several workers, several slices per
  node) must be *byte-identical* to a single-slice run: same answers,
  same per-node survivor sets, same prune-op counts.  Concatenating the
  slice results in slice order is what guarantees it;
* **batch path** — ``evaluate_many`` on a sharded session must match
  the serial session query by query.

The default sweep uses the ``"serial"`` backend — the same dispatch,
split and fold machinery with inline futures — because it is
deterministic under pytest and visible to coverage; the ``slow`` sweep
re-runs a slice on a real process pool.
"""

import multiprocessing

import random

import pytest

from repro.datasets import random_labeled_graph, random_query_batch
from repro.engine import QuerySession
from repro.engine.parallel import ParallelOptions
from repro.graph import DataGraph
from repro.query import evaluate_naive
from repro.query.attribute import AttributePredicate
from repro.query.builder import QueryBuilder

#: (first seed, number of seeds) chunks covering the default cases.
DEFAULT_CHUNKS = [(start, 20) for start in range(400, 480, 20)]


def parallel_session(graph, workers, backend="serial"):
    options = ParallelOptions(workers=workers, backend=backend, min_shard_size=1)
    return QuerySession(graph, result_cache_size=0, subtree_cache_size=0, parallel=options)


def run_parallel_differential_cases(seeds, *, backend="serial") -> dict:
    """One (graph, batch) case per seed; returns coverage counters."""
    coverage = {"cases": 0, "queries": 0, "nonempty": 0, "sharded_tasks": 0}
    for seed in seeds:
        rng = random.Random(seed)
        graph = random_labeled_graph(rng.randint(8, 16), rng)
        batch = random_query_batch(graph, rng, batch_size=rng.randint(3, 6), overlap=0.6)
        # Parity compares cold work: no subtree reuse on any side.
        serial = QuerySession(graph, result_cache_size=0, subtree_cache_size=0)
        single = parallel_session(graph, workers=1, backend=backend)
        sharded = parallel_session(graph, workers=3, backend=backend)

        # Per-query path: naive oracle + serial session + byte identity.
        for position, query in enumerate(batch):
            expected = evaluate_naive(query, graph)
            serial_answer, serial_stats = serial.evaluate_with_stats(query)
            assert serial_answer == expected, (
                f"seed {seed} query {position}: serial session disagrees with evaluate_naive"
            )
            single_answer, single_stats = single.evaluate_with_stats(query)
            sharded_answer, sharded_stats = sharded.evaluate_with_stats(query)
            assert sharded_answer == expected, (
                f"seed {seed} query {position}: sharded execution disagrees with evaluate_naive"
            )
            assert single_answer == expected
            assert (
                sharded_stats.candidates_after_downward == single_stats.candidates_after_downward
            ), (
                f"seed {seed} query {position}: sharded survivor sets are "
                f"not byte-identical to the single-shard run"
            )
            assert (
                sharded_stats.candidates_after_upward == single_stats.candidates_after_upward
            ), (
                f"seed {seed} query {position}: sharded upward survivor sets "
                f"are not byte-identical to the single-shard run"
            )
            assert sharded_stats.downward_prune_ops == single_stats.downward_prune_ops
            coverage["queries"] += 1
            coverage["nonempty"] += bool(expected)
            coverage["sharded_tasks"] += sharded_stats.parallel_shard_tasks
            if expected:
                # No backbone early exit on a nonempty answer: the run
                # must also match the serial engine node for node.
                for name in (
                    "candidates_after_downward",
                    "candidates_after_upward",
                    "downward_prune_ops",
                ):
                    assert getattr(sharded_stats, name) == getattr(serial_stats, name), (
                        f"seed {seed} query {position}: sharded {name} differs "
                        f"from the serial engine's"
                    )

        # Batch path: sharded sessions vs the serial session.
        serial_batch = serial.evaluate_many(batch)
        single_batch = single.evaluate_many(batch)
        sharded_batch = sharded.evaluate_many(batch)
        assert sharded_batch.results == serial_batch.results, (
            f"seed {seed}: sharded batch disagrees with the serial session"
        )
        assert sharded_batch.results == single_batch.results
        pairs = zip(sharded_batch.per_query, single_batch.per_query)
        for position, (got, want) in enumerate(pairs):
            assert got.candidates_after_downward == want.candidates_after_downward, (
                f"seed {seed} query {position}: sharded batch survivor sets "
                f"are not byte-identical to the single-shard batch run"
            )
        coverage["cases"] += 1
        single.close()
        sharded.close()
    return coverage


@pytest.mark.parametrize("start,count", DEFAULT_CHUNKS)
def test_parallel_differential_agreement(start, count):
    coverage = run_parallel_differential_cases(range(start, start + count))
    assert coverage["cases"] == count
    # The sweep must exercise the interesting regimes: nonempty answers
    # and genuinely sharded dispatch (multi-task prunes).
    assert coverage["nonempty"] > 0
    assert coverage["sharded_tasks"] > coverage["queries"]


def skewed_candidate_graph(seed: int, nodes: int = 36) -> DataGraph:
    """A graph whose label-``"a"`` candidates cluster in one id range.

    The first third of the node ids carries label ``"a"`` — one
    contiguous block, which the even split must still cut into equal
    slices.  A low-to-high spine plus random forward edges keeps every
    pattern embedded (nonempty answers).
    """
    rng = random.Random(seed)
    graph = DataGraph()
    for node in range(nodes):
        if node < nodes // 3:
            graph.add_node({"kind": node % 3}, label="a")
        else:
            graph.add_node({"kind": node % 3}, label="b" if node % 2 else "c")
    for node in range(nodes - 1):
        graph.add_edge(node, node + 1)
        graph.add_edge(node, rng.randrange(node + 1, nodes))
    return graph


def skewed_queries() -> list:
    """Patterns whose roots bind the skewed ``"a"`` block."""
    batch = []
    for tail, kind in (("b", 0), ("c", 1), ("b", 2)):
        batch.append(
            QueryBuilder()
            .backbone("r", predicate=AttributePredicate.label("a"))
            .backbone("m", parent="r", predicate=AttributePredicate([("kind", "=", kind)]))
            .backbone("t", parent="m", predicate=AttributePredicate.label(tail))
            .outputs("r", "t")
            .build()
        )
    return batch


def test_parallel_skewed_shards_steal_and_match_oracle():
    """Candidates clustered in one id block, split four ways.

    Answers, survivor sets after *both* prune phases, and prune-op
    counts must be byte-identical to the single-slice run, and the
    answers must match ``evaluate_naive``.
    """
    tasks = 0
    for seed in range(640, 648):
        graph = skewed_candidate_graph(seed)
        single = parallel_session(graph, workers=1)
        sharded = parallel_session(graph, workers=4)
        for position, query in enumerate(skewed_queries()):
            expected = evaluate_naive(query, graph)
            single_answer, single_stats = single.evaluate_with_stats(query)
            sharded_answer, sharded_stats = sharded.evaluate_with_stats(query)
            assert sharded_answer == expected, (
                f"seed {seed} query {position}: sharded execution "
                f"disagrees with evaluate_naive on a skewed graph"
            )
            assert single_answer == expected
            assert (
                sharded_stats.candidates_after_downward
                == single_stats.candidates_after_downward
            )
            assert (
                sharded_stats.candidates_after_upward
                == single_stats.candidates_after_upward
            )
            assert sharded_stats.downward_prune_ops == single_stats.downward_prune_ops
            tasks += sharded_stats.parallel_shard_tasks - single_stats.parallel_shard_tasks
    # The sweep must actually cut the block: more tasks than one per node.
    assert tasks > 0


@pytest.mark.slow
@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method unavailable",
)
def test_parallel_differential_agreement_process_pool():
    """A slice of the sweep on a real process pool."""
    coverage = run_parallel_differential_cases(range(400, 406), backend="process")
    assert coverage["cases"] == 6
    assert coverage["nonempty"] > 0
