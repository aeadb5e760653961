"""Covered sets evicted before ``UpwardPrune`` are re-pruned in a record.

A subtree-cache hit covers the nodes below it; ``run_pipeline`` reads
their sets back before ``UpwardPrune``.  When a tiny cache has evicted
one since the probe, it is pruned again, as a ``RestoreCovered``
operator with its own record, so every index probe of a run is in some
record.  At the default size nothing is evicted, and no run carries one.
"""

import random

from repro.datasets import fig7_query, generate_xmark
from repro.engine.session import QuerySession
from repro.query import evaluate_naive
from tests.plan.test_normalize_identity import _round_queries


def fig7_runs(seed=1, runs=40):
    rng = random.Random(seed)
    for _ in range(runs):
        yield fig7_query(
            rng.choice(("q1", "q2", "q3")),
            person_group=rng.randrange(3),
            item_group=rng.randrange(3),
            seller_group=rng.randrange(3),
        )


def test_records_count_every_probe_at_tiny_cache_sizes():
    graph = generate_xmark(scale=0.05, seed=97).graph
    runs, restores = fig7_runs(runs=120), 0
    for size in (2, 3, 4):
        session = QuerySession(graph, subtree_cache_size=size)
        counters = session.reachability("tc").counters
        for _, query in zip(range(40), runs):
            before = counters.lookups
            answer, stats = session.evaluate_with_stats(query)
            records = stats.operator_stats
            assert sum(record.index_lookups for record in records) == counters.lookups - before
            restored = [record for record in records if record.op == "RestoreCovered"]
            for record in restored:
                assert record.target is None and record.output_size <= record.input_size
            restores += len(restored)
            assert answer == evaluate_naive(query, graph)
    assert restores  # the seeded runs do evict a covered set


def test_default_size_runs_have_no_restore_record():
    graph = generate_xmark(scale=0.05, seed=97).graph
    session = QuerySession(graph)
    queries = [query for _, query in _round_queries()] + list(fig7_runs())
    ops = set()
    for query in queries:
        _, stats = session.evaluate_with_stats(query)
        ops.update(record.op for record in stats.operator_stats)
    assert "RestoreCovered" not in ops
    assert "DownwardPrune" in ops and "UpwardPrune" in ops
