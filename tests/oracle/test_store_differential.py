"""Randomized differential testing of the warm store.

Seeded random (graph, workload) cases cross-check the persistence layer
three ways:

* **cold** — a session writing a fresh store must agree with
  ``evaluate_naive`` (the Section-2 oracle);
* **warm** — a second session rehydrating that store must answer
  *identically* to the cold session on every query (persistence is a
  cache, never a semantics change);
* **damaged** — after every artifact is truncated, a third session must
  silently fall back to a cold build and still match the oracle (the
  store can cost time, never correctness).
"""

import random

import pytest

from repro.datasets import random_labeled_graph, random_query_batch
from repro.engine import QuerySession
from repro.query import evaluate_naive

#: (first seed, number of seeds) chunks covering the default cases.
DEFAULT_CHUNKS = [(900, 10), (910, 10)]


def run_store_differential_cases(seeds, tmp_root, *, node_range=(8, 16)) -> dict:
    """One (graph, batch, store) case per seed; returns coverage counters."""
    coverage = {"cases": 0, "queries": 0, "nonempty": 0, "rehydrated": 0}
    for seed in seeds:
        rng = random.Random(seed)
        graph = random_labeled_graph(rng.randint(*node_range), rng)
        batch = random_query_batch(graph, rng, batch_size=rng.randint(2, 4), overlap=0.6)
        store_dir = tmp_root / f"seed-{seed}"

        cold = QuerySession(graph, store=store_dir)
        expected = []
        for position, query in enumerate(batch):
            oracle = evaluate_naive(query, graph)
            answer = cold.evaluate(query)
            assert answer == oracle, (
                f"seed {seed} query {position}: cold store session disagrees "
                f"with evaluate_naive"
            )
            expected.append(oracle)
            coverage["nonempty"] += bool(oracle)
        cold.persist()

        warm = QuerySession(graph, store=store_dir)
        rehydrated = sum(warm.store_rehydrated.values())
        assert rehydrated > 0, (
            f"seed {seed}: warm session rehydrated nothing from a store the "
            f"cold session just persisted"
        )
        coverage["rehydrated"] += rehydrated
        for position, (query, oracle) in enumerate(zip(batch, expected)):
            assert warm.evaluate(query) == oracle, (
                f"seed {seed} query {position}: rehydrated session disagrees "
                f"with the cold session"
            )

        # Truncate every artifact: rehydration must degrade to cold-build.
        artifacts = sorted(store_dir.rglob("*.artifact"))
        assert artifacts, f"seed {seed}: nothing persisted"
        for artifact in artifacts:
            blob = artifact.read_bytes()
            artifact.write_bytes(blob[: len(blob) // 2])
        damaged = QuerySession(graph, store=store_dir)
        assert sum(damaged.store_rehydrated.values()) == 0, (
            f"seed {seed}: a truncated artifact rehydrated"
        )
        assert damaged.store.counters.corrupt > 0
        for position, (query, oracle) in enumerate(zip(batch, expected)):
            assert damaged.evaluate(query) == oracle, (
                f"seed {seed} query {position}: damaged-store session "
                f"disagrees with evaluate_naive"
            )

        coverage["cases"] += 1
        coverage["queries"] += len(batch)
    return coverage


@pytest.mark.parametrize("start,count", DEFAULT_CHUNKS)
def test_store_differential_chunk(start, count, tmp_path):
    coverage = run_store_differential_cases(range(start, start + count), tmp_path)
    assert coverage["cases"] == count
    assert coverage["nonempty"] > 0, "sweep never exercised a non-empty answer"
    assert coverage["rehydrated"] > 0
