"""Randomized differential testing of batch evaluation.

Seeded random (graph, batch) cases — batches with deliberately
overlapping subtrees — cross-check three evaluators for *exact*
answer-set agreement:

* ``QuerySession.evaluate_many`` (fingerprint dedup, subtree reuse),
* per-query ``GTEA.evaluate`` (compile → execute, no sharing; the
  backbone-empty early exit included),
* ``evaluate_naive`` (the Section-2 semantics oracle).

The default run covers 200 cases (~1000 query evaluations) on small
graphs; the ``slow`` sweep widens graphs, batch sizes and formula
density.  This harness is what caught the leaf-``fext`` minimization
bug fixed alongside it (a rewrite can leave a constant-FALSE structural
predicate on a leaf, which the pruning phases used to skip).
"""

import random

import pytest

from repro.datasets import random_labeled_graph, random_query_batch
from repro.engine import GTEA, QuerySession
from repro.query import evaluate_naive

#: (first seed, number of seeds) chunks covering 200 default cases.
DEFAULT_CHUNKS = [(start, 25) for start in range(0, 200, 25)]


def run_differential_cases(
    seeds,
    *,
    node_range=(8, 14),
    batch_range=(4, 7),
    size_range=(2, 5),
    overlap=0.6,
) -> dict:
    """Run one (graph, batch) case per seed; returns coverage counters."""
    coverage = {"cases": 0, "queries": 0, "nonempty": 0, "shared": 0}
    for seed in seeds:
        rng = random.Random(seed)
        graph = random_labeled_graph(rng.randint(*node_range), rng)
        batch = random_query_batch(
            graph,
            rng,
            batch_size=rng.randint(*batch_range),
            size_range=size_range,
            overlap=overlap,
        )
        session = QuerySession(graph)
        outcome = session.evaluate_many(batch)
        engine = GTEA(graph)
        for position, (query, answer) in enumerate(zip(batch, outcome.results)):
            expected = evaluate_naive(query, graph)
            assert answer == expected, (
                f"seed {seed} query {position}: batch evaluation disagrees "
                f"with evaluate_naive"
            )
            assert engine.evaluate(query) == expected, (
                f"seed {seed} query {position}: GTEA disagrees with evaluate_naive"
            )
            coverage["queries"] += 1
            coverage["nonempty"] += bool(expected)
        coverage["shared"] += outcome.stats.subtree_cache_hits
        coverage["cases"] += 1
    return coverage


@pytest.mark.parametrize("start,count", DEFAULT_CHUNKS)
def test_differential_agreement(start, count):
    coverage = run_differential_cases(range(start, start + count))
    assert coverage["cases"] == count
    # The harness must actually exercise both interesting regimes:
    # nonempty answers and genuine subtree sharing.
    assert coverage["nonempty"] > 0
    assert coverage["shared"] > 0


@pytest.mark.slow
@pytest.mark.parametrize("start", range(1000, 1200, 50))
def test_differential_agreement_wide_sweep(start):
    """Larger graphs, denser batches, heavier overlap (the slow sweep)."""
    coverage = run_differential_cases(
        range(start, start + 50),
        node_range=(12, 24),
        batch_range=(6, 12),
        size_range=(2, 7),
        overlap=0.75,
    )
    assert coverage["cases"] == 50
    assert coverage["nonempty"] > 0
    assert coverage["shared"] > 0
