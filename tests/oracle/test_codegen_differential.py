"""Randomized differential testing of the plan-codegen backend.

Seeded random (graph, workload) cases cross-check the specialized
executors of :mod:`repro.plan.codegen` three ways:

* **semantics** — codegen answers must equal ``evaluate_naive`` (the
  Section-2 oracle) and the interpreted session exactly;
* **byte identity** — a codegen execution must reproduce the
  interpreted run's per-node survivor sets, prune-op counts and index
  probe totals, not just its answers;
* **fallback** — sessions that cannot use codegen (parallel-sharded,
  adaptive) must still agree while counting the fallback.

The random batches deliberately include rewrite-heavy queries, so the
sweep covers the PR 3 bug class: minimization can leave a
constant-FALSE ``fext`` on a leaf, which codegen folds to a
compile-time empty set — the unsat/empty regime is asserted non-trivial
below.
"""

import random

import pytest

from repro.datasets import random_labeled_graph, random_query_batch
from repro.engine import QuerySession
from repro.engine.parallel import ParallelOptions
from repro.query import QueryBuilder, evaluate_naive

#: (first seed, number of seeds) chunks covering the default cases.
DEFAULT_CHUNKS = [(start, 20) for start in range(600, 680, 20)]


def codegen_session(graph):
    return QuerySession(graph, result_cache_size=0, subtree_cache_size=0, codegen="auto")


def assert_matches_interpreted(stats, base_stats, expected, where):
    """A compiled execution's counters against the interpreted run's."""
    if expected:
        # Full-run regime: byte identity with the interpreted
        # pipeline — survivors, prune ops and probe counts.
        assert stats.candidates_after_downward == base_stats.candidates_after_downward, (
            f"{where}: codegen survivor sets are not byte-identical to the interpreted run"
        )
        assert stats.downward_prune_ops == base_stats.downward_prune_ops
        assert stats.index_lookups == base_stats.index_lookups, (
            f"{where}: codegen issued a different number of index probes"
        )
        assert stats.index_entries == base_stats.index_entries
        assert stats.input_nodes == base_stats.input_nodes
    else:
        # Empty answers: the backbone-empty early exit (the adaptive
        # driver's shortcut) may skip the tail of the downward phase,
        # so codegen's work must be a *prefix* of the interpreted run,
        # never more.
        assert stats.downward_prune_ops <= base_stats.downward_prune_ops
        assert stats.index_lookups <= base_stats.index_lookups
        assert stats.input_nodes <= base_stats.input_nodes
        for node_id, size in stats.candidates_after_downward.items():
            assert size == base_stats.candidates_after_downward[node_id], (
                f"{where}: codegen survivor set for {node_id!r} diverges"
            )


def run_codegen_differential_cases(seeds, *, node_range=(8, 16)) -> dict:
    """One (graph, batch) case per seed; returns coverage counters."""
    coverage = {"cases": 0, "queries": 0, "nonempty": 0, "empty": 0, "compiled": 0}
    for seed in seeds:
        rng = random.Random(seed)
        graph = random_labeled_graph(rng.randint(*node_range), rng)
        batch = random_query_batch(graph, rng, batch_size=rng.randint(3, 6), overlap=0.6)
        # Parity compares cold work: no subtree reuse on either side.
        interpreted = QuerySession(graph, result_cache_size=0, subtree_cache_size=0)
        compiled = codegen_session(graph)
        for position, query in enumerate(batch):
            expected = evaluate_naive(query, graph)
            base_answer, base_stats = interpreted.evaluate_with_stats(query)
            assert base_answer == expected, (
                f"seed {seed} query {position}: interpreted session disagrees "
                f"with evaluate_naive"
            )
            answer, stats = compiled.evaluate_with_stats(query)
            assert answer == expected, (
                f"seed {seed} query {position}: codegen disagrees with evaluate_naive"
            )
            if stats.codegen_hits or stats.codegen_misses:
                coverage["compiled"] += 1
                assert_matches_interpreted(
                    stats, base_stats, expected, f"seed {seed} query {position}"
                )
            coverage["queries"] += 1
            coverage["nonempty"] += bool(expected)
            coverage["empty"] += not expected
        coverage["cases"] += 1
    return coverage


@pytest.mark.parametrize("start,count", DEFAULT_CHUNKS)
def test_codegen_differential_agreement(start, count):
    coverage = run_codegen_differential_cases(range(start, start + count))
    assert coverage["cases"] == count
    # The sweep must exercise the interesting regimes: nonempty answers,
    # empty answers (the const-folded / early-exit paths) and genuinely
    # compiled executions (not wall-to-wall fallbacks).
    assert coverage["nonempty"] > 0
    assert coverage["empty"] > 0
    assert coverage["compiled"] > coverage["queries"] // 2


def test_codegen_agrees_on_constant_false_leaf():
    """The PR 3 bug class, pinned: minimization folds a redundant
    predicate subtree into a constant-FALSE leaf fext; codegen turns it
    into a compile-time empty set and must still match the oracle."""
    for seed in range(40):
        rng = random.Random(seed)
        graph = random_labeled_graph(rng.randint(8, 14), rng)
        labels = sorted({graph.label(v) for v in graph.nodes()})
        a, b = labels[0], labels[-1]
        query = (
            QueryBuilder()
            .backbone("r", label=a)
            .predicate("p", parent="r", label=b)
            .structural("r", "!p")
            .outputs("r")
            .build()
        )
        expected = evaluate_naive(query, graph)
        answer, _ = codegen_session(graph).evaluate_with_stats(query)
        assert answer == expected, f"seed {seed}: negated-leaf query"


def test_codegen_agrees_on_unsatisfiable_query():
    """Theorem-1 unsat routes to constant-empty; codegen sessions must
    serve the empty answer without compiling anything."""
    rng = random.Random(7)
    graph = random_labeled_graph(10, rng)
    query = (
        QueryBuilder()
        .backbone("r", label=graph.label(next(iter(graph.nodes()))))
        .predicate("p", parent="r", label="anything")
        .structural("r", "p & !p")
        .outputs("r")
        .build()
    )
    answer, stats = codegen_session(graph).evaluate_with_stats(query)
    assert answer == set()
    assert stats.codegen_hits == stats.codegen_misses == 0


def test_codegen_session_with_parallel_falls_back_and_agrees():
    """codegen="auto" on a sharded session: interpreted answers and
    counted fallbacks whenever the prune phase actually sharded."""
    options = ParallelOptions(workers=3, backend="serial", min_shard_size=1)
    for seed in range(620, 630):
        rng = random.Random(seed)
        graph = random_labeled_graph(rng.randint(8, 14), rng)
        batch = random_query_batch(graph, rng, batch_size=4, overlap=0.6)
        session = QuerySession(graph, result_cache_size=0, parallel=options, codegen="auto")
        for query in batch:
            answer, stats = session.evaluate_with_stats(query)
            assert answer == evaluate_naive(query, graph)
            if stats.parallel_shard_tasks:
                assert stats.codegen_fallbacks == 1
                assert stats.codegen_hits == stats.codegen_misses == 0


def test_codegen_session_with_adaptive_falls_back_and_agrees():
    for seed in range(640, 650):
        rng = random.Random(seed)
        graph = random_labeled_graph(rng.randint(8, 14), rng)
        batch = random_query_batch(graph, rng, batch_size=4, overlap=0.6)
        session = QuerySession(graph, result_cache_size=0, adaptive=True, codegen="auto")
        for query in batch:
            answer, stats = session.evaluate_with_stats(query)
            assert answer == evaluate_naive(query, graph)
            assert stats.codegen_hits == stats.codegen_misses == 0


@pytest.mark.slow
@pytest.mark.parametrize("start", range(2000, 2200, 50))
def test_codegen_differential_wide_sweep(start):
    """Larger graphs and denser batches (the slow sweep)."""
    coverage = run_codegen_differential_cases(range(start, start + 50), node_range=(12, 24))
    assert coverage["cases"] == 50
    assert coverage["nonempty"] > 0
    assert coverage["compiled"] > 0
