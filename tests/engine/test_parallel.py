"""Sharded, concurrent prune execution (``repro.engine.parallel``).

Most cases run the ``"serial"`` backend: it goes through the identical
dispatch/merge machinery (sharding, frontier, survivor merge, stats
attribution) with inline futures, so it is deterministic and visible to
coverage.  One thread-pool and one process-pool case check the real
pools agree with it.
"""

import dataclasses
import multiprocessing
import random

import pytest

from repro.datasets import random_labeled_graph, random_query_batch
from repro.engine import GTEA, ParallelExecutor, ParallelOptions, QuerySession
from repro.engine.parallel import _resolve_backend
from repro.graph import DataGraph
from repro.query import AttributePredicate, QueryBuilder

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()


def small_graph():
    return DataGraph.from_edges(
        "aabbccdd",
        [(0, 2), (0, 4), (1, 3), (2, 6), (3, 7), (4, 6), (2, 4), (5, 7)],
    )


def query_abc():
    return (
        QueryBuilder()
        .backbone("r", predicate=AttributePredicate.label("a"))
        .backbone("x", parent="r", predicate=AttributePredicate.label("b"))
        .predicate("p", parent="x", predicate=AttributePredicate.label("c"))
        .outputs("r", "x")
        .build()
    )


def serial_executor(engine, workers=3, **kwargs):
    kwargs.setdefault("min_shard_size", 1)
    return ParallelExecutor(engine, workers, backend="serial", **kwargs)


class TestOptions:
    def test_backend_validation(self):
        with pytest.raises(ValueError, match="backend"):
            _resolve_backend("bogus")

    def test_auto_resolves_to_a_real_backend(self):
        assert _resolve_backend("auto") in ("process", "thread")
        assert _resolve_backend("serial") == "serial"

    def test_session_normalizes_int_to_options(self):
        session = QuerySession(small_graph(), parallel=3)
        assert session.parallel_options == ParallelOptions(workers=3)

    def test_session_without_parallel_has_no_executor(self):
        session = QuerySession(small_graph())
        assert session.parallel_options is None
        assert session.parallel_executor() is None

    def test_from_options_applies_every_field(self):
        options = ParallelOptions(
            workers=5,
            backend="serial",
            shards=2,
            strategy="range",
            min_shard_size=4,
        )
        executor = ParallelExecutor.from_options(GTEA(small_graph()), options)
        assert executor.workers == 5
        assert executor.backend == "serial"
        assert executor.num_shards == 2
        assert executor.min_shard_size == 4
        assert executor._partition.strategy == "range"

    def test_options_have_five_fields_and_hybrid_routing_by_default(self):
        assert len(dataclasses.fields(ParallelOptions)) == 5
        executor = ParallelExecutor(GTEA(small_graph()), 2, backend="serial")
        assert executor._partition.strategy == "hybrid"


class TestSingleQueryExecution:
    def test_matches_serial_engine_on_fig_graph(self):
        engine = GTEA(small_graph())
        plan = engine.compile(query_abc())
        expected, _ = engine.execute(plan)
        with serial_executor(engine) as executor:
            answer, stats = executor.execute(plan)
        assert answer == expected
        assert stats.parallel_workers == 3
        assert stats.parallel_shard_tasks > 0

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_byte_identical_across_shard_counts(self, shards):
        rng = random.Random(5)
        graph = random_labeled_graph(60, rng)
        engine = GTEA(graph)
        for query in random_query_batch(graph, rng, batch_size=4):
            plan = engine.compile(query)
            if plan.physical.executor != "gtea":
                continue
            with serial_executor(engine, workers=1, shards=1) as single:
                base_answer, base_stats = single.execute(plan)
            with serial_executor(engine, workers=shards, shards=shards) as sharded:
                answer, stats = sharded.execute(plan)
            assert answer == base_answer
            assert stats.candidates_after_downward == base_stats.candidates_after_downward
            assert stats.downward_prune_ops == base_stats.downward_prune_ops

    def test_thread_backend_matches(self):
        rng = random.Random(9)
        graph = random_labeled_graph(50, rng)
        engine = GTEA(graph)
        plan = engine.compile(query_abc())
        expected, _ = engine.execute(plan)
        with ParallelExecutor(
            engine, 2, backend="thread", min_shard_size=1
        ) as executor:
            answer, stats = executor.execute(plan)
        assert answer == expected
        assert sum(stats.parallel_worker_tasks.values()) == (
            stats.parallel_shard_tasks + stats.parallel_upward_tasks
        )

    @pytest.mark.skipif(not HAS_FORK, reason="fork start method unavailable")
    def test_process_backend_matches(self):
        rng = random.Random(3)
        graph = random_labeled_graph(40, rng)
        engine = GTEA(graph)
        plan = engine.compile(query_abc())
        expected, _ = engine.execute(plan)
        with ParallelExecutor(
            engine, 2, backend="process", min_shard_size=1
        ) as executor:
            answer, stats = executor.execute(plan)
        assert answer == expected
        assert sum(stats.parallel_worker_tasks.values()) == (
            stats.parallel_shard_tasks + stats.parallel_upward_tasks
        )

    def test_worker_labels_are_normalized(self):
        engine = GTEA(small_graph())
        with serial_executor(engine) as executor:
            _, stats = executor.execute(engine.compile(query_abc()))
        # The serial backend runs every task inline under one label.
        assert set(stats.parallel_worker_tasks) == {"w0"}
        assert stats.parallel_worker_tasks["w0"] == (
            stats.parallel_shard_tasks + stats.parallel_upward_tasks
        )

    def test_stats_row_surfaces_parallel_counters(self):
        engine = GTEA(small_graph())
        with serial_executor(engine) as executor:
            _, stats = executor.execute(engine.compile(query_abc()))
        row = stats.row()
        assert row["workers"] == 3
        assert row["shard_tasks"] == stats.parallel_shard_tasks
        assert row["upward_tasks"] == stats.parallel_upward_tasks
        assert row["steals"] == stats.parallel_steals

    def test_operator_stats_carry_parallel_notes(self):
        engine = GTEA(small_graph())
        with serial_executor(engine) as executor:
            _, stats = executor.execute(engine.compile(query_abc()))
        notes = [
            record.note
            for record in stats.operator_stats
            if record.op == "DownwardPrune"
        ]
        assert notes and all(note.startswith("parallel") for note in notes)

    def test_backbone_early_exit_on_empty_survivors(self):
        # No "z" nodes exist: the backbone child refines to the empty
        # set and the driver short-circuits like the adaptive scheduler.
        query = (
            QueryBuilder()
            .backbone("r", predicate=AttributePredicate.label("a"))
            .backbone("x", parent="r", predicate=AttributePredicate.label("z"))
            .outputs("r")
            .build()
        )
        engine = GTEA(small_graph())
        plan = engine.compile(query)
        with serial_executor(engine) as executor:
            answer, stats = executor.execute(plan)
        assert len(answer) == 0
        assert any(
            "early-exit" in record.note
            for record in stats.operator_stats
            if record.op == "DownwardPrune"
        )
        # "r" was never pruned — the early exit saved its visit.
        assert stats.downward_prune_ops == 1

    def test_empty_root_scan_short_circuits_under_overlap(self):
        # No "z" roots exist: the overlapped scan materializes the root
        # first and finishes before any prune wave is dispatched.
        query = (
            QueryBuilder()
            .backbone("r", predicate=AttributePredicate.label("z"))
            .backbone("x", parent="r", predicate=AttributePredicate.label("b"))
            .outputs("r")
            .build()
        )
        engine = GTEA(small_graph())
        plan = engine.compile(query)
        expected, _ = engine.execute(plan)
        with serial_executor(engine) as executor:
            answer, stats = executor.execute(plan)
        assert answer == expected and len(answer) == 0
        assert stats.parallel_shard_tasks == 0
        assert stats.downward_prune_ops == 0
        # The overlapped scan still books its synthesized operator record.
        assert stats.operator_stats[0].op == "CandidateScan"
        assert stats.operator_stats[0].note == "parallel overlap"

    def test_sharded_upward_matches_the_serial_upward_operator(self):
        # The same plan through the sharded upward frontier and through
        # the engine's serial UpwardPrune operator: identical answers
        # and upward survivor sets.
        rng = random.Random(5)
        graph = random_labeled_graph(60, rng)
        engine = GTEA(graph)
        dispatched = 0
        for query in random_query_batch(graph, rng, batch_size=4):
            plan = engine.compile(query)
            if plan.physical.executor != "gtea":
                continue
            with serial_executor(engine) as sharded:
                answer, stats = sharded.execute(plan)
            base_answer, base_stats = engine.execute(plan)
            assert answer == base_answer
            assert stats.candidates_after_upward == base_stats.candidates_after_upward
            dispatched += stats.parallel_upward_tasks
        assert dispatched > 0

    def test_steals_occur_when_shards_overflow_the_workers(self):
        # Four shards over two workers: every multi-shard wave queues
        # more tasks than the in-flight cap, so completions must steal.
        rng = random.Random(7)
        graph = random_labeled_graph(60, rng)
        engine = GTEA(graph)
        plan = engine.compile(query_abc())
        with serial_executor(engine, workers=2, shards=4) as executor:
            _, stats = executor.execute(plan)
        assert stats.parallel_steals > 0


class TestDelegation:
    def test_constant_empty_plan_runs_on_the_engine(self):
        query = (
            QueryBuilder()
            .backbone("r", predicate=AttributePredicate.label("a"))
            .predicate("p", parent="r", predicate=AttributePredicate.label("b"))
            .structural("r", "p & !p")
            .outputs("r")
            .build()
        )
        engine = GTEA(small_graph())
        plan = engine.compile(query)
        assert plan.physical.executor == "constant-empty"
        with serial_executor(engine) as executor:
            answer, stats = executor.execute(plan)
        assert len(answer) == 0
        assert stats.parallel_shard_tasks == 0

    def test_group_evaluation_runs_on_the_engine(self):
        engine = GTEA(small_graph())
        plan = engine.compile(query_abc())
        expected, _ = engine.execute(plan, group_nodes=("x",))
        with serial_executor(engine) as executor:
            answer, stats = executor.execute(plan, group_nodes=("x",))
        assert answer == expected
        assert stats.parallel_shard_tasks == 0


class TestLifecycle:
    def test_stale_graph_version_is_rejected(self):
        graph = small_graph()
        engine = GTEA(graph)
        plan = engine.compile(query_abc())
        executor = serial_executor(engine)
        graph.add_node(label="a")
        with pytest.raises(RuntimeError, match="graph version"):
            executor.execute(plan)

    def test_close_is_idempotent(self):
        engine = GTEA(small_graph())
        executor = ParallelExecutor(engine, 2, backend="thread")
        executor.execute(engine.compile(query_abc()))
        executor.close()
        executor.close()

    def test_session_invalidate_rebuilds_executor(self):
        graph = small_graph()
        session = QuerySession(
            graph, parallel=ParallelOptions(workers=2, backend="serial")
        )
        first = session.parallel_executor()
        assert session.parallel_executor() is first  # pooled
        graph.add_node(label="d")
        session.evaluate(query_abc())  # auto-invalidates on the new version
        assert session.parallel_executor() is not first

    def test_session_close_releases_pools(self):
        with QuerySession(
            small_graph(), parallel=ParallelOptions(workers=2, backend="serial")
        ) as session:
            session.evaluate(query_abc())
            assert session._parallel_pool
        assert not session._parallel_pool
        # The session is still usable: pools rebuild lazily.
        assert session.evaluate(query_abc()) is not None


class TestSessionIntegration:
    def test_session_results_match_serial_session(self):
        rng = random.Random(17)
        graph = random_labeled_graph(60, rng)
        queries = random_query_batch(graph, rng, batch_size=5)
        serial = QuerySession(graph)
        parallel = QuerySession(
            graph,
            parallel=ParallelOptions(workers=3, backend="serial", min_shard_size=1),
        )
        for query in queries:
            assert parallel.evaluate(query) == serial.evaluate(query)

    def test_batch_path_uses_the_parallel_frontier(self):
        rng = random.Random(21)
        graph = random_labeled_graph(50, rng)
        batch = random_query_batch(graph, rng, batch_size=5, overlap=0.7)
        serial = QuerySession(graph, result_cache_size=0)
        parallel = QuerySession(
            graph,
            result_cache_size=0,
            parallel=ParallelOptions(workers=3, backend="serial", min_shard_size=1),
        )
        expected = serial.evaluate_many(batch)
        observed = parallel.evaluate_many(batch)
        assert observed.results == expected.results
        assert observed.stats.parallel_workers == 3
        assert observed.stats.downward_prune_ops == expected.stats.downward_prune_ops

    def test_batch_sharded_vs_single_shard_byte_identical(self):
        rng = random.Random(29)
        graph = random_labeled_graph(55, rng)
        batch = random_query_batch(graph, rng, batch_size=6, overlap=0.6)

        def run(workers, shards):
            session = QuerySession(
                graph,
                result_cache_size=0,
                parallel=ParallelOptions(
                    workers=workers,
                    backend="serial",
                    shards=shards,
                    min_shard_size=1,
                ),
            )
            return session.evaluate_many(batch)

        single = run(1, 1)
        sharded = run(3, 3)
        assert sharded.results == single.results
        for got, want in zip(sharded.per_query, single.per_query):
            assert got.candidates_after_downward == want.candidates_after_downward
        assert (
            sharded.stats.downward_prune_ops == single.stats.downward_prune_ops
        )

    def test_explain_notes_the_parallel_route(self):
        session = QuerySession(
            small_graph(),
            parallel=ParallelOptions(workers=4, backend="serial"),
        )
        text = session.explain(query_abc())
        assert "[parallel] downward+upward sharded across 4 workers" in text
        assert "strategy=hybrid" in text
        assert "overlap-scan" in text
        assert "steal" in text

    def test_explain_notes_serial_fallback_for_unrouted_plans(self):
        query = (
            QueryBuilder()
            .backbone("r", predicate=AttributePredicate.label("a"))
            .predicate("p", parent="r", predicate=AttributePredicate.label("b"))
            .structural("r", "p & !p")
            .outputs("r")
            .build()
        )
        session = QuerySession(
            small_graph(), parallel=ParallelOptions(workers=2, backend="serial")
        )
        text = session.explain(query)
        assert "[parallel] serial (plan not routed to the GTEA executor)" in text
