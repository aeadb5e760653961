"""Sharded downward prune (``repro.engine.parallel``).

Most cases run the ``"serial"`` backend: it goes through the identical
dispatch/fold machinery (split, frontier, concatenation, stats
attribution) with inline futures, so it is deterministic and visible to
coverage.  The process-pool cases check the real pool agrees with it.
"""

import dataclasses
import multiprocessing
import os
import random
import signal

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.datasets import fig7_query, generate_xmark, random_labeled_graph, random_query_batch
from repro.engine import GTEA, ParallelExecutor, ParallelOptions, QuerySession, parallel
from repro.engine.operators import UpwardPrune
from repro.engine.parallel import BACKENDS, split_candidates
from repro.graph import DataGraph
from repro.query import AttributePredicate, QueryBuilder
from repro.query.naive import candidate_nodes
from tests.paper_fixtures import fig2_graph, fig2_query

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(not HAS_FORK, reason="fork start method unavailable")


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


#: the Fig. 7 instances ``tests/engine/test_downward_kernel.py`` pins
#: (5, 2 and 0 answer rows on the XMark 0.05 graph below).
FIG7_SET = [
    ("q1", dict(person_group=2)),
    ("q2", dict(item_group=3)),
    ("q3", dict(item_group=3)),
]


def serial_executor(engine, workers=3, **kwargs):
    kwargs.setdefault("min_shard_size", 1)
    return ParallelExecutor(engine, workers, backend="serial", **kwargs)


@pytest.fixture(scope="module")
def xmark_engine():
    return GTEA(generate_xmark(scale=0.05, seed=97).graph)


@pytest.fixture
def down_sets(monkeypatch):
    """``state.down`` before and after every ``UpwardPrune`` that runs —
    the survivor lists of both prune phases, one pair per execution."""
    seen = []
    original = UpwardPrune.run

    def run(self, state):
        before = {node_id: list(nodes) for node_id, nodes in state.down.items()}
        original(self, state)
        seen.append((before, {node_id: list(nodes) for node_id, nodes in state.down.items()}))
        return state

    monkeypatch.setattr(UpwardPrune, "run", run)
    return seen


def assert_byte_identical(engine, plan, executor, down_sets, provider=None):
    """Answers, survivor lists after both prune phases and prune-op
    counts of a sharded run equal the serial engine's."""
    del down_sets[:]
    expected, expected_stats = engine.execute(plan, candidate_provider=provider)
    answer, stats = executor.execute(plan, candidate_provider=provider)
    assert answer == expected
    serial_down, *sharded_down = down_sets
    if expected or sharded_down:
        assert sharded_down == [serial_down]
        assert stats.downward_prune_ops == expected_stats.downward_prune_ops
    else:
        # An empty backbone set ended the sharded run before UpwardPrune.
        assert "early-exit" in stats.operator_stats[-1].note
    return stats


class TestOptions:
    def test_backend_validation(self):
        for backend in ("bogus", "thread"):
            with pytest.raises(ValueError, match="backend"):
                ParallelOptions(backend=backend)
        with pytest.raises(ValueError, match="backend"):
            ParallelExecutor(GTEA(small_graph()), 2, backend="bogus")

    def test_auto_resolves_to_a_real_backend(self):
        assert ParallelOptions().resolved_backend == ("process" if HAS_FORK else "serial")
        assert ParallelOptions(backend="serial").resolved_backend == "serial"

    def test_options_are_three_fields_and_three_backends(self):
        names = tuple(spec.name for spec in dataclasses.fields(ParallelOptions))
        assert names == ("workers", "backend", "min_shard_size")
        assert BACKENDS == ("auto", "process", "serial")

    @pytest.mark.parametrize("field", ["workers", "min_shard_size"])
    @pytest.mark.parametrize("value", [0, -3, True, 2.0, "2", None])
    def test_options_reject_bad_counts_at_construction(self, field, value):
        with pytest.raises(ValueError, match=field):
            ParallelOptions(**{field: value})

    def test_session_normalizes_int_to_options(self):
        session = QuerySession(small_graph(), parallel=3)
        assert session.parallel_options == ParallelOptions(workers=3)

    def test_session_without_parallel_has_no_executor(self):
        session = QuerySession(small_graph())
        assert session.parallel_options is None
        assert session.parallel_executor() is None

    @pytest.mark.parametrize("value", [None, False, 0])
    def test_session_serial_values_stay_serial(self, value):
        session = QuerySession(small_graph(), parallel=value)
        assert session.parallel_options is None
        _, stats = session.evaluate_with_stats(query_abc())
        assert stats.parallel_workers == 0 and stats.parallel_shard_tasks == 0
        assert "[parallel]" not in session.explain(query_abc())

    @pytest.mark.parametrize("value", [True, -3, 2.5, "2", [2]])
    def test_session_rejects_junk(self, value):
        with pytest.raises(ValueError, match="workers"):
            QuerySession(small_graph(), parallel=value)

    def test_from_options_applies_every_field(self):
        options = ParallelOptions(workers=5, backend="serial", min_shard_size=4)
        executor = ParallelExecutor.from_options(GTEA(small_graph()), options)
        assert executor.workers == 5
        assert executor.backend == "serial"
        assert executor.min_shard_size == 4


class TestSplit:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(0, 50)),
        st.integers(1, 8),
        st.integers(1, 20),
    )
    def test_even_order_preserving_split(self, candidates, workers, min_shard_size):
        shards = split_candidates(candidates, workers, min_shard_size)
        # Unsorted inputs and duplicates included: concatenation is the input.
        assert [node for shard in shards for node in shard] == candidates
        assert all(shards)
        assert len(shards) == min(workers, -(-len(candidates) // min_shard_size))
        if shards:
            sizes = [len(shard) for shard in shards]
            assert max(sizes) - min(sizes) <= 1


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
            with serial_executor(engine, workers=1) as single:
                base_answer, base_stats = single.execute(plan)
            with serial_executor(engine, workers=shards) as sharded:
                answer, stats = sharded.execute(plan)
            assert answer == base_answer
            assert stats.candidates_after_downward == base_stats.candidates_after_downward
            assert stats.candidates_after_upward == base_stats.candidates_after_upward
            assert stats.downward_prune_ops == base_stats.downward_prune_ops

    @pytest.mark.parametrize("workers", [1, 2, 3, 5])
    def test_byte_identical_to_the_serial_engine(self, workers, xmark_engine, down_sets):
        fig2 = GTEA(fig2_graph())
        cases = [(fig2, fig2_query())]
        cases += [(xmark_engine, fig7_query(name, **groups)) for name, groups in FIG7_SET]
        tasks = 0
        for engine, query in cases:
            with serial_executor(engine, workers=workers) as executor:
                stats = assert_byte_identical(
                    engine, engine.compile(query), executor, down_sets
                )
            tasks += stats.parallel_shard_tasks
        assert tasks > len(cases)

    @needs_fork
    def test_process_backend_matches(self, xmark_engine, down_sets):
        rng = random.Random(3)
        graph = random_labeled_graph(40, rng)
        engine = GTEA(graph)
        plan = engine.compile(query_abc())
        expected, _ = engine.execute(plan)
        with ParallelExecutor(engine, 2, backend="process", min_shard_size=1) as executor:
            answer, stats = executor.execute(plan)
        assert answer == expected
        assert stats.parallel_shard_tasks > 0
        fig2 = GTEA(fig2_graph())
        for engine, query in [(fig2, fig2_query()), (xmark_engine, fig7_query("q2", item_group=3))]:
            with ParallelExecutor(engine, 2, backend="process", min_shard_size=1) as executor:
                assert_byte_identical(engine, engine.compile(query), executor, down_sets)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_shuffled_candidates_keep_their_order(self, workers, xmark_engine, down_sets):
        # Nothing sorts the survivors any more: concatenating the slice
        # results must give back whatever order the provider handed out.
        for engine, query in [
            (GTEA(fig2_graph()), fig2_query()),
            (xmark_engine, fig7_query("q1", person_group=2)),
        ]:
            rng = random.Random(11)
            shuffled = {}

            def provider(query, node_id, engine=engine, rng=rng, shuffled=shuffled):
                if node_id not in shuffled:
                    shuffled[node_id] = candidate_nodes(engine.graph, query, node_id)
                    rng.shuffle(shuffled[node_id])
                return shuffled[node_id]

            with serial_executor(engine, workers=workers) as executor:
                assert_byte_identical(
                    engine, engine.compile(query), executor, down_sets, provider
                )
            survivors = down_sets[1][0]  # the sharded run, after the downward phase
            assert any(nodes != sorted(nodes) for nodes in survivors.values())

    def test_scan_and_upward_records_equal_the_serial_engine(self, xmark_engine):
        # Probe-count parity: outside the downward phase the sharded run
        # executes the engine's own operators.
        for engine, query in [
            (GTEA(fig2_graph()), fig2_query()),
            (xmark_engine, fig7_query("q2", item_group=3)),
        ]:
            plan = engine.compile(query)
            _, expected = engine.execute(plan)
            with serial_executor(engine) as executor:
                _, stats = executor.execute(plan)
            for op in ("CandidateScan", "UpwardPrune"):
                ours, theirs = (
                    [
                        (r.input_size, r.output_size, r.index_lookups, r.index_entries)
                        for r in run.operator_stats
                        if r.op == op
                    ]
                    for run in (stats, expected)
                )
                assert len(ours) == 1 and ours == theirs
            assert stats.input_nodes == expected.input_nodes

    def test_stats_surface_parallel_counters(self):
        engine = GTEA(small_graph())
        with serial_executor(engine) as executor:
            _, stats = executor.execute(engine.compile(query_abc()))
        assert stats.parallel_workers == 3
        assert stats.parallel_shard_tasks > 0

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
        # No "z" roots exist: the scan operator's empty-root exit ends
        # the run before any prune is dispatched.
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
        assert [record.op for record in stats.operator_stats] == ["CandidateScan"]


class TestBrokenPool:
    @needs_fork
    def test_a_killed_worker_does_not_poison_the_session(self):
        rng = random.Random(7)
        graph = random_labeled_graph(60, rng)
        serial = QuerySession(graph, result_cache_size=0)
        options = ParallelOptions(workers=2, backend="process", min_shard_size=1)
        with QuerySession(graph, result_cache_size=0, parallel=options) as session:
            expected = serial.evaluate(query_abc())
            assert session.evaluate(query_abc()) == expected
            executor = session.parallel_executor()
            doomed = executor._pool
            os.kill(next(iter(doomed._processes)), signal.SIGKILL)
            for _ in range(3):
                answer, stats = session.evaluate_with_stats(query_abc())
                assert answer == expected
                assert stats.parallel_shard_tasks > 0
            # The broken pool was dropped and a later query forked anew.
            assert executor._pool is not None and executor._pool is not doomed

    @needs_fork
    def test_a_killed_worker_does_not_poison_the_batch_path(self):
        rng = random.Random(21)
        graph = random_labeled_graph(50, rng)
        batch = random_query_batch(graph, rng, batch_size=5, overlap=0.7)
        serial = QuerySession(graph, result_cache_size=0, subtree_cache_size=0)
        expected = serial.evaluate_many(batch)
        options = ParallelOptions(workers=2, backend="process", min_shard_size=1)
        with QuerySession(
            graph, result_cache_size=0, subtree_cache_size=0, parallel=options
        ) as session:
            assert session.evaluate_many(batch).results == expected.results
            (executor,) = session._parallel_pool.values()
            os.kill(next(iter(executor._pool._processes)), signal.SIGKILL)
            observed = session.evaluate_many(batch)
            assert observed.results == expected.results
            assert observed.stats.downward_prune_ops == expected.stats.downward_prune_ops

    @pytest.mark.parametrize("backend", ["serial", pytest.param("process", marks=needs_fork)])
    def test_task_exceptions_propagate_unchanged(self, backend, monkeypatch):
        def boom(*args):
            raise ZeroDivisionError("task failed")

        # Patched before the pool forks, so the workers inherit it.
        monkeypatch.setattr(parallel, "_run_shard", boom)
        engine = GTEA(small_graph())
        with ParallelExecutor(engine, 2, backend=backend, min_shard_size=1) as executor:
            with pytest.raises(ZeroDivisionError, match="task failed"):
                executor.execute(engine.compile(query_abc()))


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
        executor = ParallelExecutor(engine, 2, min_shard_size=1)
        executor.execute(engine.compile(query_abc()))
        assert (executor._pool is not None) == HAS_FORK
        executor.close()
        executor.close()
        assert executor._pool is None

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
        sharded = QuerySession(
            graph,
            parallel=ParallelOptions(workers=3, backend="serial", min_shard_size=1),
        )
        for query in queries:
            assert sharded.evaluate(query) == serial.evaluate(query)

    def test_batch_path_uses_the_parallel_frontier(self):
        rng = random.Random(21)
        graph = random_labeled_graph(50, rng)
        batch = random_query_batch(graph, rng, batch_size=5, overlap=0.7)
        # The sharded route keeps no subtree cache; compare cold work.
        serial = QuerySession(graph, result_cache_size=0, subtree_cache_size=0)
        sharded = QuerySession(
            graph,
            result_cache_size=0,
            parallel=ParallelOptions(workers=3, backend="serial", min_shard_size=1),
        )
        expected = serial.evaluate_many(batch)
        observed = sharded.evaluate_many(batch)
        assert observed.results == expected.results
        assert observed.stats.parallel_workers == 3
        assert observed.stats.parallel_shard_tasks > 0
        assert observed.stats.downward_prune_ops == expected.stats.downward_prune_ops
        assert observed.stats.input_nodes == expected.stats.input_nodes

    def test_batch_sharded_vs_single_shard_byte_identical(self):
        rng = random.Random(29)
        graph = random_labeled_graph(55, rng)
        batch = random_query_batch(graph, rng, batch_size=6, overlap=0.6)

        def run(workers):
            session = QuerySession(
                graph,
                result_cache_size=0,
                parallel=ParallelOptions(workers=workers, backend="serial", min_shard_size=1),
            )
            return session.evaluate_many(batch)

        single = run(1)
        sharded = run(3)
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
        assert "[parallel] downward prune sharded across 4 workers (serial backend)" in text
        # "auto" is printed resolved.
        auto = QuerySession(small_graph(), parallel=4).explain(query_abc())
        assert f"({'process' if HAS_FORK else 'serial'} backend)" in auto

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
