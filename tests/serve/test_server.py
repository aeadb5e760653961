"""The serving tier: worker pool, snapshot pinning, and the TCP front."""

import asyncio
import inspect
import json
import pickle
import sys
import threading

import pytest

from repro.engine import QuerySession
from repro.engine.artifacts import ARTIFACT_KINDS
from repro.graph import DataGraph
from repro.query import (
    AttributePredicate,
    QueryBuilder,
    evaluate_naive,
    query_fingerprint,
    query_to_dict,
)
from repro.serve import (
    QueryServer,
    ServerStats,
    StaleSnapshotError,
    percentile,
    serve_tcp,
)
from repro.serve.server import LATENCY_WINDOW, MAX_REQUEST_LINE
from repro.store import ArtifactStore, graph_fingerprint


def serve_graph():
    return DataGraph.from_edges("aabbcc", [(0, 2), (0, 3), (1, 3), (2, 4), (3, 5), (1, 2)])


def serve_query(child_label="b"):
    return (
        QueryBuilder()
        .backbone("root", predicate=AttributePredicate.label("a"))
        .backbone("kid", parent="root", predicate=AttributePredicate.label(child_label))
        .outputs("root", "kid")
        .build()
    )


class TestPercentile:
    def test_empty_samples_are_zero(self):
        assert percentile([], 99) == 0.0

    def test_single_sample_is_every_percentile(self):
        assert percentile([7.0], 50) == 7.0
        assert percentile([7.0], 99) == 7.0

    def test_nearest_rank_on_ten_samples(self):
        samples = [float(i) for i in range(1, 11)]
        assert percentile(samples, 50) == 5.0
        assert percentile(samples, 99) == 10.0
        assert percentile(samples, 100) == 10.0

    def test_order_independent(self):
        assert percentile([3.0, 1.0, 2.0], 50) == percentile([1.0, 2.0, 3.0], 50)


class TestServerStats:
    def test_latencies_are_a_fixed_window(self):
        stats = ServerStats()
        for sample in range(LATENCY_WINDOW + 500):
            stats.latencies.append(float(sample))
        assert len(stats.latencies) == LATENCY_WINDOW
        # The summary describes the window: the oldest 500 are gone.
        assert min(stats.latencies) == 500.0
        summary = stats.summary()
        assert summary["p99_ms"] > summary["p50_ms"] > 500.0 * 1000


class TestQueryServer:
    def test_submit_matches_direct_session_and_oracle(self):
        graph = serve_graph()
        query = serve_query()
        expected = QuerySession(graph).evaluate(query)
        assert expected == evaluate_naive(query, graph)

        async def run():
            server = QueryServer(graph, workers=2)
            await server.start()
            try:
                return await server.submit(query)
            finally:
                await server.stop()

        assert asyncio.run(run()) == expected

    def test_concurrent_burst_counts_every_request(self):
        graph = serve_graph()
        queries = [serve_query("b"), serve_query("c")]

        async def run():
            server = QueryServer(graph, workers=3)
            await server.start()
            answers = await asyncio.gather(*[server.submit(queries[i % 2]) for i in range(12)])
            summary = server.stats.summary()
            await server.stop()
            return answers, summary

        answers, summary = asyncio.run(run())
        assert summary["requests"] == 12 and summary["errors"] == 0
        for i, answer in enumerate(answers):
            assert answer == evaluate_naive(queries[i % 2], graph)

    def test_mutation_rejects_until_refresh(self):
        graph = serve_graph()
        query = serve_query()

        async def run():
            server = QueryServer(graph, workers=2)
            await server.start()
            before = await server.submit(query)
            graph.add_node(label="a")  # bumps graph.version under the server
            with pytest.raises(StaleSnapshotError):
                await server.submit(query)
            await server.refresh()
            after = await server.submit(query)
            stats = server.stats.summary()
            await server.stop()
            return before, after, stats

        before, after, stats = asyncio.run(run())
        assert stats["stale_rejections"] == 1
        assert after == evaluate_naive(query, graph)
        assert before <= after  # new 'a' node can only add matches

    def test_evaluation_errors_are_counted_and_reraised(self):
        graph = serve_graph()

        async def run():
            server = QueryServer(graph, workers=1)
            await server.start()
            with pytest.raises((TypeError, ValueError, KeyError)):
                await server.submit(object())  # not a query in any accepted form
            # The worker went back to the pool: the server still serves.
            answer = await server.submit(serve_query())
            errors = server.stats.errors
            await server.stop()
            return answer, errors

        answer, errors = asyncio.run(run())
        assert errors == 1
        assert answer == evaluate_naive(serve_query(), graph)

    def test_workers_are_default_sessions(self):
        assert list(inspect.signature(QueryServer).parameters) == ["graph", "workers", "store"]

    def test_submit_before_start_raises(self):
        async def run():
            await QueryServer(serve_graph()).submit(serve_query())

        with pytest.raises(RuntimeError):
            asyncio.run(run())

    def test_persist_requires_a_store(self):
        async def run():
            server = QueryServer(serve_graph())
            await server.start()
            try:
                with pytest.raises(ValueError):
                    server.persist()
            finally:
                await server.stop()

        asyncio.run(run())

    def test_workers_share_the_store_and_persist_round_trips(self, tmp_path):
        graph = serve_graph()
        query = serve_query()

        async def warm():
            server = QueryServer(graph, workers=2, store=tmp_path / "store")
            await server.start()
            answer = await server.submit(query)
            server.persist()
            await server.stop()
            return answer

        answer = asyncio.run(warm())

        async def restarted():
            server = QueryServer(graph, workers=2, store=tmp_path / "store")
            await server.start()
            rehydrated = [
                sum(session.store_rehydrated.values())
                for session in server._sessions
            ]
            again = await server.submit(query)
            await server.stop()
            return rehydrated, again

        rehydrated, again = asyncio.run(restarted())
        assert again == answer
        assert all(count > 0 for count in rehydrated), (
            "every worker should start warm: the first from the store, the rest from its caches"
        )

    def test_failed_start_leaks_no_thread_pool(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise RuntimeError("no session today")

        monkeypatch.setattr("repro.serve.server.QuerySession", refuse)
        server = QueryServer(serve_graph(), workers=2)

        async def run():
            for _ in range(2):
                with pytest.raises(RuntimeError, match="no session today"):
                    await server.start()

        asyncio.run(run())
        assert not server.started and server._executor is None
        assert not [t for t in threading.enumerate() if t.name.startswith("repro-serve")]


def primed_store(graph, root):
    """A store primed with ``serve_query("b")`` by one session."""
    session = QuerySession(graph, store=root)
    session.evaluate(serve_query("b"))
    session.persist()
    return ArtifactStore(root)


def started_sessions(server):
    """Start ``server``, stop it, and return the workers it built."""

    async def run():
        await server.start()
        sessions = list(server._sessions)
        await server.stop()
        return sessions

    return asyncio.run(run())


def kind_sizes(session):
    info = session.cache_info()
    return {kind.info: info[kind.info]["size"] for kind in ARTIFACT_KINDS}


class TestWarmOnce:
    """Worker 0 reads the store; workers 1..N-1 are its replicas."""

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_one_fingerprint_and_one_read_per_kind_per_start(
        self, workers, tmp_path, monkeypatch
    ):
        graph = serve_graph()
        store = primed_store(graph, tmp_path / "store")
        present = store.kinds(graph_fingerprint(graph))
        assert {"plans", "candidates", "results"} <= set(present)
        walks = []

        def counted(walked):
            walks.append(walked)
            return graph_fingerprint(walked)

        monkeypatch.setattr("repro.engine.session.graph_fingerprint", counted)
        server = QueryServer(graph, workers=workers, store=store)

        sessions = started_sessions(server)
        assert store.counters.hits == len(present)
        assert store.counters.hits + store.counters.misses == len(ARTIFACT_KINDS)
        assert len(walks) == 1
        first = sessions[0]
        for session in sessions:
            assert sum(session.store_rehydrated.values()) > 0
            assert session.store_rehydrated == first.store_rehydrated
            assert session.store is store
            assert session.store_fingerprint == first.store_fingerprint
            assert kind_sizes(session) == kind_sizes(first)

    def test_replica_caches_are_private(self, tmp_path):
        graph = serve_graph()
        store = primed_store(graph, tmp_path / "store")
        server = QueryServer(graph, workers=3, store=store)

        sessions = started_sessions(server)
        for writer in sessions:
            for kind in ARTIFACT_KINDS:
                key = ("written-by", id(writer), kind.name)
                getattr(writer, kind.attr).put(key, frozenset())
                for reader in sessions:
                    cache = getattr(reader, kind.attr)
                    assert (key in cache) == (reader is writer)

    def test_replicas_share_values_in_the_same_recency_order(self, tmp_path):
        graph = serve_graph()
        store = primed_store(graph, tmp_path / "store")
        first = QuerySession(graph, store=store, codegen="auto")
        first.evaluate(serve_query("c"))
        twin = first.replica()
        assert twin.codegen == first.codegen and twin.default_index == first.default_index
        for kind in ARTIFACT_KINDS:
            mine, theirs = getattr(first, kind.attr), getattr(twin, kind.attr)
            assert theirs is not mine and theirs.capacity == mine.capacity
            assert [key for key, _ in theirs.items()] == [key for key, _ in mine.items()]
            assert all(a is b for (_, a), (_, b) in zip(theirs.items(), mine.items()))
            assert theirs.counters.hits == theirs.counters.misses == 0
        # Compiled functions are no artifact kind: a replica compiles its own.
        assert len(first.codegen_cache) == 1 and len(twin.codegen_cache) == 0

    def test_concurrent_hit_and_miss_on_every_worker_match_the_oracle(self, tmp_path):
        """Four worker threads (more than the cores CI has) run the shared
        primed plan and a fresh one at once, with thread switches forced
        often: every answer stays the oracle's."""
        graph = serve_graph()
        store = primed_store(graph, tmp_path / "store")
        hit, miss = serve_query("b"), serve_query("c")
        server = QueryServer(graph, workers=4, store=store)

        async def run():
            await server.start()
            loop = asyncio.get_running_loop()

            def rounds(session):
                answers = []
                for _ in range(20):
                    answers.append((session.evaluate(hit), session.evaluate(miss)))
                    session.result_cache.clear()  # the next round executes again
                return answers

            try:
                return await asyncio.wait_for(
                    asyncio.gather(
                        *[loop.run_in_executor(server._executor, rounds, s) for s in server._sessions]
                    ),
                    timeout=60,
                )
            finally:
                await server.stop()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            per_worker = asyncio.run(run())
        finally:
            sys.setswitchinterval(interval)
        expected = (evaluate_naive(hit, graph), evaluate_naive(miss, graph))
        assert per_worker == [[expected] * 20] * 4

    def test_running_a_shared_plan_leaves_it_byte_identical(self, tmp_path):
        graph = serve_graph()
        store = primed_store(graph, tmp_path / "store")
        query = serve_query("b")
        server = QueryServer(graph, workers=3, store=store)

        async def run():
            await server.start()
            fingerprint = query_fingerprint(query)
            plans = [session.plan_cache.peek(fingerprint) for session in server._sessions]
            assert plans[0] is not None and all(plan is plans[0] for plan in plans)
            before = pickle.dumps(plans[0])
            loop = asyncio.get_running_loop()
            for session in server._sessions:
                session.result_cache.clear()  # make the worker execute the plan
                answer = await loop.run_in_executor(server._executor, session.evaluate, query)
                assert answer == evaluate_naive(query, graph)
                assert pickle.dumps(plans[0]) == before
            await server.stop()

        asyncio.run(run())


class TestTcpFront:
    def test_round_trip_and_deterministic_rendering(self):
        graph = serve_graph()
        query = serve_query()
        expected = evaluate_naive(query, graph)

        async def run():
            server = QueryServer(graph, workers=2)
            tcp = await serve_tcp(server, host="127.0.0.1", port=0)
            port = tcp.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            responses = []
            for _ in range(2):  # same query twice: rendering must be stable
                writer.write((json.dumps({"query": query_to_dict(query)}) + "\n").encode())
                await writer.drain()
                responses.append(json.loads(await reader.readline()))
            writer.write(b'{"query": 17}\n')  # invalid → error response
            await writer.drain()
            responses.append(json.loads(await reader.readline()))
            writer.close()
            tcp.close()
            await tcp.wait_closed()
            await server.stop()
            return responses, server.stats.errors

        (first, second, bad), errors = asyncio.run(run())
        assert first["ok"] and first["count"] == len(expected)
        assert first == second, "identical answers must render byte-identically"
        assert not bad["ok"] and "error" in bad
        assert errors == 1, "an evaluation error is counted once"

    def test_malformed_request_lines_are_counted_once_each(self):
        graph = serve_graph()
        query = serve_query()
        lines = [b"not json\n", b'{"group_nodes": []}\n', b'[{"query": 1}]\n']

        async def run():
            server = QueryServer(graph, workers=1)
            tcp = await serve_tcp(server, host="127.0.0.1", port=0)
            port = tcp.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            responses = []
            for line in [*lines, (json.dumps({"query": query_to_dict(query)}) + "\n").encode()]:
                writer.write(line)
                await writer.drain()
                responses.append(json.loads(await asyncio.wait_for(reader.readline(), 10)))
            writer.close()
            await writer.wait_closed()
            tcp.close()
            await tcp.wait_closed()
            await server.stop()
            return responses, server.stats.summary()

        responses, summary = asyncio.run(run())
        *bad, good = responses
        assert [(reply["ok"], "error" in reply) for reply in bad] == [(False, True)] * 3
        assert good["ok"] and good["count"] == len(evaluate_naive(query, graph))
        assert (summary["errors"], summary["requests"], summary["stale_rejections"]) == (3, 1, 0)

    def test_oversized_request_line_gets_a_reply_and_only_its_connection_closes(self):
        graph = serve_graph()
        query = serve_query()
        request = (json.dumps({"query": query_to_dict(query)}) + "\n").encode()

        async def run():
            server = QueryServer(graph, workers=1)
            tcp = await serve_tcp(server, host="127.0.0.1", port=0)
            port = tcp.sockets[0].getsockname()[1]
            bystander_reader, bystander = await asyncio.open_connection("127.0.0.1", port)
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(b"x" * 70_000 + b"\n")
            await writer.drain()
            refused = json.loads(await asyncio.wait_for(reader.readline(), 10))
            closed = await asyncio.wait_for(reader.read(), 10)
            writer.close()
            await writer.wait_closed()
            # The server, its open connections and new ones keep serving.
            answers = []
            bystander.write(request)
            await bystander.drain()
            answers.append(json.loads(await bystander_reader.readline()))
            bystander.close()
            await bystander.wait_closed()
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(request)
            await writer.drain()
            answers.append(json.loads(await reader.readline()))
            writer.close()
            await writer.wait_closed()
            errors = server.stats.errors
            tcp.close()
            await tcp.wait_closed()
            await server.stop()
            return refused, closed, answers, errors

        refused, closed, answers, errors = asyncio.run(run())
        assert refused == {"ok": False, "error": f"request line exceeds {MAX_REQUEST_LINE} bytes"}
        assert closed == b"", "the offending connection is closed after the reply"
        assert errors == 1
        expected = len(evaluate_naive(query, graph))
        assert [(a["ok"], a["count"]) for a in answers] == [(True, expected)] * 2


class TestRefreshCheckpoint:
    def test_refresh_persists_drained_state_to_the_store(self, tmp_path):
        """A quiescent refresh checkpoints the warmest worker's learned
        state — a later cold server starts warm without anyone ever
        calling persist() explicitly."""
        graph = serve_graph()
        query = serve_query()
        store = tmp_path / "store"

        async def serve_and_refresh():
            server = QueryServer(graph, workers=2, store=store)
            await server.start()
            answer = await server.submit(query)
            await server.refresh()  # no mutation: acts as a checkpoint
            await server.stop()
            return answer

        answer = asyncio.run(serve_and_refresh())

        async def restarted():
            server = QueryServer(graph, workers=1, store=store)
            await server.start()
            rehydrated = sum(server._sessions[0].store_rehydrated.values())
            again = await server.submit(query)
            await server.stop()
            return rehydrated, again

        rehydrated, again = asyncio.run(restarted())
        assert rehydrated > 0
        assert again == answer

    def test_refresh_without_a_store_still_repins(self):
        graph = serve_graph()

        async def run():
            server = QueryServer(graph, workers=1)
            await server.start()
            graph.add_node(label="a")
            await server.refresh()
            answer = await server.submit(serve_query())
            await server.stop()
            return answer

        assert asyncio.run(run()) == evaluate_naive(serve_query(), graph)

    def test_post_mutation_refresh_never_publishes_stale_artifacts(self, tmp_path):
        """persist() inside refresh() keys by the *mutated* content; the
        stale pre-mutation caches are dropped, not published."""
        from repro.store import ArtifactStore, graph_fingerprint

        graph = serve_graph()
        query = serve_query()
        store = ArtifactStore(tmp_path / "store")

        async def run():
            server = QueryServer(graph, workers=1, store=store)
            await server.start()
            await server.submit(query)
            stale_fingerprint = graph_fingerprint(graph)
            graph.add_node(label="c")
            await server.refresh()
            await server.submit(query)
            await server.refresh()
            await server.stop()
            return stale_fingerprint

        stale_fingerprint = asyncio.run(run())
        fresh_fingerprint = graph_fingerprint(graph)
        assert store.kinds(fresh_fingerprint), "checkpoint must land under the new key"
        assert stale_fingerprint != fresh_fingerprint
