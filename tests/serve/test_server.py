"""The serving tier: one session behind a lock, snapshot pinning, and the TCP front."""

import asyncio
import functools
import inspect
import json
import pickle
import sys
import threading
import time

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
    query_to_json,
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


def run_switching_often(main):
    """``asyncio.run(main())`` with thread switches forced every microsecond."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        return asyncio.run(main())
    finally:
        sys.setswitchinterval(interval)


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
            server = QueryServer(graph)
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
            server = QueryServer(graph)
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
            server = QueryServer(graph)
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
            server = QueryServer(graph)
            await server.start()
            with pytest.raises((TypeError, ValueError, KeyError)):
                await server.submit(object())  # not a query in any accepted form
            # The lock was released: the server still serves.
            answer = await server.submit(serve_query())
            errors = server.stats.errors
            await server.stop()
            return answer, errors

        answer, errors = asyncio.run(run())
        assert errors == 1
        assert answer == evaluate_naive(serve_query(), graph)

    def test_errors_are_counted_on_the_loop_hit_path_too(self):
        graph = serve_graph()
        text = query_to_json(serve_query())

        async def run():
            server = QueryServer(graph)
            await server.start()
            await server.submit(text)
            await server.submit(text)  # a hit, answered on the loop
            with pytest.raises(TypeError):
                await server.submit(text, [["kid"]])  # unhashable group key
            with pytest.raises(ValueError, match="not outputs"):
                await server.submit(text, ["nope"])
            answer = await server.submit(text)
            summary = server.stats.summary()
            await server.stop()
            return answer, summary

        answer, summary = asyncio.run(run())
        assert answer == evaluate_naive(serve_query(), graph)
        assert (summary["requests"], summary["loop_hits"], summary["errors"]) == (3, 2, 2)

    def test_workers_are_default_sessions(self):
        assert list(inspect.signature(QueryServer).parameters) == ["graph", "workers", "store"]

    def test_stop_answers_or_refuses_every_request_in_flight(self, monkeypatch):
        """Two slow misses are queued, then stop(), then a third request:
        the two get their answers, the third a RuntimeError, and the
        event loop keeps running while stop() waits."""
        graph = serve_graph()
        queries = [serve_query("b"), serve_query("c"), serve_query("a")]
        evaluate = QuerySession.evaluate

        def slow(self, *args):
            time.sleep(0.3)
            return evaluate(self, *args)

        monkeypatch.setattr(QuerySession, "evaluate", slow)
        ticks = 0

        async def tick():
            nonlocal ticks
            while True:
                await asyncio.sleep(0.005)
                ticks += 1

        async def run():
            server = QueryServer(graph)
            await server.start()
            ticker = asyncio.create_task(tick())
            try:
                queued = [asyncio.create_task(server.submit(q)) for q in queries[:2]]
                await asyncio.sleep(0)  # both reach the lock first
                stopping = asyncio.create_task(server.stop())
                await asyncio.sleep(0)
                late = asyncio.create_task(server.submit(queries[2]))
                before = ticks
                answers = await asyncio.wait_for(asyncio.gather(*queued), 10)
                await asyncio.wait_for(stopping, 10)
                during = ticks - before
                with pytest.raises(RuntimeError):
                    await asyncio.wait_for(late, 10)
                with pytest.raises(RuntimeError):
                    await server.submit(queries[0])
            finally:
                ticker.cancel()
            return answers, during, server.stats.summary()

        answers, during, summary = asyncio.run(run())
        assert answers == [evaluate_naive(q, graph) for q in queries[:2]]
        assert during >= 10, f"the event loop ticked {during} times while stop() waited"
        assert (summary["requests"], summary["errors"]) == (2, 0)

    def test_a_cancelled_miss_keeps_the_lock_until_its_thread_returns(self, monkeypatch):
        """A request timed out while its 0.3 s miss runs in the thread: the
        next request's lookup() starts only after that miss returns, and
        a stop() behind a cancelled miss waits without blocking the loop."""
        graph = serve_graph()
        queries = [serve_query("b"), serve_query("c"), serve_query("a")]
        evaluate, lookup = QuerySession.evaluate, QuerySession.lookup
        stamps: list[tuple[str, float]] = []

        def slow(self, *args):
            stamps.append(("enter", time.perf_counter()))
            time.sleep(0.3)
            try:
                return evaluate(self, *args)
            finally:
                stamps.append(("exit", time.perf_counter()))

        def stamped_lookup(self, *args):
            stamps.append(("lookup", time.perf_counter()))
            return lookup(self, *args)

        monkeypatch.setattr(QuerySession, "evaluate", slow)
        monkeypatch.setattr(QuerySession, "lookup", stamped_lookup)
        ticks = 0

        async def tick():
            nonlocal ticks
            while True:
                await asyncio.sleep(0.005)
                ticks += 1

        async def entered(count):
            while sum(kind == "enter" for kind, _ in stamps) < count:
                await asyncio.sleep(0.001)

        async def run():
            server = QueryServer(graph)
            await server.start()
            ticker = asyncio.create_task(tick())
            try:
                timed_out = asyncio.create_task(asyncio.wait_for(server.submit(queries[0]), 0.05))
                await entered(1)
                follower = asyncio.create_task(server.submit(queries[1]))
                with pytest.raises(asyncio.TimeoutError):
                    await timed_out
                answer = await asyncio.wait_for(follower, 10)
                cancelled = asyncio.create_task(server.submit(queries[2]))
                await entered(3)
                cancelled.cancel()
                await asyncio.sleep(0)
                before = ticks
                await asyncio.wait_for(server.stop(), 10)
                during = ticks - before
                with pytest.raises(asyncio.CancelledError):
                    await cancelled
            finally:
                ticker.cancel()
            return answer, during

        answer, during = asyncio.run(run())
        assert answer == evaluate_naive(queries[1], graph)
        kinds = [kind for kind, _ in stamps]
        assert kinds == ["lookup", "enter", "exit"] * 3
        orphan_exit, follower_lookup = stamps[2][1], stamps[3][1]
        assert follower_lookup >= orphan_exit, "a request read the session while a miss ran"
        assert during >= 10, f"the event loop ticked {during} times while stop() waited"

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
            server = QueryServer(graph, store=tmp_path / "store")
            await server.start()
            answer = await server.submit(query)
            server.persist()
            await server.stop()
            return answer

        answer = asyncio.run(warm())

        async def restarted():
            server = QueryServer(graph, store=tmp_path / "store")
            await server.start()
            rehydrated = sum(server.session.store_rehydrated.values())
            again = await server.submit(query)
            await server.stop()
            return rehydrated, again

        rehydrated, again = asyncio.run(restarted())
        assert again == answer
        assert rehydrated > 0, "the session should start warm from the store"

    def test_failed_start_leaks_no_thread_pool(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise RuntimeError("no session today")

        monkeypatch.setattr("repro.serve.server.QuerySession", refuse)
        server = QueryServer(serve_graph())

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


def started_session(server):
    """Start ``server``, stop it, and return the session it served with."""

    async def run():
        await server.start()
        await server.stop()
        return server.session

    return asyncio.run(run())


class TestWarmOnce:
    """The session reads the store once per start, whatever ``workers`` says."""

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_one_fingerprint_and_one_read_per_kind_per_start(self, workers, tmp_path, monkeypatch):
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

        session = started_session(server)
        assert store.counters.hits == len(present)
        assert store.counters.hits + store.counters.misses == len(ARTIFACT_KINDS)
        assert len(walks) == 1
        assert session.store is store
        assert session.store_fingerprint == graph_fingerprint(graph)
        assert sum(session.store_rehydrated.values()) > 0

    def test_concurrent_hit_and_miss_on_every_worker_match_the_oracle(self, tmp_path, monkeypatch):
        """Four clients (more than the cores CI has) send the store-primed
        query and a fresh one at once, with thread switches forced often
        and no result cache, so every request executes a plan: every
        answer stays the oracle's."""
        graph = serve_graph()
        store = primed_store(graph, tmp_path / "store")
        hit, miss = serve_query("b"), serve_query("c")
        monkeypatch.setattr(
            "repro.serve.server.QuerySession",
            functools.partial(QuerySession, result_cache_size=0),
        )
        server = QueryServer(graph, store=store)

        async def client():
            return [(await server.submit(hit), await server.submit(miss)) for _ in range(20)]

        async def run():
            await server.start()
            try:
                return await asyncio.wait_for(
                    asyncio.gather(*[client() for _ in range(4)]), timeout=60
                )
            finally:
                await server.stop()

        per_client = run_switching_often(run)
        expected = (evaluate_naive(hit, graph), evaluate_naive(miss, graph))
        assert per_client == [[expected] * 20] * 4
        assert server.stats.requests == 160 and server.stats.loop_hits == 0
        assert server.session.cache_info()["plan"]["hits"] >= 80

    def test_running_a_shared_plan_leaves_it_byte_identical(self, tmp_path, monkeypatch):
        """Concurrent requests execute the store-primed plan over and over
        (no result cache), thread switches forced often: the plan in the
        cache stays the same object, byte for byte."""
        graph = serve_graph()
        store = primed_store(graph, tmp_path / "store")
        query = serve_query("b")
        monkeypatch.setattr(
            "repro.serve.server.QuerySession",
            functools.partial(QuerySession, result_cache_size=0),
        )
        server = QueryServer(graph, store=store)
        fingerprint = query_fingerprint(query)

        async def run():
            await server.start()
            try:
                plan = server.session.plan_cache.peek(fingerprint)
                assert plan is not None
                before = pickle.dumps(plan)
                answers = await asyncio.wait_for(
                    asyncio.gather(*[server.submit(query_to_dict(query)) for _ in range(24)]),
                    timeout=60,
                )
                assert server.session.plan_cache.peek(fingerprint) is plan
                return answers, before, pickle.dumps(plan)
            finally:
                await server.stop()

        answers, before, after = run_switching_often(run)
        assert answers == [evaluate_naive(query, graph)] * 24
        assert after == before


class TestTcpFront:
    def test_round_trip_and_deterministic_rendering(self):
        graph = serve_graph()
        query = serve_query()
        expected = evaluate_naive(query, graph)

        async def run():
            server = QueryServer(graph)
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
            server = QueryServer(graph)
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

    def test_group_nodes_must_be_a_list_of_output_ids(self):
        graph = serve_graph()
        query = query_to_dict(serve_query())
        requests = [
            {"query": query, "group_nodes": "kid"},  # not a list
            {"query": query, "group_nodes": {"kid": 1}},
            {"query": query, "group_nodes": ["nope"]},  # not an output
            {"query": query, "group_nodes": ["kid"]},
        ]

        async def run():
            server = QueryServer(graph)
            tcp = await serve_tcp(server, host="127.0.0.1", port=0)
            port = tcp.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            responses = []
            for request in requests:
                writer.write((json.dumps(request) + "\n").encode())
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
        assert [reply["ok"] for reply in bad] == [False] * 3
        assert "must be a list" in bad[0]["error"] and "must be a list" in bad[1]["error"]
        assert "not outputs" in bad[2]["error"]
        roots = {root for root, _ in evaluate_naive(serve_query(), graph)}
        assert good["ok"] and good["count"] == len(roots)  # one row per grouped root
        assert (summary["errors"], summary["requests"]) == (3, 1)

    def test_oversized_request_line_gets_a_reply_and_only_its_connection_closes(self):
        graph = serve_graph()
        query = serve_query()
        request = (json.dumps({"query": query_to_dict(query)}) + "\n").encode()

        async def run():
            server = QueryServer(graph)
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


def grouped_rows(rows):
    """Flatten ``group_nodes=("kid",)`` rows back to ``(root, kid)`` tuples."""
    return {(root, dict(item)["kid"]) for root, group in rows for item in group}


class TestLoopHits:
    """A result-cache hit is answered on the event loop; the rest runs in
    the thread pool, with the same bookkeeping as ``evaluate``."""

    def test_one_hit_path_keeps_evaluates_bookkeeping(self, monkeypatch):
        graph = serve_graph()
        unsat = (
            QueryBuilder()
            .backbone("root", predicate=AttributePredicate.label("a"))
            .predicate("p", parent="root", predicate=AttributePredicate.label("b"))
            .structural("root", "p & !p")
            .outputs("root")
            .build()
        )
        queries = {"a": serve_query("a"), "b": serve_query("b"), "c": serve_query("c")}
        queries["unsat"] = unsat
        texts = {name: query_to_json(query) for name, query in queries.items()}
        # Hits, misses, a constant-empty answer, a grouped request and
        # repeats of answers the three-entry result cache evicted.
        stream = [
            ("b", ()), ("c", ()), ("unsat", ()), ("b", ()), ("unsat", ()),
            ("b", ("kid",)), ("b", ("kid",)), ("c", ()), ("a", ()), ("b", ()),
            ("b", ()), ("c", ()), ("b", ("kid",)), ("a", ()),
        ]  # fmt: skip
        sizes = {"plan_cache_size": 2, "result_cache_size": 3}
        monkeypatch.setattr(
            "repro.serve.server.QuerySession", functools.partial(QuerySession, **sizes)
        )
        server = QueryServer(graph)

        async def run():
            await server.start()
            answers = [await server.submit(texts[name], group) for name, group in stream]
            worker = server.session
            await server.stop()
            return worker, answers

        worker, answers = asyncio.run(run())
        replay = QuerySession(graph, **sizes)
        replayed = [replay.evaluate(texts[name], group) for name, group in stream]
        assert answers == replayed
        for (name, group), answer in zip(stream, answers):
            expected = evaluate_naive(queries[name], graph)
            assert (grouped_rows(answer) if group else answer) == expected
        assert worker.cache_info() == replay.cache_info()
        for cache in ("plan_cache", "alias_cache", "result_cache"):
            assert [key for key, _ in getattr(worker, cache).items()] == [
                key for key, _ in getattr(replay, cache).items()
            ]
        info = worker.cache_info()
        assert all(info[row]["evictions"] > 0 for row in ("plan", "alias", "result"))
        # Every request here is JSON text, so every result hit was a loop hit.
        assert server.stats.loop_hits == info["result"]["hits"] > 0
        assert server.stats.requests == len(stream)

    def test_hits_run_on_the_loop_and_the_rest_in_the_pool(self, tmp_path, monkeypatch):
        graph = serve_graph()
        hot, cold = serve_query("b"), serve_query("c")
        hot_text, cold_text = query_to_json(hot), query_to_json(cold)
        primer = QuerySession(graph, store=tmp_path / "store")
        primer.evaluate(hot_text)
        primer.persist()
        threads = {"_execute_plan": [], "_drop_versioned": []}
        for name, idents in threads.items():
            original = getattr(QuerySession, name)

            def recorded(self, *args, _original=original, _idents=idents):
                _idents.append(threading.get_ident())
                return _original(self, *args)

            monkeypatch.setattr(QuerySession, name, recorded)
        server = QueryServer(graph, store=tmp_path / "store")

        async def run():
            await server.start()
            loop_thread = threading.get_ident()
            submitted = []
            submit = server._executor.submit

            def counted(fn, *args, **kwargs):
                submitted.append(fn)
                return submit(fn, *args, **kwargs)

            server._executor.submit = counted
            try:
                # The primed text, again and again: answered on the loop.
                for _ in range(4):
                    assert await server.submit(hot_text) == evaluate_naive(hot, graph)
                assert (submitted, server.stats.loop_hits) == ([], 4)
                assert threads["_execute_plan"] == []
                # A miss, then the cached query as a dict and a GTPQ: pool.
                assert await server.submit(cold_text) == evaluate_naive(cold, graph)
                assert await server.submit(query_to_dict(hot)) == evaluate_naive(hot, graph)
                assert await server.submit(hot) == evaluate_naive(hot, graph)
                assert len(submitted) == 3 and server.stats.loop_hits == 4
                # After a mutation and a re-pin, the first request drops
                # the stale caches in the pool; the next one is a hit.
                graph.add_edge(graph.add_node(label="a"), 2)  # a new root over a 'b'
                await server.refresh()
                before = len(submitted)
                for _ in range(2):
                    assert await server.submit(hot_text) == evaluate_naive(hot, graph)
                assert len(submitted) == before + 1 and server.stats.loop_hits == 5
                for _ in range(2):
                    assert await server.submit(hot_text) == evaluate_naive(hot, graph)
                assert len(submitted) == before + 1 and server.stats.loop_hits == 7
            finally:
                await server.stop()
            return loop_thread

        loop_thread = asyncio.run(run())
        assert threads["_execute_plan"] and threads["_drop_versioned"]
        for idents in threads.values():
            assert loop_thread not in idents

    def test_a_restarted_server_answers_every_primed_text_on_the_loop(self, tmp_path):
        """The aliases persist with the answers: the first request for each
        primed text is a loop hit, whatever the plans."""
        graph = serve_graph()
        queries = [serve_query(label) for label in "abc"]
        texts = [query_to_json(query) for query in queries]
        primer = QuerySession(graph, store=tmp_path / "store", plan_cache_size=1)
        for text in texts:
            primer.evaluate(text)
        assert primer.persist()["aliases"] == len(texts)
        server = QueryServer(graph, store=tmp_path / "store")

        async def run():
            await server.start()
            try:
                return [await server.submit(text) for text in texts]
            finally:
                await server.stop()

        assert asyncio.run(run()) == [evaluate_naive(query, graph) for query in queries]
        assert server.stats.loop_hits == server.stats.requests == len(texts)

    def test_a_concurrent_burst_keeps_every_count(self):
        """120 concurrent requests, thread switches forced often: hits on
        the loop and misses in the pool keep the counts consistent."""
        graph = serve_graph()
        queries = [serve_query(label) for label in "abc"]
        requests = [
            (query_to_json(queries[i % 3]), ("kid",) if i % 4 == 0 else ()) for i in range(120)
        ]
        server = QueryServer(graph)

        async def run():
            await server.start()
            try:
                return await asyncio.wait_for(
                    asyncio.gather(*[server.submit(text, group) for text, group in requests]),
                    timeout=60,
                )
            finally:
                await server.stop()

        answers = run_switching_often(run)
        for i, ((_, group), answer) in enumerate(zip(requests, answers)):
            expected = evaluate_naive(queries[i % 3], graph)
            assert (grouped_rows(answer) if group else answer) == expected
        info = server.session.cache_info()["result"]
        assert server.stats.requests == len(requests) and server.stats.errors == 0
        assert server.stats.loop_hits == info["hits"] > 0
        assert info["misses"] == len(requests) - server.stats.loop_hits


class TestRefreshCheckpoint:
    def test_refresh_persists_drained_state_to_the_store(self, tmp_path):
        """A quiescent refresh checkpoints the session's learned state — a
        later cold server starts warm without anyone ever calling
        persist() explicitly."""
        graph = serve_graph()
        query = serve_query()
        store = tmp_path / "store"

        async def serve_and_refresh():
            server = QueryServer(graph, store=store)
            await server.start()
            answer = await server.submit(query)
            await server.refresh()  # no mutation: acts as a checkpoint
            await server.stop()
            return answer

        answer = asyncio.run(serve_and_refresh())

        async def restarted():
            server = QueryServer(graph, store=store)
            await server.start()
            rehydrated = sum(server.session.store_rehydrated.values())
            again = await server.submit(query)
            await server.stop()
            return rehydrated, again

        rehydrated, again = asyncio.run(restarted())
        assert rehydrated > 0
        assert again == answer

    def test_refresh_without_a_store_still_repins(self):
        graph = serve_graph()

        async def run():
            server = QueryServer(graph)
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
            server = QueryServer(graph, store=store)
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
