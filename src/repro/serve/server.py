"""Query serving: one warmed session behind an asyncio front.

See the package docstring for the model.  A request holds the server's
:class:`asyncio.Lock` from its cache probe to its answer, so the one
:class:`QuerySession` needs no locks of its own.  A result-cache hit is
answered on the event loop (:meth:`QuerySession.lookup`: a hash of the
text and two dict probes — text → fingerprint in the alias cache, then
the answer in the result cache — no parse, and no plan read unless group
nodes are asked); a miss runs in the server's one thread, so a slow
query never blocks the loop from accepting requests.
"""

from __future__ import annotations

import asyncio
import json
import os
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Sequence

from ..engine.session import QuerySession
from ..graph.digraph import DataGraph
from ..store import ArtifactStore


#: per-request latencies :class:`ServerStats` keeps — a fixed window, so
#: a long-lived server's memory and its ``summary()`` sort stay bounded.
LATENCY_WINDOW = 4096

#: longest request line the TCP front accepts, in bytes (asyncio's
#: default ``StreamReader`` limit, made explicit).
MAX_REQUEST_LINE = 2**16


class StaleSnapshotError(RuntimeError):
    """The graph mutated after the server pinned its snapshot.

    Raised by :meth:`QueryServer.submit` instead of answering from a
    version the server never pinned.  Call :meth:`QueryServer.refresh`
    to quiesce and re-pin.
    """


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of ``samples`` (``q`` in [0, 100]).

    Returns 0.0 on an empty sample set — latency reports stay
    schema-stable even before the first request lands.
    """
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * q // 100))  # ceil without math import
    return ordered[min(int(rank), len(ordered)) - 1]


class ServerStats:
    """Request accounting of one :class:`QueryServer`."""

    __slots__ = ("requests", "loop_hits", "errors", "stale_rejections", "latencies")

    def __init__(self):
        self.requests = 0
        #: requests answered on the event loop (result-cache hits); the
        #: rest of ``requests`` ran in the server's thread.
        self.loop_hits = 0
        self.errors = 0
        self.stale_rejections = 0
        #: wall seconds (lock wait + evaluation) of the most recent
        #: :data:`LATENCY_WINDOW` requests; the percentiles of
        #: :meth:`summary` describe this window.
        self.latencies: deque[float] = deque(maxlen=LATENCY_WINDOW)

    def summary(self) -> dict[str, float]:
        return {
            "requests": self.requests,
            "loop_hits": self.loop_hits,
            "errors": self.errors,
            "stale_rejections": self.stale_rejections,
            "p50_ms": round(percentile(self.latencies, 50) * 1000, 3),
            "p99_ms": round(percentile(self.latencies, 99) * 1000, 3),
        }


class QueryServer:
    """One warmed :class:`QuerySession` behind an asyncio front.

    Args:
        graph: the data graph to serve.
        workers: accepted and ignored (one session serves every
            request); removed with ROADMAP item 1.
        store: warm store — an :class:`~repro.store.ArtifactStore`, a
            directory path, or ``None`` for a purely in-memory session.
            The session reads it at :meth:`start`.

    The session is a default one: ``index="auto"``.
    Requests, :meth:`refresh` and :meth:`stop` take turns on it through
    one :class:`asyncio.Lock`, first come first served.

    Usage::

        server = QueryServer(graph, store="warm/")
        await server.start()
        results = await server.submit(query)
        await server.stop()
    """

    def __init__(
        self,
        graph: DataGraph,
        *,
        workers: int = 1,
        store: ArtifactStore | str | os.PathLike | None = None,
    ):
        self.graph = graph
        if store is None or isinstance(store, ArtifactStore):
            self.store = store
        else:
            self.store = ArtifactStore(store)
        self.stats = ServerStats()
        #: the served session; after :meth:`stop`, the one that served.
        self.session: QuerySession | None = None
        self._lock: asyncio.Lock | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._pinned_version: int | None = None

    # ------------------------------------------------------------------
    @property
    def started(self) -> bool:
        return self._lock is not None

    async def start(self) -> None:
        """Build and warm the session; pins the graph snapshot."""
        if self.started:
            return
        loop = asyncio.get_running_loop()
        executor = ThreadPoolExecutor(max_workers=1, thread_name_prefix="repro-serve")
        # The session builds off the event loop so a slow cold start does
        # not freeze an already-accepting front.
        try:
            self.session = await loop.run_in_executor(executor, self._open_session)
        except BaseException:
            executor.shutdown(wait=True)
            raise
        self._executor = executor
        self._lock = asyncio.Lock()
        self._pinned_version = self.graph.version

    def _open_session(self) -> QuerySession:
        session = QuerySession(self.graph, store=self.store)
        # Touching the reachability service resolves the index now, not
        # under the first request: a pinned full index is built here.  The
        # default (``tc``, the closure) builds nothing more — the first
        # misses fill the rows they read.
        session.reachability()
        return session

    def _ensure_serving(self, lock: asyncio.Lock | None) -> None:
        """Raise unless ``lock`` — taken before waiting — is still the
        server's: :meth:`stop` may have run meanwhile."""
        if lock is None or lock is not self._lock:
            raise RuntimeError("QueryServer is not started (or stop() ran first)")

    async def submit(self, query, group_nodes: Sequence[str] = ()):
        """Evaluate ``query`` once the session is free; returns its answer.

        Holding the lock, the request tries :meth:`QuerySession.lookup`
        on the event loop, and only a miss goes to the server's thread (so
        does the first request after a re-pin: the stale caches are
        dropped there, never on the loop).  Raises
        :class:`StaleSnapshotError` when the graph has mutated since the
        pinned snapshot and :class:`RuntimeError` when the server is not
        started or :meth:`stop` got the lock first.  A request cancelled
        while its miss runs keeps the lock until the thread returns, then
        raises :class:`asyncio.CancelledError`.
        """
        lock = self._lock
        self._ensure_serving(lock)
        started = time.perf_counter()
        async with lock:
            self._ensure_serving(lock)
            if self.graph.version != self._pinned_version:
                self.stats.stale_rejections += 1
                raise StaleSnapshotError(
                    f"graph version {self.graph.version} != pinned {self._pinned_version}; "
                    "call refresh() to re-pin the snapshot"
                )
            try:
                results = self.session.lookup(query, group_nodes)
                if results is None:
                    results = await self._in_thread(
                        self.session.evaluate, query, tuple(group_nodes)
                    )
                else:
                    self.stats.loop_hits += 1
            except Exception:
                self.stats.errors += 1
                raise
        self.stats.requests += 1
        self.stats.latencies.append(time.perf_counter() - started)
        return results

    async def refresh(self) -> None:
        """Wait for the requests ahead, then re-pin the current graph version.

        No request ever straddles two snapshots; the session's next
        evaluation detects a version change and rebuilds its caches
        lazily.  With a store attached, the session is persisted first,
        under the lock: a refresh without a mutation is a checkpoint;
        after a mutation, ``persist()`` drops the stale caches and keys
        by the *new* content.  Best-effort — a failing store never blocks
        the re-pin.
        """
        lock = self._lock
        self._ensure_serving(lock)
        async with lock:
            self._ensure_serving(lock)
            if self.store is not None:
                try:
                    await self._in_thread(self.session.persist)
                except Exception:
                    pass
            self._pinned_version = self.graph.version

    async def _in_thread(self, function, *args):
        """``function(*args)`` in the server's thread; the caller holds
        the lock.

        A thread cannot be interrupted, so a caller cancelled meanwhile
        still waits for it to return — keeping the lock, so no other
        request touches the session while the orphaned call runs — and
        only then lets the cancellation through.
        """
        future = asyncio.get_running_loop().run_in_executor(self._executor, function, *args)
        try:
            return await asyncio.shield(future)
        except asyncio.CancelledError:
            while not future.done():
                try:
                    await asyncio.wait((future,))
                except asyncio.CancelledError:
                    pass  # cancelled again: still nothing to do but wait
            raise

    def persist(self) -> dict[str, int]:
        """Publish the session's artifacts to the store.

        Not under the lock: call it when no request runs — e.g. after
        :meth:`stop` — or persist through :meth:`refresh`.
        """
        if self.store is None:
            raise ValueError("server was created without store=; nothing to persist to")
        if self.session is None:
            raise RuntimeError("QueryServer.start() has not run")
        return self.session.persist()

    async def stop(self) -> None:
        """Answer every request that reached the lock first, refuse the
        rest, then release the thread (idempotent)."""
        lock = self._lock
        if lock is None:
            return
        async with lock:
            if lock is not self._lock:
                return  # a concurrent stop() got here first
            self._lock = None
            self._pinned_version = None
            self.session.close()
            executor, self._executor = self._executor, None
        # Outside the lock, so the loop keeps running; every request that
        # held it has its answer, so the thread is idle.
        executor.shutdown(wait=True)


# ----------------------------------------------------------------------
# TCP JSON-lines front
# ----------------------------------------------------------------------
def _render_results(results) -> list:
    """A deterministic, JSON-safe rendering of one answer set.

    Tuples become lists; grouped elements (frozensets) become sorted
    lists; the outer list is sorted so two identical answer sets always
    render byte-identically.
    """

    def render_element(element):
        if isinstance(element, frozenset):
            return sorted(element, key=repr)
        return element

    rendered = [
        [render_element(e) for e in row] if isinstance(row, tuple) else row for row in results
    ]
    return sorted(rendered, key=repr)


async def _handle_connection(server: QueryServer, reader, writer) -> None:
    try:
        while True:
            try:
                line = await reader.readline()
            except ValueError:
                # The line outgrew the reader's limit and its buffered part
                # is already discarded; whatever follows on this connection
                # cannot be framed any more, so answer once and hang up.
                server.stats.errors += 1
                response = {"ok": False, "error": f"request line exceeds {MAX_REQUEST_LINE} bytes"}
                writer.write(json.dumps(response).encode("utf-8") + b"\n")
                await writer.drain()
                break
            if not line:
                break
            submitted = False
            try:
                payload = json.loads(line)
                query, group_nodes = payload["query"], payload.get("group_nodes", [])
                if not isinstance(group_nodes, list):
                    kind = type(group_nodes).__name__
                    raise ValueError(f"group_nodes must be a list of output ids, not {kind}")
                submitted = True
                results = await server.submit(query, group_nodes)
                response = {
                    "ok": True,
                    "count": len(results),
                    "results": _render_results(results),
                }
            except StaleSnapshotError as error:
                response = {"ok": False, "stale": True, "error": str(error)}
            except Exception as error:
                # submit() counts the errors of the requests it receives; a
                # line that is no request never gets there.
                if not submitted:
                    server.stats.errors += 1
                response = {"ok": False, "error": f"{type(error).__name__}: {error}"}
            writer.write(json.dumps(response).encode("utf-8") + b"\n")
            await writer.drain()
    finally:
        # Also when the handler is cancelled at server shutdown or drain()
        # raises because the client left mid-reply.  No wait_closed(): the
        # transport flushes on close, and awaiting it races server
        # shutdown cancelling this handler task.
        writer.close()


async def serve_tcp(server: QueryServer, host: str = "127.0.0.1", port: int = 8765):
    """Run ``server`` behind a newline-delimited-JSON TCP front.

    Each request line is ``{"query": <dict|json string>, "group_nodes":
    [...]}``; each response line carries ``ok``, ``count`` and the
    deterministically rendered ``results`` (or ``error``).  Returns the
    listening ``asyncio.Server``; callers own its lifetime.
    """
    if not server.started:
        await server.start()

    async def handler(reader, writer):
        await _handle_connection(server, reader, writer)

    return await asyncio.start_server(handler, host=host, port=port, limit=MAX_REQUEST_LINE)
