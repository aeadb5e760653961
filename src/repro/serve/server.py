"""Multi-worker query serving over one warmed store.

See the package docstring for the model.  The implementation is a plain
asyncio checkout queue over ``N`` independent :class:`QuerySession`
workers: each worker owns its own caches and engines (no locks on the
hot path); the first worker reads the :class:`~repro.store.ArtifactStore`
and the rest start from its caches (:meth:`QuerySession.replica`), and
evaluation runs in a thread pool so the event loop stays free to
accept requests while Python executes query code.
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

    Raised by :meth:`QueryServer.submit` instead of letting a request
    race worker-by-worker cache invalidation (half the workers answering
    from the old caches, half rebuilding).  Call
    :meth:`QueryServer.refresh` to quiesce and re-pin.
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

    __slots__ = ("requests", "errors", "stale_rejections", "latencies")

    def __init__(self):
        self.requests = 0
        self.errors = 0
        self.stale_rejections = 0
        #: wall seconds (checkout wait + evaluation) of the most recent
        #: :data:`LATENCY_WINDOW` requests; the percentiles of
        #: :meth:`summary` describe this window.
        self.latencies: deque[float] = deque(maxlen=LATENCY_WINDOW)

    def summary(self) -> dict[str, float]:
        return {
            "requests": self.requests,
            "errors": self.errors,
            "stale_rejections": self.stale_rejections,
            "p50_ms": round(percentile(self.latencies, 50) * 1000, 3),
            "p99_ms": round(percentile(self.latencies, 99) * 1000, 3),
        }


class QueryServer:
    """``N`` warmed :class:`QuerySession` workers behind an asyncio front.

    Args:
        graph: the data graph to serve.
        workers: session-worker count (one request runs per worker at a
            time; excess requests queue on the checkout).
        store: shared warm store — an :class:`~repro.store.ArtifactStore`,
            a directory path, or ``None`` for purely in-memory workers.
            At :meth:`start` the first worker reads the store, and the
            rest start from its caches.

    Every worker is a default session: ``index="auto"``, interpreted,
    serial.

    Usage::

        server = QueryServer(graph, workers=4, store="warm/")
        await server.start()
        results = await server.submit(query)
        await server.stop()
    """

    def __init__(
        self,
        graph: DataGraph,
        *,
        workers: int = 4,
        store: ArtifactStore | str | os.PathLike | None = None,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.graph = graph
        self.workers = workers
        if store is None or isinstance(store, ArtifactStore):
            self.store = store
        else:
            self.store = ArtifactStore(store)
        self.stats = ServerStats()
        self._sessions: list[QuerySession] = []
        self._pool: asyncio.Queue[QuerySession] | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._pinned_version: int | None = None

    # ------------------------------------------------------------------
    @property
    def started(self) -> bool:
        return self._pool is not None

    async def start(self) -> None:
        """Build and warm the worker pool; pins the graph snapshot."""
        if self.started:
            return
        loop = asyncio.get_running_loop()
        self._executor = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-serve"
        )
        # Workers build off the event loop so a slow cold start does not
        # freeze an already-accepting front.
        try:
            self._sessions = await loop.run_in_executor(self._executor, self._build_workers)
        except BaseException:
            self._executor.shutdown(wait=True)
            self._executor = None
            raise
        self._pool = asyncio.Queue()
        for session in self._sessions:
            self._pool.put_nowait(session)
        self._pinned_version = self.graph.version

    def _build_workers(self) -> list[QuerySession]:
        # The first worker reads the store (one content fingerprint, one
        # load per kind); the rest start from its caches.
        first = QuerySession(self.graph, store=self.store)
        sessions = [first] + [first.replica() for _ in range(self.workers - 1)]
        for session in sessions:
            # Touching the engine resolves the index now, not under the
            # first request: the graph condenses (once, shared by every
            # worker) and a pinned full index is built.  The default
            # (``tc`` under the closure bound) builds nothing more here —
            # the first misses fill the rows they read.
            session.engine()
        return sessions

    async def submit(self, query, group_nodes: Sequence[str] = ()):
        """Evaluate ``query`` on the next free worker; returns its answer.

        Raises :class:`StaleSnapshotError` when the graph has mutated
        since the pinned snapshot, and re-raises evaluation errors after
        returning the worker to the pool.
        """
        if not self.started:
            raise RuntimeError("QueryServer.start() has not run")
        if self.graph.version != self._pinned_version:
            self.stats.stale_rejections += 1
            raise StaleSnapshotError(
                f"graph version {self.graph.version} != pinned {self._pinned_version}; "
                "call refresh() to re-pin the snapshot"
            )
        loop = asyncio.get_running_loop()
        started = time.perf_counter()
        session = await self._pool.get()
        try:
            results = await loop.run_in_executor(
                self._executor, session.evaluate, query, tuple(group_nodes)
            )
        except Exception:
            self.stats.errors += 1
            raise
        finally:
            self._pool.put_nowait(session)
        self.stats.requests += 1
        self.stats.latencies.append(time.perf_counter() - started)
        return results

    async def refresh(self) -> None:
        """Quiesce every worker, then re-pin the current graph version.

        Checking out all workers waits for in-flight requests to drain,
        so no request ever straddles two snapshots; each worker's next
        evaluation then detects the version change and rebuilds its own
        caches lazily.

        With a store attached, the drained state is re-persisted first
        (the warmest worker, exactly like :meth:`persist`): a refresh
        without a mutation acts as a checkpoint of everything learned
        since the last publish.  After a mutation, ``persist()`` detects
        the version change, drops the stale caches and keys by the *new*
        graph content — stale artifacts are never published under the
        fresh key.  Best-effort — a failing store never blocks the
        re-pin.
        """
        if not self.started:
            raise RuntimeError("QueryServer.start() has not run")
        drained = [await self._pool.get() for _ in range(self.workers)]
        try:
            if self.store is not None and self._sessions:
                warmest = max(self._sessions, key=lambda s: len(s.plan_cache))
                loop = asyncio.get_running_loop()
                try:
                    await loop.run_in_executor(self._executor, warmest.persist)
                except Exception:
                    pass
            self._pinned_version = self.graph.version
        finally:
            for session in drained:
                self._pool.put_nowait(session)

    def persist(self) -> dict[str, int]:
        """Publish the warmest worker's artifacts to the shared store.

        Workers see identical traffic-shaped warm state only by accident,
        so the one with the most plan-cache entries is chosen; artifacts
        are content-keyed, making any worker's state safe to publish.
        """
        if self.store is None:
            raise ValueError("server was created without store=; nothing to persist to")
        if not self._sessions:
            raise RuntimeError("QueryServer.start() has not run")
        warmest = max(self._sessions, key=lambda s: len(s.plan_cache))
        return warmest.persist()

    async def stop(self) -> None:
        """Release workers and the thread pool (idempotent)."""
        for session in self._sessions:
            session.close()
        self._sessions = []
        self._pool = None
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        self._pinned_version = None


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
        [render_element(e) for e in row] if isinstance(row, tuple) else row
        for row in results
    ]
    return sorted(rendered, key=repr)


async def _handle_connection(server: QueryServer, reader, writer) -> None:
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
            query, group_nodes = payload["query"], payload.get("group_nodes", ())
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
    # No wait_closed(): the transport flushes on close, and awaiting it
    # races server shutdown cancelling this handler task.
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
