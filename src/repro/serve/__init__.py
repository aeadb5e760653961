"""The serving tier: N warmed session workers behind one asyncio front.

:class:`QueryServer` owns a pool of :class:`~repro.engine.QuerySession`
workers over one data graph — the first worker reads the warm store
(:mod:`repro.store`), and the rest start from its caches — and
dispatches queries onto them from an asyncio event loop.  That is the
shape the ROADMAP's "heavy traffic" north star needs: pay the plan,
candidate and answer cost once (in a previous process, even), then
amortize it across every concurrent request.  Every worker is a default
session; the server has no execution modes of its own.

Snapshot consistency: the server pins the graph version it started with
and refuses requests after the graph mutates
(:class:`StaleSnapshotError`) until :meth:`QueryServer.refresh`
quiesces the workers and re-pins — a request never sees half-invalidated
caches.

``python -m repro.serve`` starts the TCP JSON-lines front.
"""

from .server import (
    QueryServer,
    ServerStats,
    StaleSnapshotError,
    percentile,
    serve_tcp,
)

__all__ = [
    "QueryServer",
    "ServerStats",
    "StaleSnapshotError",
    "percentile",
    "serve_tcp",
]
