"""The serving tier: one warmed session behind an asyncio front.

:class:`QueryServer` owns one :class:`~repro.engine.QuerySession` over
one data graph, warmed from the store (:mod:`repro.store`) at start, and
serves concurrent requests from an asyncio event loop, one at a time
behind an :class:`asyncio.Lock`: a result-cache hit is answered on the
loop itself, a miss in the server's one thread.  Evaluation is pure
Python, so more threads would add copies of the caches and the closure,
not parallelism.  That is the shape the ROADMAP's "heavy traffic" north
star needs: pay the plan, candidate and answer cost once (in a previous
process, even), then amortize it across every concurrent request.

Snapshot consistency: the server pins the graph version it started with
and refuses requests after the graph mutates
(:class:`StaleSnapshotError`) until :meth:`QueryServer.refresh` re-pins;
like :meth:`QueryServer.stop`, it waits for the requests ahead of it.

``python -m repro.serve`` starts the TCP JSON-lines front
(:func:`serve_tcp`), which answers a hit inside the callback that read
its line and sends everything else through the same lock and thread.
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
