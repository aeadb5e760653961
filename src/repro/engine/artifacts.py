"""The session's persisted artifact kinds, declared once.

:data:`ARTIFACT_KINDS` is the single list that construction,
invalidation, rehydration, ``persist()`` and ``cache_info()`` of a
:class:`~repro.engine.session.QuerySession` walk:
adding a kind is one
entry here, and the session never names a kind itself.  The table lists
what the warm store holds; what a session keeps in memory only — its
index pool, the one :class:`ClosureSlot`, the normalize memo and the
observed operator records — is not in it.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..graph.digraph import DataGraph
from ..reachability.partial import PartialReachability
from .cache import LRUCache


@dataclass(frozen=True)
class ArtifactKind:
    """One kind of session artifact: where it lives and how it persists."""

    #: the store kind (``<name>.artifact`` on disk) and the kind's key in
    #: ``store_rehydrated`` / in ``persist()``'s result.
    name: str
    attr: str  #: session attribute holding the live entries (an LRUCache).
    capacity: str  #: the ``QuerySession`` size parameter bounding it.
    info: str  #: ``cache_info()`` label.
    #: payload type: a dict or a list of pairs, oldest entry first either
    #: way, so a reloaded LRU evicts what the saved one would.
    container: type = dict

    def new_holder(self, sizes: dict[str, int]) -> LRUCache:
        return LRUCache(sizes[self.capacity])

    def describe(self, holder: LRUCache) -> dict[str, int]:
        """The ``cache_info()`` row of this kind."""
        return {**holder.counters.snapshot(), "size": len(holder)}

    def dump(self, session) -> tuple[object, int] | None:
        """``(payload, entry count)`` to persist, or None when empty."""
        entries = list(getattr(session, self.attr).items())
        return (self.container(entries), len(entries)) if entries else None

    def load(self, session, payload) -> int:
        """Install a stored payload; returns the entries loaded (none of
        a missing or mistyped one)."""
        if not isinstance(payload, self.container):
            return 0
        holder = getattr(session, self.attr)
        entries = dict(payload)
        for key, value in entries.items():
            holder.put(key, value)
        return len(entries)


class ClosureSlot:
    """The session's one descendant closure
    (:class:`~repro.reachability.partial.PartialReachability`) and what
    became of it.  A version bump does not empty the slot:
    :meth:`current` asks the graph's lineage at the next use whether the
    rows are still exact."""

    def __init__(self):
        self.service: PartialReachability | None = None
        self.kept = 0  #: version bumps survived (the lineage held).
        self.dropped = 0  #: closures discarded: lineage break, blow-out, invalidate().
        self._dropped_fills = 0
        self._version: int | None = None  #: the graph version last served.

    def current(self, graph: DataGraph) -> PartialReachability | None:
        """The held closure when the graph is still on its lineage, or
        None (the slot emptied) when there is none to keep."""
        held = self.service
        if held is None:
            return None
        if held.following(graph) is None:
            self.drop()
            return None
        if self._version != graph.version:
            self.kept += 1
            self._version = graph.version
        return held

    def create(self, graph: DataGraph, budget_bits: int | None) -> PartialReachability:
        """Fill the (empty) slot with a closure over ``graph``, no row
        filled, bounded by ``budget_bits`` filled bits (None: unbounded)."""
        self.service = PartialReachability(graph, budget_bits)
        self._version = graph.version
        return self.service

    def drop(self) -> None:
        if self.service is not None:
            self._dropped_fills += self.service.index.fills
            self.service = None
            self.dropped += 1

    def info(self) -> dict[str, int]:
        index = self.service.index if self.service is not None else None
        return {
            "rows": index.rows if index else 0,
            "bytes": index.index_size() if index else 0,
            "fills": self._dropped_fills + (index.fills if index else 0),
            "kept": self.kept,
            "dropped": self.dropped,
        }


#: every persisted artifact kind of a session, in persist order.
ARTIFACT_KINDS: tuple[ArtifactKind, ...] = (
    ArtifactKind("plans", "plan_cache", "plan_cache_size", "plan", container=list),
    # JSON text's raw content hash -> the fingerprint of its plan and
    # answers (strings only, never a plan): bounded like the answers, so
    # a cached answer stays reachable from its text whatever its plan's
    # recency.
    ArtifactKind("aliases", "alias_cache", "result_cache_size", "alias"),
    ArtifactKind("subtrees", "subtree_cache", "subtree_cache_size", "subtree"),
    # Full answer sets are safe to serve across processes: the store
    # key guarantees the graph content is identical, and the cache key
    # carries the query fingerprint + group nodes.
    ArtifactKind("results", "result_cache", "result_cache_size", "result"),
)
