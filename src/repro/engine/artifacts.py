"""The session's persisted artifact kinds, declared once.

:data:`ARTIFACT_KINDS` is the single list that construction,
invalidation, rehydration, ``persist()``, ``replica()`` and
``cache_info()`` of a :class:`~repro.engine.session.QuerySession` walk:
adding a kind is one
entry here, and the session never names a kind itself.  The table lists
what the warm store holds; what a session keeps in memory only — its
index pool, the one :class:`ClosureSlot` and its compiled codegen
functions — is not in it.
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
        self.kept = 0  #: version bumps survived (append-only deltas).
        self.dropped = 0  #: closures discarded: lineage break, blow-out, invalidate().
        self._dropped_fills = 0

    def current(self, graph: DataGraph) -> PartialReachability | None:
        """The held closure re-pointed at the graph's current version, or
        None (the slot emptied) when there is none to keep."""
        held = self.service
        if held is None:
            return None
        service = held.following(graph)
        if service is None:
            self.drop()
        elif service is not held:
            self.kept += 1
            self.service = service
        return service

    def create(self, graph: DataGraph) -> PartialReachability:
        """Fill the (empty) slot with a closure over ``graph``, no row filled."""
        self.service = PartialReachability(graph)
        return self.service

    def drop(self) -> None:
        if self.service is not None:
            self._dropped_fills += self.service.index.fills
            self.service = None
            self.dropped += 1

    @property
    def rows(self) -> int:
        """Rows the held closure has filled (0 for an empty slot)."""
        return self.service.index.rows if self.service is not None else 0

    def info(self) -> dict[str, int]:
        index = self.service.index if self.service is not None else None
        return {
            "rows": self.rows,
            "bytes": index.index_size() if index else 0,
            "fills": self._dropped_fills + (index.fills if index else 0),
            "kept": self.kept,
            "dropped": self.dropped,
        }


#: every persisted artifact kind of a session, in persist order.
ARTIFACT_KINDS: tuple[ArtifactKind, ...] = (
    ArtifactKind("plans", "plan_cache", "plan_cache_size", "plan", container=list),
    ArtifactKind("candidates", "candidate_cache", "candidate_cache_size", "candidate"),
    ArtifactKind("subtrees", "subtree_cache", "subtree_cache_size", "subtree"),
    # Full answer sets are safe to serve across processes: the store
    # key guarantees the graph content is identical, and the cache key
    # carries the query fingerprint + group nodes.
    ArtifactKind("results", "result_cache", "result_cache_size", "result"),
)
