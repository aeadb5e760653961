"""Partial reachability indexes over a query's candidate footprint.

A *partial* index builds any registered DAG index (transitive closure,
interval, contour, ...) over only the subgraph a query can touch: the
union of its candidate label sets plus their reachable cone.  Because the
footprint is descendant-closed (every node reachable from a footprint
node is itself in the footprint), reachability restricted to the
footprint is *exact* for in-domain sources — a probe from an in-domain
source to an out-of-domain target is always False, and only probes from
out-of-domain sources need the on-demand BFS fallback.

The footprint carries a :func:`domain_fingerprint` so equal footprints
(across queries, sessions and warm restarts) share one build.
"""

from __future__ import annotations

import hashlib
from typing import Iterable

from ..graph.digraph import DataGraph
from .base import Dag, DagIndex, GraphReachability
from .factory import _REGISTRY, available_indexes

__all__ = [
    "Footprint",
    "PartialIndex",
    "PartialReachability",
    "build_partial_reachability",
    "candidate_cone",
    "domain_fingerprint",
    "scoped_name",
]


def scoped_name(inner: str) -> str:
    """The index name a partial build reports (e.g. ``"tc@partial"``)."""
    return f"{inner}@partial"


def domain_fingerprint(nodes: Iterable[int]) -> str:
    """Order-independent fingerprint of a footprint's node set.

    Equal node sets always hash equal, so sessions key pooled partial
    indexes — and the `ArtifactStore` entries behind them — by
    ``(graph_fingerprint, domain_fingerprint)`` and share one build per
    footprint.
    """
    digest = hashlib.sha256()
    for node in sorted(nodes):
        digest.update(node.to_bytes(8, "little", signed=False))
    return digest.hexdigest()[:16]


def candidate_cone(
    graph: DataGraph, seeds: Iterable[int], *, budget: int | None = None
) -> frozenset[int] | None:
    """Seeds plus everything reachable from them (descendant-closed).

    Returns ``None`` as soon as the cone exceeds ``budget`` nodes — the
    caller should fall back to a full index rather than build a partial
    one over most of the graph.
    """
    seen: set[int] = set(seeds)
    adjacency = graph._succ
    limit = len(adjacency) if budget is None else budget  # no cone outgrows the graph
    if len(seen) > limit:
        return None
    if seen:
        graph._check(min(seen))
        graph._check(max(seen))
    stack = list(seen)
    while stack:
        for successor in adjacency[stack.pop()]:
            if successor not in seen:
                seen.add(successor)
                if len(seen) > limit:
                    return None
                stack.append(successor)
    return frozenset(seen)


class Footprint:
    """A descendant-closed node set with a stable fingerprint."""

    __slots__ = ("nodes", "seeds", "fingerprint")

    def __init__(self, nodes: frozenset[int], seeds: frozenset[int]):
        self.nodes = nodes
        self.seeds = seeds
        self.fingerprint = domain_fingerprint(nodes)

    @classmethod
    def from_seeds(
        cls, graph: DataGraph, seeds: Iterable[int], *, budget: int | None = None
    ) -> "Footprint | None":
        """Close ``seeds`` under reachability; ``None`` on budget blowout."""
        seed_set = frozenset(seeds)
        cone = candidate_cone(graph, seed_set, budget=budget)
        if cone is None:
            return None
        return cls(cone, seed_set)

    def __len__(self) -> int:
        return len(self.nodes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Footprint(nodes={len(self.nodes)}, seeds={len(self.seeds)}, "
            f"fingerprint={self.fingerprint!r})"
        )


class PartialIndex(DagIndex):
    """Any registered index built over a domain-restricted DAG.

    The domain is a set of condensation components (descendant-closed at
    the component level, because the footprint is descendant-closed at
    the data-node level) and ``dag`` a condensation DAG, whose ids are
    reverse topological.  Probes resolve in three tiers:

    * both endpoints in the domain — answered by the inner index over
      the restricted DAG (exact: paths from in-domain sources cannot
      leave a descendant-closed domain);
    * in-domain source, out-of-domain target — always False, for the
      same reason;
    * out-of-domain source — memoized on-demand BFS over the full DAG.

    The inner index shares this adapter's :class:`IndexCounters`, so a
    partial run reports the same ``#index`` probe counts as a full-scope
    index would at identical call sites.
    """

    name = "partial"

    def __init__(
        self, dag: Dag, domain_components: Iterable[int], inner: str = "tc"
    ):
        if inner not in _REGISTRY:
            raise ValueError(
                f"unknown inner index {inner!r}; available: "
                f"{', '.join(available_indexes())}"
            )
        super().__init__(dag)
        # Local ids follow the full DAG's topological order — descending
        # component id, so the domain alone is walked, not the whole DAG —
        # and the restricted DAG's order is simply 0..k-1.
        ordered = sorted(set(domain_components), reverse=True)
        local_of = {comp: local for local, comp in enumerate(ordered)}
        succ = [[local_of[t] for t in dag.succ[comp] if t in local_of] for comp in ordered]
        pred: list[list[int]] = [[] for _ in ordered]
        for source, targets in enumerate(succ):
            for target in targets:
                pred[target].append(source)
        self.restricted = Dag(succ, pred, list(range(len(ordered))))
        self.inner = _REGISTRY[inner](self.restricted)
        self.inner.counters = self.counters
        self.inner_name = inner
        self.name = scoped_name(inner)
        self._local = local_of
        self._descendant_memo: dict[int, frozenset[int]] = {}

    @property
    def domain_size(self) -> int:
        return self.restricted.num_nodes

    def in_domain(self, component: int) -> bool:
        return component in self._local

    def reaches(self, source: int, target: int) -> bool:
        local_source = self._local.get(source)
        if local_source is not None:
            local_target = self._local.get(target)
            if local_target is not None:
                return self.inner.reaches(local_source, local_target)
            # Descendant-closed domain: nothing outside it is reachable
            # from inside.  Count the probe for parity with a full index.
            self.counters.lookups += 1
            return False
        self.counters.lookups += 1
        return target in self._fallback_descendants(source)

    def _fallback_descendants(self, component: int) -> frozenset[int]:
        cached = self._descendant_memo.get(component)
        if cached is not None:
            return cached
        seen: set[int] = set()
        stack = list(self.dag.succ[component])
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            self.counters.entries_scanned += 1
            stack.extend(self.dag.succ[current])
        result = frozenset(seen)
        self._descendant_memo[component] = result
        return result

    def index_size(self) -> int:
        return self.inner.index_size()


class PartialReachability(GraphReachability):
    """A :class:`GraphReachability` whose index covers one footprint.

    Drop-in for the engine's reachability service: condensation and the
    component mapping cover the whole graph (pruning needs them for every
    candidate) and are the graph's shared structural snapshot; only the
    index structure is built, and it is restricted to the footprint.
    """

    def __init__(self, graph: DataGraph, footprint: Footprint, inner: str = "tc"):
        self.footprint = footprint
        scc_of = graph.structure().condensation.scc_of
        domain = {scc_of[node] for node in footprint.nodes}
        super().__init__(graph, lambda dag: PartialIndex(dag, domain, inner))


def build_partial_reachability(
    graph: DataGraph, footprint: Footprint, inner: str = "tc"
) -> PartialReachability:
    """Build a partial reachability service over ``footprint``."""
    return PartialReachability(graph, footprint, inner)
