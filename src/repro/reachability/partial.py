"""``tc``: one lazily filled descendant closure per graph lineage.

Every other index answers probes after one whole-graph build;
:class:`DescendantClosure` — the registry's ``"tc"`` — is the transitive
closure with its rows computed on demand and memoized, so it builds
what the queries touch.  Condensation ids are reverse topological, so
the descendants of component ``c`` have smaller ids and ``row(c)`` is
one Python int of fewer than ``c`` bits::

    row(c) = OR over s in dag.succ[c] of (row(s) | 1 << s)

It is exact for *every* source (a missing row is filled when first
probed) and ``reaches`` is one shift-and-mask that counts one lookup.
The AD kernels (:meth:`DescendantClosure.downward`, ``upward``,
``edges``) read whole rows and test a component against a *set* with
one AND against a :func:`mask`.  Worst case the memo is the
lower-triangular closure, n(n−1)/2 bits.  A closure counts the bytes its rows hold
(``sys.getsizeof`` of each row, added as it is stored) and may carry a
budget of them: a fill that would pass it raises
:class:`ClosureBudgetError` before writing the row.  ``index="auto"`` in
a session is this closure, filled on demand under
:data:`repro.plan.cost.AUTO_CLOSURE_MAX_BYTES`; past it the ladder's pick
for the lineage.  A closure built outside a session has no budget.

**The lineage rule.**  A row depends only on the successor rows of the
components below it.  A graph lineage has one component numbering,
which grows on demand (:mod:`repro.graph.condensation`): a numbered
component keeps its id and successor row and cannot reach a component
numbered later, so every stored row stays exact while the lineage
holds, and the closure — built over the numbering's own growing rows —
serves every version along it (:meth:`PartialReachability.following`).
An edge out of a *numbered* node breaks the lineage; an edge out of a
node not numbered yet (new nodes, and old ones no query has read) keeps
it.  After a break the graph gets a new closure, and a held one still
answers what it has numbered but refuses to number more
(:class:`~repro.graph.condensation.StaleLineageError`).
"""

from __future__ import annotations

import hashlib
import sys
from typing import Iterable, Sequence

from ..graph.digraph import DataGraph
from .base import ComponentSet, Dag, DagIndex, GraphReachability

__all__ = [
    "ClosureBudgetError",
    "DescendantClosure",
    "Footprint",
    "PartialReachability",
    "build_partial_reachability",
    "candidate_cone",
    "domain_fingerprint",
    "hit_components",
    "mask",
]


def mask(components: Iterable[int]) -> int:
    """The row-shaped int with bit ``c`` set for every ``c`` of
    ``components``, in O(k + width): bits are set in a ``bytearray`` and
    converted once, where ``k`` shift-and-ORs copy the int ``k`` times."""
    components = list(components)
    if not components:
        return 0
    bits = bytearray((max(components) >> 3) + 1)
    for component in components:
        bits[component >> 3] |= 1 << (component & 7)
    return int.from_bytes(bits, "little")


def domain_fingerprint(nodes: Iterable[int]) -> str:
    """Order-independent fingerprint of a footprint's node set."""
    digest = hashlib.sha256()
    for node in sorted(nodes):
        digest.update(node.to_bytes(8, "little", signed=False))
    return digest.hexdigest()[:16]


def candidate_cone(
    graph: DataGraph, seeds: Iterable[int], *, budget: int | None = None
) -> frozenset[int] | None:
    """Seeds plus everything reachable from them (descendant-closed).

    Returns ``None`` as soon as the cone exceeds ``budget`` nodes — the
    caller should fall back to a full index rather than close most of
    the graph.
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


class ClosureBudgetError(RuntimeError):
    """A fill would pass the closure's budget of filled bytes."""


class Footprint:
    """A descendant-closed node set with a stable fingerprint.  Only
    ``benchmarks/e2e/layers.py`` builds one (ROADMAP item 1 step C)."""

    __slots__ = ("nodes", "fingerprint")

    def __init__(self, nodes: frozenset[int]):
        self.nodes = nodes
        self.fingerprint = domain_fingerprint(nodes)

    @classmethod
    def from_seeds(
        cls, graph: DataGraph, seeds: Iterable[int], *, budget: int | None = None
    ) -> "Footprint | None":
        """Close ``seeds`` under reachability; ``None`` on budget blowout."""
        cone = candidate_cone(graph, seeds, budget=budget)
        return None if cone is None else cls(cone)

    def __len__(self) -> int:
        return len(self.nodes)


class DescendantClosure(DagIndex):
    """Strict transitive closure of a condensation DAG, row by row.

    ``dag`` must number its nodes in reverse topological order (every
    successor id is smaller than its source's), as condensation DAGs do.
    ``budget`` bounds :attr:`filled_bytes`; None (the default) leaves the
    closure unbounded.
    """

    name = "tc"

    def __init__(self, dag: Dag, budget: int | None = None):
        super().__init__(dag)
        self._rows: dict[int, int] = {}
        self.fills = 0  #: rows computed into this memo so far.
        self.filled_bytes = 0  #: the ``sys.getsizeof`` of the stored rows, summed.
        self.budget = budget

    def fill(self, components: Iterable[int]) -> None:
        """Make sure every component of ``components`` has its row.

        A row needs the rows of everything below it, so this computes
        the missing part of the cone, smallest id (successors) first.
        A row that would take :attr:`filled_bytes` past the budget raises
        :class:`ClosureBudgetError` unwritten; the rows before it stay.
        """
        rows, successors = self._rows, self.dag.succ
        missing = {component for component in components if component not in rows}
        stack = list(missing)
        while stack:
            for successor in successors[stack.pop()]:
                if successor not in rows and successor not in missing:
                    missing.add(successor)
                    stack.append(successor)
        stored, filled, budget, size = len(rows), self.filled_bytes, self.budget, sys.getsizeof
        try:
            for component in sorted(missing):
                row = 0
                for successor in successors[component]:
                    row |= rows[successor] | 1 << successor
                width = size(row)
                if budget is not None and filled + width > budget:
                    raise ClosureBudgetError(
                        f"row {component} would take the closure past {budget} bytes"
                    )
                filled += width
                rows[component] = row
        finally:
            self.filled_bytes = filled
            self.fills += len(rows) - stored

    def row(self, component: int) -> int:
        """``component``'s row, filled first when missing."""
        row = self._rows.get(component)
        if row is None:
            self.fill((component,))
            row = self._rows[component]
        return row

    def reaches(self, source: int, target: int) -> bool:
        self.counters.lookups += 1
        return bool(self.row(source) >> target & 1)

    # The row kernel: one AND of a row against a set's mask per test, one
    # lookup counted per test.  Rows are strict, so each adds the set's
    # cyclic members (ComponentSet.cyclic) itself.
    def prepare(self, components: list[int], cyclic: Sequence[bool]) -> RowSet:
        return RowSet(self, components, cyclic)

    def downward(self, components: set[int], targets: Sequence[RowSet]) -> list[set[int]]:
        """One test per component and target: ``row & mask``."""
        self.fill(components)
        rows, hits = self._rows, []
        self.counters.lookups += len(components) * len(targets)
        for target in targets:
            bits = target.mask
            hit = {component for component in components if rows[component] & bits}
            hits.append(hit | target.cyclic.intersection(components))
        return hits

    def upward(self, components: set[int], sources: RowSet) -> set[int]:
        """One test per component: its bit in the OR of the sources' rows."""
        below = sources.below
        self.counters.lookups += len(components)
        reached = {component for component in components if below >> component & 1}
        return reached | sources.cyclic.intersection(components)

    def edges(self, source: int, targets: RowSet) -> list[int]:
        """One test: ``row(source) & mask``, read off in target order."""
        hits = self.row(source) & targets.mask
        self.counters.lookups += 1
        if source in targets.cyclic:
            hits |= 1 << source
        return hit_components(hits, targets.rank)

    @property
    def rows(self) -> int:
        """How many rows the memo holds."""
        return len(self._rows)

    def index_size(self) -> int:
        """Bytes held by the stored rows (:attr:`filled_bytes`)."""
        return self.filled_bytes


class RowSet(ComponentSet):
    """A set as the row kernel reads it: its :func:`mask`, the OR of its
    rows (everything strictly below it) and each component's position,
    each built on first read."""

    index: DescendantClosure
    _mask: int | None = None
    _below: int | None = None
    _rank: dict[int, int] | None = None

    @property
    def mask(self) -> int:
        if self._mask is None:
            self._mask = mask(self.components)
        return self._mask

    @property
    def below(self) -> int:
        if self._below is None:
            closure = self.index
            closure.fill(self.components)
            below = 0
            for component in self.components:
                below |= closure._rows[component]
            self._below = below
        return self._below

    @property
    def rank(self) -> dict[int, int]:
        if self._rank is None:
            self._rank = {component: position for position, component in enumerate(self.components)}
        return self._rank


def hit_components(hits: int, rank: dict[int, int]) -> list[int]:
    """The components of ``rank`` whose bit is set in ``hits``, in rank
    order — walked by set bit or by component, whichever is shorter."""
    if hits.bit_count() >= len(rank):
        return [component for component in rank if hits >> component & 1]
    components = []
    while hits:
        lowest = hits & -hits
        components.append(lowest.bit_length() - 1)
        hits ^= lowest
    components.sort(key=rank.__getitem__)
    return components


class PartialReachability(GraphReachability):
    """The reachability service over a :class:`DescendantClosure` — what
    ``tc`` builds, and what a session keeps across versions.

    Drop-in for the engine's service, but nothing is completed: the
    closure reads the lineage's successor rows as they grow (its DAG's
    ``order`` is never read), so only the cones the queries map are
    numbered.  ``lineage`` decides whether the rows outlive a version
    bump (:meth:`following`); ``budget`` bounds the bytes the closure
    may fill (None: unbounded).
    """

    def __init__(self, graph: DataGraph, budget: int | None = None):
        self.graph = graph
        self.condensation = self.lineage = graph.structure().condensation
        self.dag = Dag.from_condensation(self.condensation)
        self.index = DescendantClosure(self.dag, budget)

    def following(self, graph: DataGraph) -> "PartialReachability | None":
        """This service, when the graph is still on its lineage (every
        mutation since left the numbered cones alone), else None: the
        rows describe another graph."""
        return self if graph.structure().lineage is self.lineage else None


def build_partial_reachability(
    graph: DataGraph, footprint: Footprint, inner: str = "tc"
) -> PartialReachability:
    """A fresh closure with the rows of ``footprint`` already filled.
    Only ``benchmarks/e2e/layers.py`` calls it (ROADMAP item 1 step C).

    ``inner`` names the index family, always the closure's: anything
    but ``"tc"`` is refused.
    """
    if inner != "tc":
        raise ValueError(f"the partial scope is a descendant closure (tc), not {inner!r}")
    service = PartialReachability(graph)
    service.index.fill(set(service.components(footprint.nodes)))
    return service
