"""The 3-hop reachability index (Jin et al., SIGMOD'09) — chain variant.

3-hop answers ``u ~> v`` in three hops: *walk down u's chain*, *jump to
another chain through a recorded entry*, *walk down that chain to v*.  Each
node stores two small delta lists:

* ``Lout(v)`` — per reachable chain ``c``, the smallest sequence number on
  ``c`` reachable from ``v``, stored **only when it differs** from the value
  derivable from v's chain successor (which v reaches anyway);
* ``Lin(v)`` — symmetric: largest sequence number per chain reaching ``v``,
  delta-encoded against the chain predecessor.

The query procedure matches the paper's Section 4.2.1 exactly: collect the
*complete successor list* ``X_v`` by walking down the chain through ``Lout``
lists (skip pointers jump over nodes with empty lists), the *complete
predecessor list* ``Y_v`` walking up through ``Lin``, and report reachable
iff some pair ``(x, y) in X_v × Y_v`` satisfies ``x <=_c y``.

Construction note (docs/ARCHITECTURE.md, "Reachability and pruning", has
the index's place in GTEA): the original paper compresses
contour segments with a densest-subgraph heuristic; we delta-encode against
chain neighbours instead.  The stored-list/query interface — what GTEA's
pruning consumes — is identical.

Strictness: chains come from a *path cover* (consecutive chain nodes joined
by real edges), so on the DAG the only inclusive-vs-strict difference is a
node's own chain position; helpers below expose both flavours and
:mod:`repro.reachability.contour` builds strict contours from them.

GTEA reads the index through its AD kernels (``downward``, ``upward`` and
``edges``, the :class:`~repro.reachability.base.DagIndex` interface): set
reachability against merged contours with chain-shared scans, over a
:class:`ContourSet` whose contours are merged on first read.
"""

from __future__ import annotations

from itertools import chain
from typing import Collection, Iterator, Sequence

from .base import ComponentSet, Dag, DagIndex
from .chain_cover import ChainCover, chain_decomposition
from .contour import Contour, contour_reaches_node, merge_pred_lists, merge_succ_lists

#: An index entry: (chain id, sequence number).
Entry = tuple[int, int]


class ThreeHopIndex(DagIndex):
    """Chain-cover + delta-encoded entry/exit lists, per the module docs."""

    name = "3hop"

    def __init__(self, dag: Dag, cover: ChainCover | None = None):
        super().__init__(dag)
        self.cover = cover if cover is not None else chain_decomposition(dag)
        self.lout: list[list[Entry]] = [[] for _ in range(dag.num_nodes)]
        self.lin: list[list[Entry]] = [[] for _ in range(dag.num_nodes)]
        self._build_lout()
        self._build_lin()
        self._next_out = self._skip_pointers(self.lout, direction=+1)
        self._prev_in = self._skip_pointers(self.lin, direction=-1)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _chain_successor(self, node: int) -> int | None:
        chain = self.cover.chains[self.cover.cid[node]]
        position = self.cover.sid[node]  # 1-based; chain[position] is next
        return chain[position] if position < len(chain) else None

    def _chain_predecessor(self, node: int) -> int | None:
        position = self.cover.sid[node]
        if position <= 1:
            return None
        return self.cover.chains[self.cover.cid[node]][position - 2]

    def _build_lout(self) -> None:
        """Reverse-topological DP of inclusive entry tables, delta-encoded.

        ``ent[v][c]`` = min sequence number on chain ``c`` reachable from
        ``v`` *inclusively* (v's own chain maps to v's own sid).  Tables of
        fully consumed nodes are freed eagerly to bound peak memory.
        """
        dag, cover = self.dag, self.cover
        ent: dict[int, dict[int, int]] = {}
        pending_preds = [len(dag.pred[node]) for node in range(dag.num_nodes)]
        for node in reversed(dag.order):
            table: dict[int, int] = {}
            for successor in dag.succ[node]:
                for chain, seq in ent[successor].items():
                    if seq < table.get(chain, seq + 1):
                        table[chain] = seq
            own_chain = cover.cid[node]
            table[own_chain] = cover.sid[node]
            ent[node] = table
            # Delta-encode against the chain successor (reached via a real
            # edge, hence its table is already available).
            chain_succ = self._chain_successor(node)
            succ_table = ent[chain_succ] if chain_succ is not None else {}
            deltas = [
                (chain, seq)
                for chain, seq in table.items()
                if chain != own_chain and succ_table.get(chain, seq + 1) != seq
            ]
            deltas.sort()
            self.lout[node] = deltas
            for successor in dag.succ[node]:
                pending_preds[successor] -= 1
                if pending_preds[successor] == 0:
                    del ent[successor]

    def _build_lin(self) -> None:
        """Forward-topological DP, symmetric to :meth:`_build_lout`."""
        dag, cover = self.dag, self.cover
        ext: dict[int, dict[int, int]] = {}
        pending_succs = [len(dag.succ[node]) for node in range(dag.num_nodes)]
        for node in dag.order:
            table: dict[int, int] = {}
            for predecessor in dag.pred[node]:
                for chain, seq in ext[predecessor].items():
                    if seq > table.get(chain, seq - 1):
                        table[chain] = seq
            own_chain = cover.cid[node]
            table[own_chain] = cover.sid[node]
            ext[node] = table
            chain_pred = self._chain_predecessor(node)
            pred_table = ext[chain_pred] if chain_pred is not None else {}
            deltas = [
                (chain, seq)
                for chain, seq in table.items()
                if chain != own_chain and pred_table.get(chain, seq - 1) != seq
            ]
            deltas.sort()
            self.lin[node] = deltas
            for predecessor in dag.pred[node]:
                pending_succs[predecessor] -= 1
                if pending_succs[predecessor] == 0:
                    del ext[predecessor]

    def _skip_pointers(self, lists: list[list[Entry]], direction: int) -> list[int | None]:
        """``next(v)`` / ``prev(v)`` pointers skipping empty lists (Sec 4.2.1)."""
        pointers: list[int | None] = [None] * self.dag.num_nodes
        for chain in self.cover.chains:
            nodes = chain if direction > 0 else list(reversed(chain))
            nearest: int | None = None
            for node in reversed(nodes):
                pointers[node] = nearest
                if lists[node]:
                    nearest = node
        return pointers

    # ------------------------------------------------------------------
    # Entry walks
    # ------------------------------------------------------------------
    def next_out(self, node: int) -> int | None:
        """Nearest deeper node on the chain with a nonempty ``Lout``."""
        return self._next_out[node]

    def prev_in(self, node: int) -> int | None:
        """Nearest shallower node on the chain with a nonempty ``Lin``."""
        return self._prev_in[node]

    def iter_out_entries(self, node: int, stop_sid: int | None = None) -> Iterator[Entry]:
        """Yield ``Lout`` entries of nodes from ``node`` down its chain.

        Stops before reaching a node with ``sid >= stop_sid`` (used by the
        pruning passes to share scans between candidates on one chain).
        The node's own implicit chain entry is *not* yielded — callers add
        ``(cid, sid)`` themselves when they need the inclusive list.
        """
        sid = self.cover.sid
        current: int | None = node if self.lout[node] else self._next_out[node]
        while current is not None and (stop_sid is None or sid[current] < stop_sid):
            for entry in self.lout[current]:
                self.counters.entries_scanned += 1
                yield entry
            current = self._next_out[current]

    def iter_in_entries(self, node: int, stop_sid: int | None = None) -> Iterator[Entry]:
        """Yield ``Lin`` entries of nodes from ``node`` up its chain."""
        sid = self.cover.sid
        current: int | None = node if self.lin[node] else self._prev_in[node]
        while current is not None and (stop_sid is None or sid[current] > stop_sid):
            for entry in self.lin[current]:
                self.counters.entries_scanned += 1
                yield entry
            current = self._prev_in[current]

    # ------------------------------------------------------------------
    # Complete lists (paper's X_v / Y_v) and the point query
    # ------------------------------------------------------------------
    def complete_successor_list(self, node: int) -> dict[int, int]:
        """Inclusive ``X_v``: min reachable sequence number per chain."""
        table: dict[int, int] = {self.cover.cid[node]: self.cover.sid[node]}
        for chain, seq in self.iter_out_entries(node):
            if seq < table.get(chain, seq + 1):
                table[chain] = seq
        return table

    def complete_predecessor_list(self, node: int) -> dict[int, int]:
        """Inclusive ``Y_v``: max reaching sequence number per chain."""
        table: dict[int, int] = {self.cover.cid[node]: self.cover.sid[node]}
        for chain, seq in self.iter_in_entries(node):
            if seq > table.get(chain, seq - 1):
                table[chain] = seq
        return table

    def reaches(self, source: int, target: int) -> bool:
        """Strict DAG reachability via the 3-hop check (Section 4.2.1)."""
        self.counters.lookups += 1
        if source == target:
            return False
        cover = self.cover
        if cover.cid[source] == cover.cid[target]:
            return cover.sid[source] < cover.sid[target]
        successors = self.complete_successor_list(source)
        predecessors = self.complete_predecessor_list(target)
        # Iterate the smaller table; the containment test is symmetric.
        if len(successors) <= len(predecessors):
            for chain, low in successors.items():
                high = predecessors.get(chain)
                if high is not None and low <= high:
                    return True
        else:
            for chain, high in predecessors.items():
                low = successors.get(chain)
                if low is not None and low <= high:
                    return True
        return False

    # ------------------------------------------------------------------
    # AD kernels: chain-shared contour scans (Section 4.2.2)
    # ------------------------------------------------------------------
    def prepare(self, components: list[int], cyclic: Sequence[bool]) -> ContourSet:
        return ContourSet(self, components, cyclic)

    def by_chain(self, components: Collection[int]) -> dict[int, list[int]]:
        """``components`` grouped by chain, each group shallowest first."""
        cid, groups = self.cover.cid, {}
        for component in sorted(components, key=self.cover.sid.__getitem__):
            groups.setdefault(cid[component], []).append(component)
        return groups

    def downward(self, components: set[int], targets: Sequence[ContourSet]) -> list[set[int]]:
        """Procedure 6's AD valuations against the targets' predecessor
        contours (Proposition 7), all targets in one scan.

        Chain mechanics: the components are grouped by chain and visited
        in descending sequence order.  Along one chain the reach-set only
        grows as the sequence number shrinks, so a target reached at a
        deep component is reached by every shallower one (0 -> 1), and
        each chain region of the index is scanned once — the ``visited``
        bookkeeping of the paper's expanded Procedure 6.
        """
        contours = [target.pred.data for target in targets]
        hits = [target.cyclic.intersection(components) for target in targets]
        sid = self.cover.sid
        for chain_id, members in self.by_chain(components).items():
            reached: set[int] = set()  # positions of the targets reached so far
            pending = {position for position, contour in enumerate(contours) if contour}
            scanned_up_to: int | None = None  # smallest sid already scanned
            for component in reversed(members):
                if pending:
                    # The component's own chain position, then the Lout
                    # entries of its chain region (sids are 1-based: a
                    # chain missing from a contour reads 0).
                    depth = sid[component]
                    region = self.iter_out_entries(component, stop_sid=scanned_up_to)
                    for at, seq in chain([(chain_id, depth)], region):
                        found = {p for p in pending if seq <= contours[p].get(at, 0)}
                        if found:
                            reached |= found
                            pending -= found
                            if not pending:
                                break
                    scanned_up_to = depth
                for position in reached:
                    hits[position].add(component)
        return hits

    def upward(self, components: set[int], sources: ContourSet) -> set[int]:
        """Procedure 7's AD filter against the sources' successor
        contour: each chain shallowest first, and once one member is
        reached every deeper one is, through the chain, unprobed."""
        contour, own = sources.succ, sources.cyclic
        reached: set[int] = set()
        for members in self.by_chain(components).values():
            for position, component in enumerate(members):
                if contour_reaches_node(self, component, contour) or component in own:
                    reached.update(members[position:])
                    break
        return reached

    def edges(self, source: int, targets: ContourSet) -> list[int]:
        """The targets ``source`` reaches, through its own successor
        contour; each of the targets' chains is walked as in
        :meth:`upward`.  The source's own component on a chain ends the
        walk: deeper members are reached through real edges, itself
        only when cyclic."""
        contour = merge_succ_lists(self, (source,))
        reached: set[int] = set()
        for members in targets.chains.values():
            for position, component in enumerate(members):
                if component == source:
                    reached.update(members[position + 1 :])
                    if source in targets.cyclic:
                        reached.add(source)
                    break
                if contour_reaches_node(self, component, contour):
                    reached.update(members[position:])
                    break
        return [component for component in targets.components if component in reached]

    def index_size(self) -> int:
        stored = sum(len(entries) for entries in self.lout)
        stored += sum(len(entries) for entries in self.lin)
        return stored


class ContourSet(ComponentSet):
    """A set as the 3-hop kernels read it: its strict predecessor and
    successor contours (MergePredLists / MergeSuccLists) and its chain
    groups, each built on first read — an upward or matching-graph pass
    never merges a predecessor contour, and a node never read as a
    parent merges no successor contour."""

    index: ThreeHopIndex
    _pred: Contour | None = None
    _succ: Contour | None = None
    _chains: dict[int, list[int]] | None = None

    @property
    def pred(self) -> Contour:
        if self._pred is None:
            self._pred = merge_pred_lists(self.index, self.components)
        return self._pred

    @property
    def succ(self) -> Contour:
        if self._succ is None:
            self._succ = merge_succ_lists(self.index, self.components)
        return self._succ

    @property
    def chains(self) -> dict[int, list[int]]:
        if self._chains is None:
            self._chains = self.index.by_chain(self.components)
        return self._chains
