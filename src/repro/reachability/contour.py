"""Contours: merged 3-hop lists for set-reachability (paper Section 4.2.1).

The pruning framework answers many reachability queries between a node and
a *set* ``mat(u)`` of candidates.  Instead of pairwise index probes it
merges the complete predecessor (resp. successor) lists of the whole set
into a single per-chain extremum — the **predecessor contour** ``Cp``
(resp. **successor contour** ``Cs``) of Procedure 2 / MergeSuccLists — and
then applies Proposition 7:

* ``v`` reaches ``mat(u)``  iff  ∃ chain ``c``: ``X_v[c] <= Cp[c]``;
* ``mat(u)`` reaches ``v``  iff  ∃ chain ``c``: ``Cs[c] <= Y_v[c]``.

Strictness discipline (docs/ARCHITECTURE.md, "Reachability and pruning"):
contours are built from *strict* predecessor/successor lists — a set
member's own chain position is replaced by its chain neighbour — while the
probing side ``X_v``/``Y_v`` stays inclusive.  On a DAG with real-edge
chains this makes both checks answer exactly "nonempty path", with no
diagonal false positives.

Two observations keep merging linear (the paper's cost analysis):

* on each chain only the *extremal* set member matters — every other
  member's list is dominated by it;
* walking a chain never re-scans a region another member already covered
  (the ``visited`` bookkeeping of Procedure 2).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:  # three_hop imports this module
    from .three_hop import ThreeHopIndex


class Contour:
    """A per-chain extremum map ``{chain id: sequence number}``.

    For predecessor contours the value is the *largest* sid on the chain
    that strictly reaches the underlying set; for successor contours the
    *smallest* sid strictly reachable from it.
    """

    __slots__ = ("data",)

    def __init__(self, data: dict[int, int] | None = None):
        self.data = data if data is not None else {}

    def __len__(self) -> int:
        return len(self.data)

    def __eq__(self, other) -> bool:
        return isinstance(other, Contour) and self.data == other.data

    def __repr__(self) -> str:
        return f"Contour({self.data!r})"

    def get(self, chain: int) -> int | None:
        return self.data.get(chain)


def merge_pred_lists(index: ThreeHopIndex, nodes: Iterable[int]) -> Contour:
    """MergePredLists (Procedure 2): strict predecessor contour of a set.

    Args:
        index: the 3-hop index.
        nodes: DAG nodes of the set (duplicates are fine).
    """
    cover = index.cover
    # Per chain, only the deepest (largest sid) member matters: everything
    # reaching a shallower member also reaches it through the chain.
    deepest: dict[int, int] = {}
    for node in nodes:
        chain = cover.cid[node]
        if chain not in deepest or cover.sid[node] > cover.sid[deepest[chain]]:
            deepest[chain] = node
    contour: dict[int, int] = {}
    for chain, node in deepest.items():
        index.counters.lookups += 1
        # Own-chain strict entry: the chain predecessor reaches the member
        # through a real edge.
        own_sid = cover.sid[node]
        if own_sid > 1 and contour.get(chain, 0) < own_sid - 1:
            contour[chain] = own_sid - 1
        for entry_chain, seq in index.iter_in_entries(node):
            if contour.get(entry_chain, seq - 1) < seq:
                contour[entry_chain] = seq
    return Contour(contour)


def merge_succ_lists(index: ThreeHopIndex, nodes: Iterable[int]) -> Contour:
    """MergeSuccLists: strict successor contour of a set."""
    cover = index.cover
    shallowest: dict[int, int] = {}
    for node in nodes:
        chain = cover.cid[node]
        if chain not in shallowest or cover.sid[node] < cover.sid[shallowest[chain]]:
            shallowest[chain] = node
    contour: dict[int, int] = {}
    for chain, node in shallowest.items():
        index.counters.lookups += 1
        own_sid = cover.sid[node]
        if own_sid < len(cover.chains[chain]):
            successor_sid = own_sid + 1
            if contour.get(chain, successor_sid + 1) > successor_sid:
                contour[chain] = successor_sid
        for entry_chain, seq in index.iter_out_entries(node):
            if contour.get(entry_chain, seq + 1) > seq:
                contour[entry_chain] = seq
    return Contour(contour)


def node_reaches_contour(index: ThreeHopIndex, node: int, contour: Contour) -> bool:
    """Proposition 7, downward direction: does ``node`` reach the set?

    ``X_node`` (inclusive) is streamed entry-by-entry against the strict
    predecessor contour; the walk short-circuits on the first witness.
    """
    index.counters.lookups += 1
    cover = index.cover
    own = contour.get(cover.cid[node])
    if own is not None and cover.sid[node] <= own:
        return True
    for chain, seq in index.iter_out_entries(node):
        upper = contour.get(chain)
        if upper is not None and seq <= upper:
            return True
    return False


def contour_reaches_node(index: ThreeHopIndex, node: int, contour: Contour) -> bool:
    """Proposition 7, upward direction: does the set reach ``node``?"""
    index.counters.lookups += 1
    cover = index.cover
    own = contour.get(cover.cid[node])
    if own is not None and own <= cover.sid[node]:
        return True
    for chain, seq in index.iter_in_entries(node):
        lower = contour.get(chain)
        if lower is not None and lower <= seq:
            return True
    return False
