"""Chain decomposition of a DAG (the cover underlying 3-hop).

3-hop (Jin et al., SIGMOD'09) indexes reachability relative to a *chain
cover*: disjoint chains that together contain every node, where consecutive
chain nodes are ordered by reachability.  We compute a minimum **path
cover** via maximum bipartite matching (König/Dilworth style: ``#chains =
#nodes - #matching``) using Hopcroft–Karp.  A path cover is a chain cover
whose consecutive nodes are connected by *actual edges* — a property the
strict-reachability contour arguments in :mod:`repro.reachability.contour`
rely on (see DESIGN.md, semantics notes).
"""

from __future__ import annotations

from collections import deque

from .base import Dag

_INF = float("inf")


class ChainCover:
    """A chain decomposition: every DAG node lives on exactly one chain.

    Attributes:
        chains: ``chains[c]`` is the node list of chain ``c``, top to bottom
            (each consecutive pair joined by a DAG edge, so earlier nodes
            reach later ones).
        cid: chain id of each node.
        sid: 1-based sequence number of each node on its chain (the paper's
            ``sid``; larger sid = deeper on the chain).
    """

    __slots__ = ("chains", "cid", "sid")

    def __init__(self, chains: list[list[int]], num_nodes: int):
        self.chains = chains
        self.cid = [0] * num_nodes
        self.sid = [0] * num_nodes
        for chain_id, chain in enumerate(chains):
            for position, node in enumerate(chain, start=1):
                self.cid[node] = chain_id
                self.sid[node] = position

    @property
    def num_chains(self) -> int:
        return len(self.chains)

    def same_chain_reaches(self, source: int, target: int) -> bool:
        """Chain-order reachability: both on one chain and source above."""
        return self.cid[source] == self.cid[target] and self.sid[source] < self.sid[target]


def chain_decomposition(dag: Dag) -> ChainCover:
    """Minimum path cover of ``dag`` via Hopcroft–Karp matching.

    Returns a :class:`ChainCover`.  Deterministic for a fixed DAG: node
    scans follow topological order.
    """
    matched_succ, matched_pred = _hopcroft_karp(dag)
    chains: list[list[int]] = []
    for node in dag.order:
        if matched_pred[node] is not None:
            continue  # not a chain head
        chain = [node]
        current = matched_succ[node]
        while current is not None:
            chain.append(current)
            current = matched_succ[current]
        chains.append(chain)
    return ChainCover(chains, dag.num_nodes)


def _hopcroft_karp(dag: Dag) -> tuple[list[int | None], list[int | None]]:
    """Maximum matching in the bipartite out/in split of the DAG edges.

    Returns ``(matched_succ, matched_pred)``: for each node, its matched
    successor (the next node on its chain) and matched predecessor.
    """
    n = dag.num_nodes
    matched_succ: list[int | None] = [None] * n
    matched_pred: list[int | None] = [None] * n

    # Greedy warm start (big constant-factor win on tree-like graphs).
    for node in dag.order:
        if matched_succ[node] is None:
            for successor in dag.succ[node]:
                if matched_pred[successor] is None:
                    matched_succ[node] = successor
                    matched_pred[successor] = node
                    break

    distance: list[float] = [0.0] * n

    def bfs() -> bool:
        queue: deque[int] = deque()
        for node in range(n):
            if matched_succ[node] is None:
                distance[node] = 0
                queue.append(node)
            else:
                distance[node] = _INF
        found_augmenting = False
        while queue:
            node = queue.popleft()
            for successor in dag.succ[node]:
                owner = matched_pred[successor]
                if owner is None:
                    found_augmenting = True
                elif distance[owner] == _INF:
                    distance[owner] = distance[node] + 1
                    queue.append(owner)
        return found_augmenting

    def dfs(node: int) -> bool:
        for successor in dag.succ[node]:
            owner = matched_pred[successor]
            if owner is None or (
                distance[owner] == distance[node] + 1 and dfs(owner)
            ):
                matched_succ[node] = successor
                matched_pred[successor] = node
                return True
        distance[node] = _INF
        return False

    import sys

    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, n + 1000))
    try:
        while bfs():
            for node in range(n):
                if matched_succ[node] is None:
                    dfs(node)
    finally:
        sys.setrecursionlimit(old_limit)
    return matched_succ, matched_pred
