"""TwigStack — the classical holistic twig join (Bruno et al., SIGMOD'02).

Operates on tree/forest data with interval-encoded streams, one stack per
query node, the ``getNext`` skip routine, root-to-leaf *path solutions*
and a final merge join of path lists — the tuple-shaped intermediate
results whose size the paper's Fig. 10 contrasts with GTEA's matching
graph.

Scope notes (the baselines' checks: docs/ARCHITECTURE.md, "Invariants the
layers preserve"):

* optimal for AD-only twigs, as in the original; PC query edges are
  treated as AD during the join and enforced by a level post-filter on
  merged twig matches (the classical suboptimality);
* graph data must go through :mod:`repro.baselines.tree_decompose`.
"""

from __future__ import annotations


from math import inf

from ..graph.digraph import DataGraph
from ..query.gtpq import GTPQ, EdgeType
from ..reachability.interval import IntervalLabeling
from .base import BaselineEvaluator, ResultSet, project_outputs


class _Stream:
    """A sorted candidate stream with a cursor (``T_q`` in the paper)."""

    __slots__ = ("nodes", "position", "labeling")

    def __init__(self, nodes: list[int], labeling: IntervalLabeling):
        self.nodes = labeling.sort_by_start(nodes)
        self.position = 0
        self.labeling = labeling

    @property
    def exhausted(self) -> bool:
        return self.position >= len(self.nodes)

    @property
    def next_l(self) -> float:
        if self.exhausted:
            return inf
        return self.labeling.start[self.nodes[self.position]]

    @property
    def next_r(self) -> float:
        if self.exhausted:
            return inf
        return self.labeling.end[self.nodes[self.position]]

    def head(self) -> int:
        return self.nodes[self.position]

    def advance(self) -> None:
        self.position += 1


class _StackEntry:
    __slots__ = ("node", "parent_index")

    def __init__(self, node: int, parent_index: int):
        self.node = node
        self.parent_index = parent_index  # top of parent stack at push time


class TwigStack(BaselineEvaluator):
    """Holistic twig join over forest-shaped data."""

    name = "TwigStack"

    def __init__(self, graph: DataGraph, labeling: IntervalLabeling | None = None):
        super().__init__(graph)
        self.labeling = labeling if labeling is not None else IntervalLabeling(graph)

    def evaluate(self, query: GTPQ) -> ResultSet:
        self.require_conjunctive(query)
        matches = self.full_matches(query)
        return project_outputs(query, matches)

    # ------------------------------------------------------------------
    def full_matches(self, query: GTPQ) -> list[dict[str, int]]:
        """All twig matches as node->data dictionaries."""
        mats = self.candidates(query)
        if any(not mats[u] for u in query.nodes):
            return []
        labeling = self.labeling
        streams = {u: _Stream(mats[u], labeling) for u in query.nodes}
        stacks: dict[str, list[_StackEntry]] = {u: [] for u in query.nodes}
        leaves = [u for u in query.nodes if query.is_leaf(u)]
        path_solutions: dict[str, list[dict[str, int]]] = {u: [] for u in leaves}

        subtree_of = {u: query.subtree_nodes(u) for u in query.nodes}

        def subtree_exhausted(q: str) -> bool:
            return all(streams[u].exhausted for u in subtree_of[q])

        def get_next(q: str) -> str:
            """getNext of the original, with one refinement: subtrees whose
            streams are fully exhausted are skipped, so the returned node
            always has a stream head to process (new matches can still
            combine with already-emitted path solutions of the exhausted
            branch)."""
            if query.is_leaf(q):
                return q
            active = [
                c for c in query.children[q] if not subtree_exhausted(c)
            ]
            if not active:
                return q
            for child in active:
                ni = get_next(child)
                if ni != child:
                    return ni
            n_min = min(active, key=lambda c: streams[c].next_l)
            n_max = max(active, key=lambda c: streams[c].next_l)
            while streams[q].next_r < streams[n_max].next_l:
                streams[q].advance()
            if streams[q].next_l < streams[n_min].next_l:
                return q
            return n_min

        def clean_stack(stack: list[_StackEntry], act_l: float) -> None:
            while stack and labeling.end[stack[-1].node] < act_l:
                stack.pop()

        def emit_paths(q: str) -> None:
            """Blocking-style expansion of root-to-leaf path solutions."""
            chain = query.path_to_root(q)  # leaf .. root
            entry = stacks[q][-1]
            partial: list[tuple[dict[str, int], int]] = [({q: entry.node}, entry.parent_index)]
            for ancestor in chain[1:]:
                expanded: list[tuple[dict[str, int], int]] = []
                ancestor_stack = stacks[ancestor]
                for row, limit in partial:
                    for index in range(min(limit + 1, len(ancestor_stack))):
                        anc_entry = ancestor_stack[index]
                        new_row = dict(row)
                        new_row[ancestor] = anc_entry.node
                        expanded.append((new_row, anc_entry.parent_index))
                partial = expanded
            path_solutions[q].extend(row for row, __ in partial)

        root = query.root
        while not subtree_exhausted(root):
            q = get_next(root)
            if streams[q].exhausted:  # pragma: no cover - defensive
                break
            parent = query.parent.get(q)
            if parent is not None:
                clean_stack(stacks[parent], streams[q].next_l)
            if parent is None or stacks[parent]:
                clean_stack(stacks[q], streams[q].next_l)
                parent_top = len(stacks[parent]) - 1 if parent is not None else -1
                stacks[q].append(_StackEntry(streams[q].head(), parent_top))
                streams[q].advance()
                if query.is_leaf(q):
                    emit_paths(q)
                    stacks[q].pop()
            else:
                streams[q].advance()

        # Tuple-shaped intermediate results: total path solutions stored.
        self.stats.intermediate_tuples += sum(
            len(rows) for rows in path_solutions.values()
        )
        matches = self._merge_paths(query, leaves, path_solutions)
        return [m for m in matches if self._pc_edges_hold(query, m)]

    # ------------------------------------------------------------------
    def _merge_paths(
        self,
        query: GTPQ,
        leaves: list[str],
        path_solutions: dict[str, list[dict[str, int]]],
    ) -> list[dict[str, int]]:
        """N-way hash join of per-leaf path solution lists."""
        if not leaves:
            return []
        combined = path_solutions[leaves[0]]
        combined_keys = set(query.path_to_root(leaves[0]))
        for leaf in leaves[1:]:
            rows = path_solutions[leaf]
            keys = combined_keys & set(query.path_to_root(leaf))
            key_list = sorted(keys)
            bucket: dict[tuple, list[dict[str, int]]] = {}
            for row in rows:
                bucket.setdefault(tuple(row[k] for k in key_list), []).append(row)
            next_combined: list[dict[str, int]] = []
            for row in combined:
                for other in bucket.get(tuple(row[k] for k in key_list), []):
                    merged = dict(row)
                    merged.update(other)
                    next_combined.append(merged)
            combined = next_combined
            combined_keys |= set(query.path_to_root(leaf))
            self.stats.intermediate_tuples += len(combined)
        return combined

    def _pc_edges_hold(self, query: GTPQ, match: dict[str, int]) -> bool:
        for node_id, parent_id in query.parent.items():
            if query.edge_type(node_id) is EdgeType.CHILD:
                if not self.labeling.is_parent(match[parent_id], match[node_id]):
                    return False
        return True
