"""Twig2Stack (Chen et al., VLDB'06) — bottom-up hierarchical-stack twig join.

Twig2Stack's signature property is that it never enumerates root-to-leaf
path solutions: candidates are organized bottom-up into hierarchical
stacks (stack trees) that share sub-results, and twig matches are
enumerated only at the end.  Our implementation keeps that structure —
per query node a start-ordered match list with *branch links* to child
matches (the stack-tree encoding), built bottom-up with interval range
queries — and pays the corresponding overheads the paper observed on
XMark: maintaining the hierarchical structures costs more than TwigStack's
stacks when documents are shallow.

Simplification (the baselines' checks: docs/ARCHITECTURE.md, "Invariants
the layers preserve"): the original's document-order
sweep with in-place stack merging is replaced by an equivalent bottom-up
pass per query node over start-sorted candidates; the produced encoding
(entries + links) and the enumeration are the same.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import product

from ..graph.digraph import DataGraph
from ..query.gtpq import GTPQ, EdgeType
from ..reachability.interval import IntervalLabeling
from .base import BaselineEvaluator, ResultSet, project_outputs


class Twig2Stack(BaselineEvaluator):
    """Bottom-up twig matching with graph-like stack-tree encoding."""

    name = "Twig2Stack"

    def __init__(self, graph: DataGraph, labeling: IntervalLabeling | None = None):
        super().__init__(graph)
        self.labeling = labeling if labeling is not None else IntervalLabeling(graph)

    def evaluate(self, query: GTPQ) -> ResultSet:
        self.require_conjunctive(query)
        return project_outputs(query, self.full_matches(query))

    def full_matches(self, query: GTPQ) -> list[dict[str, int]]:
        mats = self.candidates(query)
        labeling = self.labeling
        # Hierarchical encoding: per query node, matches sorted by start
        # plus branch links (lists of child-match positions).
        entries: dict[str, list[int]] = {}
        starts: dict[str, list[int]] = {}
        links: dict[str, list[dict[str, list[int]]]] = {}
        for node_id in query.bottom_up():
            sorted_nodes = labeling.sort_by_start(mats[node_id])
            child_ids = query.children[node_id]
            kept: list[int] = []
            kept_links: list[dict[str, list[int]]] = []
            for data_node in sorted_nodes:
                branch: dict[str, list[int]] = {}
                satisfied = True
                for child_id in child_ids:
                    lo = bisect_right(starts[child_id], labeling.start[data_node])
                    hi = bisect_right(starts[child_id], labeling.end[data_node])
                    positions = list(range(lo, hi))
                    if query.edge_type(child_id) is EdgeType.CHILD:
                        positions = [
                            p for p in positions
                            if labeling.level[entries[child_id][p]]
                            == labeling.level[data_node] + 1
                        ]
                    if not positions:
                        satisfied = False
                        break
                    branch[child_id] = positions
                if satisfied:
                    kept.append(data_node)
                    kept_links.append(branch)
            entries[node_id] = kept
            starts[node_id] = [labeling.start[n] for n in kept]
            links[node_id] = kept_links
            # Hierarchical-stack space: entries plus links (#intermediate).
            self.stats.intermediate_tuples += len(kept) + sum(
                len(p) for b in kept_links for p in b.values()
            )

        # Enumerate twig matches from the root encoding.
        matches: list[dict[str, int]] = []
        memo: dict[tuple[str, int], list[dict[str, int]]] = {}

        def expand(node_id: str, position: int) -> list[dict[str, int]]:
            key = (node_id, position)
            if key in memo:
                return memo[key]
            data_node = entries[node_id][position]
            child_ids = query.children[node_id]
            if not child_ids:
                memo[key] = [{node_id: data_node}]
                return memo[key]
            per_child: list[list[dict[str, int]]] = []
            for child_id in child_ids:
                rows: list[dict[str, int]] = []
                for child_position in links[node_id][position][child_id]:
                    rows.extend(expand(child_id, child_position))
                per_child.append(rows)
            out: list[dict[str, int]] = []
            for combination in product(*per_child):
                merged = {node_id: data_node}
                for piece in combination:
                    merged.update(piece)
                out.append(merged)
            memo[key] = out
            return out

        for position in range(len(entries[query.root])):
            matches.extend(expand(query.root, position))
        return matches
