"""Result enumeration from the maximal matching graph (Procedure 5).

``CollectResults`` traverses the matching graph top-down, producing per
(query node, data node) the set of output tuples of the dominated subtree,
combining branch lists by Cartesian product and memoizing shared vertices
(the paper's "merges the intermediate partial results in advance").

Also implements the two extensions from the paper:

* the *group* operator (Section 4.3, Remark): a grouped node contributes a
  single element carrying the set of its subtree matches;
* *multiple output structures* (Appendix D): several output-node lists
  evaluated in one pass over the same matching graph.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable

from ..query.gtpq import GTPQ
from .matching_graph import MatchingGraph
from .prune import MatSets

ResultSet = set[tuple]


def collect_results(
    query: GTPQ,
    matching_graph: MatchingGraph,
    mats: MatSets,
    outputs: list[str] | None = None,
    group_nodes: Iterable[str] = (),
) -> ResultSet:
    """Assemble the final answer.

    Args:
        query: the evaluated query.
        matching_graph: matches of the shrunk prime subtree fragments.
        mats: pruned candidate sets (supplies singleton outputs).
        outputs: output-node list (defaults to ``query.outputs``).
        group_nodes: output nodes whose subtree matches are grouped into a
            single frozenset element instead of being expanded.
    """
    output_ids = list(outputs) if outputs is not None else list(query.outputs)
    group_set = set(group_nodes)
    fragment_outputs: dict[str, list[str]] = {}
    covered: set[str] = set()
    for root in matching_graph.roots:
        in_fragment = _fragment_nodes(matching_graph, root)
        frag_outputs = [o for o in output_ids if o in in_fragment]
        fragment_outputs[root] = frag_outputs
        covered.update(in_fragment)

    # Enumerate each fragment independently.
    per_fragment: list[tuple[list[str], list[dict[str, object]]]] = []
    for root in matching_graph.roots:
        columns = fragment_outputs[root]
        rows = _enumerate_fragment(matching_graph, root, set(columns), group_set)
        if not rows and _fragment_has_vertices(matching_graph, root):
            # Defensive: pruning guarantees non-emptiness, but a fragment
            # without complete matches must empty the whole answer.
            return set()
        per_fragment.append((columns, rows))
        if not rows:
            return set()

    # Singleton outputs sit outside every fragment: one fixed value each.
    singleton_values: dict[str, object] = {}
    for output in output_ids:
        if output in covered:
            continue
        candidates = mats[output]
        if not candidates:
            return set()
        if output in group_set:
            singleton_values[output] = frozenset(
                {((output, candidates[0]),)}
            )
        else:
            singleton_values[output] = candidates[0]

    results: ResultSet = set()
    fragment_rows = [rows for _, rows in per_fragment]
    for combination in product(*fragment_rows) if fragment_rows else [()]:
        merged: dict[str, object] = dict(singleton_values)
        for row in combination:
            merged.update(row)
        results.add(tuple(merged[o] for o in output_ids))
    return results


def _fragment_nodes(matching_graph: MatchingGraph, root: str) -> set[str]:
    nodes = {root}
    stack = [root]
    while stack:
        current = stack.pop()
        for child_id in matching_graph.children.get(current, []):
            nodes.add(child_id)
            stack.append(child_id)
    return nodes


def _fragment_has_vertices(matching_graph: MatchingGraph, root: str) -> bool:
    return bool(matching_graph.vertices.get(root))


def _enumerate_fragment(
    matching_graph: MatchingGraph,
    root: str,
    outputs: set[str],
    group_set: set[str],
) -> list[dict[str, object]]:
    """All output rows of one fragment (union over root candidates)."""
    memo: dict[tuple[str, int], list[dict[str, object]]] = {}

    def visit(node_id: str, data_node: int) -> list[dict[str, object]]:
        key = (node_id, data_node)
        if key in memo:
            return memo[key]
        child_ids = matching_graph.children.get(node_id, [])
        branch_lists = matching_graph.branches.get(key, {})
        per_branch: list[list[dict[str, object]]] = []
        complete = True
        for child_id in child_ids:
            targets = branch_lists.get(child_id, [])
            branch_rows: list[dict[str, object]] = []
            for target in targets:
                branch_rows.extend(visit(child_id, target))
            if not branch_rows:
                complete = False
                break
            # Deduplicate rows (paper: partial results merged in advance).
            branch_rows = _dedup(branch_rows)
            if child_id in group_set:
                # Group operator (Section 4.3, Remark): the whole branch
                # collapses into one element carrying the set of subtree
                # matches instead of being Cartesian-expanded.
                grouped = frozenset(
                    tuple(sorted(row.items())) for row in branch_rows
                )
                branch_rows = [{child_id: grouped}]
            per_branch.append(branch_rows)
        if not complete:
            memo[key] = []
            return []
        rows: list[dict[str, object]] = []
        for combination in product(*per_branch) if per_branch else [()]:
            merged: dict[str, object] = {}
            for piece in combination:
                merged.update(piece)
            rows.append(merged)
        if node_id in outputs:
            # For group nodes the image participates in the branch rows so
            # the parent-level collapse sees it; for plain outputs it is
            # the tuple column.
            for row in rows:
                row[node_id] = data_node
        rows = _dedup(rows)
        memo[key] = rows
        return rows

    all_rows: list[dict[str, object]] = []
    for data_node in matching_graph.vertices.get(root, []):
        all_rows.extend(visit(root, data_node))
    # ``visit`` reaches itself through its closure: unbinding it breaks
    # that cycle, so the memo is freed here and not by the collector.
    del visit
    return _dedup(all_rows)


def _dedup(rows: list[dict[str, object]]) -> list[dict[str, object]]:
    seen: set[tuple] = set()
    out: list[dict[str, object]] = []
    for row in rows:
        key = tuple(sorted(row.items()))
        if key not in seen:
            seen.add(key)
            out.append(row)
    return out
