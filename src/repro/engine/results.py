"""Result enumeration from the maximal matching graph (Procedure 5).

``CollectResults`` reads each fragment of the matching graph children
first and keeps, per (query node, data node), the distinct rows of the
dominated subtree (the paper's "merges the intermediate partial results
in advance").  A row is a tuple over the subtree's output columns: the
node's own image when it is an output, then its children's columns in
query order.  A child subtree with no output column adds no columns,
only an existence bit.  Rows are deduped by set membership where two
images can give one row: below a child that is not an output.  Pruning
leaves the matching graph fully reduced, so, as in Yannakakis' join-tree
enumeration (VLDB 1981), every row extends to an answer and the work is
linear in the matching graph plus the output.  Fragments and singleton
outputs are joined by Cartesian product and one position map.

The *group* operator (Section 4.3, Remark) gives a group node's column
one element per parent row: the ``frozenset`` of its images as sorted
``(node, image)`` items; no output may lie below it
(:func:`check_group_nodes`).  *Multiple output structures* (Appendix D)
run this per output-node list over one matching graph.
"""

from __future__ import annotations

from itertools import chain
from operator import itemgetter
from typing import Iterable, Sequence

from ..query.gtpq import GTPQ
from .matching_graph import MatchingGraph
from .prune import MatSets

ResultSet = set[tuple]


def check_group_nodes(
    query: GTPQ, group_nodes: Iterable[str], outputs: Iterable[str] | None = None
) -> None:
    """Reject group nodes the group operator cannot evaluate.

    Raises ``ValueError`` for a group node that is not one of ``outputs``
    (default ``query.outputs``) and for one with another output strictly
    below it, whose column its group element would swallow.
    """
    if not group_nodes:
        return
    output_ids = list(query.outputs if outputs is None else outputs)
    stray = [node_id for node_id in group_nodes if node_id not in output_ids]
    if stray:
        raise ValueError(f"group nodes {stray!r} are not outputs of the query {output_ids!r}")
    for node_id in group_nodes:
        for output in output_ids:
            if node_id in query.ancestors(output):
                raise ValueError(f"group node {node_id!r} has the output {output!r} below it")


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
        group_nodes: output nodes whose matches are grouped into a single
            frozenset element per row instead of being expanded; they
            must pass :func:`check_group_nodes`.
    """
    output_ids = list(outputs) if outputs is not None else list(query.outputs)
    wanted = set(output_ids)
    groups = wanted.intersection(group_nodes)
    layout: list[str] = []
    fragment_rows: list[Sequence[tuple]] = []
    for root in matching_graph.roots:
        columns, rows = _enumerate_fragment(matching_graph, root, wanted, groups)
        if not rows:
            return set()
        layout.extend(columns)
        fragment_rows.append(rows)

    # Singleton outputs sit outside every fragment: one fixed value each.
    placed = set(layout)
    singles: list[object] = []
    for output in dict.fromkeys(output_ids):
        if output in placed:
            continue
        candidates = mats[output]
        if not candidates:
            return set()
        layout.append(output)
        if output in groups:
            singles.append(frozenset({((output, candidates[0]),)}))
        else:
            singles.append(candidates[0])

    if singles:
        fragment_rows.append([tuple(singles)])
    rows = _join((), fragment_rows)
    position = {column: index for index, column in enumerate(layout)}
    order = [position[output] for output in output_ids]
    if order == list(range(len(layout))):
        return set(rows)
    return set(map(itemgetter(*order), rows))


def _enumerate_fragment(
    matching_graph: MatchingGraph,
    root: str,
    wanted: set[str],
    groups: set[str],
) -> tuple[tuple[str, ...], Sequence[tuple]]:
    """The column order and the distinct rows of one fragment, read
    children first: per node and vertex, the rows of the dominated
    subtree (empty for a vertex without complete matches)."""
    children, branches = matching_graph.children, matching_graph.branches
    preorder = [root]
    for node_id in preorder:
        preorder.extend(children[node_id])
    columns: dict[str, tuple[str, ...]] = {}
    tables: dict[str, dict[int, Sequence[tuple]]] = {}
    no_branches: dict[str, list[int]] = {}
    for node_id in reversed(preorder):
        child_ids = children[node_id]
        own = node_id in wanted
        if node_id in groups:
            columns[node_id] = (node_id,)
        else:
            columns[node_id] = ((node_id,) if own else ()) + tuple(
                chain.from_iterable(columns[child_id] for child_id in child_ids)
            )
        table = tables[node_id] = {}
        for vertex in matching_graph.vertices.get(node_id, []):
            branch = branches.get((node_id, vertex), no_branches)
            factors: list[Sequence[tuple]] = []
            rows: Sequence[tuple] = ()
            for child_id in child_ids:
                targets = branch.get(child_id, ())
                child_table = tables[child_id]
                if not columns[child_id]:
                    # The existence bit: one row of no columns, or none.
                    if not any(child_table[target] for target in targets):
                        break
                    continue
                if child_id in groups:
                    element = frozenset(
                        [((child_id, target),) for target in targets if child_table[target]]
                    )
                    factor = [(element,)] if element else []
                elif len(targets) == 1:
                    factor = child_table[targets[0]]
                elif child_id in wanted:
                    factor = [row for target in targets for row in child_table[target]]
                else:
                    factor = list({row for target in targets for row in child_table[target]})
                if not factor:
                    break
                factors.append(factor)
            else:
                rows = _join((vertex,) if own else (), factors)
            table[vertex] = rows
    table = tables[root]
    vertices = matching_graph.vertices.get(root, [])
    if root in wanted:
        return columns[root], [row for vertex in vertices for row in table[vertex]]
    return columns[root], list({row for vertex in vertices for row in table[vertex]})


def _join(prefix: tuple, factors: list[Sequence[tuple]]) -> Sequence[tuple]:
    """``prefix`` followed by each combination of one row per factor."""
    if not factors:
        return [prefix]
    rows = [prefix + row for row in factors[0]] if prefix else factors[0]
    for factor in factors[1:]:
        rows = [row + tail for row in rows for tail in factor]
    return rows
