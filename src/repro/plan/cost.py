"""The physical planner's cost model.

No index is decided per query.  ``index="auto"`` is ``tc``, the
session's descendant closure, filled on demand under a byte budget
(:data:`AUTO_CLOSURE_MAX_BYTES`, counted in filled bits); past it the
session runs the ladder's pick for the version (:func:`choose_index`),
read from statistics only.  There is no executor choice either: every
satisfiable plan runs on GTEA, which beats TwigStackD even on
conjunctive tree patterns (paper Figs. 8–10).

Candidate-set sizes are *estimated* from the graph's label index
(:func:`estimate_candidates`): a predicate that pins ``label`` costs one
posting-list length lookup; anything else is bounded by the node count.
"""

from __future__ import annotations

from ..graph.digraph import DataGraph
from ..graph.stats import GraphStats
from ..query.gtpq import GTPQ

#: the bytes a session's descendant closure may fill, counted as the
#: ``bit_length()`` of its rows (:class:`repro.reachability.partial.
#: DescendantClosure`).  Row ``c`` holds fewer than ``c`` bits, so the
#: rows of an n-node graph hold at most n(n−1)/2 bits: no graph of up to
#: 32 768 nodes can reach 64 MiB (XMark at 13 329 nodes: 4.3 MB with
#: every row).  Past it the session falls back to :func:`choose_index`.
AUTO_CLOSURE_MAX_BYTES = 64 * 2**20

#: edge/node ratio under which a DAG counts as "near-tree".
AUTO_NEAR_TREE_RATIO = 1.1

#: read only by ``benchmarks/e2e/layers.py`` (ROADMAP item 1 step C).
PARTIAL_FOOTPRINT_FRACTION = 0.25


def choose_index(stats: GraphStats) -> str:
    """The full index a session runs on once its closure has passed
    :data:`AUTO_CLOSURE_MAX_BYTES`, picked from graph shape (also named
    by ``benchmarks/e2e/layers.py``):

    1. forests (acyclic, every non-root with exactly one parent) —
       interval labels, whose containment test is exact there;
    2. near-tree DAGs (edge count within :data:`AUTO_NEAR_TREE_RATIO` of
       the node count) — the Agrawal tree cover, which keeps one interval
       per node on such graphs;
    3. everything else — 3-hop, the paper's default.

    Cyclic graphs skip the forest/near-tree rungs: the statistics
    describe the raw graph, not its condensation, so tree-shape evidence
    is absent.
    """
    if stats.is_dag and stats.num_edges == stats.num_nodes - stats.num_roots:
        return "interval"
    if stats.is_dag and stats.num_edges <= AUTO_NEAR_TREE_RATIO * stats.num_nodes:
        return "tree-cover"
    return "3hop"


def estimate_candidates(graph: DataGraph, query: GTPQ) -> dict[str, int]:
    """Estimated ``|mat(u)|`` per query node, without materializing lists.

    A predicate pinning ``label`` is bounded by the posting-list length;
    any other predicate conservatively by the node count.  Extra atoms
    beyond the label pin can only shrink the set, so these are upper
    bounds — what the logical plan's prune order needs.
    """
    estimates: dict[str, int] = {}
    for node_id in query.nodes:
        predicate = query.attribute(node_id)
        pinned = next(
            (
                constant
                for attribute, op, constant in predicate.atoms
                if attribute == "label" and op == "="
            ),
            None,
        )
        if pinned is not None:
            estimates[node_id] = len(graph.nodes_with_label(pinned))
        else:
            estimates[node_id] = graph.num_nodes
    return estimates
