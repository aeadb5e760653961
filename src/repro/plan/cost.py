"""The physical planner's cost model.

One decision is made here, from statistics only (no index is built and
no candidate list is materialized at costing time): the **index
choice** — the ladder of :func:`choose_index`: the lazily filled
descendant closure (``tc``) while its worst case fits a memory bound,
graph shape above it (:func:`repro.reachability.factory.select_auto_index`
delegates here, so the cost model is the single owner of the decision),
and per query the partial scope of :func:`choose_scoped_index`.  There
is no executor choice: every satisfiable plan runs on GTEA, which beats
TwigStackD even on conjunctive tree patterns (paper Figs. 8–10).

Candidate-set sizes are *estimated* from the graph's label index
(:func:`estimate_candidates`): a predicate that pins ``label`` costs one
posting-list length lookup; anything else is bounded by the node count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

from ..graph.digraph import DataGraph
from ..graph.stats import GraphStats
from ..query.gtpq import GTPQ

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .logical import CandidateSource

#: bytes the *whole* descendant closure may take for ``tc`` to be the
#: ladder's first rung.  Worst case (a total order) the closure is the
#: lower triangle, n²/2 bits = n²/16 bytes, so 64 MiB admits n ≤ 32 768;
#: rows are filled as queries read them and a real graph stays far below
#: (XMark at 13 329 nodes: 11.1 MB worst case, 4.3 MB with every row).
AUTO_CLOSURE_MAX_BYTES = 64 * 2**20

#: edge/node ratio under which a DAG counts as "near-tree".
AUTO_NEAR_TREE_RATIO = 1.1

#: the partial scope only pays while a query's footprint stays under
#: this fraction of the graph — at costing time the estimated cone, at
#: run time the closure rows one query may add.  Beyond it a full index
#: is the better thing to have built.
PARTIAL_FOOTPRINT_FRACTION = 0.25

#: estimated cone size per candidate: the label posting lists give the
#: seeds; their reachable cone is guessed at this multiple (footprints
#: are descendant-closed, so the cone can only grow the seed set).
PARTIAL_CONE_EXPANSION = 4.0


def choose_index(stats: GraphStats) -> str:
    """Cost-based index choice from graph statistics.

    The heuristic ladder:

    1. graphs whose worst-case descendant closure, ``n² / 16`` bytes,
       fits :data:`AUTO_CLOSURE_MAX_BYTES` — ``tc``, the lazily filled
       closure (:mod:`repro.reachability.partial`): nothing is built up
       front, a row is filled when a query first reads it, and the
       pruning passes test a component against a set with one AND;
    2. forests (acyclic, every non-root with exactly one parent) —
       interval labels, whose containment test is exact there;
    3. near-tree DAGs (edge count within :data:`AUTO_NEAR_TREE_RATIO` of
       the node count) — the Agrawal tree cover, which keeps one interval
       per node on such graphs;
    4. everything else — 3-hop, the paper's default.

    Above the bound cyclic graphs skip the forest/near-tree rungs: the
    statistics describe the raw graph, not its condensation, so
    tree-shape evidence is absent.
    """
    return choose_index_detail(stats)[0]


def choose_index_detail(stats: GraphStats) -> tuple[str, str]:
    """:func:`choose_index` plus the reason for the pick."""
    reason = "cost model: graph-shape ladder"
    if closure_fits(stats.num_nodes):
        ladder = "tc"
        reason = f"closure: n²/16 = {stats.num_nodes**2 // 16} bytes ≤ {AUTO_CLOSURE_MAX_BYTES}"
    elif stats.is_dag and stats.num_edges == stats.num_nodes - stats.num_roots:
        ladder = "interval"
    elif stats.is_dag and stats.num_edges <= AUTO_NEAR_TREE_RATIO * stats.num_nodes:
        ladder = "tree-cover"
    else:
        ladder = "3hop"
    return ladder, reason


def closure_fits(num_nodes: int) -> bool:
    """Does the worst-case closure of ``num_nodes`` nodes, ``n² / 16``
    bytes, fit :data:`AUTO_CLOSURE_MAX_BYTES` — is ``tc`` the first rung?"""
    return num_nodes * num_nodes // 16 <= AUTO_CLOSURE_MAX_BYTES


def scoped_index_key(index_name: str, scope: str) -> str:
    """The name of one (index, scope) arm.

    Full-scope arms keep the bare index name; partial arms append the
    scope tag (``"tc@partial"``).
    """
    return index_name if scope == "full" else f"{index_name}@{scope}"


@dataclass(frozen=True)
class IndexChoice:
    """The per-query (index, scope) decision and why it was made.

    ``scope`` is ``"full"`` (one index for the whole graph, shared by
    every query — under the closure bound that index is ``tc``, which
    fills rows as queries read them) or ``"partial"`` (above the bound:
    the same descendant closure, :mod:`repro.reachability.partial`,
    filled under a per-query budget with a full-index fallback; its index
    name is always ``"tc"``).  ``footprint_estimate`` is the costing-time
    cone estimate — the executor fills the rows the query really needs.
    """

    index_name: str
    scope: str
    reason: str
    footprint_estimate: int | None = None


def index_build_units(index_name: str, num_nodes: int, num_edges: int) -> float:
    """Rough build cost of one index, in graph-element units.

    Only the *relative* order across (index, scope) arms matters:
    interval labels and the tree cover are one traversal, and 3-hop
    (and SSPI) pays a few passes plus its chain decomposition.  (``tc`` builds nothing up front and is never priced
    here: under its bound it is the ladder's pick outright, above it the
    ladder never names it — :func:`closure_fill_units` prices its rows.)
    """
    if index_name in ("interval", "tree-cover"):
        return num_nodes + num_edges
    return 4.0 * (num_nodes + num_edges)


def closure_fill_units(rows: int, edges: int, num_nodes: int) -> float:
    """Cost of filling ``rows`` closure rows joined by ``edges`` DAG
    edges, in the units of :func:`index_build_units`: one traversal of
    the cone, each edge one OR into a row whose width follows the *graph*
    (component ids are graph-wide) — one more unit per 16 Ki nodes, i.e.
    per 2 KiB of row.  (All 9.6 K arXiv rows fill in about the time
    interval labels take to build.)"""
    return (rows + edges) * (1.0 + num_nodes / 16384.0)


def choose_scoped_index(
    stats: GraphStats,
    sources: Sequence["CandidateSource"],
    *,
    pooled: Iterable[str] = (),
) -> IndexChoice:
    """Per-query index costing: pick an (index, scope) arm.

    The ladder (:func:`choose_index_detail`) names the full-scope arm.
    Under the closure bound (:func:`closure_fits`) that arm is ``tc``,
    which already fills only the rows a query reads: it is returned as
    is and nothing below applies.  Above the bound the partial arm —
    always ``tc``, the session's descendant closure filled under a
    per-query budget — is admissible when every candidate source is
    bounded by a label posting list and the estimated footprint (seeds
    times :data:`PARTIAL_CONE_EXPANSION`, clamped to the node count)
    stays under :data:`PARTIAL_FOOTPRINT_FRACTION` of the graph; it wins
    when filling the footprint's rows (:func:`closure_fill_units` — as
    if none were filled yet) undercuts the full build.  Already-built
    pool entries (``pooled``) make the full arm free, so it always wins.
    """
    full_name, full_reason = choose_index_detail(stats)
    full = IndexChoice(full_name, "full", full_reason)
    if full_name in pooled:
        return IndexChoice(
            full_name, "full", f"pooled: {full_name} already built", None
        )
    if closure_fits(stats.num_nodes):
        # Under the bound the ladder's pick *is* the closure: there is
        # no cheaper scope to race it against.
        return full
    if not sources or any(s.source != "label-index" for s in sources):
        return full
    seeds = sum(s.estimate for s in sources)
    footprint = min(stats.num_nodes, int(PARTIAL_CONE_EXPANSION * seeds) + 1)
    if footprint > PARTIAL_FOOTPRINT_FRACTION * stats.num_nodes:
        return full
    edge_density = stats.num_edges / max(1, stats.num_nodes)
    partial_units = closure_fill_units(
        footprint, int(edge_density * footprint) + 1, stats.num_nodes
    )
    full_units = index_build_units(full_name, stats.num_nodes, stats.num_edges)
    if partial_units >= full_units:
        return full
    return IndexChoice(
        "tc",
        "partial",
        f"per-query: footprint≈{footprint} of {stats.num_nodes} nodes; "
        f"closure rows over the cone undercut a full {full_name} build",
        footprint,
    )


def estimate_candidates(graph: DataGraph, query: GTPQ) -> dict[str, int]:
    """Estimated ``|mat(u)|`` per query node, without materializing lists.

    A predicate pinning ``label`` is bounded by the posting-list length;
    any other predicate conservatively by the node count.  Extra atoms
    beyond the label pin can only shrink the set, so these are upper
    bounds — what the logical plan's prune order and the partial-scope
    footprint estimate need.
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
