"""Reachability indexes (substrate S3 in DESIGN.md).

The paper's evaluation framework is index-agnostic ("flexible for our
framework to use other labeling schemes", Section 4.1).  Five index
families are registered, each reached by the paper, a baseline or the
planner's ladder: 3-hop (the paper's default), the lazily filled
descendant closure ``tc`` (what ``index="auto"`` is), interval labels and
the Agrawal tree cover (the forest and near-tree rungs of the ladder a
session falls back to past the closure's budget; the tree cover also
serves HGJoin) and SSPI (TwigStackD's index).  The
chain decomposition and the contour merges behind 3-hop and GTEA's set
pruning live in :mod:`.chain_cover` and :mod:`.contour`.
"""

from .base import Dag, DagIndex, GraphReachability, IndexCounters
from .chain_cover import ChainCover, chain_decomposition
from .contour import (
    Contour,
    contour_reaches_node,
    merge_pred_lists,
    merge_succ_lists,
    node_reaches_contour,
)
from .factory import (
    available_indexes,
    build_reachability,
    resolve_index,
)
from .interval import IntervalIndex, IntervalLabeling
from .partial import (
    ClosureBudgetError,
    DescendantClosure,
    Footprint,
    PartialReachability,
    build_partial_reachability,
    candidate_cone,
    domain_fingerprint,
    mask,
)
from .sspi import SSPIIndex
from .three_hop import ThreeHopIndex
from .tree_cover import TreeCoverIndex

__all__ = [
    "ChainCover",
    "ClosureBudgetError",
    "Contour",
    "Dag",
    "DagIndex",
    "DescendantClosure",
    "Footprint",
    "GraphReachability",
    "IndexCounters",
    "IntervalIndex",
    "IntervalLabeling",
    "PartialReachability",
    "SSPIIndex",
    "ThreeHopIndex",
    "TreeCoverIndex",
    "available_indexes",
    "build_partial_reachability",
    "build_reachability",
    "candidate_cone",
    "chain_decomposition",
    "contour_reaches_node",
    "domain_fingerprint",
    "mask",
    "merge_pred_lists",
    "merge_succ_lists",
    "node_reaches_contour",
    "resolve_index",
]
