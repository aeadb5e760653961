"""Reachability indexes (substrate S3 in DESIGN.md).

The paper's evaluation framework is index-agnostic ("flexible for our
framework to use other labeling schemes", Section 4.1); the default is
3-hop, with transitive closure as an oracle, SSPI for TwigStackD and the
Agrawal tree cover for HGJoin.  :func:`build_reachability` accepts
``index="auto"`` to pick an index from the graph's shape.
"""

from .base import Dag, DagIndex, GraphReachability, IndexCounters
from .chain_cover import ChainCover, ChainCoverIndex, chain_decomposition
from .contour import (
    Contour,
    ContourIndex,
    contour_reaches_node,
    merge_pred_lists,
    merge_succ_lists,
    node_reaches_contour,
)
from .factory import (
    available_indexes,
    build_reachability,
    resolve_index,
    select_auto_index,
)
from .interval import IntervalIndex, IntervalLabeling
from .partial import (
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
    "ChainCoverIndex",
    "Contour",
    "ContourIndex",
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
    "select_auto_index",
]
