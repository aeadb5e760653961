"""Baseline algorithms: the paper's competitors, checked against the oracle
(docs/ARCHITECTURE.md, "Invariants the layers preserve")."""

from .base import BaselineEvaluator, ResultSet, project_outputs
from .decompose import DecomposingEvaluator, enumerate_conjunctive_variants
from .hgjoin import HGJoinPlus, HGJoinStar
from .tree_decompose import (
    CrossAwareTreeSolver,
    DecomposedQuery,
    TreeDecomposedEvaluator,
    decompose_at_cross_edges,
    spanning_forest_edges,
)
from .twig2stack import Twig2Stack
from .twigstack import TwigStack
from .twigstackd import TwigStackD

__all__ = [
    "BaselineEvaluator",
    "CrossAwareTreeSolver",
    "DecomposedQuery",
    "DecomposingEvaluator",
    "HGJoinPlus",
    "HGJoinStar",
    "ResultSet",
    "TreeDecomposedEvaluator",
    "Twig2Stack",
    "TwigStack",
    "TwigStackD",
    "decompose_at_cross_edges",
    "enumerate_conjunctive_variants",
    "project_outputs",
    "spanning_forest_edges",
]
