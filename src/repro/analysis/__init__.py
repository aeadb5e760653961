"""Query analysis (docs/ARCHITECTURE.md, Layer 1): Section 3's decision procedures."""

from .containment import (
    are_equivalent,
    are_isomorphic,
    find_homomorphism,
    is_contained,
)
from .minimization import minimize_query
from .satisfiability import is_query_satisfiable, normalize_query
from .structure import AnalysisContext, QueryAnalysis

__all__ = [
    "AnalysisContext",
    "QueryAnalysis",
    "are_equivalent",
    "are_isomorphic",
    "find_homomorphism",
    "is_contained",
    "is_query_satisfiable",
    "minimize_query",
    "normalize_query",
]
