"""GTPQ query model (docs/ARCHITECTURE.md, Layer 1)."""

from .attribute import AttributePredicate
from .builder import QueryBuilder
from .gtpq import GTPQ, EdgeType, QueryNode, QueryValidationError
from .naive import ResultSet, candidate_nodes, downward_match_sets, evaluate_naive
from .serialize import (
    canonical_query_dict,
    predicate_key,
    query_fingerprint,
    query_from_dict,
    query_from_json,
    query_to_dict,
    query_to_json,
    subtree_fingerprint,
    subtree_fingerprints,
)
from .xpath import XPathSyntaxError, parse_xpath_query

__all__ = [
    "AttributePredicate",
    "EdgeType",
    "GTPQ",
    "QueryBuilder",
    "QueryNode",
    "XPathSyntaxError",
    "QueryValidationError",
    "ResultSet",
    "candidate_nodes",
    "downward_match_sets",
    "canonical_query_dict",
    "evaluate_naive",
    "parse_xpath_query",
    "predicate_key",
    "query_fingerprint",
    "query_from_dict",
    "query_from_json",
    "query_to_dict",
    "query_to_json",
    "subtree_fingerprint",
    "subtree_fingerprints",
]
