"""repro — reproduction of "Adding Logical Operators to Tree Pattern
Queries on Graph-Structured Data" (Zeng, Jiang, Zhuge; VLDB 2012).

The package implements the paper's full stack:

* :mod:`repro.query` — GTPQs: tree patterns over graphs whose structural
  predicates are arbitrary AND/OR/NOT formulas;
* :mod:`repro.engine` — GTEA, the contour-pruning + matching-graph
  evaluation algorithm (the paper's core contribution);
* :mod:`repro.analysis` — satisfiability, containment/equivalence and
  minimization decision procedures;
* :mod:`repro.plan` — the query compiler: normalize (simplify /
  satisfiability / minimization) → logical plan → cost-based physical
  plan, with ``explain()`` at every stage;
* :mod:`repro.reachability` — 3-hop and the other reachability indexes;
* :mod:`repro.baselines` — TwigStack, Twig2Stack, TwigStackD, HGJoin;
* :mod:`repro.datasets` — XMark-like / arXiv-like / DBLP-like generators
  and the paper's query workloads.

Quickstart::

    from repro import DataGraph, GTEA, QueryBuilder

    graph = DataGraph.from_edges("abc", [(0, 1), (1, 2)])
    query = (
        QueryBuilder()
        .backbone("x", label="a")
        .predicate("p", parent="x", label="b")
        .predicate("q", parent="x", label="c")
        .structural("x", "p & !q")
        .outputs("x")
        .build()
    )
    answer = GTEA(graph).evaluate(query)
"""

from .analysis import (
    are_equivalent,
    is_contained,
    is_query_satisfiable,
    minimize_query,
)
from .engine import GTEA, QuerySession
from .graph import DataGraph
from .plan import CompiledPlan, compile_query
from .query import (
    AttributePredicate,
    EdgeType,
    GTPQ,
    QueryBuilder,
    evaluate_naive,
)
from .reachability import build_reachability

__version__ = "1.0.0"

__all__ = [
    "AttributePredicate",
    "CompiledPlan",
    "DataGraph",
    "EdgeType",
    "GTEA",
    "GTPQ",
    "QueryBuilder",
    "QuerySession",
    "are_equivalent",
    "build_reachability",
    "compile_query",
    "evaluate_naive",
    "is_contained",
    "is_query_satisfiable",
    "minimize_query",
]
