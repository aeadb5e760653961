"""Common interface and shared helpers of the baseline evaluators.

Every baseline exposes ``evaluate(query) -> set[tuple]`` with tuples
aligned to the query's output nodes, and fills a
:class:`~repro.engine.stats.EvaluationStats` so the I/O experiment can
compare algorithms uniformly.

Baselines evaluate **conjunctive** queries natively; disjunction and
negation are layered on through
:mod:`repro.baselines.decompose` (the paper's Appendix C.2 set-up, where
TwigStack/TwigStackD process GTPQs via decompose-and-merge).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from ..engine.stats import EvaluationStats
from ..graph.digraph import DataGraph
from ..query.gtpq import GTPQ
from ..query.naive import candidate_nodes

ResultSet = set[tuple]


class BaselineEvaluator(ABC):
    """Base class of TwigStack / Twig2Stack / TwigStackD / HGJoin."""

    name: str = "abstract"

    def __init__(self, graph: DataGraph):
        self.graph = graph
        self.stats = EvaluationStats()

    @abstractmethod
    def evaluate(self, query: GTPQ) -> ResultSet:
        """Evaluate a conjunctive GTPQ."""

    def evaluate_with_stats(self, query: GTPQ) -> tuple[ResultSet, EvaluationStats]:
        self.stats = EvaluationStats()
        results = self.evaluate(query)
        self.stats.result_count = len(results)
        return results, self.stats

    # ------------------------------------------------------------------
    def candidates(self, query: GTPQ) -> dict[str, list[int]]:
        """``mat(u)`` per query node, counted as #input."""
        mats = {u: candidate_nodes(self.graph, query, u) for u in query.nodes}
        self.stats.input_nodes += sum(len(nodes) for nodes in mats.values())
        return mats

    @staticmethod
    def require_conjunctive(query: GTPQ) -> None:
        if not query.is_conjunctive():
            raise ValueError(
                "this baseline evaluates conjunctive queries only; wrap it "
                "with repro.baselines.decompose for general GTPQs"
            )


def project_outputs(
    query: GTPQ, matches: list[dict[str, int]]
) -> ResultSet:
    """Project full backbone matches onto the output tuple format."""
    return {
        tuple(match[node_id] for node_id in query.outputs) for match in matches
    }
