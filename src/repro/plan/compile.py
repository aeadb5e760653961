"""The query compiler: normalize → logical plan → physical plan.

One entry point, :func:`compile_query`, produces a :class:`CompiledPlan`
that the executors in :mod:`repro.engine` run.  The compiled artifact is
inspectable end to end — ``CompiledPlan.explain()`` renders all three
stages — and is what :class:`repro.engine.session.QuerySession` caches
per canonical query fingerprint.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..graph.digraph import DataGraph
from ..graph.stats import GraphStats
from ..query.gtpq import GTPQ
from .logical import LogicalPlan, build_logical_plan
from .normalize import NormalizedQuery, normalize
from .physical import PhysicalPlan, build_physical_plan


@dataclass(frozen=True)
class CompiledPlan:
    """A fully compiled query, ready for repeated execution."""

    normalized: NormalizedQuery
    logical: LogicalPlan
    physical: PhysicalPlan

    @property
    def original(self) -> GTPQ:
        """The query as submitted."""
        return self.normalized.original

    @property
    def query(self) -> GTPQ:
        """The (possibly rewritten) query the executor runs."""
        return self.normalized.rewritten

    @property
    def unsatisfiable(self) -> bool:
        return not self.normalized.satisfiable

    def explain(self, observed=None, closure_rows=None) -> str:
        """Render every compilation stage, one section per phase.

        Args:
            observed: optional operator records of one execution
                (``EvaluationStats.operator_stats``); the physical-plan
                section then shows estimated *and* observed per-operator
                stats, including runtime reorderings.
            closure_rows: rows the session's descendant closure holds,
                printed on a ``tc`` index line.
        """
        sections = [
            ("normalize", self.normalized.explain_lines()),
            ("logical plan", self.logical.explain_lines()),
            ("physical plan", self.physical.explain_lines(observed, closure_rows)),
        ]
        lines: list[str] = []
        for title, body in sections:
            lines.append(f"== {title} ==")
            lines.extend(body)
        return "\n".join(lines)


def compile_query(
    graph: DataGraph,
    query: GTPQ,
    *,
    index: str = "auto",
    minimize: bool = True,
    stats: GraphStats | None = None,
    pooled=(),
) -> CompiledPlan:
    """Compile ``query`` for evaluation over ``graph``.

    Args:
        graph: the data graph.
        query: the query to compile.
        index: reachability index name, or ``"auto"`` for the cost
            model's choice.
        minimize: run Algorithm-1 minimization during the normalize
            phase (simplification and the satisfiability short circuit
            always run).
        stats: :func:`~repro.graph.stats.graph_stats` already in hand;
            computed on demand when omitted.
        pooled: full-scope index names already built by the caller (the
            session's reachability pool); per-query costing treats those
            as free and never picks a partial index against them.
    """
    return compile_normalized(
        graph, normalize(query, minimize=minimize), index=index, stats=stats, pooled=pooled
    )


def compile_normalized(
    graph: DataGraph,
    normalized: NormalizedQuery,
    *,
    index: str = "auto",
    stats: GraphStats | None = None,
    pooled=(),
) -> CompiledPlan:
    """The logical and physical stages of :func:`compile_query`, for a
    query already through the normalize phase (a session replays it from
    its memo)."""
    logical = build_logical_plan(graph, normalized)
    physical = build_physical_plan(
        graph, normalized, logical, index=index, stats=stats, pooled=pooled
    )
    return CompiledPlan(normalized=normalized, logical=logical, physical=physical)
