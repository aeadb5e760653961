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

    def explain(self, observed=None, index_line=None) -> str:
        """Render every compilation stage, one section per phase.

        Args:
            observed: optional operator records of one execution
                (``EvaluationStats.operator_stats``); the physical-plan
                section then shows estimated *and* observed per-operator
                stats, including runtime reorderings.
            index_line: the index line a session prints instead of the
                plan's own: the index the plan runs on there, with what
                its closure has filled.
        """
        sections = [
            ("normalize", self.normalized.explain_lines()),
            ("logical plan", self.logical.explain_lines()),
            ("physical plan", self.physical.explain_lines(observed, index_line)),
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
) -> CompiledPlan:
    """Compile ``query`` for evaluation over ``graph``.

    Args:
        graph: the data graph.
        query: the query to compile.
        index: reachability index name, or ``"auto"`` (``tc``, the
            closure filled on demand under a byte budget).
        minimize: run Algorithm-1 minimization during the normalize
            phase (simplification and the satisfiability short circuit
            always run).
    """
    return compile_normalized(graph, normalize(query, minimize=minimize), index=index)


def compile_normalized(
    graph: DataGraph,
    normalized: NormalizedQuery,
    *,
    index: str = "auto",
) -> CompiledPlan:
    """The logical and physical stages of :func:`compile_query`, for a
    query already through the normalize phase (a session replays it from
    its memo)."""
    logical = build_logical_plan(graph, normalized)
    physical = build_physical_plan(graph, normalized, logical, index=index)
    return CompiledPlan(normalized=normalized, logical=logical, physical=physical)
