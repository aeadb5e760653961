"""Phase 3 of query compilation: the physical plan.

Turns a :class:`~repro.plan.logical.LogicalPlan` into concrete execution
decisions using the cost model of :mod:`repro.plan.cost`:

* which reachability index the executor should probe (the ladder of
  :func:`repro.plan.cost.choose_index`, scoped per query);
* the **operator pipeline** — an explicit ordered list of
  :class:`PhysicalOperator` rows that
  :mod:`repro.engine.operators` instantiates and runs: CandidateScan →
  one DownwardPrune per query node (in the logical plan's selectivity
  order) → UpwardPrune → BuildMatchingGraph → CollectResults for GTEA,
  or a single ConstantEmpty for plans the normalize phase proved
  unsatisfiable.  GTEA is the one executor: no cost comparison routes a
  plan anywhere else.

``explain()`` renders the operator rows with their compile-time
estimates; pass the observed
:class:`~repro.engine.operators.OperatorStats` of an execution to get
the estimated-vs-observed comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from ..graph.digraph import DataGraph
from ..graph.stats import GraphStats, graph_stats
from .cost import choose_scoped_index, scoped_index_key
from .logical import LogicalPlan
from .normalize import NormalizedQuery

#: executor names a physical plan may carry.
EXECUTORS = ("gtea", "constant-empty")


@dataclass(frozen=True)
class PhysicalOperator:
    """One row of the physical plan's operator pipeline.

    A *specification*: the executor instantiates the matching stateful
    operator class from :mod:`repro.engine.operators` at run time (plans
    are cached and reused; operator instances are not).
    """

    op: str  #: operator class name (``"DownwardPrune"``, ...).
    target: str | None = None  #: query node for per-node operators.
    estimate: int | None = None  #: estimated input elements, if priced.

    @property
    def label(self) -> str:
        return f"{self.op}({self.target})" if self.target else self.op


@dataclass(frozen=True)
class PhysicalPlan:
    """Concrete execution decisions for one compiled query.

    Attributes:
        index_name: reachability index the executor probes (resolved,
            never ``"auto"``).
        executor: one of :data:`EXECUTORS`.
        downward_order: node order for Procedure 6 (valid for the
            *rewritten* query only; executors fall back to the default
            bottom-up order when running the original query).
        index_reason: why this index was picked.
        operators: the ordered operator pipeline the executor drives
            (see :class:`PhysicalOperator`).
        index_scope: ``"full"`` (one index over the whole graph) or
            ``"partial"`` (the session's lazily filled descendant
            closure — see :mod:`repro.reachability.partial`).
        footprint_estimate: the costing-time footprint estimate behind a
            partial-scope choice; None for full-scope plans.
    """

    index_name: str
    executor: str
    downward_order: tuple[str, ...]
    index_reason: str
    operators: tuple[PhysicalOperator, ...] = ()
    index_scope: str = "full"
    footprint_estimate: int | None = None

    @property
    def scoped_index_name(self) -> str:
        """This plan's index choice with its scope
        (``"tc"``, ``"tc@partial"``, ...)."""
        return scoped_index_key(self.index_name, self.index_scope)

    def covers_query(self, query) -> bool:
        """Does the downward order cover every node of ``query``?

        :meth:`repro.engine.gtea.GTEA._instantiate` falls back to the
        default bottom-up order when it is False.
        """
        return set(self.downward_order) == set(query.nodes)

    def explain_lines(
        self, observed: "Sequence | None" = None, closure_rows: int | None = None
    ) -> list[str]:
        """Render the plan; with ``observed`` operator stats (an
        execution's ``EvaluationStats.operator_stats``), each pipeline
        row also shows what actually happened — including an early exit
        and the operators it skipped, and the visits a subtree-cache hit
        covered (``covered by subtree-cache hit at <node>``).  A session passes
        ``closure_rows``, the rows its descendant closure holds, which a
        full-scope ``tc`` line reports as ``rows filled R``."""
        if self.index_scope == "full":
            reason = self.index_reason
            if self.index_name == "tc" and closure_rows is not None:
                reason += f"; rows filled {closure_rows}"
            lines = [f"index: {self.index_name} ({reason})"]
        else:
            footprint = (
                f"footprint≈{self.footprint_estimate}"
                if self.footprint_estimate is not None
                else "footprint unknown"
            )
            lines = [
                f"index: [index {self.index_name}/{self.index_scope} · "
                f"{footprint}] ({self.index_reason})"
            ]
        lines.append(f"executor: {self.executor}")
        lines.append("operator pipeline:")
        observed_by_key: dict[tuple[str, str | None], object] = {}
        covered_by: dict[str, str] = {}
        for record in observed or ():
            observed_by_key.setdefault((record.op, record.target), record)
            covered_by.update(dict.fromkeys(record.covers, record.target))
        for step, operator in enumerate(self.operators):
            row = f"  {step:>2}. {operator.label:<28}"
            if operator.estimate is not None:
                row += f" est~{operator.estimate:<8}"
            else:
                row += " " * 13
            record = observed_by_key.get((operator.op, operator.target))
            if record is not None:
                row += (
                    f" obs in={record.input_size} out={record.output_size}"
                    f" {1e3 * record.seconds:.2f}ms probes={record.index_lookups}"
                )
                if record.note:
                    row += f" [{record.note}]"
            elif operator.target in covered_by:
                row += f" obs (covered by subtree-cache hit at {covered_by[operator.target]})"
            elif observed:
                row += " obs (not executed)"
            lines.append(row.rstrip())
        return lines


def build_operator_pipeline(
    executor: str,
    logical: LogicalPlan,
    downward_order: tuple[str, ...],
) -> tuple[PhysicalOperator, ...]:
    """The explicit operator list for one executor."""
    if executor == "constant-empty":
        return (PhysicalOperator(op="ConstantEmpty"),)
    estimates = {source.node_id: source.estimate for source in logical.sources}
    total = sum(estimates.values())
    pipeline = [PhysicalOperator(op="CandidateScan", estimate=total)]
    pipeline.extend(
        PhysicalOperator(op="DownwardPrune", target=node_id, estimate=estimates[node_id])
        for node_id in downward_order
    )
    pipeline.extend(
        [
            PhysicalOperator(op="UpwardPrune", estimate=total),
            PhysicalOperator(op="BuildMatchingGraph"),
            PhysicalOperator(op="CollectResults"),
        ]
    )
    return tuple(pipeline)


def build_physical_plan(
    graph: DataGraph,
    normalized: NormalizedQuery,
    logical: LogicalPlan,
    *,
    index: str = "auto",
    stats: GraphStats | None = None,
    pooled: Iterable[str] = (),
) -> PhysicalPlan:
    """Cost the logical plan and fix index, executor and operator list.

    Args:
        graph: the data graph.
        normalized: the normalize-phase outcome (for the unsatisfiable
            short circuit).
        logical: the logical plan to realize.
        index: an explicit index name pins the choice; ``"auto"`` lets
            the cost model decide from the graph statistics.
        stats: :func:`~repro.graph.stats.graph_stats` already in hand;
            computed on demand when omitted.
        pooled: names of full-scope indexes the session has already
            built; an already-built index makes the full arm free, so
            per-query costing never picks partial against it.
    """
    if stats is None:
        stats = graph_stats(graph)
    index_scope = "full"
    footprint_estimate: int | None = None
    if index == "auto":
        choice = choose_scoped_index(stats, logical.sources, pooled=pooled)
        index_name = choice.index_name
        index_reason = choice.reason
        index_scope = choice.scope
        if choice.scope != "full":
            footprint_estimate = choice.footprint_estimate
    else:
        # Deferred import: the factory imports this package's cost model.
        from ..reachability.factory import resolve_index

        index_name = resolve_index(graph, index)
        index_reason = "pinned by caller"

    executor = "gtea" if normalized.satisfiable else "constant-empty"
    return PhysicalPlan(
        index_name=index_name,
        executor=executor,
        downward_order=logical.downward_order,
        index_reason=index_reason,
        operators=build_operator_pipeline(executor, logical, logical.downward_order),
        index_scope=index_scope,
        footprint_estimate=footprint_estimate,
    )
