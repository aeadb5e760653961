"""Phase 3 of query compilation: the physical plan.

Turns a :class:`~repro.plan.logical.LogicalPlan` into concrete execution
decisions using the cost model of :mod:`repro.plan.cost`:

* which reachability index the executor should probe: ``"auto"`` is
  ``tc``, the descendant closure a session fills on demand under a byte
  budget (:mod:`repro.plan.cost`), and a pinned name is kept;
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
from typing import Sequence

from ..graph.digraph import DataGraph
from . import cost
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
    """

    index_name: str
    executor: str
    downward_order: tuple[str, ...]
    index_reason: str
    operators: tuple[PhysicalOperator, ...] = ()

    #: not a field: read by ``benchmarks/e2e/layers.py`` (ROADMAP item 1 step C).
    index_scope = "full"

    @property
    def index_line(self) -> str:
        """``explain()``'s index line as the plan alone knows it."""
        return f"index: {self.index_name} ({self.index_reason})"

    def covers_query(self, query) -> bool:
        """Does the downward order cover every node of ``query``?  Read
        by ``benchmarks/e2e/layers.py`` (ROADMAP item 1 step C)."""
        return set(self.downward_order) == set(query.nodes)

    def explain_lines(
        self, observed: "Sequence | None" = None, index_line: str | None = None
    ) -> list[str]:
        """Render the plan; with ``observed`` operator stats (an
        execution's ``EvaluationStats.operator_stats``), each pipeline
        row also shows what actually happened — including an early exit
        and the operators it skipped, and the visits a subtree-cache hit
        covered (``covered by subtree-cache hit at <node>``).  A session
        passes ``index_line``, the index the plan runs on there with what
        its closure has filled, in place of :attr:`index_line`."""
        lines = [index_line or self.index_line, f"executor: {self.executor}", "operator pipeline:"]
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
    records = logical.query.records()  # each keeps its node's last row
    for node_id in downward_order:
        record, estimate = records[node_id], estimates[node_id]
        row = record.row
        if row is None or row.estimate != estimate:
            row = PhysicalOperator(op="DownwardPrune", target=node_id, estimate=estimate)
            record.row = row
        pipeline.append(row)
    pipeline.extend([PhysicalOperator(op="UpwardPrune", estimate=total), *_UNPRICED_TAIL])
    return tuple(pipeline)


#: the rows after ``UpwardPrune``, the same in every pipeline.
_UNPRICED_TAIL = (PhysicalOperator(op="BuildMatchingGraph"), PhysicalOperator(op="CollectResults"))


def build_physical_plan(
    graph: DataGraph,
    normalized: NormalizedQuery,
    logical: LogicalPlan,
    *,
    index: str = "auto",
    stats=None,
    pooled=(),
) -> PhysicalPlan:
    """Fix index, executor and operator list of the logical plan.

    Args:
        graph: the data graph.
        normalized: the normalize-phase outcome (for the unsatisfiable
            short circuit).
        logical: the logical plan to realize.
        index: an explicit index name pins the choice; ``"auto"`` is
            ``tc``, the closure filled on demand under a byte budget.
        stats, pooled: ignored; ``benchmarks/e2e/layers.py`` passes them
            (ROADMAP item 1 step C).
    """
    if index == "auto":
        index_name = "tc"
        index_reason = f"closure filled on demand, budget {cost.AUTO_CLOSURE_MAX_BYTES} bytes"
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
    )
