"""Evaluation statistics — the I/O metrics of Appendix C.1 (Fig. 10).

Three headline numbers per evaluation:

* ``input_nodes`` (#input) — data nodes fetched as candidate matches;
* ``index_entries`` (#index) — elements retrieved from index lists;
* ``intermediate_cost`` (#intermediate_results) — for GTEA, twice the node
  plus edge count of the maximal matching graph (paper's definition).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields

#: the int counters :meth:`EvaluationStats.merge` does not simply add.
_MERGE_EXCEPTIONS = {
    # a single evaluation leaves it at 0 and reads as one.
    "evaluations": lambda mine, theirs: mine + max(theirs, 1),
}


@dataclass
class EvaluationStats:
    """Counters and phase timings collected during one evaluation."""

    input_nodes: int = 0
    index_lookups: int = 0
    index_entries: int = 0
    matching_graph_nodes: int = 0
    matching_graph_edges: int = 0
    #: tuple-shaped intermediates (path solutions, join results) — used by
    #: the baseline algorithms; GTEA keeps this at zero.
    intermediate_tuples: int = 0
    #: node-level downward refinements executed (Procedure-6 node visits).
    #: A visit served from the subtree cache counts as no op, and the
    #: visits under it do not run, so reuse shows up directly as a drop
    #: in this counter.
    downward_prune_ops: int = 0
    result_count: int = 0
    #: one :class:`repro.engine.operators.OperatorStats` per executed
    #: physical operator, in execution order — the observed side of the
    #: physical plan's estimated-vs-observed ``explain()``.
    operator_stats: list = field(default_factory=list)
    candidates_initial: dict[str, int] = field(default_factory=dict)
    candidates_after_downward: dict[str, int] = field(default_factory=dict)
    candidates_after_upward: dict[str, int] = field(default_factory=dict)
    phase_seconds: dict[str, float] = field(default_factory=dict)
    # ------------------------------------------------------------------
    # Session-layer counters (repro.engine.session).  All zero when the
    # engine runs outside a QuerySession, so the paper metrics above are
    # unaffected.
    # ------------------------------------------------------------------
    #: evaluations folded into this stats object (aggregates only; a
    #: single evaluation leaves it at 0 and reads as one evaluation).
    evaluations: int = 0
    plan_cache_hits: int = 0
    plan_cache_misses: int = 0
    result_cache_hits: int = 0
    result_cache_misses: int = 0
    #: subtree-result cache (downward-pruned candidate sets keyed by
    #: canonical subtree fingerprint, per graph version): one probe per
    #: node the top-down walk reaches (a hit's descendants are never
    #: probed), or per visit where the walk does not run.
    subtree_cache_hits: int = 0
    subtree_cache_misses: int = 0
    #: batch accounting of :meth:`QuerySession.evaluate_many`.
    batch_queries: int = 0
    batch_unique_queries: int = 0

    @property
    def intermediate_cost(self) -> int:
        """The paper's #intermediate metric.

        Graph-shaped intermediates cost twice their node+edge count
        (GTEA); tuple-shaped intermediates cost one unit per stored tuple
        element set (baselines).
        """
        return 2 * (self.matching_graph_nodes + self.matching_graph_edges) + (
            self.intermediate_tuples
        )

    def time_phase(self, name: str):
        """Context manager accumulating wall time into ``phase_seconds``."""
        return _PhaseTimer(self, name)

    def merge(self, other: "EvaluationStats") -> None:
        """Fold ``other`` into this object (used by batch aggregation).

        Every int counter of the dataclass adds up (bar the
        :data:`_MERGE_EXCEPTIONS`), so a counter added to the class is
        aggregated without being listed here; phase timings accumulate
        by name; the per-query-node candidate breakdowns and per-operator
        records are dropped (they are not meaningful across different
        queries).
        """
        for name in _INT_COUNTERS:
            combine = _MERGE_EXCEPTIONS.get(name, int.__add__)
            setattr(self, name, combine(getattr(self, name), getattr(other, name)))
        for name, seconds in other.phase_seconds.items():
            self.phase_seconds[name] = self.phase_seconds.get(name, 0.0) + seconds

    @classmethod
    def aggregate(cls, many: "list[EvaluationStats]") -> "EvaluationStats":
        """Sum a list of stats into one aggregate (see :meth:`merge`)."""
        total = cls()
        for stats in many:
            total.merge(stats)
        return total


#: every int counter of the dataclass — what :meth:`EvaluationStats.merge`
#: folds (annotations are strings under ``from __future__ import annotations``).
_INT_COUNTERS = tuple(spec.name for spec in fields(EvaluationStats) if spec.type == "int")


class _PhaseTimer:
    def __init__(self, stats: EvaluationStats, name: str):
        self._stats = stats
        self._name = name
        self._start = 0.0

    def __enter__(self):
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        elapsed = time.perf_counter() - self._start
        self._stats.phase_seconds[self._name] = (
            self._stats.phase_seconds.get(self._name, 0.0) + elapsed
        )
        return False
