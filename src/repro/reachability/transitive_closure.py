"""Packed-bitset transitive closure.

The simplest correct reachability index: one numpy bit row per DAG node.
Quadratic space, so only suitable for small-to-medium graphs — it serves as
(a) the test oracle every other index is validated against, and (b) a
baseline data point for index-size comparisons.
"""

from __future__ import annotations

import numpy as np

from .base import Dag, DagIndex


class TransitiveClosureIndex(DagIndex):
    """Strict transitive closure as packed numpy bitsets."""

    name = "tc"

    def __init__(self, dag: Dag):
        super().__init__(dag)
        n = dag.num_nodes
        width = (n + 7) // 8 if n else 0
        self._bits = np.zeros((n, width), dtype=np.uint8)
        # Reverse topological order: successors are complete before sources.
        for node in reversed(dag.order):
            row = self._bits[node]
            for successor in dag.succ[node]:
                row |= self._bits[successor]
                row[successor >> 3] |= 1 << (successor & 7)

    def reaches(self, source: int, target: int) -> bool:
        self.counters.lookups += 1
        return bool(self._bits[source, target >> 3] & (1 << (target & 7)))

    def descendants(self, source: int) -> list[int]:
        """All strict descendants of ``source`` (DAG nodes)."""
        return np.flatnonzero(self._unpacked(source)).tolist()

    def descendant_count(self, source: int) -> int:
        return int(self._unpacked(source).sum())

    def _unpacked(self, source: int) -> np.ndarray:
        # Rows are packed least significant bit first (``1 << (node & 7)``).
        return np.unpackbits(self._bits[source], count=self.dag.num_nodes, bitorder="little")

    def index_size(self) -> int:
        return int(self._bits.size)
