"""The measurement method: speed normalisation, blocks, estimators.

Named parts (README.md explains why each exists):

* the calibration kernel (``Calibrator.run_kernel``) / ``KREF_MS`` — a
  fixed pure-Python kernel timed between operations; an operation's *speed factor* is the mean of the
  kernel timings nearest to it over ``KREF_MS``, and its timing is
  divided by that.  The result is in ``nms`` (normalised milliseconds):
  equal to ms on a machine running at reference speed.  The kernel and
  ``KREF_MS`` never change — they are the unit.
* rounds — a workload replays byte-identical inputs against fresh
  program state several times; every operation's timing is the **median
  across rounds** of that operation's normalised timings, and the
  end-to-end metrics are computed over those per-operation medians.
"""

from __future__ import annotations

import statistics
import time

#: reference time of one kernel run; fixed forever (it defines nms).
KREF_MS = 4.0

_SMALL_NODES = 256
_SMALL_SWEEPS = 6
_SMALL_KEEP = 160
_BIG_NODES = 1 << 14
_BIG_VISITS = 2048
_BIG_BATCH = 256
_FANOUT = 8


class _Cell:
    __slots__ = ("weight", "bias")

    def __init__(self, weight: int, bias: int):
        self.weight = weight
        self.bias = bias

    def score(self, hits: int) -> int:
        return self.weight + hits if hits & 1 else self.bias - hits


def _sweep_small(cells, successors) -> int:
    """Prune sweeps over a 256-node graph: the cache-resident half."""
    alive = set(range(0, _SMALL_NODES, 2))
    total = 0
    for sweep in range(_SMALL_SWEEPS):
        survivors = []
        for node in range(_SMALL_NODES):
            hits = [target for target in successors[node] if target in alive]
            if hits:
                survivors.append((cells[node].score(len(hits)), node))
        survivors.sort()
        alive = {node for _, node in survivors[:_SMALL_KEEP]}
        alive.add(sweep % _SMALL_NODES)
        total += len(survivors)
    return total


def _visit_big(ids, cells, successors, alive, order, offset: int) -> int:
    """The same loop body over 2 048 scattered nodes of a 16 384-node
    graph (≈3 MB of tuples, cells and ints): the half that misses the
    cache the way the engine's walks over graph and index do."""
    total = 0
    for start in range(0, _BIG_VISITS, _BIG_BATCH):
        survivors = []
        for step in order[start : start + _BIG_BATCH]:
            node = ids[(offset + step) % _BIG_NODES]
            hits = [target for target in successors[node] if target in alive]
            if hits:
                survivors.append((cells[node].score(len(hits)), node))
        survivors.sort()
        total += len(survivors)
    return total


class Calibrator:
    """The calibration kernel, its tables and the log of speed factors.

    One kernel run = ``_sweep_small`` + ``_visit_big``: a miniature of
    the engine's prune loop — comprehension filter with set membership,
    a method call on a slotted object, small tuples, a sort — once over a
    cache-resident graph and once over scattered nodes of a graph that
    does not fit the cache.  The big graph is circulant and every run
    starts at the next even offset, so each run does identical work on
    memory the previous runs (and the program) have pushed out.
    """

    def __init__(self):
        self._small_cells = [_Cell(node, node + 1) for node in range(_SMALL_NODES)]
        self._small_successors = {
            node: tuple((node * s + s * s) % _SMALL_NODES for s in range(1, _FANOUT + 1))
            for node in range(_SMALL_NODES)
        }
        ids = self._ids = list(range(_BIG_NODES))
        self._cells = [_Cell(node, node + 1) for node in ids]
        deltas = [(s * s * 911 + s) % _BIG_NODES for s in range(1, _FANOUT + 1)]
        self._successors = {
            node: tuple(ids[(node + delta) % _BIG_NODES] for delta in deltas) for node in ids
        }
        self._alive = set(ids[0::2])
        # A full-period LCG: a fixed visiting order no prefetcher follows.
        self._order, step = [], 0
        for _ in range(_BIG_VISITS):
            step = (1664525 * step + 1013904223) % _BIG_NODES
            self._order.append(step)
        self._offset = 0
        #: every speed factor applied, for the calib.* diagnostics.
        self.factors: list[float] = []

    def run_kernel(self) -> int:
        self._offset = (self._offset + 2 * 137) % _BIG_NODES
        return _sweep_small(self._small_cells, self._small_successors) + _visit_big(
            self._ids, self._cells, self._successors, self._alive, self._order, self._offset
        )

    def sample_ms(self, repeat: int = 1) -> float:
        """Mean wall ms of ``repeat`` back-to-back kernel runs."""
        started = time.perf_counter()
        for _ in range(repeat):
            self.run_kernel()
        return (time.perf_counter() - started) * 1000.0 / repeat

    def factor(self, samples_ms) -> float:
        """The speed factor of work bracketed by ``samples_ms``: their
        mean over ``KREF_MS`` (1.0 = the machine runs at reference speed)."""
        value = sum(samples_ms) / len(samples_ms) / KREF_MS
        self.factors.append(value)
        return value


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 100]) of a non-empty sample."""
    ordered = sorted(values)
    rank = -(-len(ordered) * q // 100)  # ceil
    return float(ordered[max(1, min(int(rank), len(ordered))) - 1])


def spread_iqr(values) -> float:
    """Distance between the first and third quartile over the median —
    the statistic the acceptance check applies to ten seeded runs."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def spread_range(values) -> float:
    """``(max - min) / median``."""
    return (max(values) - min(values)) / statistics.median(values)
