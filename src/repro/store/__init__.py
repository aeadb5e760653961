"""Cross-process persistence for everything the engine learns (S13).

The warm store serializes the artifacts a :class:`repro.engine.QuerySession`
accumulates — pooled reachability indexes, compiled plans, downward-pruned
subtree sets, emitted codegen source and analyses, and cost-profile
calibration — under a **graph content fingerprint** so a fresh process
rehydrates them instead of rebuilding (``QuerySession(store=...)``).

Three pieces:

- :func:`graph_fingerprint` — the store key: a SHA-256 over node
  attributes and adjacency, immune to the in-place-mutation blindness of
  ``DataGraph.version``.
- :class:`ArtifactStore` — atomic, self-describing, corruption-tolerant
  artifact files; every failure mode degrades to a cold build.
- :func:`seed_profile_from_reports` — fold ``cost_profile`` snapshots
  from ``benchmarks/reports/*.json`` into a fresh session's
  :class:`~repro.plan.feedback.CostProfile`.

:mod:`repro.serve` builds the multi-worker serving tier on top of this
package; ``python -m repro.store.restart`` is the warm-restart driver
used by the benchmarks and CI smokes.
"""

from .fingerprint import graph_fingerprint
from .seed import seed_profile_from_reports
from .store import STORE_FORMAT_VERSION, ArtifactStore, StoreCounters

__all__ = [
    "ArtifactStore",
    "STORE_FORMAT_VERSION",
    "StoreCounters",
    "graph_fingerprint",
    "seed_profile_from_reports",
]
