"""Cross-process persistence for what the engine learns per query (S13).

The warm store serializes the artifacts a :class:`repro.engine.QuerySession`
accumulates — compiled plans, candidate sets, downward-pruned subtree
sets and answer sets (:data:`repro.engine.artifacts.ARTIFACT_KINDS`) —
under a **graph content fingerprint** so a fresh process rehydrates them
instead of rebuilding (``QuerySession(store=...)``).  Reachability state
is not stored: the graph condenses once per process and closure rows
fill as misses read them.  Nor are the functions of ``codegen=``
sessions: a fresh process compiles them again.

Two pieces:

- :func:`graph_fingerprint` — the store key: a SHA-256 over node
  attributes and adjacency, immune to the in-place-mutation blindness of
  ``DataGraph.version``.
- :class:`ArtifactStore` — atomic, self-describing, corruption-tolerant
  artifact files; every failure mode degrades to a cold build.

:mod:`repro.serve` builds the multi-worker serving tier on top of this
package.
"""

from .fingerprint import graph_fingerprint
from .store import STORE_FORMAT_VERSION, ArtifactStore, StoreCounters

__all__ = [
    "ArtifactStore",
    "STORE_FORMAT_VERSION",
    "StoreCounters",
    "graph_fingerprint",
]
