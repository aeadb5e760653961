"""Graph content fingerprints — the persistence layer's store key.

:attr:`repro.graph.digraph.DataGraph.version` is a *mutation counter*
of one process's graph object: two processes that build the same
content may count differently, and equal counts say nothing about equal
content.  A persisted store keyed by version could therefore serve
answers computed against another graph — a silent wrong-answer bug once
artifacts outlive the process.

:func:`graph_fingerprint` keys the store by content instead: a SHA-256
over every node's attribute dictionary (keys and type-tagged values, so
``5`` and ``"5"`` hash apart, mirroring
:func:`repro.query.serialize.predicate_key`) and the adjacency lists.
Two graphs share a fingerprint iff they are content-identical, so any
mutation — ``add_node``, ``add_edge``, ``set_attr`` — lands store reads
and writes in a different key and the stale artifacts are simply never
found.

The hash is O(nodes + edges) and not memoized.  It runs once per store
interaction — a session's construction with ``store=`` and each
``persist()``; a :class:`~repro.serve.QueryServer` computes it once per
start, for its one session.
"""

from __future__ import annotations

import hashlib

from ..graph.digraph import DataGraph

#: value types whose equal values always render alike, so one rendering
#: can stand for all of them (``0.0 == -0.0`` rules floats out).
_RENDER_BY_VALUE = frozenset({str, int, bool, type(None)})


def _canonical_attrs(attrs: dict) -> list[tuple[str, str, str]]:
    """Sorted, type-tagged attribute items (same tagging as predicate keys)."""
    return sorted((str(key), type(value).__name__, repr(value)) for key, value in attrs.items())


def graph_fingerprint(graph: DataGraph) -> str:
    """SHA-256 hex digest of the full content of ``graph``.

    Covers node count, every node's attribute dictionary and every
    adjacency list (edge insertion order does not participate — parallel
    edges are collapsed by the graph itself and target lists are sorted
    here).  Stable across processes and across re-building the same
    graph in a different node-id-preserving order of ``add_edge`` calls.
    """
    digest = hashlib.sha256()
    digest.update(b"repro-graph-v1\n")
    digest.update(str(graph.num_nodes).encode("ascii") + b"\n")
    # The hashed text is repr() of the list of per-node pairs
    # ``(_canonical_attrs(attrs), sorted(successors))``, assembled here
    # piece by piece: most nodes carry one attribute from a small set of
    # values (a label), so each distinct one-attribute content is
    # rendered once.  The type is part of the memo key (``1``, ``1.0``
    # and ``True`` hash alike); other value types, non-``str`` keys and
    # richer dictionaries render in full.
    rendered: dict[tuple, str] = {}
    parts = []
    for attrs, successors in zip(graph._attrs, graph._succ):
        text = None
        if len(attrs) == 1:
            ((key, value),) = attrs.items()
            kind = type(value)
            if type(key) is str and kind in _RENDER_BY_VALUE:
                memo = (key, kind, value)
                text = rendered.get(memo)
                if text is None:
                    text = rendered[memo] = repr(_canonical_attrs(attrs))
        if text is None:
            text = repr(_canonical_attrs(attrs))
        parts.append(f"({text}, {sorted(successors)!r})")
    digest.update(("[" + ", ".join(parts) + "]").encode("utf-8", "backslashreplace"))
    return digest.hexdigest()
