"""The parent-written store fixture: what it holds and how it was made.

``fixtures/parent_store.zip`` is a warm store persisted by a commit that
still stored reachability indexes: it holds exactly an ``indexes`` and a
``partial-indexes`` artifact (pickled services, each with a private
``Condensation`` and ``Dag``) and no plans or results.  Neither kind is
in :data:`repro.engine.artifacts.ARTIFACT_KINDS` any more; the fixture
pins that such files are *ignored* — never opened, counted neither
corrupt nor stale, removed by ``clear()`` — and that a session over the
store answers exactly as a cold one (``parent_store_digests.json``).

The graph is built with plain arithmetic, no ``random``, so its content
fingerprint — the store key — is the same on every Python version.
:func:`main` is how the fixture was written; it only reproduces it at a
commit that persists those two kinds::

    PYTHONPATH=src python tests/store/parent_store.py
"""

import hashlib
import json
import shutil
import sys
import tempfile
import zipfile
from pathlib import Path

from repro.engine import QuerySession
from repro.graph import DataGraph
from repro.query import AttributePredicate, QueryBuilder

FIXTURES = Path(__file__).parent / "fixtures"
STORE_ZIP = FIXTURES / "parent_store.zip"
DIGESTS = FIXTURES / "parent_store_digests.json"

BULK, ENCLAVE = 560, 24


def build_graph() -> DataGraph:
    """A cyclic bulk over labels a/b/c and a sink-side q/r/s enclave."""
    graph = DataGraph()
    for node in range(BULK):
        graph.add_node(label="abc"[node % 3])
    for target in range(1, BULK):
        span = min(target, 9)
        graph.add_edge(target - 1 - (target * 7) % span, target)
        graph.add_edge(target - 1 - (target * 5 + 3) % span, target)
    graph.add_edge(40, 31)  # a cycle and a self-loop inside the bulk
    graph.add_edge(200, 200)
    for offset in range(ENCLAVE):
        graph.add_node(label="qrs"[offset % 3])
    for offset in range(1, ENCLAVE):
        span = min(offset, 5)
        graph.add_edge(BULK + offset - 1 - (offset * 3) % span, BULK + offset)
        graph.add_edge(BULK + offset - 1 - (offset * 2 + 1) % span, BULK + offset)
    for bridge in range(6):
        graph.add_edge(bridge * 90, BULK + bridge * 4)
    return graph


def pair_query(head: str, tail: str):
    return (
        QueryBuilder()
        .backbone("a", predicate=AttributePredicate.label(head))
        .backbone("b", parent="a", predicate=AttributePredicate.label(tail))
        .outputs("a", "b")
        .build()
    )


def queries():
    """Enclave queries first (partial scope), then one over the bulk."""
    return [pair_query("q", "r"), pair_query("r", "s"), pair_query("a", "b")]


def digest(answer) -> str:
    return hashlib.sha256(repr(sorted(answer)).encode("utf-8")).hexdigest()


def main() -> None:
    graph = build_graph()
    root = Path(tempfile.mkdtemp(prefix="parent-store-"))
    try:
        session = QuerySession(graph, store=root)
        digests = [digest(session.evaluate(query)) for query in queries()]
        print(session.persist(), file=sys.stderr)
        FIXTURES.mkdir(exist_ok=True)
        with zipfile.ZipFile(STORE_ZIP, "w", zipfile.ZIP_DEFLATED, compresslevel=9) as archive:
            for path in sorted(root.rglob("*indexes.artifact")):
                archive.write(path, path.relative_to(root))
        DIGESTS.write_text(json.dumps(digests, indent=1) + "\n")
    finally:
        shutil.rmtree(root, ignore_errors=True)


if __name__ == "__main__":
    main()
