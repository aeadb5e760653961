"""ArtifactStore failure modes + the content-fingerprint store key.

The store's contract is asymmetric: writes may fail loudly, but reads
must *never* surface a damaged or stale artifact — every failure mode
degrades to a cold build (``default``), so persistence can make answers
slower but never wrong.  Each test here manufactures one concrete
failure (truncation, bit flips, a foreign format revision, an artifact
filed under the wrong graph or kind, writers racing on one key) and
checks the read path rejects it, counts it, and cleans up.

The fingerprint tests cover the PR's headline bug: ``DataGraph.version``
is blind to in-place attribute mutation, so a version-keyed store would
serve pre-mutation answers.  The content fingerprint must move when the
version counter does not.
"""

import hashlib
import json
import os
import pickle
import threading
from pathlib import Path

import pytest

from repro.datasets import generate_arxiv, generate_xmark
from repro.engine import QuerySession
from repro.engine.artifacts import ARTIFACT_KINDS
from repro.graph import DataGraph
from repro.query import AttributePredicate, QueryBuilder, evaluate_naive
from repro.store import (
    STORE_FORMAT_VERSION,
    ArtifactStore,
    graph_fingerprint,
)

FP = "a" * 64  # any syntactically plausible fingerprint


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "store")


def saved(store, payload={"answer": 42}, fingerprint=FP, kind="plans"):
    store.save(fingerprint, kind, payload)
    return store.path(fingerprint, kind)


class TestRoundTrip:
    def test_save_load_round_trip(self, store):
        payload = {"plans": [1, 2, 3], "nested": {"a": frozenset({1})}}
        saved(store, payload)
        assert store.load(FP, "plans") == payload
        assert store.counters.hits == 1
        assert store.counters.writes == 1

    def test_missing_artifact_is_a_miss(self, store):
        assert store.load(FP, "plans", default="cold") == "cold"
        assert store.counters.misses == 1
        assert store.counters.corrupt == 0

    def test_no_temp_files_survive_a_save(self, store):
        target = saved(store)
        leftovers = [p for p in target.parent.iterdir() if p != target]
        assert leftovers == []

    def test_kinds_and_fingerprints_enumerate_content(self, store):
        for kind in ("plans", "results"):
            saved(store, kind=kind)
        saved(store, fingerprint="b" * 64)
        assert store.kinds(FP) == ["plans", "results"]
        assert store.fingerprints() == [FP, "b" * 64]

    def test_clear_removes_artifacts(self, store):
        saved(store)
        saved(store, fingerprint="b" * 64)
        assert store.clear(FP) == 1
        assert store.fingerprints() == ["b" * 64]
        assert store.clear() == 1
        assert store.fingerprints() == []


class TestPrune:
    """LRU eviction: oldest-mtime artifacts go first, whole files only."""

    def age(self, store, fingerprint, kind, mtime):
        os.utime(store.path(fingerprint, kind), (mtime, mtime))

    def test_rejects_negative_budget(self, store):
        with pytest.raises(ValueError, match="max_bytes"):
            store.prune(-1)

    def test_under_budget_store_evicts_nothing(self, store):
        saved(store)
        assert store.prune(10**9) == 0
        assert store.counters.evictions == 0
        assert store.load(FP, "plans") is not None

    def test_evicts_oldest_mtime_first(self, store):
        # Three artifacts, distinct ages; a budget that fits exactly one
        # must evict the two oldest and keep the newest.
        for position, kind in enumerate(("plans", "results", "candidates")):
            saved(store, kind=kind)
            self.age(store, FP, kind, 1000.0 + position)
        size = store.path(FP, "candidates").stat().st_size
        assert store.prune(size) == 2
        assert store.kinds(FP) == ["candidates"]
        assert store.counters.evictions == 2

    def test_zero_budget_empties_the_store_and_its_directories(self, store):
        saved(store)
        saved(store, fingerprint="b" * 64)
        assert store.prune(0) == 2
        assert store.fingerprints() == []
        # Emptied fingerprint directories are removed too.
        assert [p for p in store.root.iterdir()] == []

    def test_surviving_artifacts_still_load(self, store):
        saved(store, payload="old", kind="plans")
        saved(store, payload="new", kind="results")
        self.age(store, FP, "plans", 1000.0)
        self.age(store, FP, "results", 2000.0)
        store.prune(store.path(FP, "results").stat().st_size)
        assert store.load(FP, "results") == "new"
        assert store.load(FP, "plans", default="cold") == "cold"

    def test_evictions_accumulate_across_prunes(self, store):
        saved(store, kind="plans")
        assert store.prune(0) == 1
        saved(store, kind="results")
        assert store.prune(0) == 1
        assert store.counters.evictions == 2


class TestFailureModes:
    """Every corruption degrades to ``default`` and removes the file."""

    def assert_rejected(self, store, target, *, reason):
        assert store.load(FP, "plans", default="cold") == "cold"
        assert getattr(store.counters, reason) == 1
        assert store.counters.misses == 1
        assert not target.exists(), "damaged artifact should be cleaned up"

    def test_truncated_payload_is_corrupt(self, store):
        target = saved(store)
        blob = target.read_bytes()
        target.write_bytes(blob[: len(blob) - len(blob) // 3])
        self.assert_rejected(store, target, reason="corrupt")

    def test_truncated_before_header_is_corrupt(self, store):
        target = saved(store)
        target.write_bytes(target.read_bytes()[:4])
        self.assert_rejected(store, target, reason="corrupt")

    def test_flipped_payload_bytes_are_corrupt(self, store):
        target = saved(store)
        blob = bytearray(target.read_bytes())
        blob[-5] ^= 0xFF  # damage the pickle, keep magic + header intact
        target.write_bytes(bytes(blob))
        self.assert_rejected(store, target, reason="corrupt")

    def test_bad_magic_is_corrupt(self, store):
        target = saved(store)
        target.write_bytes(b"not-the-store\n" + target.read_bytes())
        self.assert_rejected(store, target, reason="corrupt")

    def test_unparseable_header_is_corrupt(self, store):
        target = saved(store)
        target.write_bytes(b"repro-store\n{oops\n")
        self.assert_rejected(store, target, reason="corrupt")

    @pytest.mark.parametrize("header", [b"[]", b"17", b'"x"', b"null"])
    def test_header_that_is_not_an_object_is_corrupt(self, store, header):
        target = saved(store)
        payload = target.read_bytes().split(b"\n", 2)[2]
        target.write_bytes(b"repro-store\n" + header + b"\n" + payload)
        self.assert_rejected(store, target, reason="corrupt")

    def test_format_version_mismatch_is_stale(self, store):
        target = saved(store)
        blob = target.read_bytes()
        future = str(STORE_FORMAT_VERSION).encode()
        target.write_bytes(blob.replace(b'"format": ' + future, b'"format": 999', 1))
        self.assert_rejected(store, target, reason="stale")

    def test_wrong_fingerprint_directory_is_stale(self, store):
        # An artifact copied under another graph's directory: the header
        # still names the original fingerprint, so the read must reject.
        source = saved(store, fingerprint="b" * 64)
        target = store.path(FP, "plans")
        target.parent.mkdir(parents=True)
        target.write_bytes(source.read_bytes())
        self.assert_rejected(store, target, reason="stale")

    def test_wrong_kind_file_is_stale(self, store):
        source = saved(store, kind="results")
        target = store.path(FP, "plans")
        target.write_bytes(source.read_bytes())
        self.assert_rejected(store, target, reason="stale")

    def test_unpicklable_payload_propagates_on_save(self, store):
        with pytest.raises((pickle.PicklingError, TypeError, AttributeError)):
            store.save(FP, "plans", lambda: None)
        assert not store.path(FP, "plans").exists()
        assert store.counters.writes == 0

    def test_concurrent_writers_leave_one_complete_artifact(self, store):
        # Many threads race save() on one key; atomic rename means the
        # survivor is one *complete* artifact (some writer's payload,
        # never an interleaving) and no temp files leak.
        barrier = threading.Barrier(8)

        def write(tag):
            barrier.wait()
            for round_ in range(5):
                store.save(FP, "plans", {"writer": tag, "round": round_})

        threads = [threading.Thread(target=write, args=(t,)) for t in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        value = store.load(FP, "plans")
        assert value["writer"] in range(8) and value["round"] == 4
        assert [p.name for p in store.path(FP, "plans").parent.iterdir()] == ["plans.artifact"]

    def test_clear_removes_a_killed_writers_temp_file(self, store):
        # A writer killed between write and rename never unlinks its temp
        # file; left behind, it would keep the directory alive and out of
        # fingerprints() for good.
        directory = saved(store).parent
        orphan = directory / ".plans.4242.deadbeef.tmp"
        orphan.write_bytes(b"half a payload")
        assert store.kinds(FP) == ["plans"]
        assert store.clear() == 1
        assert not directory.exists()

    def test_save_whose_temp_was_cleared_raises_and_publishes_nothing(self, store, monkeypatch):
        saved(store, kind="results")  # the one write that succeeds
        replace = os.replace

        def cleared_underneath(source, target):
            # Another process clears the fingerprint between write and rename.
            store.clear(os.path.basename(os.path.dirname(target)))
            replace(source, target)

        monkeypatch.setattr("repro.store.store.os.replace", cleared_underneath)
        with pytest.raises(OSError):
            store.save(FP, "plans", {"answer": 42})
        assert not (store.root / FP).exists() and store.counters.writes == 1

        # persist() is best-effort per kind: the cleared ones are skipped.
        graph = two_label_graph()
        session = QuerySession(graph, store=store)
        session.evaluate(simple_query())
        assert session.persist() == {}
        assert store.fingerprints() == []


class TestSaveRacesEviction:
    """``prune()`` and ``clear()`` remove a fingerprint directory once
    they have emptied it; a ``save()`` in flight there writes again."""

    def test_prune_between_mkdir_and_write_is_survived(self, store, monkeypatch):
        saved(store, kind="results")  # the directory's only artifact
        mkdir = Path.mkdir
        pruned = []

        def mkdir_then_prune(path, *args, **kwargs):
            mkdir(path, *args, **kwargs)
            if not pruned:
                pruned.append(path)
                store.prune(0)  # evicts "results" and removes the directory

        monkeypatch.setattr(Path, "mkdir", mkdir_then_prune)
        store.save(FP, "plans", {"answer": 42})
        assert pruned == [store.root / FP]
        assert (store.counters.evictions, store.counters.writes) == (1, 2)
        assert store.kinds(FP) == ["plans"]
        assert store.load(FP, "plans") == {"answer": 42}

    def test_prune_inside_mkdir_is_survived(self, store, monkeypatch):
        # ``mkdir(exist_ok=True)`` raises FileExistsError when the
        # directory exists at its attempt and a prune removes it before
        # its ``is_dir`` check; the threaded test below hit it.
        mkdir = Path.mkdir
        raced = []

        def mkdir_losing_the_race(path, *args, **kwargs):
            if not raced:
                raced.append(path)
                raise FileExistsError(17, "File exists")
            mkdir(path, *args, **kwargs)

        monkeypatch.setattr(Path, "mkdir", mkdir_losing_the_race)
        store.save(FP, "plans", {"answer": 42})
        assert raced == [store.root / FP]
        assert store.load(FP, "plans") == {"answer": 42}

    def test_writers_racing_prune_load_complete_payloads_or_the_default(self, store):
        payloads = {f"k{n}": list(range(n * 100, n * 100 + 200)) for n in range(4)}
        fingerprints = [letter * 64 for letter in "abc"]
        barrier = threading.Barrier(len(payloads) + 2, timeout=60)
        writing = threading.Event()
        writing.set()
        errors, loads = [], []

        def write(kind):
            barrier.wait()
            try:
                for round_ in range(30):
                    store.save(fingerprints[round_ % 3], kind, payloads[kind])
            except Exception as error:
                errors.append(error)

        def evict():
            barrier.wait()
            while writing.is_set():
                store.prune(2000)

        def read():
            barrier.wait()
            while not loads or writing.is_set():
                for fingerprint in fingerprints:
                    for kind in payloads:
                        loads.append((kind, store.load(fingerprint, kind, default="cold")))

        writers = [threading.Thread(target=write, args=(kind,)) for kind in payloads]
        others = [threading.Thread(target=evict), threading.Thread(target=read)]
        for thread in writers + others:
            thread.start()
        for thread in writers:
            thread.join()
        writing.clear()
        for thread in others:
            thread.join()
        assert errors == []
        assert loads and all(value in ("cold", payloads[kind]) for kind, value in loads)
        assert (store.counters.corrupt, store.counters.stale) == (0, 0)


def two_label_graph():
    return DataGraph.from_edges("aabb", [(0, 2), (1, 3), (0, 3)])


def simple_query():
    return (
        QueryBuilder()
        .backbone("root", predicate=AttributePredicate.label("a"))
        .backbone("kid", parent="root", predicate=AttributePredicate.label("b"))
        .outputs("root")
        .build()
    )


class TestFingerprint:
    def test_identical_content_identical_fingerprint(self):
        assert graph_fingerprint(two_label_graph()) == graph_fingerprint(two_label_graph())

    def test_edge_insertion_order_does_not_matter(self):
        reordered = DataGraph.from_edges("aabb", [(0, 3), (1, 3), (0, 2)])
        assert graph_fingerprint(two_label_graph()) == graph_fingerprint(reordered)

    def test_attribute_values_are_type_tagged(self):
        five = DataGraph.from_edges("a", [])
        five.set_attr(0, "x", 5)
        text = DataGraph.from_edges("a", [])
        text.set_attr(0, "x", "5")
        assert graph_fingerprint(five) != graph_fingerprint(text)

    def test_in_place_attribute_mutation_moves_the_fingerprint(self):
        """An in-place edit of ``attrs()`` raises and changes nothing; the
        write that replaces it, ``set_attr``, moves the content key."""
        graph = two_label_graph()
        before_fp = graph_fingerprint(graph)
        with pytest.raises(TypeError):
            graph.attrs(0)["price"] = 99
        assert graph_fingerprint(graph) == before_fp
        graph.set_attr(0, "price", 99)
        assert graph_fingerprint(graph) != before_fp


def reference_fingerprint(graph):
    """The fingerprint walk as first written: one ``repr`` over every
    node's type-tagged attribute triples and sorted successors.  The
    store key is defined by this text; the library's walk must hash
    exactly the same bytes."""
    digest = hashlib.sha256()
    digest.update(b"repro-graph-v1\n")
    digest.update(str(graph.num_nodes).encode("ascii") + b"\n")
    content = [
        (
            sorted((str(k), type(v).__name__, repr(v)) for k, v in graph.attrs(node).items()),
            sorted(graph.successors(node)),
        )
        for node in graph.nodes()
    ]
    digest.update(repr(content).encode("utf-8", "backslashreplace"))
    return digest.hexdigest()


def graph_of(*attr_dicts, edges=()):
    graph = DataGraph()
    for attrs in attr_dicts:
        graph.add_node(attrs)
    for source, target in edges:
        graph.add_edge(source, target)
    return graph


class TestFingerprintByteIdentity:
    def test_xmark(self):
        graph = generate_xmark(scale=0.05, seed=42).graph
        assert graph_fingerprint(graph) == reference_fingerprint(graph)

    def test_arxiv(self):
        graph = generate_arxiv(seed=7).graph
        assert graph_fingerprint(graph) == reference_fingerprint(graph)

    @pytest.mark.parametrize(
        "graph",
        [
            # Values that hash alike but render apart, in one graph and
            # repeated, so a memo keyed without the type would collide.
            graph_of(*[{"x": v} for v in (1, 1.0, True, "1", None, 1, True, 1.0, None)]),
            # Equal floats that render apart: ``0.0 == -0.0``.
            graph_of({"x": 0.0}, {"x": -0.0}, {"x": 0.0}, {"x": float("nan")}),
            # Unhashable values.
            graph_of({"x": [1, 2]}, {"x": [1, 2]}, {"x": {"a": 1}}, edges=[(0, 1)]),
            # Non-str keys, also next to their str spelling.
            graph_of({1: "a"}, {"1": "a"}, {None: "a"}, {(1, 2): "a"}, {1: "a"}),
            # Multi-key dicts inserted in different orders.
            graph_of(
                {"label": "a", "kind": "paper", "time": 3},
                {"time": 3, "kind": "paper", "label": "a"},
                {"kind": "paper", "label": "a"},
                edges=[(0, 2), (0, 1), (1, 2)],
            ),
            # No attributes at all, escapes, a lone surrogate, bytes.
            graph_of({}, {"x": "quote ' and \" and \\"}, {"x": "\udcff"}, {"x": b"1"}),
            graph_of({"label": "a"}, {"label": "a"}, {"label": "b"}, edges=[(2, 0), (2, 1)]),
            DataGraph(),
        ],
        ids=[
            "hash-alike",
            "signed-zero",
            "unhashable",
            "non-str-keys",
            "key-order",
            "odd-values",
            "repeated-labels",
            "empty",
        ],
    )
    def test_hand_built(self, graph):
        assert graph_fingerprint(graph) == reference_fingerprint(graph)

    def test_subclass_values_render_apart_from_their_base(self):
        class Code(str):
            def __repr__(self):
                return f"Code({str.__repr__(self)})"

        coded = graph_of({"x": Code("a")}, {"x": "a"}, {"x": Code("a")})
        assert graph_fingerprint(coded) == reference_fingerprint(coded)


class TestSessionStoreKey:
    def test_mutated_graph_never_hits_the_old_artifacts(self, tmp_path):
        """Regression for the version-counter blindness bug.

        A fresh process over a graph whose attributes were edited since
        must MISS every persisted artifact (different content
        fingerprint) and recompute the now-different answer, instead of
        rehydrating pre-mutation caches.
        """
        graph = two_label_graph()
        query = simple_query()
        warm = QuerySession(graph, store=tmp_path / "store")
        baseline = warm.evaluate(query)
        assert baseline == evaluate_naive(query, graph)
        warm.persist()
        warm.close()

        # Same store, but node 0's label flips: the content key moves.
        graph.set_attr(0, "label", "z")
        restarted = QuerySession(graph, store=tmp_path / "store")
        assert sum(restarted.store_rehydrated.values()) == 0
        assert restarted.evaluate(query) == evaluate_naive(query, graph)
        assert restarted.evaluate(query) != baseline
        restarted.close()

    def test_non_object_header_degrades_the_session_to_a_cold_build(self, tmp_path):
        graph = two_label_graph()
        query = simple_query()
        warm = QuerySession(graph, store=tmp_path / "store")
        warm.evaluate(query)
        warm.persist()
        warm.close()
        target = warm.store.path(warm.store_fingerprint, "plans")
        payload = target.read_bytes().split(b"\n", 2)[2]
        target.write_bytes(b"repro-store\n[]\n" + payload)

        restarted = QuerySession(graph, store=tmp_path / "store")
        assert restarted.store.counters.corrupt == 1
        assert restarted.store_rehydrated["plans"] == 0
        assert restarted.evaluate(query) == evaluate_naive(query, graph)
        restarted.close()

    def test_format_3_plans_artifact_is_stale(self, tmp_path):
        """A format-3 plan may name an operator class that no longer
        exists: the header alone rejects it, so the payload is never
        unpickled."""
        graph = two_label_graph()
        query = simple_query()
        store = ArtifactStore(tmp_path / "store")
        target = store.path(graph_fingerprint(graph), "plans")
        target.parent.mkdir(parents=True)
        header = json.dumps(
            {"fingerprint": graph_fingerprint(graph), "format": 3, "kind": "plans"},
            sort_keys=True,
        )
        # Unpickling this payload would raise: the class is gone.
        payload = b"crepro.engine.operators\nBaselineDelegate\n."
        target.write_bytes(b"repro-store\n" + header.encode() + b"\n" + payload)

        session = QuerySession(graph, store=store)
        assert store.counters.stale == 1 and store.counters.corrupt == 0
        assert session.store_rehydrated["plans"] == 0
        assert not target.exists()
        assert session.evaluate(query) == evaluate_naive(query, graph)
        session.close()

    def test_format_5_store_loads_cold_and_never_wrong(self, tmp_path, monkeypatch):
        """A store written before the candidates kind left (format 5) is
        stale as a whole: every kind the session reads cold-builds, the
        retired kind is never opened, and the answers are the oracle's."""
        graph = two_label_graph()
        query = simple_query()
        monkeypatch.setattr("repro.store.store.STORE_FORMAT_VERSION", 5)
        old = QuerySession(graph, store=tmp_path / "store")
        old.evaluate(query)
        written = old.persist()
        old.store.save(old.store_fingerprint, "candidates", {"key": (0, 1)})
        monkeypatch.undo()

        session = QuerySession(graph, store=tmp_path / "store")
        store = session.store
        assert (store.counters.stale, store.counters.corrupt) == (len(written), 0)
        assert sum(session.store_rehydrated.values()) == 0
        assert store.kinds(session.store_fingerprint) == ["candidates"]
        assert session.evaluate(query) == evaluate_naive(query, graph)
        session.close()

    def test_format_6_store_loads_cold_and_never_wrong(self, tmp_path, monkeypatch):
        """A store written while a physical plan carried its index scope
        and footprint estimate (format 6) is stale as a whole: its plans,
        which might name the retired partial scope, are never read."""
        graph = two_label_graph()
        query = simple_query()
        monkeypatch.setattr("repro.store.store.STORE_FORMAT_VERSION", 6)
        old = QuerySession(graph, store=tmp_path / "store")
        old.evaluate(query)
        physical = old.plan(query).compiled.physical
        object.__setattr__(physical, "index_scope", "partial")  # a format-6 field
        written = old.persist()
        monkeypatch.undo()

        session = QuerySession(graph, store=tmp_path / "store")
        store = session.store
        assert (store.counters.stale, store.counters.corrupt) == (len(written), 0)
        assert sum(session.store_rehydrated.values()) == 0
        assert session.plan(query).compiled.physical.index_scope == "full"
        assert session.evaluate(query) == evaluate_naive(query, graph)
        session.close()

    def test_unmutated_graph_rehydrates_and_answers_identically(self, tmp_path):
        graph = two_label_graph()
        query = simple_query()
        warm = QuerySession(graph, store=tmp_path / "store")
        baseline = warm.evaluate(query)
        persisted = warm.persist()
        assert set(persisted) <= {kind.name for kind in ARTIFACT_KINDS}
        warm.close()

        restarted = QuerySession(graph, store=tmp_path / "store")
        assert sum(restarted.store_rehydrated.values()) > 0
        assert restarted.evaluate(query) == baseline
        info = restarted.cache_info()
        assert info["store"]["rehydrated"] > 0
        restarted.close()
