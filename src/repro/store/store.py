"""The warm store: durable evaluation artifacts keyed by graph content.

What the engine learns per query — compiled plans, JSON-text aliases,
candidate sets, downward-pruned subtree sets, answer sets — is
content-addressed, so it can outlive the process that paid for it.  An
:class:`ArtifactStore` is a directory of self-describing artifact
files::

    <root>/<graph content fingerprint>/<kind>.artifact

Each file is ``magic line + JSON header line + pickle payload``.  The
header carries the store format version, the graph fingerprint and the
artifact kind; :meth:`ArtifactStore.load` verifies all three before
unpickling and treats *any* discrepancy — truncated file, flipped bytes,
a header written by a different format revision, an artifact copied
under the wrong graph's directory — as a miss: the reader falls back to
a cold build and the offending file is removed best-effort.  A store can
therefore never produce a wrong answer, only a slower one.

Writes are atomic: the payload lands in a uniquely named temp file in
the same directory and is published with :func:`os.replace`, so
concurrent writers racing on one key leave exactly one complete artifact
(the last rename wins) and readers never observe a half-written file.
A :meth:`~ArtifactStore.prune` or :meth:`~ArtifactStore.clear` that
removes the directory under a writer makes the writer create it again.

The payload is :mod:`pickle` — the store directory must be trusted
exactly like the code itself (pickle executes on load).  This mirrors
the trust model of every on-disk query-engine catalog.
"""

from __future__ import annotations

import json
import os
import pickle
import uuid
from pathlib import Path

#: bumped whenever the artifact layout or any payload schema changes;
#: readers reject (and discard) artifacts from any other revision.
#: (2: PhysicalPlan grew its index scope and footprint fields, so
#: format-1 plan pickles no longer describe the live schema.  3:
#: LogicalPlan stopped storing obligations and subtree fingerprints, GTPQ
#: grew its unpickled memo slots.  4: PhysicalPlan lost its executor
#: cost field, and the baseline operator a plan could name is gone.  5:
#: JSON-text aliases left the ``plans`` payload for their own
#: ``aliases`` kind.  6: the ``candidates`` kind is gone, and a plan no
#: longer carries per-node predicate keys.  7: PhysicalPlan lost its
#: index scope and footprint fields with the per-query partial scope.)
STORE_FORMAT_VERSION = 7

_MAGIC = b"repro-store\n"
_SUFFIX = ".artifact"

#: writes :meth:`ArtifactStore.save` tries before it gives up on a
#: fingerprint directory that concurrent evictions keep removing.
_SAVE_ATTEMPTS = 5


class StoreCounters:
    """Mutable counters of one store's activity."""

    __slots__ = ("hits", "misses", "stale", "corrupt", "writes", "evictions")

    def __init__(self):
        self.hits = 0
        self.misses = 0
        self.stale = 0  #: header present but format/fingerprint/kind mismatched
        self.corrupt = 0  #: unreadable magic/header/payload
        self.writes = 0
        self.evictions = 0  #: artifacts removed by :meth:`ArtifactStore.prune`

    def snapshot(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stale": self.stale,
            "corrupt": self.corrupt,
            "writes": self.writes,
            "evictions": self.evictions,
        }

    def __repr__(self) -> str:
        return (
            f"StoreCounters(hits={self.hits}, misses={self.misses}, "
            f"stale={self.stale}, corrupt={self.corrupt}, writes={self.writes}, "
            f"evictions={self.evictions})"
        )


class ArtifactStore:
    """A directory of fingerprint-keyed, self-describing artifacts.

    Args:
        root: the store directory (created on first use).  Safe to share
            between processes; concurrent writers on one key resolve by
            atomic rename (last complete write wins) and readers always
            see either the old or the new artifact, never a mix.
    """

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)
        self.counters = StoreCounters()

    # ------------------------------------------------------------------
    def path(self, fingerprint: str, kind: str) -> Path:
        """Where ``(fingerprint, kind)`` lives (whether or not present)."""
        return self.root / fingerprint / f"{kind}{_SUFFIX}"

    def save(self, fingerprint: str, kind: str, payload) -> Path:
        """Atomically publish ``payload`` under ``(fingerprint, kind)``.

        Serialization errors propagate (callers decide whether a kind is
        best-effort); partial writes never become visible.  When a
        concurrent :meth:`prune` or :meth:`clear` removes the fingerprint
        directory (or the temp file) mid-write, the write starts over in
        a re-created directory, up to ``_SAVE_ATTEMPTS`` times.
        """
        target = self.path(fingerprint, kind)
        header = {
            "format": STORE_FORMAT_VERSION,
            "fingerprint": fingerprint,
            "kind": kind,
        }
        blob = (
            _MAGIC
            + json.dumps(header, sort_keys=True).encode("utf-8")
            + b"\n"
            + pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        )
        for attempt in range(1, _SAVE_ATTEMPTS + 1):
            temp = target.parent / f".{kind}.{os.getpid()}.{uuid.uuid4().hex}.tmp"
            try:
                # mkdir raises FileExistsError when a prune removes the
                # directory between its own attempt and its is_dir check.
                target.parent.mkdir(parents=True, exist_ok=True)
                temp.write_bytes(blob)
                os.replace(temp, target)
                break
            except (FileNotFoundError, FileExistsError):
                temp.unlink(missing_ok=True)
                if attempt == _SAVE_ATTEMPTS:
                    raise
            except BaseException:
                temp.unlink(missing_ok=True)
                raise
        self.counters.writes += 1
        return target

    def load(self, fingerprint: str, kind: str, default=None):
        """The payload under ``(fingerprint, kind)``, or ``default``.

        Every failure mode — missing file, truncated or bit-flipped
        content, a header that is not a JSON object, a format-version
        mismatch, an artifact whose header
        names a different fingerprint or kind — returns ``default`` so
        callers cold-build instead of crashing; damaged and stale files
        are deleted best-effort so the next write starts clean.
        """
        target = self.path(fingerprint, kind)
        try:
            blob = target.read_bytes()
        except OSError:
            self.counters.misses += 1
            return default
        if not blob.startswith(_MAGIC):
            return self._reject(target, "corrupt", default)
        try:
            header_line, _, payload = blob[len(_MAGIC) :].partition(b"\n")
            header = json.loads(header_line.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            return self._reject(target, "corrupt", default)
        if not isinstance(header, dict):
            return self._reject(target, "corrupt", default)
        if (
            header.get("format") != STORE_FORMAT_VERSION
            or header.get("fingerprint") != fingerprint
            or header.get("kind") != kind
        ):
            return self._reject(target, "stale", default)
        try:
            value = pickle.loads(payload)
        except Exception:
            # pickle raises a zoo of exception types on damaged input
            # (EOFError, UnpicklingError, AttributeError, ...); all of
            # them mean the same thing here: cold-build.
            return self._reject(target, "corrupt", default)
        self.counters.hits += 1
        return value

    def _reject(self, target: Path, reason: str, default):
        setattr(self.counters, reason, getattr(self.counters, reason) + 1)
        self.counters.misses += 1
        try:
            target.unlink(missing_ok=True)
        except OSError:
            pass  # another process may race the cleanup; harmless
        return default

    # ------------------------------------------------------------------
    def kinds(self, fingerprint: str) -> list[str]:
        """Artifact kinds currently present under ``fingerprint``."""
        directory = self.root / fingerprint
        try:
            entries = sorted(directory.iterdir())
        except OSError:
            return []
        return [entry.name[: -len(_SUFFIX)] for entry in entries if entry.name.endswith(_SUFFIX)]

    def fingerprints(self) -> list[str]:
        """Graph fingerprints with at least one artifact in the store."""
        try:
            entries = sorted(self.root.iterdir())
        except OSError:
            return []
        return [entry.name for entry in entries if entry.is_dir() and self.kinds(entry.name)]

    def clear(self, fingerprint: str | None = None) -> int:
        """Drop one fingerprint's artifacts (or every artifact); returns
        how many files were removed."""
        removed = 0
        targets = [fingerprint] if fingerprint is not None else self.fingerprints()
        for key in targets:
            directory = self.root / key
            for kind in self.kinds(key):
                try:
                    self.path(key, kind).unlink()
                    removed += 1
                except OSError:
                    pass
            try:
                # A writer killed between write and rename leaves its temp
                # file behind; a live writer's save() fails its rename and
                # writes again.
                for orphan in directory.glob(".*.tmp"):
                    orphan.unlink(missing_ok=True)
                directory.rmdir()
            except OSError:
                pass
        return removed

    def prune(self, max_bytes: int) -> int:
        """Evict least-recently-used artifacts until the store fits.

        Artifacts are removed oldest-mtime-first (loads never rewrite a
        file, so mtime is last *write*; a long-lived store evicts what
        stopped being refreshed) until the summed artifact sizes are at
        most ``max_bytes``.  Whole files are evicted — never truncated —
        so readers keep their all-or-nothing guarantee; emptied
        fingerprint directories are removed.  Returns how many artifacts
        were evicted, mirrored in ``counters.evictions``.
        """
        if max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        entries: list[tuple[float, int, Path]] = []
        for fingerprint in self.fingerprints():
            for kind in self.kinds(fingerprint):
                target = self.path(fingerprint, kind)
                try:
                    meta = target.stat()
                except OSError:
                    continue
                entries.append((meta.st_mtime, meta.st_size, target))
        total = sum(size for _, size, _ in entries)
        entries.sort(key=lambda entry: (entry[0], entry[2]))  # oldest first
        evicted = 0
        for _, size, target in entries:
            if total <= max_bytes:
                break
            try:
                target.unlink()
            except OSError:
                continue  # racing reader already rejected/removed it
            total -= size
            evicted += 1
            try:
                target.parent.rmdir()
            except OSError:
                pass  # directory not empty (or already gone)
        self.counters.evictions += evicted
        return evicted

    def __repr__(self) -> str:
        return f"ArtifactStore(root={str(self.root)!r})"
