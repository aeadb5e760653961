"""Query sessions: index pooling, caching, and batch evaluation.

The paper's GTEA engine assumes a query-independent reachability index
built once and amortized over many queries (Section 4.1).  A
:class:`QuerySession` takes that idea to a serving setting: it owns one
data graph and, for ``index="auto"``, one index line: ``tc``, filled on
demand, under a byte budget
(:data:`~repro.plan.cost.AUTO_CLOSURE_MAX_BYTES`, counted in filled
bits); past it the ladder's pick for the version
(:func:`~repro.plan.cost.choose_index`).  Nothing is built before a query
reads a row; pinned indexes are built lazily into a pool.  The session
reuses four kinds of evaluation artifacts across queries:

* a **plan cache** — parsed and *compiled* queries (the full
  normalize → logical → physical artifact of :mod:`repro.plan`) keyed by
  the canonical fingerprint of
  :func:`repro.query.serialize.query_fingerprint`, so a query met
  before — as a ``GTPQ``, a dict or JSON text — skips re-analysis and
  the optimizer;
* an **alias cache** — JSON query text's raw content hash mapped to that
  fingerprint (a string, never a plan), bounded like the result cache, so
  repeated text skips parsing and fingerprinting, and a cached answer is
  found from its text alone (:meth:`QuerySession.lookup`) however long
  ago its plan was last used;
* a **subtree cache** — downward-pruned candidate sets keyed by the
  canonical *subtree* fingerprint of
  :func:`repro.query.serialize.subtree_fingerprints`, probed top-down
  from the root by every execution and filled by its
  :class:`~repro.engine.operators.DownwardPrune` visits, so a subtree
  is pruned once per graph version, however many queries contain it,
  and a hit answers its whole subtree: the visits below it never run;
* a **result cache** — full answer sets per ``(fingerprint, group
  nodes)``, invalidated when the graph mutates.

A label-pinned ``mat(u)`` is the graph's own posting and needs no
cache; the scans of predicates without a pinned label, which check
every node, are kept per graph version in a **scan memo**
(``cache_info()["candidate"]``, never persisted).  Likewise a **parent
memo** keeps, per graph version and by subtree fingerprint, the merged
parent set ``P_{u'}`` a PC child's downward set gives its parent's
prune (``cache_info()["parents"]``, never persisted): a subtree valued
under one parent is not merged again under the next.

Beside them, a **normalize memo** maps
:func:`repro.plan.normalize_key` — a query's shape and predicate
relation, everything Theorem 1 and Algorithm 1 read — to what they
decided, so a plan-cache miss whose shape was met before (a template
instance with other label constants) skips both.  Normalize never reads
the graph: the memo outlives every mutation and :meth:`invalidate`, and
it is never persisted.

:meth:`QuerySession.evaluate_many` runs a workload through the same
per-query path after deduplicating its fingerprints, so a subtree that
five queries of a batch share is pruned once, by the first of them.

Staleness is detected through :attr:`repro.graph.digraph.DataGraph.version`:
any ``add_node``/``add_edge``/``set_attr`` after session creation drops
every cache and every pooled index on the next use.  Only the
descendant closure (:mod:`repro.reachability.partial`; one per session)
outlives a mutation that leaves the numbered cones alone — new nodes,
an edge out of a node no query has numbered yet, an attribute write:
its rows stay exact along the graph's lineage — and, once the closure
has passed its budget, the fallback to the ladder's pick, which holds
for the lineage it blew out on.  An edge out of a numbered node, or
:meth:`QuerySession.invalidate`, drops both.  (The graph absorbs a
mutation below the session: its component numbering and label postings
grow, and nothing is rebuilt.)
Cache activity is surfaced through :meth:`QuerySession.cache_info` and the
``*_cache_hits``/``*_cache_misses`` counters of
:class:`~repro.engine.stats.EvaluationStats`, next to the paper's I/O
metrics.

Usage::

    session = QuerySession(graph)             # index="auto"
    answer = session.evaluate(query)          # cold: compiles + caches
    answer = session.evaluate(query)          # warm: result-cache hit
    answer = session.lookup(json_text)        # that hit alone, or None
    batch = session.evaluate_many(queries)    # deduplicates fingerprints
    batch.stats.result_cache_hits             # aggregate counters
    print(session.explain(query))             # compiled-plan stages
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from ..graph.digraph import DataGraph
from ..graph.stats import graph_stats
from ..plan import (
    CompiledPlan,
    NormalizedQuery,
    NormalizeOutcome,
    PhysicalPlan,
    choose_index,
    compile_normalized,
    cost,
    normalize,
    normalize_key,
)
from ..query.gtpq import GTPQ
from ..query.serialize import query_fingerprint, query_from_dict, query_from_json
from ..reachability import (
    ClosureBudgetError,
    GraphReachability,
    build_reachability,
    resolve_index,
)
from ..store import ArtifactStore, graph_fingerprint
from .artifacts import ARTIFACT_KINDS, ClosureSlot
from .cache import LRUCache
from .gtea import GTEA
from .results import ResultSet, check_group_nodes
from .stats import EvaluationStats

#: anything :meth:`QuerySession.evaluate` accepts as a query.
QueryLike = GTPQ | dict | str

#: keywords of the removed ``codegen``, ``parallel`` and ``adaptive``
#: modes: accepted and ignored, because the e2e tracer
#: (``benchmarks/e2e/layers.py``) still passes them (ROADMAP item 1).
RETIRED_KEYWORDS = frozenset({"codegen", "parallel", "adaptive"})


@dataclass(frozen=True)
class QueryPlan:
    """A parsed and *compiled* query, ready for repeated execution.

    Attributes:
        query: the parsed :class:`~repro.query.gtpq.GTPQ`.
        fingerprint: canonical content hash (the plan-cache key).
        compiled: the full :class:`~repro.plan.CompiledPlan` — normalize
            rewrites, logical IR and physical decisions; what
            :meth:`QuerySession.explain` renders and what the executor
            runs.
    """

    query: GTPQ
    fingerprint: str
    compiled: CompiledPlan


@dataclass
class BatchResult:
    """Outcome of :meth:`QuerySession.evaluate_many`.

    Attributes:
        results: one answer set per input query, in input order.
        stats: aggregate :class:`~repro.engine.stats.EvaluationStats`
            across the whole batch, including cache counters and the
            ``batch_queries`` / ``batch_unique_queries`` dedup accounting.
        fingerprints: the canonical fingerprint of each input query.
        per_query: one :class:`~repro.engine.stats.EvaluationStats` per
            input query, in input order, so cache activity (including
            subtree-cache hits) is attributable to individual queries.
            Prune work on a shared subtree is charged to the first query
            that runs it; later ones count a subtree-cache hit.  A
            duplicate of an earlier input carries only its
            plan-cache probe and the result count (the batch dedup served
            it without evaluation).
    """

    results: list[ResultSet]
    stats: EvaluationStats
    fingerprints: list[str]
    per_query: list[EvaluationStats] = field(default_factory=list)


def _json_alias(text: str) -> str:
    """The alias-cache key of JSON query text: its raw content hash."""
    return "json:" + hashlib.sha256(text.encode("utf-8")).hexdigest()


def _hit_stats(answer) -> EvaluationStats:
    """The counters of one answer served from the result cache."""
    stats = EvaluationStats()
    stats.result_cache_hits = 1
    stats.result_count = len(answer)
    return stats


class QuerySession:
    """A long-lived evaluation context over one data graph.

    Args:
        graph: the data graph to serve queries against.
        index: default reachability index name, or ``"auto"`` (default):
            ``tc``, the session's descendant closure, filled on demand
            under a byte budget
            (:data:`~repro.plan.cost.AUTO_CLOSURE_MAX_BYTES` of filled
            bits); past it the ladder's pick for the version
            (:func:`repro.plan.cost.choose_index`).  A pinned ``tc`` has
            no budget.
        plan_cache_size: LRU capacity of the plan cache, one entry per
            distinct query fingerprint.  Plans are the session's largest
            entries (tens of kB each), and a cached answer does not need
            its plan to be found (the alias cache leads to it), hence a
            smaller default than the result cache's.  Also bounds the
            normalize memo and the observed operator records.
        result_cache_size: LRU capacity of the full-result cache, and of
            the alias cache that maps JSON text to its fingerprint.  Pass
            ``0`` to disable both (plan and subtree reuse still apply,
            but JSON text is parsed on every call) — useful for cold-path
            measurements.
        subtree_cache_size: LRU capacity of the subtree-result cache
            (downward-pruned candidate sets keyed by canonical subtree
            fingerprint), which single-query and batch evaluation both
            read and fill, and of the scan memo of predicates without a
            pinned label.  Pass ``0`` to disable subtree reuse across
            executions.
        store: a warm store to rehydrate from and persist to — an
            :class:`~repro.store.ArtifactStore` or a directory path
            (``None``, the default, keeps the session purely in-memory).
            On construction the session loads every artifact kind
            (:data:`repro.engine.artifacts.ARTIFACT_KINDS`) the store
            holds for this graph's **content fingerprint**, so a fresh
            process starts warm; :attr:`store_rehydrated` records what
            was found.  Call :meth:`persist` to publish the
            session's current artifacts back.  A corrupt, stale or
            missing store is never an error: affected kinds simply
            cold-build.
        **retired: ``codegen``, ``parallel`` and ``adaptive``
            (:data:`RETIRED_KEYWORDS`), whose values are ignored; any
            other keyword raises ``TypeError``.

    Planning is a function of the query and the graph's label postings
    alone; an execution's observed per-operator stats are
    kept only for :meth:`explain`, which renders the latest ones next to
    the compile-time estimates.
    """

    def __init__(
        self,
        graph: DataGraph,
        index: str = "auto",
        *,
        plan_cache_size: int = 128,
        result_cache_size: int = 1024,
        subtree_cache_size: int = 4096,
        store: ArtifactStore | str | os.PathLike | None = None,
        **retired,
    ):
        unknown = sorted(set(retired) - RETIRED_KEYWORDS)
        if unknown:
            raise TypeError(f"QuerySession() got an unexpected keyword argument {unknown[0]!r}")
        self.graph = graph
        self.default_index = index
        # One holder per persisted artifact kind — self.plan_cache,
        # self.alias_cache through self.result_cache are declared in
        # ARTIFACT_KINDS, not here.
        sizes = {
            "plan_cache_size": plan_cache_size,
            "result_cache_size": result_cache_size,
            "subtree_cache_size": subtree_cache_size,
        }
        for kind in ARTIFACT_KINDS:
            setattr(self, kind.attr, kind.new_holder(sizes))
        # Normalize outcomes per normalize_key(): what Theorem 1 and
        # Algorithm 1 decided for a query shape and predicate relation.
        # Normalize never reads the graph, so no mutation or invalidate()
        # drops it; memory only, never persisted.
        self.normalize_cache = LRUCache(plan_cache_size)
        # Scans of predicates without a pinned label, which check every
        # node: per graph version, memory only (a pinned label reads the
        # graph's own posting instead).
        self.scan_memo = LRUCache(subtree_cache_size)
        # PC valuations P_{u'} (merged parent sets of a PC child's downward
        # set) by the child's subtree fingerprint: per graph version,
        # memory only, shared read-only by the prunes that read them.
        self.parent_memo = LRUCache(subtree_cache_size)
        # Reachability state lives in memory only: the pooled full
        # indexes by name, and the one descendant closure.
        self._reach_pool: dict[str, GraphReachability] = {}
        self._closure = ClosureSlot()
        # Latest observed operator records per fingerprint (for
        # explain()'s estimated-vs-observed view), bounded like the plan
        # cache so a stream of distinct queries cannot grow it forever.
        self._observed_ops = LRUCache(plan_cache_size)
        # The ladder's pick once the closure passed its budget, and the
        # lineage it did so on: every plan runs on it while that holds.
        self._fallback: str | None = None
        self._fallback_lineage = None
        self._graph_version = graph.version
        if store is None or isinstance(store, ArtifactStore):
            self.store = store
        else:
            self.store = ArtifactStore(store)
        #: content fingerprint used by the last store interaction.
        self.store_fingerprint: str | None = None
        #: per-kind entry counts loaded from the store.
        self.store_rehydrated: dict[str, int] = {}
        if self.store is not None:
            self.store_fingerprint = graph_fingerprint(self.graph)
            self.store_rehydrated = dict.fromkeys((kind.name for kind in ARTIFACT_KINDS), 0)
            self._rehydrate()

    # ------------------------------------------------------------------
    # Index pool
    # ------------------------------------------------------------------
    @property
    def resolved_index(self) -> str:
        """The concrete index name the session's default index resolves to."""
        self._ensure_fresh()
        return resolve_index(self.graph, self.default_index)

    def reachability(self, index: str | None = None) -> GraphReachability:
        """The reachability service for ``index``: the session's one
        descendant closure for ``tc`` (created empty, re-pointed along the
        lineage after a version bump; budgeted when the session's index
        is ``"auto"``), the pooled service otherwise (built lazily)."""
        self._ensure_fresh()
        name = resolve_index(self.graph, index or self.default_index)
        if name == "tc":
            # One holder: ``tc`` is the slot's closure, whoever asks.
            budget = cost.AUTO_CLOSURE_MAX_BYTES if self.default_index == "auto" else None
            return self._closure.current(self.graph) or self._closure.create(self.graph, budget)
        service = self._reach_pool.get(name)
        if service is None:
            service = build_reachability(self.graph, name)
            self._reach_pool[name] = service
        return service

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------
    def invalidate(self) -> None:
        """Drop every cache, every pooled index and the descendant closure.

        A moved :attr:`DataGraph.version` needs no call: the next use
        drops the same things — plans, aliases, subtree and result sets,
        the scan and parent memos, pooled full indexes — except the closure, which is
        kept while the graph's lineage holds (``cache_info()["partial"]``:
        ``kept`` / ``dropped``), and a fallback, kept while the lineage it
        blew out on holds.  The
        graph's own derived state (:meth:`DataGraph.structure`, label
        postings) follows the graph by itself, and attribute writes go
        through :meth:`DataGraph.set_attr`, which bumps the version
        (:meth:`DataGraph.attrs` is read-only).
        """
        self._closure.drop()
        self._fallback = None
        self._drop_versioned()

    def _drop_versioned(self) -> None:
        """What a version bump invalidates.  The closure's slot is left
        alone: it asks the graph's lineage at its next use.  A fallback
        ends with the lineage it blew out on."""
        for kind in ARTIFACT_KINDS:
            getattr(self, kind.attr).clear()
        self.scan_memo.clear()
        self.parent_memo.clear()
        self._reach_pool.clear()
        self._observed_ops.clear()
        if self._fallback is not None:
            if self.graph.structure().lineage is not self._fallback_lineage:
                self._fallback = None
        self._graph_version = self.graph.version

    def close(self) -> None:
        """Nothing to release: a session holds no worker or open file.
        Kept, with the context manager, for callers that close it."""

    def __enter__(self) -> "QuerySession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _ensure_fresh(self) -> None:
        if self.graph.version != self._graph_version:
            self._drop_versioned()

    # ------------------------------------------------------------------
    # Persistence (repro.store)
    # ------------------------------------------------------------------
    def _rehydrate(self) -> None:
        """Load every artifact kind the store holds for this graph.

        The store key is :func:`~repro.store.graph_fingerprint` — full
        graph *content*, not the version counter — so artifacts written
        before any mutation are simply never found.  Each kind loads
        independently; a missing, stale, corrupt or mistyped artifact
        leaves that kind cold.
        """
        for kind in ARTIFACT_KINDS:
            payload = self.store.load(self.store_fingerprint, kind.name)
            try:
                loaded = kind.load(self, payload)
            except Exception:
                continue
            self.store_rehydrated[kind.name] = loaded

    def persist(self) -> dict[str, int]:
        """Publish this session's warm artifacts to the store.

        The content fingerprint is recomputed here — not reused from
        construction — so artifacts learned after a mutation land under
        the *mutated* content's key.  Each kind is
        best-effort: an unpicklable entry (possible for exotic attribute
        values) skips that kind rather than failing the call.  Returns
        the per-kind entry counts actually persisted.
        """
        if self.store is None:
            raise ValueError("session was created without store=; nothing to persist to")
        self._ensure_fresh()
        fingerprint = graph_fingerprint(self.graph)
        self.store_fingerprint = fingerprint
        persisted: dict[str, int] = {}
        for kind in ARTIFACT_KINDS:
            dumped = kind.dump(self)
            if dumped is None:
                continue
            payload, count = dumped
            try:
                self.store.save(fingerprint, kind.name, payload)
            except Exception:
                continue
            persisted[kind.name] = count
        return persisted

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def plan(self, query: QueryLike) -> QueryPlan:
        """Parse and *compile* ``query`` through the plan cache.

        Accepts a :class:`~repro.query.gtpq.GTPQ`, a dictionary in the
        :func:`~repro.query.serialize.query_to_dict` format, or its JSON
        text.  The alias cache maps JSON text's raw content hash to the
        plan's fingerprint, so repeated text whose plan is cached skips
        parsing and fingerprinting entirely.
        The cached artifact includes the full compiled plan (normalize
        rewrites, logical IR, physical decisions), so repeated queries
        skip the optimizer as well as the parser.
        """
        self._ensure_fresh()
        return self._plan_for(query)

    def explain(self, query: QueryLike) -> str:
        """The compiled plan of ``query``, rendered stage by stage.

        When the session has already executed the query, the physical
        section shows each operator's compile-time estimate next to its
        latest observed runtime stats (set sizes, wall time, index
        probes), including an early exit and the operators it skipped.
        The index line is the one the plan runs on here: ``tc`` with the
        bytes and rows its closure has filled, or after a blow-out the
        ladder's pick.
        """
        self._ensure_fresh()
        plan = self._plan_for(query)
        return plan.compiled.explain(
            observed=self._observed_ops.peek(plan.fingerprint),
            index_line=self._index_line(plan.compiled.physical),
        )

    def _index_line(self, physical: PhysicalPlan) -> str:
        if physical.index_name != "tc":
            return physical.index_line
        if self._fallback is not None:
            return f"index: {self._fallback} (tc passed its budget on this graph lineage)"
        index = self._closure.service.index if self._closure.service is not None else None
        filled, rows = (index.filled_bytes, index.rows) if index is not None else (0, 0)
        return f"index: tc ({physical.index_reason}; filled {filled} bytes in {rows} rows)"

    def _plan_for(self, query: QueryLike, alias: str | None = None) -> QueryPlan:
        """The cached or freshly compiled plan of ``query``.

        JSON text goes alias → fingerprint → plan: the alias cache
        (one hit or miss) names the fingerprint, and a plan cached under
        it is returned unparsed.  Otherwise the query is parsed and
        fingerprinted, the plan cache probed by fingerprint, and the
        text's alias (re)written.  Either way one planning operation
        counts exactly one plan-cache hit or miss.  A dict has no alias:
        its constants keep their types only once parsed, so it is always
        parsed and fingerprinted.  ``alias`` is the text's
        :func:`_json_alias` when the caller has already hashed it.
        """
        if isinstance(query, GTPQ):
            parsed = query
        elif isinstance(query, str):
            alias = alias or _json_alias(query)
            fingerprint = self.alias_cache.get(alias)
            if isinstance(fingerprint, str):
                cached = self.plan_cache.peek(fingerprint)
                if cached is not None:
                    self.plan_cache.counters.hits += 1
                    return cached
            parsed = query_from_json(query)
        elif isinstance(query, dict):
            parsed = query_from_dict(query)
        else:
            raise TypeError(
                f"cannot plan a {type(query).__name__}; expected GTPQ, dict, or JSON str"
            )
        fingerprint = query_fingerprint(parsed)
        plan = self.plan_cache.get(fingerprint)
        if plan is None:
            plan = QueryPlan(
                query=parsed,
                fingerprint=fingerprint,
                compiled=compile_normalized(
                    self.graph, self._normalize(parsed), index=self.default_index
                ),
            )
            self.plan_cache.put(fingerprint, plan)
        if alias is not None:
            self.alias_cache.put(alias, fingerprint)
        return plan

    def _normalize(self, query: GTPQ) -> NormalizedQuery:
        """:func:`~repro.plan.normalize` through the session's memo: a
        query whose :func:`~repro.plan.normalize_key` was met before
        replays that outcome and runs neither Theorem 1 nor Algorithm 1."""
        key = normalize_key(query)
        outcome = self.normalize_cache.get(key)
        if outcome is not None:
            return outcome.replay(query)
        normalized = normalize(query)
        self.normalize_cache.put(key, NormalizeOutcome.of(normalized))
        return normalized

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate(self, query: QueryLike, group_nodes: Sequence[str] = ()) -> ResultSet:
        """Evaluate ``query``, reusing every applicable cache.

        ``group_nodes`` must be outputs of ``query`` with no output below
        them (``ValueError`` otherwise); their matches are grouped per
        answer row."""
        results, _ = self.evaluate_with_stats(query, group_nodes)
        return results

    def evaluate_with_stats(
        self, query: QueryLike, group_nodes: Sequence[str] = ()
    ) -> tuple[ResultSet, EvaluationStats]:
        """Evaluate with counters; cache activity lands in the stats.

        Raises ``ValueError`` when a group node is not an output of the
        query or has an output below it."""
        group_key = tuple(group_nodes)
        alias = _json_alias(query) if isinstance(query, str) else None
        if alias is not None:
            hit = self._lookup(alias, group_key)
            if hit is not None:
                return hit, _hit_stats(hit)
        self._ensure_fresh()
        plan_hits = self.plan_cache.counters.hits
        plan_misses = self.plan_cache.counters.misses
        plan = self._plan_for(query, alias)
        check_group_nodes(plan.query, group_key)
        results, stats = self._probe_result_cache(plan, group_key) or self._execute_plan(
            plan, group_key
        )
        stats.plan_cache_hits += self.plan_cache.counters.hits - plan_hits
        stats.plan_cache_misses += self.plan_cache.counters.misses - plan_misses
        return results, stats

    def lookup(self, query: QueryLike, group_nodes: Sequence[str] = ()) -> ResultSet | None:
        """The answer :meth:`evaluate` would serve from the result cache,
        or ``None`` — without parsing, compiling, invalidating or executing.

        A hit needs JSON text whose alias (text → fingerprint) and
        ``(fingerprint, group_nodes)`` answer are both cached, in a
        session at the graph's current version — the plan itself is not
        read, so an answer stays a hit however long ago its plan was
        evicted.  Only non-empty ``group_nodes`` also need the plan,
        whose outputs they must belong to.  A hit counts and refreshes
        exactly what that :meth:`evaluate` call would: one alias-cache
        hit and one result-cache hit.  Anything else — a ``GTPQ`` or dict
        query (they need a parse and a fingerprint), a cold or malformed
        alias, a cold answer, a mutated graph — returns ``None`` and
        counts nothing; the caller then evaluates.  :meth:`evaluate`
        itself starts here, so this is its one hit path.
        """
        if not isinstance(query, str):
            return None
        return self._lookup(_json_alias(query), tuple(group_nodes))

    def _lookup(self, alias: str, group_key: tuple[str, ...]) -> ResultSet | None:
        if self.graph.version != self._graph_version:
            return None  # the pool's evaluate drops the stale caches
        fingerprint = self.alias_cache.peek(alias)
        if not isinstance(fingerprint, str):
            return None
        cached = self.result_cache.peek((fingerprint, group_key))
        if cached is None:
            return None
        if group_key:
            plan = self.plan_cache.peek(fingerprint)
            if plan is None or not set(group_key).issubset(plan.query.outputs):
                return None  # no outputs to check, or a stray stored key
        self.alias_cache.counters.hits += 1
        self.result_cache.counters.hits += 1
        return set(cached)

    def _probe_result_cache(
        self, plan: QueryPlan, group_nodes: tuple[str, ...]
    ) -> tuple[ResultSet, EvaluationStats] | None:
        """Serve from the result cache or the constant-empty path."""
        result_key = (plan.fingerprint, group_nodes)
        cached = self.result_cache.get(result_key)
        if cached is not None:
            return set(cached), _hit_stats(cached)

        if plan.compiled.unsatisfiable:
            # Constant-empty plan: answer without materializing an index
            # or even touching an engine.
            stats = EvaluationStats()
            stats.result_cache_misses = 1
            self.result_cache.put(result_key, frozenset())
            return set(), stats
        return None

    def _execute_plan(
        self, plan: QueryPlan, group_nodes: tuple[str, ...]
    ) -> tuple[ResultSet, EvaluationStats]:
        """Run one cold plan (no result-cache probe).

        A ``tc`` plan runs on the session's closure.  When a fill would
        take it past its budget, the closure is dropped and the plan
        reruns on the ladder's pick, which every later plan runs on too
        while the graph's lineage holds.
        """
        try:
            results, stats = self._run(plan, group_nodes)
        except ClosureBudgetError:
            self._fallback_lineage = self._closure.service.lineage
            self._closure.drop()
            self._fallback = choose_index(graph_stats(self.graph))
            results, stats = self._run(plan, group_nodes)
        stats.result_cache_misses = 1
        self.result_cache.put((plan.fingerprint, group_nodes), frozenset(results))
        if not group_nodes:
            # Group evaluation runs the original, pre-rewrite query, whose
            # records do not line up with this plan's estimates.
            self._record_observed(plan, stats)
        return results, stats

    def _run(
        self, plan: QueryPlan, group_nodes: tuple[str, ...]
    ) -> tuple[ResultSet, EvaluationStats]:
        service = self.reachability(self._fallback or plan.compiled.physical.index_name)
        # Construction is trivial: the service exists.
        return GTEA(self.graph, reachability=service).execute(
            plan.compiled,
            group_nodes=group_nodes,
            stats=EvaluationStats(),
            scan_memo=self.scan_memo,
            subtree_cache=self.subtree_cache,
            parent_memo=self.parent_memo,
        )

    def _record_observed(self, plan: QueryPlan, stats: EvaluationStats) -> None:
        """Keep one execution's operator records for :meth:`explain`'s
        estimated-vs-observed view."""
        if stats.operator_stats:
            self._observed_ops.put(plan.fingerprint, list(stats.operator_stats))

    # ------------------------------------------------------------------
    # Batch evaluation
    # ------------------------------------------------------------------
    def evaluate_many(
        self, queries: Iterable[QueryLike], group_nodes: Sequence[str] = ()
    ) -> BatchResult:
        """Evaluate a workload, planning and running each distinct query once.

        Queries are planned first (one plan per distinct fingerprint);
        each *unique* fingerprint is then served by the result cache — so
        a warm session may evaluate nothing at all — or run like
        :meth:`evaluate`.  Prune work is shared through the subtree
        cache: a rooted subtree that several queries of the batch contain
        is downward-pruned by the first of them and read back by the
        others (``subtree_cache_hits``), and the answers are fanned back
        out to input order.
        """
        self._ensure_fresh()
        group_key = tuple(group_nodes)
        plan_counters = self.plan_cache.counters

        plans: list[QueryPlan] = []
        plan_deltas: list[tuple[int, int]] = []
        for query in queries:
            hits, misses = plan_counters.hits, plan_counters.misses
            plans.append(self._plan_for(query))
            check_group_nodes(plans[-1].query, group_key)
            plan_deltas.append((plan_counters.hits - hits, plan_counters.misses - misses))

        answers: dict[str, ResultSet] = {}
        stats_by_fingerprint: dict[str, EvaluationStats] = {}
        for plan in plans:
            if plan.fingerprint not in answers:
                answers[plan.fingerprint], stats_by_fingerprint[plan.fingerprint] = (
                    self._probe_result_cache(plan, group_key) or self._execute_plan(plan, group_key)
                )

        aggregate = EvaluationStats.aggregate(list(stats_by_fingerprint.values()))
        aggregate.batch_queries = len(plans)
        aggregate.batch_unique_queries = len(answers)

        per_query: list[EvaluationStats] = []
        seen: set[str] = set()
        for plan, (plan_hits, plan_misses) in zip(plans, plan_deltas):
            fingerprint = plan.fingerprint
            if fingerprint not in seen:
                seen.add(fingerprint)
                stats = stats_by_fingerprint[fingerprint]
            else:
                # Batch dedup served this input without evaluating it.
                stats = EvaluationStats()
                stats.result_count = len(answers[fingerprint])
            stats.plan_cache_hits += plan_hits
            stats.plan_cache_misses += plan_misses
            aggregate.plan_cache_hits += plan_hits
            aggregate.plan_cache_misses += plan_misses
            per_query.append(stats)

        return BatchResult(
            results=[set(answers[plan.fingerprint]) for plan in plans],
            stats=aggregate,
            fingerprints=[plan.fingerprint for plan in plans],
            per_query=per_query,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def cache_info(self) -> dict[str, dict[str, int]]:
        """Counter snapshots and sizes of every session cache, plus the
        ``"structure"`` row of the graph's component numbering
        (:meth:`DataGraph.structure_info`): extensions are mutations
        absorbed, builds are lineages started, ``covered`` is the nodes
        numbered so far.

        ``"partial"`` is *the* descendant closure's row — ``rows`` /
        ``bytes`` held, ``fills`` ever computed, version bumps ``kept``
        across, closures ``dropped`` (a lineage break, ``invalidate()`` or
        a fill past the budget).  ``"indexes"`` counts the other, pooled
        indexes, a fallback's among them.  ``"normalize"`` is the normalize memo's row,
        ``"parents"`` the parent memo's (PC valuations), and
        ``"candidate"`` the scan memo's — all zero while every predicate
        pins a label (it was the candidate cache's row, and keeps its
        name until the e2e tracer stops reading it, ROADMAP item 1 step
        B)."""
        info = {"indexes": {"pooled": len(self._reach_pool)}, "partial": self._closure.info()}
        for kind in ARTIFACT_KINDS:
            info[kind.info] = kind.describe(getattr(self, kind.attr))
        info["candidate"] = {**self.scan_memo.counters.snapshot(), "size": len(self.scan_memo)}
        info["parents"] = {**self.parent_memo.counters.snapshot(), "size": len(self.parent_memo)}
        info["normalize"] = {
            **self.normalize_cache.counters.snapshot(),
            "size": len(self.normalize_cache),
        }
        info["structure"] = self.graph.structure_info()
        if self.store is not None:
            info["store"] = {
                **self.store.counters.snapshot(),
                "rehydrated": sum(self.store_rehydrated.values()),
            }
        return info

    def __repr__(self) -> str:
        return (
            f"QuerySession(graph={self.graph!r}, index={self.default_index!r}, "
            f"pooled={sorted(self._reach_pool)})"
        )
