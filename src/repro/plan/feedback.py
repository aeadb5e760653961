"""Runtime cost feedback: observed operator stats calibrate the planner.

The cost model of :mod:`repro.plan.cost` prices executors in abstract
"elements touched" units with hardwired constants
(:data:`~repro.plan.cost.GTEA_CANDIDATE_PASSES`,
:data:`~repro.plan.cost.BASELINE_SWEEPS`).  Those constants are guesses;
the executor now *measures* the real thing — every pipeline run records
one :class:`~repro.engine.operators.OperatorStats` per physical operator
(input size, wall time, index probes).

A :class:`CostProfile` aggregates those observations per
``(index, executor, graph-version)`` key and answers two planner
questions on subsequent compilations:

* :meth:`CostProfile.executor_costs` — observed seconds-per-element for
  the GTEA pipeline and the baseline delegate, replacing the abstract
  unit constants in :func:`repro.plan.cost.estimate_executor` once both
  sides have enough samples;
* :meth:`CostProfile.preferred_index` — the observed cheapest index for
  the current graph version, consulted by
  :func:`repro.plan.cost.choose_index` to override the shape ladder when
  measurements contradict it.  Note the arming condition: the override
  needs observations for the ladder pick *and* a cheaper alternative,
  so a single ``index="auto"`` session (which only ever executes the
  ladder pick) cannot trigger it by itself — it fires when the profile
  also holds observations from pinned-index executions, e.g. sessions
  created with explicit index names that share a profile, or profiles
  seeded from prior measurement runs.

Executions are filed under the executor that actually ran: the isolated
GTEA pipeline ("gtea"), the baseline delegate ("twigstackd"), the
shared-batch path ("gtea-shared" — excluded from calibration, since a
warm subtree cache leaves those executions with suffix-only operator
records whose seconds have no matching candidate volume), the sharded
pool driver ("gtea-parallel" — also excluded: its wall times include
pool scheduling and, per shard, repeated chain scans, neither of which
the serial cost model prices; the driver files one operator record per
phase — overlapped ``CandidateScan``, per-node ``DownwardPrune``,
sharded ``UpwardPrune``, the serial suffix — so the key's
``by_operator`` breakdown *is* the per-phase split of the parallel
run), or a specialized compiled function ("gtea-codegen" — also
excluded: its seconds describe the generated loop, not the interpreted
arm the executor inequality compares, so folding them into "gtea"
would silently deflate the interpreted seconds-per-element; alongside
the whole-plan ``CodegenExecute`` record, the compiled prune loop's
wall time files as ``CodegenPrune``, isolating the specialized loop
from result collection in the snapshot).  The calibration
consultations below match the "gtea" and "twigstackd" keys *exactly*;
every tagged variant is visible in :meth:`CostProfile.snapshot` but
never steers the planner.

Profiles also round-trip through the warm store
(:mod:`repro.store`): :meth:`CostProfile.export_state` emits a
JSON-safe snapshot of the latest graph version's aggregates and
:meth:`CostProfile.import_state` folds such a snapshot back in under
the importing session's graph version — how a fresh process starts
with last run's calibration instead of :data:`MIN_SAMPLES` cold
executions.

:class:`repro.engine.session.QuerySession` owns one profile, records
into it after every execution, and passes it to every compilation
(``session.cost_profile``).  Cached plans are *not* recompiled when the
profile moves — feedback applies to cold fingerprints and to plans
recompiled after invalidation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: operators whose input sizes denominate the GTEA per-element cost —
#: the initial candidate volume, matching the abstract model's
#: ``GTEA_CANDIDATE_PASSES * total_candidates``.
_GTEA_VOLUME_OP = "CandidateScan"

#: the graph's structural snapshot, booked by whichever execution first
#: demands it in a graph version: visible in the snapshot's operator
#: breakdown, but no arm's cost — every index build reads the same one.
_STRUCTURE_OP = "StructureBuild"

#: observed executions required before a calibration is trusted.
MIN_SAMPLES = 3

#: an observed alternative index must beat the ladder pick's observed
#: per-element cost by this factor before the profile overrides it.
INDEX_OVERRIDE_MARGIN = 0.8


@dataclass
class OperatorObservation:
    """Aggregated runtime of one operator kind under one profile key."""

    runs: int = 0
    items: int = 0  #: summed input sizes.
    produced: int = 0  #: summed output sizes.
    seconds: float = 0.0
    index_lookups: int = 0
    index_entries: int = 0

    def fold(self, record) -> None:
        self.runs += 1
        self.items += record.input_size
        self.produced += record.output_size
        self.seconds += record.seconds
        self.index_lookups += record.index_lookups
        self.index_entries += record.index_entries

    def merge(self, other: "OperatorObservation") -> None:
        """Fold another aggregate in (store rehydration path)."""
        self.runs += other.runs
        self.items += other.items
        self.produced += other.produced
        self.seconds += other.seconds
        self.index_lookups += other.index_lookups
        self.index_entries += other.index_entries


@dataclass
class _KeyProfile:
    """All observations under one (index, executor, graph-version)."""

    executions: int = 0
    by_operator: dict[str, OperatorObservation] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return sum(obs.seconds for op, obs in self.by_operator.items() if op != _STRUCTURE_OP)

    @property
    def volume(self) -> int:
        """Elements the per-element cost is denominated in.

        GTEA keys divide by the scanned candidate volume — the elements
        ``CandidateScan`` produced (falling back to the summed
        downward-prune inputs for shared-batch executions, which fetch
        candidates inside the DAG); the baseline key divides by the
        graph elements its sweeps touch (the ``BaselineDelegate`` input
        size).
        """
        scan = self.by_operator.get(_GTEA_VOLUME_OP)
        if scan is not None and scan.produced > 0:
            return scan.produced
        prune = self.by_operator.get("DownwardPrune")
        if prune is not None and prune.items > 0:
            return prune.items
        compiled = self.by_operator.get("CodegenExecute")
        if compiled is not None and compiled.items > 0:
            # Compiled executions record one whole-plan observation whose
            # input size is the scanned candidate volume ("gtea-codegen"
            # keys only — never consulted for calibration, but the
            # snapshot rate should still mean something).
            return compiled.items
        delegate = self.by_operator.get("BaselineDelegate")
        return delegate.items if delegate is not None else 0

    def seconds_per_element(self) -> float | None:
        volume = self.volume
        if self.executions < MIN_SAMPLES or volume <= 0:
            return None
        return self.seconds / volume


class CostProfile:
    """Observed operator statistics, aggregated for the planner.

    One instance is session-held (``QuerySession.cost_profile``).  All
    methods are cheap; the profile never stores per-execution records,
    only running sums per ``(index, executor, graph_version)``.
    """

    def __init__(self):
        self._keys: dict[tuple[str, str, int], _KeyProfile] = {}
        self._latest_version: int | None = None

    def record(
        self,
        *,
        index_name: str,
        executor: str,
        graph_version: int,
        operator_stats,
    ) -> None:
        """Fold one execution's observed operator records into the profile.

        Aggregates for versions older than the previous one are dropped
        on the first record of a newer version, so a session over a
        frequently mutated graph keeps at most two versions' worth of
        keys instead of growing forever.
        """
        if not operator_stats:
            return
        if self._latest_version is None or graph_version > self._latest_version:
            self._latest_version = graph_version
            self._keys = {
                key: profile
                for key, profile in self._keys.items()
                if key[2] >= graph_version - 1
            }
        key = self._keys.setdefault((index_name, executor, graph_version), _KeyProfile())
        key.executions += 1
        for record in operator_stats:
            key.by_operator.setdefault(record.op, OperatorObservation()).fold(record)

    # ------------------------------------------------------------------
    # Planner consultation
    # ------------------------------------------------------------------
    def executor_costs(self, index_name: str, graph_version: int) -> tuple[float, float] | None:
        """Observed (gtea, baseline) seconds-per-element, or None.

        The GTEA figure is specific to ``index_name``; the baseline
        figure is index-independent (its sweeps never probe one), so the
        *cheapest* observed rate under any index key of this graph
        version is used — an optimistic bound for the baseline arm.
        Returns None until *both* sides have :data:`MIN_SAMPLES`
        observed executions — calibration needs a measured alternative
        on each arm of the comparison.
        """
        gtea = self._keys.get((index_name, "gtea", graph_version))
        gtea_rate = gtea.seconds_per_element() if gtea is not None else None
        baseline_rate = None
        for (_, executor, version), key in self._keys.items():
            if executor != "twigstackd" or version != graph_version:
                continue
            rate = key.seconds_per_element()
            if rate is not None and (baseline_rate is None or rate < baseline_rate):
                baseline_rate = rate
        if gtea_rate is None or baseline_rate is None:
            return None
        return gtea_rate, baseline_rate

    def preferred_index(
        self, graph_version: int, executor: str = "gtea"
    ) -> tuple[str, float] | None:
        """The observed cheapest *full-scope* index for this graph version.

        Returns ``(index_name, seconds_per_element)`` over executions of
        exactly the ``executor`` arm being costed, or None when no index
        has enough samples.  Keys recorded under other executors
        ("gtea-shared", "gtea-parallel", "gtea-codegen", ...) never
        steer the comparison, and neither do scope-tagged index names
        ("tc@partial", ...): a partial build's per-element rate is not
        an offer the full-index ladder can take — emitting a scoped name
        as a full index choice would not even resolve in the factory.
        """
        best: tuple[str, float] | None = None
        for (index_name, key_executor, version), key in self._keys.items():
            if key_executor != executor or version != graph_version:
                continue
            if "@" in index_name:
                continue
            rate = key.seconds_per_element()
            if rate is not None and (best is None or rate < best[1]):
                best = (index_name, rate)
        return best

    def observed_rate(
        self, index_name: str, graph_version: int, executor: str = "gtea"
    ) -> float | None:
        """Observed seconds-per-element under one (index, executor) arm.

        ``index_name`` may be scope-tagged ("tc@partial") — that is how
        the per-query costing layer reads back what partial builds cost.
        """
        key = self._keys.get((index_name, executor, graph_version))
        return key.seconds_per_element() if key is not None else None

    # ------------------------------------------------------------------
    # Persistence (the warm store of :mod:`repro.store`)
    # ------------------------------------------------------------------
    def export_state(self) -> dict | None:
        """A JSON-safe snapshot of the latest graph version's aggregates.

        Only the newest version's keys are exported — older versions are
        already on their way out of the in-memory profile (see
        :meth:`record`) and a persisted store is keyed by graph
        *content*, under which exactly one version is ever live.
        Returns None when the profile holds nothing exportable.
        """
        if self._latest_version is None:
            return None
        keys = []
        for (index_name, executor, version), profile in sorted(self._keys.items()):
            if version != self._latest_version:
                continue
            keys.append(
                {
                    "index": index_name,
                    "executor": executor,
                    "executions": profile.executions,
                    "operators": {
                        op: {
                            "runs": obs.runs,
                            "items": obs.items,
                            "produced": obs.produced,
                            "seconds": obs.seconds,
                            "index_lookups": obs.index_lookups,
                            "index_entries": obs.index_entries,
                        }
                        for op, obs in sorted(profile.by_operator.items())
                    },
                }
            )
        return {"keys": keys} if keys else None

    def import_state(self, state: dict | None, graph_version: int) -> int:
        """Fold an :meth:`export_state` snapshot in under ``graph_version``.

        The exporting process's graph version is irrelevant — two
        processes building the same graph can disagree on the mutation
        count — so imported aggregates are re-keyed to the *importing*
        session's version.  Returns the number of executions folded in.
        Malformed snapshots (hand-edited reports, schema drift) import
        zero rather than raising.
        """
        if not isinstance(state, dict):
            return 0
        imported = 0
        for entry in state.get("keys", ()):
            try:
                index_name = str(entry["index"])
                executor = str(entry["executor"])
                executions = int(entry["executions"])
                operators = {
                    str(op): OperatorObservation(
                        runs=int(fields["runs"]),
                        items=int(fields["items"]),
                        produced=int(fields["produced"]),
                        seconds=float(fields["seconds"]),
                        index_lookups=int(fields["index_lookups"]),
                        index_entries=int(fields["index_entries"]),
                    )
                    for op, fields in entry.get("operators", {}).items()
                }
            except (KeyError, TypeError, ValueError):
                continue
            key = self._keys.setdefault(
                (index_name, executor, graph_version), _KeyProfile()
            )
            key.executions += executions
            for op, observation in operators.items():
                key.by_operator.setdefault(op, OperatorObservation()).merge(observation)
            imported += executions
        if imported and (
            self._latest_version is None or graph_version > self._latest_version
        ):
            self._latest_version = graph_version
        return imported

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def executions(self) -> int:
        """Total executions folded into the profile, across all keys."""
        return sum(key.executions for key in self._keys.values())

    def snapshot(self) -> dict[str, dict[str, float]]:
        """Per-key summary: executions, seconds, volume, rate."""
        summary: dict[str, dict[str, float]] = {}
        for (index_name, executor, version), key in sorted(self._keys.items()):
            rate = key.seconds_per_element()
            summary[f"{index_name}/{executor}/v{version}"] = {
                "executions": key.executions,
                "seconds": round(key.seconds, 6),
                "volume": key.volume,
                "seconds_per_element": rate if rate is not None else 0.0,
            }
        return summary

    def __repr__(self) -> str:
        return f"CostProfile(keys={len(self._keys)}, executions={self.executions()})"
