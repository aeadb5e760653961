"""The execution route: which executor runs a plan, decided once.

A :class:`~repro.plan.physical.PhysicalPlan` fixes index and operator
pipeline; the session adds three flags (codegen, parallel, adaptive)
and the call one fact (group nodes).  These exclude
each other in places, and :func:`decide_route` is the one function that
resolves them: execution and ``explain()`` both consume its
:class:`ExecutionRoute`, and nothing downstream re-decides.

The route is a pure function of plan and flags and is *not* stored on
the plan — plans travel through the warm store between sessions with
different flags.  Two outcomes are only known at run time and stay
fallbacks layered on the route: a partial-scope plan whose closure rows
blow the fill budget, and a plan the codegen analysis rejects.  At most
one can hit a given route (partial-scope plans never compile).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine.parallel import ParallelOptions
    from .physical import PhysicalPlan


def codegen_refusal(
    physical: "PhysicalPlan",
    *,
    adaptive: bool = False,
    sharded: bool = False,
    grouped: bool = False,
) -> str | None:
    """Why no compiled function may drive a run of ``physical``, or None.

    The single statement of codegen applicability: the route, the
    codegen analysis (:func:`repro.plan.codegen.analyze_plan`) and the
    engine's guard (:meth:`repro.engine.gtea.GTEA.execute`) all ask here.
    """
    if adaptive:
        return "adaptive sessions reorder at runtime"
    if sharded:
        return "parallel-sharded execution"
    if grouped:
        return "group evaluation runs the original query"
    if physical.executor != "gtea":
        return f"executor {physical.executor!r} is not specializable"
    if physical.index_scope != "full":
        # Partial-scope plans bind to the session's descendant closure,
        # whose lifetime the graph's lineage controls; compiled functions
        # cache by plan fingerprint and would outlive (and pin) it.
        return "partial-scope index choice is not specializable"
    return None


@dataclass(frozen=True)
class ExecutionRoute:
    """How one run of a physical plan executes under a session's flags."""

    #: index of the pooled full-scope engine; ``None`` is the session
    #: default, which partial-scope plans fall back to — their inner
    #: name (``"tc"``) must never become a whole-graph build.
    index_name: str | None
    #: try the session's descendant closure (a serial engine) first; a
    #: fill blow-out falls back to the full-scope engine.
    partial: bool
    #: a partial-scope plan statically sent to the full-scope engine.
    partial_refused: bool
    sharded: bool  #: the sharded executor drives the full-scope engine.
    adaptive: bool  #: engines reorder the downward prune at run time.
    compiled: bool  #: a compiled plan function may drive the run.
    #: the static reason none may; ``None`` when ``compiled`` and with
    #: codegen off.
    codegen_fallback: str | None
    parallel: "ParallelOptions | None" = None

    def notes(self, compiled_entry=None) -> list[str]:
        """The ``[codegen]`` / ``[parallel]`` lines of ``explain()``;
        ``compiled_entry`` is the codegen-cache entry of a ``compiled``
        route (the function, or why the analysis rejected the plan)."""
        lines = []
        reason = compiled_entry if self.compiled else self.codegen_fallback
        if isinstance(reason, str):
            lines.append(f"[codegen] interpreted fallback ({reason})")
        elif self.compiled:
            lines.append(f"[codegen] {compiled_entry.describe()}")
        if self.sharded:
            lines.append(
                f"[parallel] downward prune sharded across {self.parallel.workers} "
                f"workers ({self.parallel.resolved_backend} backend)"
            )
        elif self.parallel is not None:
            lines.append("[parallel] serial (plan not routed to the GTEA executor)")
        return lines


def decide_route(
    physical: "PhysicalPlan",
    *,
    codegen: bool | str = False,
    parallel: "ParallelOptions | None" = None,
    adaptive: bool = False,
    grouped: bool = False,
) -> ExecutionRoute:
    """Resolve the session's ``codegen`` / ``parallel`` / ``adaptive``
    flags against one plan, for a call that may carry group nodes
    (``grouped``)."""
    gtea = physical.executor == "gtea"
    partial_scope = gtea and physical.index_scope == "partial"
    # Group evaluation runs the original, pre-rewrite query, whose
    # candidates the costing never bounded, and the sharded executor
    # would only hand it (like any non-GTEA plan) back to the engine.
    sharded = parallel is not None and gtea and not grouped
    refusal, compiled = None, False
    if codegen:
        refusal = codegen_refusal(physical, adaptive=adaptive, sharded=sharded, grouped=grouped)
        compiled = refusal is None
    return ExecutionRoute(
        index_name=None if physical.index_scope == "partial" else physical.index_name,
        partial=partial_scope and not grouped,
        partial_refused=partial_scope and grouped,
        sharded=sharded,
        adaptive=adaptive,
        compiled=compiled,
        codegen_fallback=refusal,
        parallel=parallel,
    )
