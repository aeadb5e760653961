"""Fixtures shared across the tier-1 suites."""

import pytest

#: 512² / 16 bytes: the closure budget patched down so that a graph of
#: test size can fill past it.  A 2,000-node chain's rows hold ≈ 320 kB;
#: the enclave queries of ``index_choice_workload`` fill about 1 kB.
LOW_CLOSURE_BOUND = 512 * 512 // 16


@pytest.fixture
def low_closure_bound(monkeypatch):
    """Patch :data:`repro.plan.cost.AUTO_CLOSURE_MAX_BYTES` down so graphs
    of test size can pass a session's closure budget: the closure is
    dropped and the session runs the ladder's pick for the version, as it
    does for a graph too large for the real budget."""
    monkeypatch.setattr("repro.plan.cost.AUTO_CLOSURE_MAX_BYTES", LOW_CLOSURE_BOUND)
