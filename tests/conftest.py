"""Fixtures shared across the tier-1 suites."""

import pytest

#: the closure bound that admits ``tc`` up to 512 nodes (512² / 16 bytes),
#: the first rung's reach before it was a memory bound.
LOW_CLOSURE_BOUND = 512 * 512 // 16


@pytest.fixture
def low_closure_bound(monkeypatch):
    """Patch :data:`repro.plan.cost.AUTO_CLOSURE_MAX_BYTES` down so graphs
    of test size sit *above* the closure rung: the forest / near-tree /
    3-hop rungs and the budgeted partial arm decide, as they do for a
    graph too large for the real bound."""
    monkeypatch.setattr("repro.plan.cost.AUTO_CLOSURE_MAX_BYTES", LOW_CLOSURE_BOUND)
