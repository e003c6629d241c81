"""Shared fixtures: sweeps that store every sample's amplitudes.

The backends reduce each sample as it is produced and keep only the last
instant's amplitudes.  Tests that check the amplitudes of every sample swap
``storing_sweep.storing_branch_sweep`` in for ``core.branch_sweep``; the
pieces it consumes are the backends' own.
"""

import pytest

from storing_sweep import store_sweeps


@pytest.fixture
def stored_sweeps(monkeypatch):
    """Both backends return one BranchState holding every sample's amplitudes."""
    store_sweeps(monkeypatch)
