"""Reference sweep builder that stores every sample's amplitudes.

It takes the pieces ``core.branch_sweep`` takes and runs them the same way,
but stores each run's rows in one sweep-long ``c``/``d`` pair instead of
reducing them: a BranchState with a leading time axis, whose ``sweep[i]`` is
any instant.  Its amplitudes and their ``overlaps`` are the reference the
reduced sweep is checked against.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from gravjcm import analytic, core, ode
from gravjcm.core import BranchState


def storing_branch_sweep(times, pieces, w, grid, meta) -> BranchState:
    """The sweep over ``times`` that ``pieces`` fill, every row stored.

    Row lo + r of a run (lo, x, y) is stored as C_n = w_n x[r, :, n] and
    D_{n+1} = w_n y[r, :, n] in c and d, each (T, K, nmax + 2), on one thread
    per CPU the process may use (``core._cpus``), at most one per piece.
    """
    c = np.zeros((times.size, grid.nodes.size, w.size + 1), dtype=np.complex128)
    d = np.zeros(c.shape, dtype=np.complex128)

    def fill(piece):
        for lo, x, y in piece:
            np.multiply(w, x, out=c[lo : lo + len(x), :, : w.size])
            np.multiply(w, y, out=d[lo : lo + len(y), :, 1:])

    threads = min(len(pieces), core._cpus())
    if threads <= 1:
        for piece in pieces:
            fill(piece)
    else:
        with ThreadPoolExecutor(threads) as pool:
            list(pool.map(fill, pieces))
    return BranchState(t=times, c=c, d=d, grid=grid, meta=meta)


def store_sweeps(monkeypatch) -> None:
    """Make both backends build their sweeps with ``storing_branch_sweep``."""
    for module in (ode, analytic):
        monkeypatch.setattr(module, "branch_sweep", storing_branch_sweep)
