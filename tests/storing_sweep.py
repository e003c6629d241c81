"""Reference sweep builder that stores every sample's amplitudes.

It takes the pieces ``core.branch_sweep`` takes and runs them the same way,
but stores each run's rows in one sweep-long ``c``/``d`` pair instead of
reducing them: a ``StoredSweep``, whose ``sweep[i]`` is any instant.  Its
amplitudes and their ``overlaps`` are the reference the reduced sweep is
checked against.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from gravjcm import analytic, core, ode
from gravjcm.core import BranchState


@dataclass(frozen=True)
class StoredSweep(BranchState):
    """Amplitudes of the two atomic branches at every sample of a sweep.

    ``t`` is the (T,) sample times and ``c``, ``d`` lead with the time axis,
    (T, K, nmax + 2).  ``sweep[i]`` is the instant t[i], viewing row i of
    both.  The inherited ``norm`` and ``node_overlaps`` reduce the last axes,
    so they give one value per sample; ``meta`` is the backend's, as on
    ``core.Sweep``.
    """

    meta: dict

    def __getitem__(self, i) -> BranchState:
        return BranchState(t=self.t[i], c=self.c[i], d=self.d[i], grid=self.grid)


def storing_branch_sweep(times, pieces, w, grid, meta) -> StoredSweep:
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
    return StoredSweep(t=times, c=c, d=d, grid=grid, meta=meta)


def store_sweeps(monkeypatch) -> None:
    """Make both backends build their sweeps with ``storing_branch_sweep``."""
    for module in (ode, analytic):
        monkeypatch.setattr(module, "branch_sweep", storing_branch_sweep)
