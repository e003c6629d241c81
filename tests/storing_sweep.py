"""Reference sweep builder that stores every sample's field state rows.

It takes the pieces ``core.branch_sweep`` takes and runs them the same way,
but stores each run's rows in one sweep-long ``c``/``d`` pair instead of
reducing them: a ``StoredSweep``, whose ``sweep[i]`` is any instant.  Its
rows and their ``overlaps`` are the reference the reduced sweep is checked
against.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from gravjcm import analytic, core, ode
from gravjcm.core import BranchState


@dataclass(frozen=True)
class StoredSweep(BranchState):
    """Field state rows of the two atomic branches at every sample of a sweep.

    ``t`` is the (T,) sample times and ``c``, ``d`` lead with the time axis,
    (T, K, nmax + 2).  ``sweep[i]`` is the instant t[i], viewing row i of
    both.  ``cc``, ``dd`` and ``cd`` are the (T,) overlaps ``core.Sweep``
    holds, each sample's rows summed over nodes and levels; the inherited
    ``norm`` reduces the last two axes, so it gives one value per sample.
    ``meta`` is the backend's, as on ``core.Sweep``.
    """

    meta: dict

    def __getitem__(self, i) -> BranchState:
        return BranchState(t=self.t[i], c=self.c[i], d=self.d[i])

    def _rows(self, branch: np.ndarray) -> np.ndarray:
        return branch.reshape(self.t.size, -1)

    @property
    def cc(self) -> np.ndarray:
        return np.vecdot(self._rows(self.c), self._rows(self.c))

    @property
    def dd(self) -> np.ndarray:
        return np.vecdot(self._rows(self.d), self._rows(self.d))

    @property
    def cd(self) -> np.ndarray:
        return np.vecdot(self._rows(self.c), self._rows(self.d))


def storing_branch_sweep(times, pieces, w, grid, meta) -> StoredSweep:
    """The sweep over ``times`` that ``pieces`` fill, every row stored.

    Row lo + r of a run (lo, x, y) is stored as C_kn = sqrt(w_k) w_n x[r, k, n]
    and D_k(n+1) = sqrt(w_k) w_n y[r, k, n] in c and d, each (T, K, nmax + 2),
    with the node weights w_k and the coherent amplitudes w_n, on one thread
    per CPU the process may use (``core._cpus``), at most one per piece.
    """
    c = np.zeros((times.size, grid.nodes.size, w.size + 1), dtype=np.complex128)
    d = np.zeros(c.shape, dtype=np.complex128)
    weight = np.outer(np.sqrt(grid.weights), w)  # [k, n] = sqrt(w_k) w_n

    def fill(piece):
        for lo, x, y in piece:
            c[lo : lo + len(x), :, : w.size] = weight * x
            d[lo : lo + len(y), :, 1:] = weight * y

    threads = min(len(pieces), core._cpus())
    if threads <= 1:
        for piece in pieces:
            fill(piece)
    else:
        with ThreadPoolExecutor(threads) as pool:
            list(pool.map(fill, pieces))
    return StoredSweep(t=times, c=c, d=d, meta=meta)


def store_sweeps(monkeypatch) -> None:
    """Make both backends build their sweeps with ``storing_branch_sweep``."""
    for module in (ode, analytic):
        monkeypatch.setattr(module, "branch_sweep", storing_branch_sweep)


def unweighted(rows: np.ndarray, grid) -> np.ndarray:
    """Rows of an instant or a stored sweep divided by sqrt(w_k): the branch amplitudes."""
    return rows / np.sqrt(grid.weights)[:, None]
