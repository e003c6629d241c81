"""Reference sweep builder that stores every sample's field state rows.

It takes the pieces ``core.branch_sweep`` takes and runs them the same way,
but stores each run's rows in one sweep-long ``c``/``d`` pair instead of
reducing them: a ``StoredSweep``, whose ``sweep[i]`` is any instant.  Its
rows and their ``overlaps`` are the reference the reduced sweep is checked
against.
"""

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
    holds; those not given are each sample's rows summed over nodes and
    levels, and a backend may replace them with its own.  The inherited
    ``norm`` reduces the last two axes, so it gives one value per sample.
    ``meta`` is the backend's, as on ``core.Sweep``.
    """

    meta: dict
    cc: np.ndarray = None
    dd: np.ndarray = None
    cd: np.ndarray = None

    def __post_init__(self):
        c, d = (branch.reshape(self.t.size, -1) for branch in (self.c, self.d))
        for name, (x, y) in (("cc", (c, c)), ("dd", (d, d)), ("cd", (c, d))):
            if getattr(self, name) is None:
                object.__setattr__(self, name, np.vecdot(x, y))

    def __getitem__(self, i) -> BranchState:
        return BranchState(t=self.t[i], c=self.c[i], d=self.d[i])


def storing_branch_sweep(times, pieces, w, grid, meta, cross=True) -> StoredSweep:
    """The sweep over ``times`` that ``pieces`` fill, every row stored.

    Row lo + r of a run (lo, x, y) is stored as C_kn = sqrt(w_k) w_n x[r, k, n]
    and D_k(n+1) = sqrt(w_k) w_n y[r, k, n] in c and d, each (T, K, nmax + 2),
    with the node weights w_k and the coherent amplitudes w_n, on the pool of
    ``core._run``.  The sweep holds <C|D> whatever ``cross`` says.
    """
    c = np.zeros((times.size, grid.nodes.size, w.size + 1), dtype=np.complex128)
    d = np.zeros(c.shape, dtype=np.complex128)
    weight = np.outer(np.sqrt(grid.weights), w)  # [k, n] = sqrt(w_k) w_n

    def fill(piece):
        for lo, x, y in piece:
            c[lo : lo + len(x), :, : w.size] = weight * x
            d[lo : lo + len(y), :, 1:] = weight * y

    core._run(pieces, fill)
    return StoredSweep(t=times, c=c, d=d, meta=meta)


def store_sweeps(monkeypatch) -> None:
    """Make both backends build their sweeps with ``storing_branch_sweep``."""
    for module in (ode, analytic):
        monkeypatch.setattr(module, "branch_sweep", storing_branch_sweep)


def unweighted(rows: np.ndarray, grid) -> np.ndarray:
    """Rows of an instant or a stored sweep divided by sqrt(w_k): the branch amplitudes."""
    return rows / np.sqrt(grid.weights)[:, None]
