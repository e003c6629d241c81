"""Domain types shared by both solver backends.

The Hamiltonian constants and the detuning they give each momentum node, the
coherent-field initial amplitudes, the Gauss-Hermite discretization of the
center-of-mass momentum wavepacket, the container of one instant's field
state rows, and the sweep builder of both backends, which weights each
sample's amplitudes by node and level, reduces them, or the squared moduli a
backend yields with them, to overlaps as they are produced and keeps the rows
of the last instant alone.

Unit conventions: all rates (coupling, detuning, recoil frequency) are in
rad/s, the gravity knob ``qg`` is in rad/s^2, and the scalar momentum label
``p`` is dimensionless, in units of one photon recoil hbar*q.  The
wavenumber q and the atomic mass enter the model only through the recoil
frequency omega_rec = hbar*q^2/(2*mass) and the gravity knob q.g, so both
are given directly.
"""

from __future__ import annotations

import math
import os
import threading
from collections.abc import Iterable, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

TRUNCATION_EPS = 1e-12
# Most momentum nodes whose Gauss-Hermite rule numpy (2.4) computes finitely:
# from 371 on its weights overflow, and the normalized rule is NaN.
MAX_NODES = 370
# Largest chirped phase, in radians, a sweep may reach: from 2^52 on a float64
# phase keeps no digit below the radian, and far above it the square of a
# Magnus step's angle overflows.
MAX_PHASE = 2.0**52


class TruncationError(ValueError):
    """Fock-space cutoff too small for the requested coherent amplitude."""


@dataclass(frozen=True)
class PhysicalParams:
    """Hamiltonian constants of one run.

    qg         gravity knob q.g, rad/s^2
    lam        atom-field coupling, rad/s
    omega_rec  recoil frequency hbar*q^2/(2*mass), rad/s
    delta0     static detuning, rad/s
    """

    qg: float
    lam: float
    omega_rec: float
    delta0: float

    def __post_init__(self):
        if self.omega_rec <= 0:
            raise ValueError("recoil frequency omega_rec must be positive")
        if self.lam <= 0:
            raise ValueError("coupling lam must be positive")
        if self.qg < 0:
            raise ValueError("qg must be nonnegative")


def detuning0_of_p(p, params: PhysicalParams):
    """Static detuning seen at scaled momentum p: delta0 - p omega_rec.

    p may be a scalar or an array of momentum nodes.
    """
    return params.delta0 - p * params.omega_rec


def paper_defaults(qg: float = 0.0, **overrides) -> PhysicalParams:
    """Hamiltonian constants of the reference experiment.

    omega_rec = 0.5e6 rad/s, lam = 1e6 rad/s, delta0 = 8.5e7 rad/s.  The quoted
    q = 1e7 1/m and mass 1e-26 kg act only through omega_rec.
    """
    kw = dict(omega_rec=0.5e6, qg=qg, lam=1e6, delta0=8.5e7)
    kw.update(overrides)
    return PhysicalParams(**kw)


def coherent_amplitudes(alpha: complex, nmax: int) -> np.ndarray:
    """Truncated coherent-state amplitudes w_n = e^{-|a|^2/2} a^n / sqrt(n!), n = 0 .. nmax.

    The stable ratio recursion w_{n+1} = w_n * alpha / sqrt(n+1), seeded with
    w_0 = e^{-|alpha|^2/2}, avoids factorial overflow at large n.  Raises
    TruncationError unless the probabilities sum to 1 within TRUNCATION_EPS plus
    the recursion's rounding (4 ulps per level); they do not once the seed is
    subnormal, from |alpha| ~ 37.6.
    """
    if nmax < 0:
        raise ValueError("nmax must be nonnegative")
    alpha = complex(alpha)
    w = np.empty(nmax + 1, dtype=np.complex128)
    w[0] = math.exp(-abs(alpha) ** 2 / 2.0)
    for n in range(nmax):
        w[n + 1] = w[n] * alpha / math.sqrt(n + 1)
    total = float(np.sum(np.abs(w) ** 2))
    tol = TRUNCATION_EPS + 4 * (nmax + 1) * np.finfo(float).eps
    if not abs(total - 1.0) <= tol:
        cause = (f"the seed e^(-|alpha|^2/2) = {w[0].real:.3g} underflowed"
                 if w[0].real < np.finfo(float).tiny else f"nmax = {nmax} is too small")
        raise TruncationError(f"coherent probabilities sum to {total:.15g}, not 1 "
                              f"within {tol:.3g}: {cause}")
    return w


def adaptive_nmax(alpha: complex) -> int:
    """Smallest cutoff whose Poisson tail lies below TRUNCATION_EPS (at most 100000).

    The tail is summed top-down in logs, p_k = exp(k ln nbar - nbar - lgamma(k + 1)),
    from k = nbar + 50 sqrt(nbar) + 100, where the terms are far below the
    budget's last bit, down to the first level whose tail reaches the budget.
    Adding the smallest terms first keeps the sum's rounding at a few ulps of
    the budget; one minus a running sum of the lower levels would round by up
    to ~1% of it.  The excitation number is conserved block by block, so no
    population leaves the initially occupied levels; the ground branch's n+1
    shift has its own slot on the padded nmax + 2 Fock axis of
    ``BranchState``.  Raises ValueError unless |alpha|^2 is finite.
    """
    a = abs(alpha)
    nbar = a * a  # a ** 2 would raise OverflowError instead of giving inf
    if not math.isfinite(nbar):
        raise ValueError("|alpha|^2 must be finite")
    if nbar >= 100000:  # the tail above any n < nbar is far above the budget
        return 100000
    if nbar == 0:
        return 0
    log_nbar = math.log(nbar)
    tail = 0.0  # P(N > n)
    for n in range(int(nbar + 50 * math.sqrt(nbar) + 100), 0, -1):
        p_n = math.exp(n * log_nbar - nbar - math.lgamma(n + 1))
        if tail + p_n >= TRUNCATION_EPS:  # P(N > n - 1) misses the budget
            return min(n, 100000)
        tail += p_n
    return 0


@dataclass(frozen=True)
class MomentumGrid:
    """Quadrature nodes and probability weights for the p wavepacket."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if not np.all(np.isfinite(self.nodes)):
            raise ValueError("nodes must be finite")
        s = float(np.sum(self.weights))
        if not abs(s - 1.0) <= 1e-12:  # NaN fails too
            raise ValueError(f"weights must sum to 1, got {s}")


def build_momentum_grid(sigma0: float, n_nodes: int) -> MomentumGrid:
    """Gauss-Hermite rule for the Gaussian measure |phi(p)|^2 ~ exp(-2p^2/sigma0^2).

    Substituting x = sqrt(2) p / sigma0 maps the measure onto the standard
    Hermite weight exp(-x^2); the rule is then exact for polynomials in p up
    to degree 2*n_nodes - 1.  Weights are renormalized to unit sum (the
    published wavepacket prefactor does not square-integrate to 1; we keep
    the shape and fix the normalization).  n_nodes is at most MAX_NODES, and a
    larger count is rejected before any rule is computed.
    """
    if not 1 <= n_nodes <= MAX_NODES:
        raise ValueError(f"n_nodes must be in 1 .. {MAX_NODES}, got {n_nodes}")
    if sigma0 <= 0:
        raise ValueError("sigma0 must be positive")
    x, v = np.polynomial.hermite.hermgauss(n_nodes)
    nodes = x * sigma0 / math.sqrt(2.0)
    weights = v / np.sum(v)
    return MomentumGrid(nodes=nodes, weights=weights)


@dataclass(frozen=True)
class BranchState:
    """The field state's rows at the instant ``t``.

    ``c[k, n]`` is sqrt(w_k) times the excited-branch amplitude on Fock level
    n at momentum node k of weight w_k, ``d[k, n]`` the ground-branch one,
    each (..., K, nmax + 2): leading axes, if any, stack states of one
    instant, such as a run's qg, for ``norm`` and ``q_function``.  Each
    state's 2K rows b give its reduced field state rho_F = sum_b |b><b|.
    The branches share the Fock axis: d[..., 0] = 0 holds the one-level
    shift of the ground ladder.
    """

    t: float
    c: np.ndarray
    d: np.ndarray

    @property
    def nfock(self) -> int:
        return self.c.shape[-1]

    def norm(self) -> float:
        """Total probability on both branches, Tr rho_F."""
        return np.sum(np.abs(self.c) ** 2 + np.abs(self.d) ** 2, axis=(-2, -1))


@dataclass(frozen=True)
class Sweep:
    """A sweep over the (T,) sample times ``t``, reduced as it was produced.

    ``cc``, ``dd`` and ``cd`` are (T,) and complex: the inner products <C|C>,
    <D|D> and <C|D> of every sample's rows, summed over nodes and Fock levels,
    <C|C> and <D|D> from the blocks' squared moduli where the backend gives
    them (the closed form); ``cd`` is None unless the sweep was asked for the
    cross term.  ``last`` is the instant t[-1] with its rows, the only one a
    sweep keeps: ``sweep[-1]`` and ``sweep[T - 1]`` are it, any other index
    raises IndexError, and iterating yields it alone (both only for
    ``perfbench/``, until it reads ``last``).  ``meta`` is the backend's
    record of how it computed the sweep.
    """

    t: np.ndarray
    cc: np.ndarray
    dd: np.ndarray
    cd: np.ndarray | None
    last: BranchState
    meta: dict

    def __getitem__(self, i) -> BranchState:
        if i not in (-1, self.t.size - 1):
            raise IndexError(f"a sweep keeps the amplitudes of its last sample only, "
                             f"not of sample {i} of {self.t.size}")
        return self.last

    def __iter__(self):
        yield self.last


def check_phase(d0, qg: float, t_end: float) -> None:
    """Refuse a sweep to t_end seconds whose chirped phase can pass MAX_PHASE.

    d0 are the nodes' static detunings and qg the largest chirp rate;
    (max |d0| + qg t_end) t_end bounds every node's phase d0 t - qg t^2 / 2
    and every Magnus step's detuning angle up to t_end.
    """
    phase = (float(np.max(np.abs(d0))) + qg * t_end) * t_end
    if not phase <= MAX_PHASE:  # NaN fails too
        raise ValueError(f"the detuning phase (|delta0 - p omega_rec| + qg t) t reaches "
                         f"{phase:.3g} rad by t_end, above 2^52 = {MAX_PHASE:.3g} rad, where a "
                         "float64 phase keeps no digit below the radian")


def check_times(times) -> np.ndarray:
    """A sweep's sample times: 1-d, nonempty, finite, nonnegative, strictly increasing floats."""
    times = np.asarray(times, dtype=float)
    if (times.ndim != 1 or times.size == 0 or not np.all(np.isfinite(times)) or times[0] < 0
            or np.any(np.diff(times) <= 0)):
        raise ValueError("times must be a nonempty 1-d array, finite, nonnegative and "
                         "strictly increasing")
    return times


# One piece of a sweep's work: runs (lo, x, y, xx, yy) of some rows' block amplitudes
# and, where a backend forms them, the blocks' squared moduli.
Piece = Iterable[tuple[int, np.ndarray, np.ndarray, np.ndarray | None, np.ndarray | None]]


def _cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _run(pieces: Sequence[Iterable], fill) -> None:
    """fill(piece) for each piece, on a thread per CPU the process may use, at most one per piece.

    With one thread they run in order in the calling thread.  The first exception of a
    piece, in their order, reaches the caller unchanged once the pieces before it have
    finished; pieces not yet started then are cancelled.
    """
    threads = min(len(pieces), _cpus())
    if threads <= 1:
        for piece in pieces:
            fill(piece)
    else:
        with ThreadPoolExecutor(threads) as pool:
            list(pool.map(fill, pieces))


def branch_sweep(times: np.ndarray, pieces: Sequence[Piece], w: np.ndarray,
                 grid: MomentumGrid, meta: dict, cross: bool = True) -> Sweep:
    """The sweep over ``times`` that the independent ``pieces`` fill, reduced row by row.

    Each piece yields runs (lo, x, y, xx, yy) of rows lo, lo + 1, ..., each
    array (R, K, nmax + 1) with nmax = w.size - 1: the blocks' excited and
    ground amplitudes (x, y) and their squared moduli (xx, yy), or None.  Row
    lo + r's field state rows are C_kn = sqrt(w_k) w_n x[r, k, n] and
    D_k(n+1) = sqrt(w_k) w_n y[r, k, n], with the node weights w_k of ``grid``
    and the coherent amplitudes w_n of ``w``, on the shared (K, nmax + 2) Fock
    axis: no other code applies either weight.  They are stored in a pair of
    padded buffers that the thread keeps for the whole sweep, and each row is
    summed over nodes and levels at once into the sweep's (T,) ``cc``, ``dd``
    and, if ``cross``, ``cd`` (else None).  A run with moduli gives ``cc`` and
    ``dd`` as sum_kn w_k |w_n|^2 xx[r, k, n] and the same sum over yy, and
    (x, y) only for its trailing rows that the sweep reads: all of them if
    ``cross``, else the sweep's last row, or none.  The last row is copied
    into ``Sweep.last``, and the backend's ``meta`` becomes ``Sweep.meta``.
    Pieces must yield disjoint rows.  Each is reduced by the ``_run`` thread
    that runs it, and every row is the same whichever thread computes it.
    """
    table = np.sqrt(grid.weights)[:, None] * w
    weight = (grid.weights[:, None] * np.abs(w) ** 2).ravel()
    shape = (grid.nodes.size, w.size + 1)
    cc = np.empty(times.size, dtype=np.complex128)
    dd = np.empty_like(cc)
    cd = np.empty_like(cc) if cross else None
    last = BranchState(t=times[-1], c=np.empty(shape, dtype=np.complex128),
                       d=np.empty(shape, dtype=np.complex128))
    # a fresh pair per run would map and unmap it (a chunk's pair is above the
    # allocator's mmap threshold), so each thread keeps one, grown to its longest run
    buffers = threading.local()

    def fill(piece: Piece) -> None:
        for lo, x, y, xx, yy in piece:
            stop = lo + len(x if xx is None else xx)
            if xx is not None:
                np.vecdot(xx.reshape(len(xx), -1), weight, out=cc[lo:stop])
                np.vecdot(yy.reshape(len(yy), -1), weight, out=dd[lo:stop])
            if not len(x):
                continue
            rows = slice(stop - len(x), stop)
            if getattr(buffers, "c", None) is None or len(buffers.c) < len(x):
                # the padding, c[..., nmax + 1] and d[..., 0], stays zero
                buffers.c = np.zeros((len(x),) + shape, dtype=np.complex128)
                buffers.d = np.zeros_like(buffers.c)
            c, d = buffers.c[: len(x)], buffers.d[: len(x)]
            np.multiply(table, x, out=c[..., : w.size])
            np.multiply(table, y, out=d[..., 1:])
            flat_c, flat_d = c.reshape(len(x), -1), d.reshape(len(x), -1)
            if xx is None:
                np.vecdot(flat_c, flat_c, out=cc[rows])
                np.vecdot(flat_d, flat_d, out=dd[rows])
            if cross:
                np.vecdot(flat_c, flat_d, out=cd[rows])
            if stop == times.size:
                last.c[...] = c[-1]
                last.d[...] = d[-1]

    _run(pieces, fill)
    return Sweep(t=times, cc=cc, dd=dd, cd=cd, last=last, meta=meta)
