"""Reduced-field observables of a branch state.

Momentum-averaged overlaps of a sweep, which its builder summed as it was
produced; atomic inversion, the two-branch field entropy, the Husimi Q
quasiprobability on a phase-space grid, peak analysis of Q for bimodality
(cat) detection, and fidelity against the analytic cat ansatz.  Each reads
the field state's rows, already weighted by momentum node.
Q is evaluated a few grid rows at a time, as one matrix product of each
chunk's Gaussian-seeded Fock ladder with the field state's significant modes
(the stacked rows projected on the eigenvectors of their Gram matrix
above rounding level, often a few of the 2K rows), so its working set is a
few MB and a window of any size stays finite.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.special import entr

from .core import BranchState, Sweep, coherent_amplitudes

NORM_SLACK = 1e-3
DISC_SLACK = 1e-9
# Local maxima of Q below this fraction of the global maximum are not peaks.
PEAK_REL_THRESHOLD = 0.05
# Grid rows per Q chunk: 8 rows of a 401-point axis with 70 Fock levels
# (alpha = 5) make a 3.6 MB ladder.
_Q_CHUNK_ROWS = 8


@dataclass(frozen=True)
class EntropyPair:
    """Per-sample eigenvalues of the reduced field density matrix and its entropy."""

    pi_plus: np.ndarray
    pi_minus: np.ndarray
    s_f: np.ndarray


@dataclass(frozen=True)
class QGridSpec:
    """Axis-aligned phase-space window [xmin, xmax] x [ymin, ymax]."""

    xmin: float
    xmax: float
    ymin: float
    ymax: float
    nx: int
    ny: int

    def __post_init__(self):
        if self.xmax <= self.xmin or self.ymax <= self.ymin:
            raise ValueError("grid extents must be increasing")
        if self.nx < 3 or self.ny < 3:
            raise ValueError("grids need at least 3 points per axis")


@dataclass(frozen=True)
class QGrid:
    """Husimi Q samples; values[iy, ix] = Q(x[ix] + i y[iy])."""

    x: np.ndarray
    y: np.ndarray
    values: np.ndarray


@dataclass(frozen=True)
class QPeakReport:
    """Local-maximum census of a Q grid.

    Peak locations/heights are refined on a quadratic fit to the 3x3
    neighbourhood; widths are RMS half-widths from the fitted curvature.
    ``bimodal`` requires exactly two peaks, a secondary/primary height ratio
    of at least 0.5, and a separation of at least twice the mean width.
    """

    count: int
    locations: list = field(default_factory=list)
    heights: list = field(default_factory=list)
    widths: list = field(default_factory=list)
    separation: float = 0.0
    height_ratio: float = 0.0
    bimodal: bool = False


def overlaps(sweep: Sweep) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Momentum-weighted branch overlaps (<C|C>, <D|D>, <C|D>), one value per sample.

    The branch arrays share the Fock axis, so the cross term is the plain
    inner product; through the one-level ladder shift it pairs the n-th
    excited amplitude with the (n+1)-th ground amplitude.  ``core.branch_sweep``
    summed each sample's weighted rows over nodes and levels as it produced them.
    """
    return sweep.cc.real, sweep.dd.real, sweep.cd


def inversion(cc: np.ndarray, dd: np.ndarray) -> np.ndarray:
    """Atomic population inversion W = <C|C> - <D|D> per sample."""
    return cc - dd


def entropy(cc: np.ndarray, dd: np.ndarray, cd: np.ndarray) -> EntropyPair:
    """Two-branch entropy of the overlaps [[cc, cd], [conj(cd), dd]] per sample.

    The eigenvalues are pi_pm = 1/2 (1 pm sqrt(1 - 4 (cc dd - |cd|^2))).  For
    a single momentum node this is the von Neumann entropy of the reduced
    field state, whose density matrix then has rank two.  For K > 1 nodes the
    same formula is applied to the overlaps summed over the nodes; the
    reduced field state sum_k w_k (|C_k><C_k| + |D_k><D_k|) has rank up to 2K,
    and its von Neumann entropy generally differs.  Overlaps are
    renormalized when the total strays from 1 by at most 1e-3 and rejected
    beyond that; the discriminant may leave [0, 1] only by rounding noise.
    A NaN fails both gates.  A rejection names the first failing sample.
    """
    total = cc + dd
    bad = np.flatnonzero(~(np.abs(total - 1.0) <= NORM_SLACK))
    if bad.size:
        raise ValueError(f"branch norms sum to {total[bad[0]]} at sample {bad[0]}")
    cd2 = np.hypot(cd.real, cd.imag) ** 2 / total**2
    cc = cc / total
    dd = dd / total
    disc = 1.0 - 4.0 * (cc * dd - cd2)
    bad = np.flatnonzero(~((disc >= -DISC_SLACK) & (disc <= 1.0 + DISC_SLACK)))
    if bad.size:
        raise ValueError(f"discriminant {disc[bad[0]]} outside [0, 1] at sample {bad[0]}")
    root = np.sqrt(np.clip(disc, 0.0, 1.0))
    pi_plus = 0.5 * (1.0 + root)
    pi_minus = 0.5 * (1.0 - root)
    return EntropyPair(pi_plus=pi_plus, pi_minus=pi_minus,
                       s_f=entr(pi_plus) + entr(pi_minus))


def check_q_window(reach: float, alpha: complex) -> None:
    """Reject a Q window whose nearest edge cuts the coherent disk.

    reach is the distance from the origin to that edge; the disk is
    |beta| <= |alpha| + 4.
    """
    need = abs(alpha) + 4.0
    if reach < need:
        raise ValueError(
            f"Q window edge at {reach:g} from the origin must reach |alpha| + 4 = {need:.1f}"
        )


def _significant_modes(branches: np.ndarray) -> np.ndarray:
    """The rows U_r^H B that carry the field state B (2K x N) beyond rounding.

    G = B B^H = U diag(lam) U^H, and ||B v|| = ||U^H B v|| for every v; row i
    of U^H B has squared norm lam_i.  Rows with lam_i <= eps * Tr G are
    dropped: on a Fock ladder v, whose norm is at most 1, they add at most
    2K eps Tr G to ||B v||^2, below the rounding of the product itself.
    lam_i and the rows come from the SVD B = U S V^H (lam_i = s_i^2, row i
    is s_i V_i^H), which reads a zero lam_i as at most eps^2 Tr G; ``eigh``
    of the formed G reads it as anything up to ~2 eps Tr G, across the
    threshold, and would keep rounding noise as modes.
    """
    _, s, vh = np.linalg.svd(branches, full_matrices=False)
    lam = s**2
    r = np.count_nonzero(lam > np.finfo(float).eps * lam.sum())
    return s[:r, None] * vh[:r]


def q_function(state: BranchState, spec: QGridSpec, alpha: complex) -> QGrid:
    """Husimi Q(beta) = (1/pi) sum_k w_k (|<beta|C_k>|^2 + |<beta|D_k>|^2).

    B is the 2K x N matrix of the state's rows, the sqrt(w_k)-weighted branches,
    so Q at a grid point is (1/pi) times the squared norm of B applied to the
    point's Fock ladder <beta|n> = exp(-|beta|^2/2) conj(beta)^n / sqrt(n!).
    B is first reduced to its r significant modes (``_significant_modes``):
    its projections on the eigenvectors of the 2K x 2K Gram matrix B B^H
    whose eigenvalues exceed eps times its trace.  That moves Q by at most
    2K eps Tr(B B^H) / pi, and shrinks every product by 2K / r (fig3's
    instant has r = 3 of 64).
    The grid is taken _Q_CHUNK_ROWS rows at a time, one matrix product per
    chunk, so the working set stays at a few MB whatever the grid size.  The
    ladder recurrence starts from the Gaussian, so every term is at most 1 in
    magnitude: a large window underflows to zero far out instead of
    overflowing.

    The window must cover the coherent disk (each edge at least |alpha| + 4
    from the origin) so the quasiprobability mass is captured; significant
    weight on the boundary ring triggers a warning.
    """
    check_q_window(min(-spec.xmin, spec.xmax, -spec.ymin, spec.ymax), alpha)
    x = np.linspace(spec.xmin, spec.xmax, spec.nx)
    y = np.linspace(spec.ymin, spec.ymax, spec.ny)
    branches = _significant_modes(np.concatenate([state.c, state.d]))
    inv_sqrt = 1.0 / np.sqrt(np.arange(1, state.nfock))
    ladder = np.empty((state.nfock, _Q_CHUNK_ROWS * spec.nx), dtype=np.complex128)
    vals = np.empty((spec.ny, spec.nx))
    for start in range(0, spec.ny, _Q_CHUNK_ROWS):
        rows = y[start : start + _Q_CHUNK_ROWS]
        bc = (x[None, :] - 1j * rows[:, None]).ravel()  # conj(beta), row-major
        pw = ladder[:, : bc.size]
        pw[0] = np.exp(-0.5 * (bc.real**2 + bc.imag**2))
        for n in range(state.nfock - 1):
            pw[n + 1] = pw[n] * bc * inv_sqrt[n]
        amp = branches @ pw
        q = np.sum(amp.real**2 + amp.imag**2, axis=0) / math.pi
        vals[start : start + rows.size] = q.reshape(rows.size, spec.nx)
    edge = np.concatenate([vals[0, :], vals[-1, :], vals[:, 0], vals[:, -1]])
    if edge.max() > 1e-6 * vals.max():
        warnings.warn(
            "Q-function mass on the window boundary; enlarge the grid",
            stacklevel=2,
        )
    return QGrid(x=x, y=y, values=vals)


def _refine_peak(q: QGrid, iy: int, ix: int) -> tuple[complex, float, float]:
    """Quadratic fit on the 3x3 stencil; returns (location, height, width)."""
    dx = q.x[1] - q.x[0]
    dy = q.y[1] - q.y[0]
    patch = q.values[iy - 1 : iy + 2, ix - 1 : ix + 2]
    ii, jj = np.meshgrid([-1.0, 0.0, 1.0], [-1.0, 0.0, 1.0], indexing="ij")
    a_mat = np.stack(
        [np.ones(9), jj.ravel(), ii.ravel(), jj.ravel() ** 2,
         ii.ravel() ** 2, (ii * jj).ravel()], axis=1
    )
    coef, *_ = np.linalg.lstsq(a_mat, patch.ravel(), rcond=None)
    c0, cx, cy, cxx, cyy, cxy = coef
    hess = np.array([[2 * cxx, cxy], [cxy, 2 * cyy]])
    grad = np.array([cx, cy])
    try:
        off = -np.linalg.solve(hess, grad)
    except np.linalg.LinAlgError:
        off = np.zeros(2)
    off = np.clip(off, -1.0, 1.0)
    height = float(c0 + grad @ off + 0.5 * off @ hess @ off)
    loc = complex(q.x[ix] + off[0] * dx, q.y[iy] + off[1] * dy)
    # curvature in physical units; RMS width of the osculating Gaussian
    scale = np.diag([1.0 / dx, 1.0 / dy])
    hphys = scale @ hess @ scale
    eigs = np.linalg.eigvalsh(hphys)
    eigs = np.abs(eigs[eigs < 0])
    if eigs.size == 0 or height <= 0:
        width = 0.0
    else:
        width = float(np.mean(np.sqrt(height / eigs)))
    return loc, height, width


def q_peak_analysis(q: QGrid) -> QPeakReport:
    """Census of interior local maxima above PEAK_REL_THRESHOLD * max(Q).

    A grid point is a peak when it strictly exceeds all eight neighbours.
    Bimodality additionally needs a height ratio >= 0.5 and a separation of
    at least twice the mean refined width.
    """
    v = q.values
    cut = PEAK_REL_THRESHOLD * float(v.max())
    win = np.lib.stride_tricks.sliding_window_view(v, (3, 3))  # win[i, j] centred on v[i+1, j+1]
    centre = win[..., 1:2, 1:2]
    mask = (np.count_nonzero(win < centre, axis=(-2, -1)) == 8) & (centre[..., 0, 0] > cut)
    iys, ixs = np.nonzero(mask)
    locs, heights, widths = [], [], []
    for iy, ix in zip(iys + 1, ixs + 1):
        loc, h, wid = _refine_peak(q, iy, ix)
        locs.append(loc)
        heights.append(h)
        widths.append(wid)
    order = np.argsort(heights)[::-1]
    locs = [locs[i] for i in order]
    heights = [heights[i] for i in order]
    widths = [widths[i] for i in order]
    count = len(locs)
    sep = 0.0
    ratio = 0.0
    bimodal = False
    if count == 2:
        sep = abs(locs[0] - locs[1])
        ratio = heights[1] / heights[0] if heights[0] > 0 else 0.0
        mean_w = 0.5 * (widths[0] + widths[1])
        bimodal = ratio >= 0.5 and sep >= 2.0 * mean_w > 0.0
    return QPeakReport(
        count=count,
        locations=locs,
        heights=heights,
        widths=widths,
        separation=sep,
        height_ratio=ratio,
        bimodal=bimodal,
    )


def cat_ansatz(alpha: complex, nfock: int) -> np.ndarray:
    """Field ansatz |psi_f> of ``cat_fidelity`` on nfock levels: n w_n, normalized.

    Raises ValueError where it has no norm, as at alpha = 0.
    """
    psi = np.arange(nfock) * coherent_amplitudes(alpha, nfock - 1)
    nrm = math.sqrt(float(np.sum(np.abs(psi) ** 2)))
    if nrm == 0.0:
        raise ValueError("field ansatz has zero norm")
    return psi / nrm


def cat_fidelity(state: BranchState, alpha: complex) -> float:
    """Overlap with the separable cat-time ansatz (|e> + i|g>)/sqrt(2) x |psi_f>.

    |psi_f> is ``cat_ansatz``: the initial coherent amplitudes weighted by
    the photon number, n w_n, normalized.  Fidelity is the squared projection
    summed over the state's rows, 1 exactly when the state equals the ansatz.
    """
    psi = cat_ansatz(alpha, state.nfock)
    proj_c = state.c @ np.conj(psi)
    proj_d = state.d @ np.conj(psi)
    amp = (proj_c - 1j * proj_d) / math.sqrt(2.0)
    return float(np.sum(np.abs(amp) ** 2))
