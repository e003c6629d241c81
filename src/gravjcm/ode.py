"""Time-ordered integration backend.

The excitation number is conserved, so the dynamics splits into independent
two-level blocks (one per Fock level n and momentum node).  Each block obeys

    i d/dt c_e = Omega_n exp(+i phi(t)) c_g
    i d/dt c_g = Omega_n exp(-i phi(t)) c_e

with Omega_n = lam sqrt(n+1) and the accumulated chirped phase
phi(t) = delta0(p) t - qg t^2 / 2.  All blocks and nodes are stacked into a
single vectorized solve_ivp call; a rotating-frame variant (the phase moved
into the Hamiltonian as a time-dependent detuning) is provided as a gauge
cross-check.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import solve_ivp

from .analytic import detuning0_of_p
from .core import BranchState, CoherentField, MomentumGrid, PhysicalParams


class IntegrationError(RuntimeError):
    """The adaptive integrator failed before reaching the requested time."""


def _check_tol(tol: float) -> None:
    if not (1e-12 <= tol <= 1e-6):
        raise ValueError(f"tol must lie in [1e-12, 1e-6], got {tol}")


def _integrate(
    d0: np.ndarray,
    omega: np.ndarray,
    qg: float,
    times: np.ndarray,
    tol: float,
    frame: str,
) -> np.ndarray:
    """Propagate all (node, block) pairs; returns (n_times, 2, K, N) complex.

    State layout: y = concat(c_e.ravel(), c_g.ravel()) with shape (K, N) each.
    In the rotating frame the second component is d_g = c_g exp(+i phi) and
    the chirped detuning phi'(t) = d0 - qg t appears in the Hamiltonian; the
    literal phase is multiplied back at the sample times.
    """
    if frame not in ("literal", "rotating"):
        raise ValueError(f"unknown frame {frame!r}")
    k, n = d0.size, omega.size
    half = k * n
    d0c = d0[:, None]
    om = omega[None, :]
    y0 = np.zeros(2 * half, dtype=np.complex128)
    y0[:half] = 1.0

    if frame == "literal":

        def rhs(t, y):
            ce = y[:half].reshape(k, n)
            cg = y[half:].reshape(k, n)
            phase = np.exp(1j * (d0c * t - 0.5 * qg * t * t))
            return np.concatenate(
                ((-1j * om * phase * cg).ravel(),
                 (-1j * om * np.conj(phase) * ce).ravel())
            )

    else:

        def rhs(t, y):
            ce = y[:half].reshape(k, n)
            dg = y[half:].reshape(k, n)
            chirped = d0c - qg * t
            return np.concatenate(
                ((-1j * om * dg).ravel(),
                 (-1j * om * ce + 1j * chirped * dg).ravel())
            )

    t_final = float(times[-1])
    if t_final == 0.0:
        out = np.tile(y0[:, None], (1, times.size))
    else:
        sol = solve_ivp(
            rhs,
            (0.0, t_final),
            y0,
            method="DOP853",
            t_eval=times,
            rtol=tol,
            atol=tol * 1e-3,
        )
        if not sol.success:
            reached = sol.t[-1] if sol.t.size else 0.0
            raise IntegrationError(
                f"integrator stopped at t={reached:.6e} of {t_final:.6e}: "
                f"{sol.message}"
            )
        out = sol.y
    res = out.T.reshape(times.size, 2, k, n)
    if frame == "rotating":
        phi = d0[None, None, :, None] * times[:, None, None, None] \
            - 0.5 * qg * (times**2)[:, None, None, None]
        res = res.copy()
        res[:, 1] = res[:, 1] * np.exp(-1j * phi[:, 0])
    return res


def branch_states_ode_sweep(
    times: np.ndarray,
    params: PhysicalParams,
    field: CoherentField,
    grid: MomentumGrid,
    tol: float = 1e-10,
    frame: str = "literal",
) -> list[BranchState]:
    """Branch amplitudes at every requested time from one integrator pass.

    C_n(t) = w_n c_e,n(t) and D_{n+1}(t) = w_n c_g,n(t); times must be
    nonnegative and strictly increasing.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("times must be a nonempty 1-d array")
    if times[0] < 0 or np.any(np.diff(times) <= 0):
        raise ValueError("times must be nonnegative and strictly increasing")
    _check_tol(tol)
    nmax = field.nmax
    d0 = detuning0_of_p(grid.nodes, params)
    omega = params.lam * np.sqrt(np.arange(nmax + 1) + 1.0)
    res = _integrate(d0, omega, params.qg, times, tol, frame)
    states = []
    meta = {"backend": "ode", "frame": frame, "tol": tol}
    for i, t in enumerate(times):
        c = np.zeros((grid.nodes.size, nmax + 2), dtype=np.complex128)
        d = np.zeros_like(c)
        c[:, : nmax + 1] = field.w[None, :] * res[i, 0]
        d[:, 1:] = field.w[None, :] * res[i, 1]
        states.append(BranchState(t=float(t), c=c, d=d, grid=grid, meta=dict(meta)))
    return states


def branch_states_ode(
    t: float,
    params: PhysicalParams,
    field: CoherentField,
    grid: MomentumGrid,
    tol: float = 1e-10,
    frame: str = "literal",
) -> BranchState:
    """Single-time convenience wrapper around branch_states_ode_sweep."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    return branch_states_ode_sweep(np.array([t]), params, field, grid, tol, frame)[0]
