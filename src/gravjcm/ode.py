"""Time-ordered integration backend.

The excitation number is conserved, so the dynamics splits into independent
two-level blocks (one per Fock level n and momentum node).  Each block obeys

    i d/dt c_e = Omega_n exp(+i phi(t)) c_g
    i d/dt c_g = Omega_n exp(-i phi(t)) c_e

with Omega_n = lam sqrt(n+1) and the accumulated chirped phase
phi(t) = delta0(p) t - qg t^2 / 2.  In the symmetric rotating frame
a = c_e exp(-i phi/2), b = c_g exp(+i phi/2) the block Hamiltonian is
H(t) = (delta(t)/2) sigma_z + Omega_n sigma_x with delta(t) = delta0(p) - qg t,
which is linear in t.  The production propagator is a fourth-order Magnus
integrator with two-point Gauss quadrature (Blanes, Casas, Oteo & Ros,
Phys. Rep. 470, 151 (2009); Iserles & Norsett, Phil. Trans. R. Soc. A 357,
983 (1999)).  For H linear in t its exponent over a step of length h is
-i v.sigma with

    v = (h Omega_n, -(h^3 / 12) qg Omega_n, h delta(t_mid) / 2),

whose SU(2) exponential cos|v| - i sin|v| v.sigma / |v| is closed-form, so
one step advances every (node, Fock) block at once in a few array passes.
At qg = 0 the step is exact.

Step control: every sample interval is cut into equal substeps no longer
than a common step h, where h is the longest interval divided by the
smallest power of two for which the step-doubling error estimate is at most
``TOL``.  The estimate compares one step of h with two of h/2 at both ends
of the sweep (where |delta| is extremal), takes the largest propagator
difference over all blocks and multiplies it by the total number of
substeps.  Where that misses ``TOL`` by at most a factor ``WINDOW`` and the
sweep has at least 6 ``WINDOW`` substeps, a second estimate composes
``WINDOW`` steps of h against 2 ``WINDOW`` of h/2 at both ends and scales
the larger difference by substeps / ``WINDOW``; the smaller estimate counts.
The steps are unitary, so the errors of separate windows add at most
linearly, while errors that rotate with a large |delta| cancel inside a
window.  The second estimate can only lower the first, so no sweep takes
more substeps than the per-step estimate asks for.

At qg = 0 a step's propagator depends on h alone, and a sample grid has few
distinct interval lengths (15 for the 1999 intervals of a 2000-point
linspace), so the sweep and its error probes compute one propagator per
distinct step length, from a bounded cache, and reuse it bit for bit.

``_integrate`` is the independent DOP853 oracle that the tests compare the
Magnus propagator against.  It integrates the two equations above as
written, at rtol ``ORACLE_TOL``.  No production path runs it, so
``scipy.integrate`` is imported on the oracle's first call (through
``solve_ivp``), not with this module.
"""

from __future__ import annotations

import functools

import numpy as np

from .core import (MomentumGrid, PhysicalParams, Sweep, branch_sweep, check_times,
                   detuning0_of_p)

# Target for the step-doubling estimate of a sweep's global amplitude error.
TOL = 1e-10
# Substeps of the longest sample interval above which the sweep gives up.
MAX_SUBSTEPS = 2**20
# Step-doubling differences at or below this are float64 rounding in the
# composed propagators, not truncation error; more substeps cannot lower them.
ROUNDING_FLOOR = 1e-14
# The windowed estimate composes this many steps; it runs only where the
# per-step estimate misses TOL by at most this factor.
WINDOW = 64
# Distinct substep lengths whose propagators a qg = 0 sweep keeps (each is
# two (K, N) complex arrays: 4.5 MB in all at 32 nodes x 69 levels).
STEP_CACHE = 64
# Relative tolerance of the DOP853 oracle; its absolute tolerance is a
# thousandth of this.
ORACLE_TOL = 1e-12
# Smallest positive normal float64: the floor of |v| in a step.
_TINY = np.finfo(float).tiny


class IntegrationError(RuntimeError):
    """The integrator could not reach the requested accuracy or time."""


def solve_ivp(*args, **kwargs):
    """``scipy.integrate.solve_ivp``, imported on first call: only the oracle needs it."""
    from scipy.integrate import solve_ivp as scipy_solve_ivp

    return scipy_solve_ivp(*args, **kwargs)


def _magnus_step(h: float, t_mid: float, d0: np.ndarray, omega: np.ndarray,
                 qg: float) -> tuple[np.ndarray, np.ndarray]:
    """One fourth-order Magnus step of length h for every block.

    Returns (u, v) of shape (K, N) with the step propagator
    [[u, v], [-conj(v), conj(u)]] acting on (a, b).
    """
    vx = h * omega
    vy = -(h**3 / 12.0) * qg * omega
    vz = (0.5 * h * (d0 - qg * t_mid))[:, None]
    r = np.sqrt(vx * vx + vy * vy + vz * vz)
    np.maximum(r, _TINY, out=r)  # an underflowed r gets s = 1, its limit
    s = np.sin(r) / r
    u = np.empty(r.shape, dtype=np.complex128)
    u.real = np.cos(r)
    u.imag = -s * vz
    return u, s * (-vy - 1j * vx)


def _advance(a: np.ndarray | float, b: np.ndarray | float, h: float, t0: float, count: int,
             step) -> tuple[np.ndarray, np.ndarray]:
    """Block amplitudes (a, b) after ``count`` steps of h from t0; step(h, t_mid) is (u, v)."""
    for j in range(count):
        u, v = step(h, t0 + (j + 0.5) * h)
        a, b = u * a + v * b, np.conj(u) * b - np.conj(v) * a
    return a, b


def _doubling_error(h: float, t0: float, step, n: int) -> float:
    """Largest difference between n steps of h and 2n of h/2 from t0.

    Both advance the state (1, 0) of every block, which is the first column
    of their composed propagators [[u, v], [-conj(v), conj(u)]]: it holds u and v.
    """
    a1, b1 = _advance(1.0, 0.0, h, t0, n, step)
    a2, b2 = _advance(1.0, 0.0, 0.5 * h, t0, 2 * n, step)
    return float(np.maximum(np.abs(a1 - a2), np.abs(b1 - b2)).max())  # a NaN wins


def _substeps(times: np.ndarray, step) -> tuple[np.ndarray, float]:
    """Substep count of each interval ending at a sample, and the estimate."""
    spans = np.diff(times, prepend=0.0)
    longest = float(spans.max())
    if longest == 0.0:
        return np.zeros(spans.size, dtype=int), 0.0
    t_end = float(times[-1])
    m = 1
    while m <= MAX_SUBSTEPS:
        h = longest / m
        counts = np.ceil(spans / h).astype(int)
        steps = int(counts.sum())
        local = float(np.maximum(_doubling_error(h, 0.0, step, 1),  # not max: a NaN wins
                                 _doubling_error(h, t_end - h, step, 1)))
        estimate = steps * local
        if not np.isfinite(estimate):
            raise IntegrationError(f"step-doubling error {estimate} not finite at {m} substeps")
        if estimate <= TOL or local <= ROUNDING_FLOOR:
            return counts, estimate
        if estimate <= WINDOW * TOL and steps >= 6 * WINDOW:
            window = np.maximum(_doubling_error(h, 0.0, step, WINDOW),
                                _doubling_error(h, max(t_end - WINDOW * h, 0.0), step, WINDOW))
            estimate = min(estimate, float(steps / WINDOW * window))
            if estimate <= TOL:
                return counts, estimate
        m *= 2
    raise IntegrationError(
        f"step-doubling error {estimate:.3e} still above TOL {TOL:g} "
        f"at {m // 2} substeps per interval"
    )


def _integrate(d0: np.ndarray, omega: np.ndarray, qg: float, times: np.ndarray) -> np.ndarray:
    """DOP853 oracle for all (node, block) pairs; returns (n_times, 2, K, N).

    Integrates the block equations of the module docstring as written, with
    rtol ``ORACLE_TOL``.  State layout: y = concat(c_e.ravel(), c_g.ravel())
    with shape (K, N) each.
    """
    k, n = d0.size, omega.size
    half = k * n
    d0c = d0[:, None]
    om = omega[None, :]
    y0 = np.zeros(2 * half, dtype=np.complex128)
    y0[:half] = 1.0

    def rhs(t, y):
        ce = y[:half].reshape(k, n)
        cg = y[half:].reshape(k, n)
        phase = np.exp(1j * (d0c * t - 0.5 * qg * t * t))
        return np.concatenate(
            ((-1j * om * phase * cg).ravel(),
             (-1j * om * np.conj(phase) * ce).ravel())
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
            rtol=ORACLE_TOL,
            atol=ORACLE_TOL * 1e-3,
        )
        if not sol.success:
            reached = sol.t[-1] if sol.t.size else 0.0
            raise IntegrationError(
                f"integrator stopped at t={reached:.6e} of {t_final:.6e}: "
                f"{sol.message}"
            )
        out = sol.y
    return out.T.reshape(times.size, 2, k, n)


def branch_states_ode_sweep(times: np.ndarray, params: PhysicalParams, w: np.ndarray,
                            grid: MomentumGrid, cross: bool = True) -> Sweep:
    """The sweep over the requested times from one Magnus pass.

    One step function serves the step-doubling probes and the substeps, and
    the blocks' c_e and c_g at each sample go to ``core.branch_sweep``, which
    sums <C|D> only if ``cross`` (else the sweep's ``cd`` is None).  The
    sweep's ``meta`` records the step-doubling target ``TOL``, the substeps of
    the longest interval, the total substep count and the estimate.
    """
    times = check_times(times)
    qg = params.qg
    d0 = detuning0_of_p(grid.nodes, params)
    omega = params.lam * np.sqrt(np.arange(w.size) + 1.0)
    # t_mid enters a step only as qg * t_mid, so at qg = 0 it is a function of h
    cached = functools.lru_cache(maxsize=STEP_CACHE)(
        lambda h: _magnus_step(h, 0.0, d0, omega, qg))

    def step(h: float, t_mid: float) -> tuple[np.ndarray, np.ndarray]:
        return cached(h) if qg == 0 else _magnus_step(h, t_mid, d0, omega, qg)

    counts, estimate = _substeps(times, step)
    meta = {"backend": "ode", "method": "magnus4", "tol": TOL,
            "substeps": int(counts.max()), "steps": int(counts.sum()),
            "error_estimate": estimate}

    def magnus():
        a = np.ones((d0.size, omega.size), dtype=np.complex128)
        b = np.zeros_like(a)
        t = 0.0
        for i, (t_next, m) in enumerate(zip(times, counts)):
            a, b = _advance(a, b, (t_next - t) / max(m, 1), t, m, step)
            t = float(t_next)
            half_phi = (0.5 * (d0 * t - 0.5 * qg * t * t))[None, :, None]  # row i, every node
            yield i, a * np.exp(1j * half_phi), b * np.exp(-1j * half_phi)

    # the recursion carries each sample into the next: one piece, in the calling thread
    return branch_sweep(times, [magnus()], w, grid, meta, cross)
