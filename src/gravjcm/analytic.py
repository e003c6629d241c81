"""Closed-form solution backend.

The chirped-phase integral E+, the branch coefficients a_n/b_n and the block
amplitudes of a sweep.  For real inputs the opposite-sign integral E- is
conj(E+); the quadrature of E- is the one of E+ at (-d0, -qg).

Two evaluation routes exist for the phase integrals: direct numerical
quadrature (the defining object) and the error-function closed form.  The
closed form as published does not reduce to zero at t = 0 under principal
branches; a one-time audit over the eight sign/branch variants selects the
variant that matches the quadrature, and the production evaluator hardwires
that winner in a cancellation-free regrouping (see ``phase_integral_closed``).

The closed and elementary phase integrals and the branch coefficients
broadcast over arrays of times and momentum nodes, so one call covers a
piece of a sweep on the whole grid.  A sweep's <C|C> and <D|D> take only the
moduli of its amplitudes; the complex amplitudes are formed for the instant it
keeps and, if asked, for the cross term <C|D>.  The Faddeeva function is
Weideman's 40-term rational series, evaluated with numpy alone, so no run
imports scipy; only the audit's literal variants take ``erf`` from
``scipy.special``, imported when the audit first runs.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .core import (MomentumGrid, PhysicalParams, Sweep, branch_sweep, check_times,
                   detuning0_of_p)

ROOT_1_34 = cmath.exp(3j * math.pi / 4)  # principal (-1)^(3/4)
SQRT_PI = math.sqrt(math.pi)
# Sample times per piece of a sweep: each piece evaluates E+ once, so the
# Faddeeva function's fixed cost is paid once per PIECE_TIMES samples.
PIECE_TIMES = 64
# Sample times per run a piece yields: each run's arrays hold
# CHUNK_TIMES x K x (nmax + 2) values.
CHUNK_TIMES = 8


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach tolerance within the panel budget."""


class BranchAuditError(RuntimeError):
    """No sign/branch variant of the closed form matches the quadrature."""


# --- complex error function kernels ----------------------------------------


def _weideman_coefficients(n: int) -> tuple[float, np.ndarray]:
    """Scale L and the n coefficients, highest degree first, of Weideman's series.

    a_j = (1 / 4n) sum_k f(s_k) cos(j theta_k) over theta_k = k pi / 2n,
    |k| < 2n, with s_k = L tan(theta_k / 2) and f(s) = exp(-s^2) (L^2 + s^2):
    the paper's FFT written as the cosine sum it is (f is even).  In Python
    floats, so the import runs no numpy kernel that a run does not.
    """
    scale = math.sqrt(n / math.sqrt(2.0))
    theta = [k * math.pi / (2 * n) for k in range(1 - 2 * n, 2 * n)]
    s = [scale * math.tan(0.5 * th) for th in theta]
    f = [math.exp(-sk * sk) * (scale * scale + sk * sk) for sk in s]
    return scale, np.array([math.fsum(fk * math.cos(j * th) for fk, th in zip(f, theta)) / (4 * n)
                            for j in range(n, 0, -1)])


_W_SCALE, _W_COEFFS = _weideman_coefficients(40)


def faddeeva(z):
    """w(z) = exp(-z^2) erfc(-iz), elementwise for finite complex z.

    In the closed upper half-plane w is Weideman's N = 40 rational series
    (J. A. C. Weideman, SIAM J. Numer. Anal. 31, 1497 (1994)),
    w = 2 p(Z) / (L - iz)^2 + pi^(-1/2) / (L - iz) with Z = (L + iz) / (L - iz),
    L = sqrt(N / sqrt 2) and p of degree N - 1, within ~2e-14 of w relative;
    an entry in the lower half-plane takes w(z) = 2 exp(-z^2) - w(-z).  The
    values are computed on a 1-d view, so an entry of an array and the same
    number alone give the same bits.  Raises OverflowError where w itself
    leaves the double range, which happens deep in the lower half-plane
    (w(0.1 - 27i) ~ exp(729)).
    """
    z = np.asarray(z, dtype=np.complex128)
    if not np.all(np.isfinite(z)):
        raise ValueError("faddeeva requires a finite argument")
    flat = z.reshape(-1)
    lower = flat.imag < 0
    upper = np.where(lower, -flat, flat)
    r = 1.0 / (_W_SCALE - 1j * upper)
    big_z = (_W_SCALE + 1j * upper) * r
    # no in-place product: numpy multiplies a 1-element array in place without
    # the fused multiply-add of its vector loop, which would change an entry's bits
    w = np.full(flat.shape, _W_COEFFS[0], dtype=np.complex128)
    for c in _W_COEFFS[1:]:  # Horner
        w = w * big_z
        w += c
    w = (2.0 * w * r + 1.0 / SQRT_PI) * r
    if lower.any():
        below = flat[lower]
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
            w[lower] = 2.0 * np.exp(-below * below) - w[lower]
    if not np.all(np.isfinite(w)):
        bad = complex(flat[~np.isfinite(w)][0])
        raise OverflowError(f"faddeeva leaves the double range at z={bad}")
    return w.reshape(z.shape)[()]


# --- phase integrals --------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_PANEL_BUDGET = 1 << 16
# Agreement the quadrature demands of two consecutive composite values, in
# units of t (which bounds |E+|).
QUAD_TOL = 1e-14


def phase_integral_quadrature(d0: float, qg: float, t: float) -> complex:
    """Defining quadrature form of E+ = integral_0^t exp(i (d0 u - qg u^2 / 2)) du, seconds.

    d0 is the node's static detuning delta0(p) and qg the chirp rate; E- is
    the same integral at (-d0, -qg).  Panels are sized to a few radians of
    accumulated phase each, then the panel count doubles until two
    consecutive composite Gauss values agree to QUAD_TOL * t.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    if t == 0.0:
        return 0.0 + 0.0j
    total_phase = abs(d0) * t + abs(qg) * t * t / 2.0
    m = max(8, int(math.ceil(total_phase / 4.0)))

    def composite(n_panels: int) -> complex:
        edges = np.linspace(0.0, t, n_panels + 1)
        acc = 0.0 + 0.0j
        chunk = 1 << 16
        for lo in range(0, n_panels, chunk):
            e = edges[lo : min(lo + chunk, n_panels) + 1]
            half = 0.5 * (e[1:] - e[:-1])
            mid = 0.5 * (e[1:] + e[:-1])
            u = mid[:, None] + half[:, None] * _GL_NODES[None, :]
            phase = d0 * u - 0.5 * qg * u * u
            acc += complex(np.sum(half * (np.exp(1j * phase) @ _GL_WEIGHTS)))
        return acc

    prev = composite(m)
    est = math.inf
    while m <= _PANEL_BUDGET:
        m *= 2
        cur = composite(m)
        est = abs(cur - prev)
        if est <= QUAD_TOL * t:
            return cur
        prev = cur
    raise QuadratureError("phase-integral quadrature did not converge "
                          f"(achieved error estimate {est:.3e})")


def phase_integral_elementary(d0, t):
    """Chirp-free (qg = 0) E+, the antiderivative (exp(i d0 t) - 1) / (i d0).

    Evaluated as t sinc(d0 t / 2 pi) exp(i d0 t / 2), which does not cancel
    at small d0 t and takes the limit t at d0 = 0.  Broadcasts over
    detunings d0 and times t.
    """
    d0 = np.asarray(d0, dtype=float)
    return (t * np.sinc(d0 * t / (2.0 * np.pi)) * np.exp(0.5j * d0 * t))[()]


# Branch variants of the published closed form, encoded as
# (exp_sign, second_erf_ray, second_erf_sign).  The text as printed is
# (-1, ROOT_1_34, +1); the audit selects (+1, 1j*ROOT_1_34, +1).
BRANCH_VARIANTS = [
    (se, ray, s2)
    for se in (+1, -1)
    for ray in (ROOT_1_34, 1j * ROOT_1_34)
    for s2 in (+1, -1)
]
SELECTED_VARIANT = (+1, 1j * ROOT_1_34, +1)
SELECTED_VARIANT_ID = BRANCH_VARIANTS.index(SELECTED_VARIANT)
# Largest quadrature residual the audit accepts for its winning variant.
AUDIT_RESIDUAL_FLOOR = 1e-6


def closed_form_variant(d0: float, qg: float, t: float, variant: tuple) -> complex:
    """Literal evaluation of one sign/branch variant of the E+ closed form.

    Intended for the audit lattice (moderate erf arguments); the production
    path uses the numerically regrouped winner in phase_integral_closed.
    """
    from scipy.special import erf  # the audit alone needs scipy

    exp_sign, ray2, sign2 = variant
    if qg <= 0:
        raise ValueError("closed form requires qg > 0")
    x = d0 / math.sqrt(2.0 * qg)
    s = math.sqrt(qg / 2.0) * t
    pref = (0.5 - 0.5j) * SQRT_PI / math.sqrt(qg)
    bracket = -erf(1j * ROOT_1_34 * x) + sign2 * erf(ray2 * (x - s))
    return pref * cmath.exp(1j * exp_sign * x * x) * bracket


def phase_integral_closed(d0, qg: float, t):
    """Audited closed form of E+ (qg > 0 only).

    The winning branch variant is algebraically regrouped so the huge
    exp(i d0^2 / 2 qg) phases cancel symbolically:

        E+ = pref * [ (sgn(x) + sgn(u2)) e^{i x^2}
                      - sgn(x) w(|x| e^{3 i pi/4})
                      - sgn(u2) e^{i (d0 t - qg t^2/2)} w(|u2| e^{3 i pi/4}) ]

    with x = d0 / sqrt(2 qg), u2 = sqrt(qg/2) t - x.  In the usual regime
    (chirp not yet through resonance) the standalone e^{i x^2} term cancels
    exactly and only well-conditioned phases survive.  Broadcasts over
    detunings d0 and times t.
    """
    if qg <= 0:
        raise ValueError("closed form is singular at qg = 0; "
                         "use the quadrature or the elementary antiderivative")
    if np.any(t < 0):
        raise ValueError("t must be nonnegative")
    d0 = np.asarray(d0, dtype=float)
    x = d0 / math.sqrt(2.0 * qg)
    u2 = math.sqrt(qg / 2.0) * t - x
    sx = np.sign(x)
    su = np.sign(u2)
    w1 = faddeeva(np.abs(x) * ROOT_1_34)
    w2 = faddeeva(np.abs(u2) * ROOT_1_34)
    phi = d0 * t - 0.5 * qg * t * t
    core = -sx * w1 - su * np.exp(1j * phi) * w2
    # sx + su = 0 until the chirp sweeps the node through resonance; x^2 is
    # taken only after that, as it overflows at a tiny qg long before
    crossed = sx + su
    x = np.where(crossed != 0, x, 0.0)
    core = core + crossed * np.exp(1j * np.fmod(x * x, 2.0 * math.pi))
    pref = (0.5 - 0.5j) * SQRT_PI / math.sqrt(qg)
    return (pref * core)[()]


def audit_branch_variants() -> dict:
    """Rank every closed-form sign/branch variant against the quadrature.

    Evaluates the eight variants on a fixed lattice of (detuning, qg, t)
    triples with moderate erf arguments, where the literal expressions are
    well conditioned.  Returns the winner and all residuals; raises
    BranchAuditError if even the best variant misses AUDIT_RESIDUAL_FLOOR.
    """
    # times are lam*t values at the reference coupling lam = 1e6 rad/s
    lattice = [(d0, qg, lt / 1e6) for d0 in (2e5, 8e5, 3e6) for qg in (5e9, 5e10, 5e11)
               for lt in (0.3, 1.7, 6.0, 19.0)]
    residuals = np.zeros(len(BRANCH_VARIANTS))
    for d0, qg, t in lattice:
        ref = phase_integral_quadrature(d0, qg, t)
        scale = max(abs(ref), 1e-300)
        for i, var in enumerate(BRANCH_VARIANTS):
            err = abs(closed_form_variant(d0, qg, t, var) - ref) / scale
            residuals[i] = max(residuals[i], err)
    order = np.argsort(residuals)
    best = int(order[0])
    if residuals[best] > AUDIT_RESIDUAL_FLOOR:
        raise BranchAuditError(
            f"best variant residual {residuals[best]:.3e} exceeds "
            f"{AUDIT_RESIDUAL_FLOOR:.1e}; falling back to quadrature is required"
        )
    return {
        "winner": best,
        "winner_residual": float(residuals[best]),
        "runner_up_residual": float(residuals[order[1]]),
        "residuals": residuals.tolist(),
        "matches_selected": best == SELECTED_VARIANT_ID,
    }


# --- branch coefficients and states ----------------------------------------


def branch_coeffs(n, ep, lam: float) -> tuple:
    """Block weights (a_n, b_n), excited and ground; a_n + b_n = 1 exactly.

    a_n = 1 + (n+1) eta and b_n = -(n+1) eta with eta = -i lam^2 E+ E-^2,
    E+ = ep and E- = conj(ep), where lam^2 makes the published expression
    dimensionless.  n and ep may be arrays and broadcast against each other.
    """
    n = np.asarray(n)
    if np.any(n < 0):
        raise ValueError("n must be nonnegative")
    eta = np.asarray(-1j * lam**2 * ep * np.conj(ep)**2)
    b = -(n + 1) * eta
    a = 1.0 - b
    return a[()], b[()]


def branch_states_analytic(times: np.ndarray, params: PhysicalParams, w: np.ndarray,
                           grid: MomentumGrid, cross: bool = True) -> Sweep:
    """The sweep over the requested times from the closed-form branch amplitudes.

    Per sample and momentum node, block n's excited and ground amplitudes are
    sqrt(a_n) ph_n and sqrt(b_{n+1}) ph_n with ph_n = exp(i/2 lam E+ sqrt(n+1))
    and principal square roots; b_{n+1} = (n+2) b_0 exactly, so the ground
    roots are sqrt(n+2) sqrt(b_0).  <C|C> and <D|D> need neither phase nor
    root: each run yields every sample's squared moduli |a_n| |ph_n|^2 and
    (n+2) |b_0| |ph_n|^2, |ph_n|^2 = exp(-lam Im E+ sqrt(n+1)), and the
    amplitudes only of every sample if ``cross``, for <C|D>, else of the last
    (and ``cd`` is None).  E+ takes the closed form when qg > 0 and the
    elementary antiderivative when qg = 0, one array evaluation per piece of
    PIECE_TIMES samples over all nodes, the branch coefficients one per run of
    CHUNK_TIMES samples; the pieces run on every CPU.

    The closed form is first order in eta, so its norm is not conserved: up
    to rounding it stays at or below 1 at the published detuning, and it grows
    without bound on resonance.  ``run`` rejects norms above 1 + NORM_SLACK.
    """
    times = check_times(times)
    qg, lam = params.qg, params.lam
    d0 = detuning0_of_p(grid.nodes, params)[:, None]  # (K, 1) broadcasts against the Fock axis
    n = np.arange(w.size)
    root = np.sqrt(n + 1.0)
    meta = {"backend": "analytic", "phase_integral_method": "closed" if qg > 0 else "elementary"}
    # a run's empty amplitudes: a view a[:0] would keep a alive while the reducer holds the run
    no_rows = np.empty((0, grid.nodes.size, w.size), dtype=np.complex128)

    def run(lo, ep, keep):
        """Run (lo, x, y, xx, yy) of the rows from lo whose E+ is ep, (R, K, 1): every
        row's squared moduli, the amplitudes of the last ``keep`` rows alone."""
        a, b = branch_coeffs(n, ep, lam)
        decay = np.exp(-lam * ep.imag * root)
        moduli = np.abs(a) * decay, (n + 2.0) * np.abs(b[..., :1]) * decay
        if not keep:
            return lo, no_rows, no_rows, *moduli
        ep, a, b = ep[-keep:], a[-keep:], b[-keep:]
        phase = np.exp(0.5j * lam * ep * root)
        return lo, np.sqrt(a) * phase, np.sqrt(n + 2.0) * np.sqrt(b[..., :1]) * phase, *moduli

    def runs(lo):
        """The runs of the piece from row lo, CHUNK_TIMES rows at a time."""
        t = times[lo : lo + PIECE_TIMES, None, None]
        eps = phase_integral_closed(d0, qg, t) if qg > 0 else phase_integral_elementary(d0, t)
        for r in range(0, len(t), CHUNK_TIMES):
            ep = eps[r : r + CHUNK_TIMES]
            # cd reads every row, the kept instant the sweep's last
            keep = len(ep) if cross else int(lo + r + len(ep) == times.size)
            yield run(lo + r, ep, keep)

    pieces = [runs(lo) for lo in range(0, times.size, PIECE_TIMES)]
    return branch_sweep(times, pieces, w, grid, meta, cross)
