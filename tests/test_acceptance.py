"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Criteria that encode the reference figures' qualitative claims (collapse and
revival, gravity suppressing the revival contrast, cat bimodality at the
half-revival time) are asserted with their thresholds as stated, each in a
configuration where the exact model can produce the claim.  The model's
revival time is lam*t_R = 2 pi Omega_R(nbar) / lam with
Omega_R = sqrt(lam^2 (nbar + 1) + delta0^2 / 4), so lam*t_R >= 2 pi sqrt(nbar)
(31.4 for alpha = 5) at any detuning and ~269 at the published
delta0 = 85 lam; criteria 1 and 2 pin exactly this law.  At the published
parameters the inversion therefore collapses without reviving inside
lam*t <= 25, and the field never splits into a cat.  Criterion 5 sweeps the
resonant case delta0 = 0 over lam*t in [0, 40], and criterion 6 compares
that sweep's revival contrast with a strongly chirped one; criterion 7 looks
at the resonant half revival lam*t = pi sqrt(nbar) = 5 pi.  All three keep
alpha = 5, sigma0 = 1 and 32 momentum nodes.  Every criterion keeps the Fock
cutoff of every run, ``adaptive_nmax(alpha)`` = 68.  The measured numbers
live in each test's pass/fail line.
"""

import math
import time

import numpy as np
import pytest

from gravjcm.analytic import (
    phase_integral_closed,
    phase_integral_elementary,
    phase_integral_quadrature,
)
from gravjcm.cli import main
from gravjcm.core import (adaptive_nmax, build_momentum_grid, coherent_amplitudes, detuning0_of_p,
                          paper_defaults)
from gravjcm.observables import (
    QGridSpec,
    entropy,
    inversion,
    overlaps,
    q_function,
    q_peak_analysis,
)
from gravjcm.ode import branch_states_ode_sweep
from gravjcm.scenario import builtin_scenario

QG_VALUES = (0.0, 0.5e7, 1.5e7)
N_NODES = 32
SAMPLES_PER_LAMT = 80  # fig1's density: 2000 samples over lam*t in [0, 25]
# In a scan over qg = 0, 1.5e7, 1e11, 1e12, 1e13, 3e13 and 1e14 at the
# resonant half revival, the cat stays bimodal up to 1e13 (its separation
# shrinks from 10.1 to 3.4) and shows a single Q peak from 3e13 on.  The
# published qg = 1.5e7 chirps the phase by only ~1.9e-3 rad by then and leaves
# the cat untouched.
CAT_BREAKING_QG = 3e13
# From the same scan: at qg = 1e11 the resonant revival contrast over
# lam*t in [0, 40] is well below the qg = 0 value, while at the published
# 1.5e7 it matches qg = 0 to 7 digits.
REVIVAL_BREAKING_QG = 1e11
RESONANT_LAMT = np.linspace(0.0, 40.0, 40 * SAMPLES_PER_LAMT + 1)
# the reference experiment's field amplitude and momentum wavepacket width
FIG1 = builtin_scenario("fig1")
ALPHA, SIGMA0 = FIG1.alpha, FIG1.sigma0
NMAX = adaptive_nmax(ALPHA)  # the cutoff gravjcm run takes


def report(num, desc, ok, detail=""):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {desc}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


def sweep_observables(qg, n_nodes):
    field = coherent_amplitudes(ALPHA, NMAX)
    grid = build_momentum_grid(SIGMA0, n_nodes)
    cc, dd, cd = overlaps(
        branch_states_ode_sweep(FIG1.times_seconds(), FIG1.params_for(qg), field, grid))
    return FIG1.times_scaled(), (cc, dd, cd), inversion(cc, dd), entropy(cc, dd, cd).s_f


@pytest.fixture(scope="module")
def fig1_32():
    return {qg: sweep_observables(qg, N_NODES) for qg in QG_VALUES}


@pytest.fixture(scope="module")
def fig1_64():
    return {qg: sweep_observables(qg, 2 * N_NODES) for qg in QG_VALUES}


def resonant_inversion(qg):
    """Inversion over RESONANT_LAMT at delta0 = 0."""
    params = paper_defaults(qg=qg, delta0=0.0)
    field = coherent_amplitudes(ALPHA, NMAX)
    grid = build_momentum_grid(SIGMA0, N_NODES)
    cc, dd, _ = overlaps(branch_states_ode_sweep(RESONANT_LAMT / params.lam, params, field, grid))
    return inversion(cc, dd)


@pytest.fixture(scope="module")
def resonant_qg0():
    return resonant_inversion(0.0)


def snapshot(lam_t, params, qgrid_n):
    """Branch state, fig3-window Q grid and entropy at one scaled time."""
    field = coherent_amplitudes(ALPHA, NMAX)
    grid = build_momentum_grid(SIGMA0, N_NODES)
    st = branch_states_ode_sweep(np.array([lam_t / params.lam]), params, field, grid)[0]
    qgrid = q_function(st, QGridSpec(-9.0, 9.0, -9.0, 9.0, qgrid_n, qgrid_n), ALPHA)
    return st, qgrid, float(entropy(*overlaps(st)).s_f)


@pytest.fixture(scope="module")
def fig3_data():
    sc = builtin_scenario("fig3")
    lam_t = float(sc.times_scaled()[0])
    return {qg: snapshot(lam_t, sc.params_for(qg), sc.qgrid_n)
            for qg in QG_VALUES}


def moving_envelope(lam_t, w, window=1.0):
    """Half peak-to-peak swing of w in successive windows of scaled time."""
    edges = np.arange(lam_t[0], lam_t[-1], window)
    env = []
    for lo in edges:
        sel = (lam_t >= lo) & (lam_t < lo + window)
        if np.any(sel):
            env.append(0.5 * (w[sel].max() - w[sel].min()))
    return np.array(env)


def revival_contrast(lam_t, w):
    """Largest envelope value after the first collapse window.

    Falls back to the post-minimum maximum when no window drops below the
    25% collapse threshold.
    """
    env = moving_envelope(lam_t, w)
    collapsed = np.nonzero(env < 0.25 * env[0])[0]
    start = int(collapsed[0]) if collapsed.size else int(np.argmin(env))
    return float(env[start:].max()), env


def test_criterion_1_resonant_textbook_limit():
    params = paper_defaults(qg=0.0, delta0=0.0)
    field = coherent_amplitudes(ALPHA, NMAX)
    grid = build_momentum_grid(SIGMA0, 1)  # single node at p = 0
    lam_t = np.linspace(0.0, 25.0, 2000)
    start = time.perf_counter()
    cc, dd, _ = overlaps(branch_states_ode_sweep(lam_t / params.lam, params, field, grid))
    w = inversion(cc, dd)
    elapsed = time.perf_counter() - start
    n = np.arange(NMAX + 1)
    probs = np.abs(field) ** 2
    expect = np.array(
        [np.sum(probs * np.cos(2.0 * params.lam * np.sqrt(n + 1.0) * t))
         for t in lam_t / params.lam]
    )
    err = float(np.max(np.abs(w - expect)))
    report(1, "resonant inversion matches the textbook revival sum",
           err <= 1e-6 and elapsed <= 60.0,
           f"max err {err:.2e}, {elapsed:.1f}s")


def test_criterion_2_detuned_limit(fig1_32):
    lam_t, _, w, _ = fig1_32[0.0]
    params = paper_defaults(qg=0.0)
    field = coherent_amplitudes(ALPHA, NMAX)
    grid = build_momentum_grid(SIGMA0, N_NODES)
    n = np.arange(NMAX + 1)
    probs = np.abs(field) ** 2
    om2 = params.lam**2 * (n + 1.0)
    expect = np.zeros_like(lam_t)
    for wk, pk in zip(grid.weights, grid.nodes):
        omr = np.sqrt(om2 + detuning0_of_p(pk, params) ** 2 / 4.0)
        for i, t in enumerate(lam_t / params.lam):
            expect[i] += wk * np.sum(
                probs * (1.0 - 2.0 * (om2 / omr**2) * np.sin(omr * t) ** 2)
            )
    err = float(np.max(np.abs(w - expect)))
    report(2, "detuned inversion matches the Rabi summation formula",
           err <= 1e-6, f"max err {err:.2e}")


def test_criterion_3_phase_integral_equivalence():
    worst_closed = 0.0
    ts = np.linspace(25e-6 / 50.0, 25e-6, 50)
    ps = np.linspace(-3.0, 3.0, 10)
    d0s = detuning0_of_p(ps, paper_defaults())
    for qg in (0.5e7, 1.5e7):
        for d0 in d0s:
            for t in ts:
                q_ep = phase_integral_quadrature(d0, qg, t)
                q_em = phase_integral_quadrature(-d0, -qg, t)
                c = phase_integral_closed(d0, qg, t)
                worst_closed = max(
                    worst_closed,
                    abs(c - q_ep) / abs(q_ep),
                    abs(np.conj(c) - q_em) / abs(q_em),
                )
    worst_elem = 0.0
    for d0 in d0s:
        for t in ts[::5]:
            q = phase_integral_quadrature(d0, 0.0, t)
            e = phase_integral_elementary(d0, t)
            worst_elem = max(worst_elem, abs(q - e) / abs(e))
    report(3, "closed-form phase integrals match quadrature on the lattice",
           worst_closed <= 1e-8 and worst_elem <= 1e-10,
           f"closed rel {worst_closed:.2e}, elementary rel {worst_elem:.2e}")


def test_criterion_4_entropy_machinery(fig1_32):
    worst_sum = 0.0
    worst_eig = 0.0
    s_ok = True
    ln2 = math.log(2.0)
    for qg in QG_VALUES:
        _, (cc, dd, cd), _, s = fig1_32[qg]
        s_ok &= bool(np.all((s >= -1e-12) & (s <= ln2 + 1e-12)))
        e = entropy(cc, dd, cd)
        worst_sum = max(worst_sum, float(np.max(np.abs(e.pi_plus + e.pi_minus - 1.0))))
        for i in range(cc.size):
            total = cc[i] + dd[i]
            rho = np.array(
                [[cc[i] / total, cd[i] / total],
                 [np.conj(cd[i]) / total, dd[i] / total]]
            )
            lams = np.linalg.eigvalsh(rho)
            worst_eig = max(
                worst_eig,
                abs(e.pi_minus[i] - lams[0]),
                abs(e.pi_plus[i] - lams[1]),
            )
    report(4, "entropy eigenvalues are a valid 2x2 spectral decomposition",
           worst_sum <= 1e-12 and worst_eig <= 1e-10 and s_ok,
           f"sum err {worst_sum:.1e}, eig err {worst_eig:.1e}")


def test_criterion_5_collapse_and_revival_structure(resonant_qg0):
    env = moving_envelope(RESONANT_LAMT, resonant_qg0)
    env0 = env[0]
    revival_lamt = 2.0 * math.pi * abs(ALPHA)
    collapsed = np.nonzero(env < 0.25 * env0)[0]
    ok = False
    detail = f"env0 {env0:.3e}, min env {env.min():.3e}"
    if collapsed.size:
        start = int(collapsed[0])
        after = env[start:]
        revived = np.nonzero(after > 0.5 * env0)[0]
        # windows are 1 wide and start at lam*t = 0, 1, 2, ...
        peak = start + int(np.argmax(after))
        ok = revived.size > 0 and abs(peak + 0.5 - revival_lamt) <= 2.0
        detail += (f", collapse at window {start} ({env[start] / env0:.3f} "
                   f"env0), post-collapse max {after.max():.3e} "
                   f"({after.max() / env0:.3f} env0) in window {peak} vs "
                   f"revival bar {0.5 * env0:.3e}")
        if revived.size:
            detail += f", first revived window {start + int(revived[0])}"
        detail += f", 2 pi sqrt(nbar) = {revival_lamt:.2f}"
    else:
        detail += ", no collapse window found"
    report(5, "resonant inversion envelope collapses below 25% then revives "
              "above 50% within 2 of lam*t = 2 pi sqrt(nbar)",
           ok, detail)


def test_criterion_6_gravity_reduces_revival_contrast(fig1_32, resonant_qg0):
    contrasts = {}
    for qg in (0.0, 1.5e7):
        lam_t, _, w, _ = fig1_32[qg]
        contrasts[qg], _ = revival_contrast(lam_t, w)
    resonant = {
        0.0: revival_contrast(RESONANT_LAMT, resonant_qg0)[0],
        REVIVAL_BREAKING_QG: revival_contrast(
            RESONANT_LAMT, resonant_inversion(REVIVAL_BREAKING_QG))[0],
    }
    report(6, "revival contrast at qg=1.5e7 strictly below qg=0; on resonance "
              f"at qg={REVIVAL_BREAKING_QG:g} strictly below qg=0",
           contrasts[1.5e7] < contrasts[0.0]
           and resonant[REVIVAL_BREAKING_QG] < resonant[0.0],
           f"qg=0: {contrasts[0.0]:.6e}, qg=1.5e7: {contrasts[1.5e7]:.6e}; "
           f"resonant qg=0: {resonant[0.0]:.3f}, "
           f"qg={REVIVAL_BREAKING_QG:g}: {resonant[REVIVAL_BREAKING_QG]:.3f}")


def test_criterion_7_cat_bimodality():
    qgrid_n = builtin_scenario("fig3").qgrid_n
    half_revival_lamt = math.pi * abs(ALPHA)
    cats = {
        qg: snapshot(half_revival_lamt,
                     paper_defaults(qg=qg, delta0=0.0), qgrid_n)
        for qg in (0.0, CAT_BREAKING_QG)
    }
    rep0 = q_peak_analysis(cats[0.0][1])
    rep_g = q_peak_analysis(cats[CAT_BREAKING_QG][1])
    s0 = cats[0.0][2]
    s_g = cats[CAT_BREAKING_QG][2]
    ok = rep0.bimodal and not rep_g.bimodal and s0 < s_g
    report(7, "resonant half-revival Q bimodal without gravity, unimodal "
              f"at qg={CAT_BREAKING_QG:g}, entropy lower without",
           ok,
           f"lam*t = {half_revival_lamt:.4f}, "
           f"peaks qg=0: {rep0.count} (bimodal {rep0.bimodal}, height ratio "
           f"{rep0.height_ratio:.2f}, separation {rep0.separation:.2f}), "
           f"qg={CAT_BREAKING_QG:g}: {rep_g.count} (bimodal {rep_g.bimodal}), "
           f"S(0)={s0:.8f} vs S({CAT_BREAKING_QG:g})={s_g:.8f}")


def test_criterion_8_q_normalization(fig3_data):
    worst = 0.0
    for qg in QG_VALUES:
        q = fig3_data[qg][1]
        dx = q.x[1] - q.x[0]
        dy = q.y[1] - q.y[0]
        worst = max(worst, abs(float(q.values.sum()) * dx * dy - 1.0))
    report(8, "every emitted Q grid Riemann-sums to 1 within 2%",
           worst <= 0.02, f"worst deviation {worst:.2e}")


def test_criterion_9_convergence_and_determinism(fig1_32, fig1_64, tmp_path):
    worst = 0.0
    for qg in QG_VALUES:
        _, _, w32, s32 = fig1_32[qg]
        _, _, w64, s64 = fig1_64[qg]
        worst = max(worst, float(np.max(np.abs(w32 - w64))),
                    float(np.max(np.abs(s32 - s64))))
    dirs = []
    for sub in ("run_a", "run_b"):
        out = tmp_path / sub
        out.mkdir()
        assert main(["run", "--builtin", "fig1", "--out", str(out)]) == 0
        dirs.append(out)
    identical = all(
        (dirs[0] / f.name).read_bytes() == (dirs[1] / f.name).read_bytes()
        for f in sorted(dirs[0].glob("*.csv"))
    )
    report(9, "node doubling moves W and S by < 1e-6; reruns byte-identical",
           worst < 1e-6 and identical,
           f"node-doubling max change {worst:.2e}, identical={identical}")
