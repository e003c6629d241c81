"""Tests for the closed-form backend: detunings, phase integrals, branches.

The defining object is the quadrature; the error-function closed form must
reproduce it after the branch audit.  The Fresnel-integral special case and
the chirp-free elementary antiderivative serve as external oracles.  The
Faddeeva kernel is checked against stdlib erfc, a Simpson-rule Dawson
integral, its large-|z| asymptote and, region by region, scipy's ``wofz``.
"""

import cmath
import math
import sys
import threading
import time

import numpy as np
import pytest
import scipy.special as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson

from gravjcm import analytic, core, ode
from gravjcm.analytic import (
    BRANCH_VARIANTS,
    PIECE_TIMES,
    ROOT_1_34,
    SELECTED_VARIANT,
    SELECTED_VARIANT_ID,
    QuadratureError,
    audit_branch_variants,
    branch_coeffs,
    branch_states_analytic,
    closed_form_variant,
    faddeeva,
    phase_integral_closed,
    phase_integral_elementary,
    phase_integral_quadrature,
)
from gravjcm.core import (adaptive_nmax, build_momentum_grid, coherent_amplitudes, detuning0_of_p,
                          paper_defaults)
from gravjcm.observables import overlaps
from gravjcm.scenario import builtin_scenario
from storing_sweep import StoredSweep, store_sweeps, storing_branch_sweep, unweighted

# frozen from the quadrature oracle
EPLUS_PIN_QG15E6 = -1.176472389836063e-08 + 1.1775373758395895e-08j
# frozen from the closed-form assembly, qg=0, lam t=10, single momentum node
C10_PIN = 0.01865987095329629 + 0.00035689132334910706j
D10_PIN = 9.009086491880699e-08 + 3.402736371213537e-08j
NORM_PIN = 0.9309992919027779


def test_faddeeva_at_zero():
    assert faddeeva(0.0) == pytest.approx(1.0, abs=1e-14)


def test_faddeeva_imaginary_axis_matches_stdlib_erfc():
    # w(iy) = exp(y^2) erfc(y), both factors finite for moderate y
    for y in np.linspace(0.0, 5.0, 26):
        expect = math.exp(y * y) * math.erfc(y)
        assert faddeeva(1j * y).real == pytest.approx(expect, rel=1e-11)
        assert abs(faddeeva(1j * y).imag) < 1e-14


def test_faddeeva_real_axis_real_part_is_gaussian():
    # Re w(x) = exp(-x^2); accuracy is relative to |w|, so the bound loosens
    # once the Gaussian drops far below the O(1/x) imaginary part
    for x in np.linspace(-6.0, 6.0, 41):
        err = abs(faddeeva(x).real - math.exp(-x * x))
        assert err < 1e-11 * abs(faddeeva(x))


def test_faddeeva_reflection_identity():
    rng = np.random.default_rng(13)
    for _ in range(200):
        z = complex(rng.uniform(-4, 4), rng.uniform(0.1, 4))
        lhs = faddeeva(-z)
        rhs = 2.0 * cmath.exp(-z * z) - faddeeva(z)
        assert abs(lhs - rhs) / max(abs(rhs), 1e-30) < 1e-11


def test_faddeeva_of_two_against_dawson_integral():
    # w(2) = e^{-4} + (2i/sqrt(pi)) e^{-4} int_0^2 e^{t^2} dt
    xs = np.linspace(0.0, 2.0, 20001)
    daw = simpson(np.exp(xs**2), x=xs)
    expect = math.exp(-4.0) + 2j / math.sqrt(math.pi) * math.exp(-4.0) * daw
    got = faddeeva(2.0)
    assert got.real == pytest.approx(expect.real, rel=1e-12)
    assert got.imag == pytest.approx(expect.imag, rel=1e-10)


def test_faddeeva_large_argument_ray():
    # the 3pi/4 ray is the production hot path; asymptotic series
    # w(z) ~ i/(sqrt(pi) z) sum_k (2k-1)!! / (2 z^2)^k, six terms ample at |z| >= 100
    for r in (1e2, 1e4, 1e6):
        z = r * cmath.exp(3j * math.pi / 4)
        series = sum(math.prod(range(1, 2 * k, 2)) / (2 * z * z) ** k for k in range(6))
        expect = 1j / (math.sqrt(math.pi) * z) * series
        assert abs(faddeeva(z) - expect) / abs(expect) < 1e-12


def test_faddeeva_elementwise_on_arrays():
    z = np.array([[0.0, 2.0], [3j, 1e4 * cmath.exp(3j * math.pi / 4)]])
    got = faddeeva(z)
    assert got.shape == z.shape
    for zi, wi in zip(z.ravel(), got.ravel()):
        assert wi == faddeeva(complex(zi))


def test_faddeeva_nonfinite_rejected():
    with pytest.raises(ValueError):
        faddeeva(complex(math.nan, 0.0))
    with pytest.raises(ValueError):
        faddeeva(np.array([1.0, complex(math.inf, 1.0)]))


def test_faddeeva_lower_half_plane_overflow_reported():
    with pytest.raises(OverflowError):
        faddeeva(complex(0.1, -27.0))
    with pytest.raises(OverflowError):
        faddeeva(np.array([1.0, complex(0.1, -27.0)]))


# scipy's wofz (S. G. Johnson's Faddeeva Package) as the reference, per region:
# the 3 pi/4 ray the closed form evaluates, the upper half-plane the series
# covers and the lower half-plane that reflection reaches (relative bounds)
FADDEEVA_REGIONS = {
    "production_ray": (np.concatenate(([0.0], np.linspace(0.0, 50.0, 5001),
                                       np.logspace(-8.0, 7.0, 30001))) * ROOT_1_34, 5e-14),
    "upper_half_plane": (np.add.outer(1j * np.linspace(0.0, 30.0, 151),
                                      np.linspace(-30.0, 30.0, 301)), 5e-14),
    "lower_half_plane": (np.add.outer(1j * np.linspace(-5.0, 5.0, 201),
                                      np.linspace(-5.0, 5.0, 201)), 2e-13),
}


@pytest.mark.parametrize("region", FADDEEVA_REGIONS)
def test_faddeeva_matches_scipy_wofz(region):
    z, bound = FADDEEVA_REGIONS[region]
    expect = sp.wofz(z)
    assert np.max(np.abs(faddeeva(z) - expect) / np.abs(expect)) <= bound


def test_detuning0_values():
    p = paper_defaults()
    assert detuning0_of_p(0.0, p) == pytest.approx(8.5e7, rel=1e-14)
    # one recoil unit of momentum shifts the detuning by one omega_rec
    assert detuning0_of_p(1.0, p) == pytest.approx(8.45e7, rel=1e-12)
    assert detuning0_of_p(-2.0, p) == pytest.approx(8.6e7, rel=1e-12)


def test_quadrature_small_time_linear():
    p = paper_defaults(qg=1.5e7)
    t = 1e-12  # phase accumulates ~1e-4 rad; integral ~ t
    ep = phase_integral_quadrature(p.delta0, p.qg, t)
    assert ep == pytest.approx(t, rel=1e-7)


def test_quadrature_conjugate_pair():
    p = paper_defaults(qg=0.5e7)
    rng = np.random.default_rng(31)
    for _ in range(10):
        t = rng.uniform(1e-7, 25e-6)
        pp = rng.uniform(-3, 3)
        d0 = detuning0_of_p(pp, p)
        ep = phase_integral_quadrature(d0, p.qg, t)
        em = phase_integral_quadrature(-d0, -p.qg, t)
        assert abs(em - np.conj(ep)) < 1e-12 * abs(ep)


@settings(max_examples=25, deadline=None)
@given(nodes=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=4),
       lam_t=st.floats(0.0, 25.0), qg=st.floats(1e3, 1e12),
       delta0=st.floats(-1e8, 1e8))
def test_array_forms_conjugate_pair(nodes, lam_t, qg, delta0):
    # the closed and the elementary form stay finite on arrays of nodes
    p = paper_defaults(qg=qg, delta0=delta0)
    d0 = detuning0_of_p(np.array(nodes), p)
    t = lam_t / p.lam
    for ep in (phase_integral_closed(d0, qg, t), phase_integral_elementary(d0, t)):
        assert np.all(np.isfinite(ep))


def test_quadrature_matches_elementary_at_zero_gravity():
    p0 = paper_defaults(qg=0.0)
    rng = np.random.default_rng(32)
    for _ in range(25):
        t = rng.uniform(1e-7, 25e-6)
        pp = rng.uniform(-3, 3)
        d0 = detuning0_of_p(pp, p0)
        q = phase_integral_quadrature(d0, 0.0, t)
        e = phase_integral_elementary(d0, t)
        assert abs(q - e) < 1e-10 * abs(e)


def test_elementary_resonant_limit():
    # a zero or subnormal detuning gives the limit t, not nan
    for delta0 in (0.0, 5e-324):
        ep = phase_integral_elementary(delta0, 3e-6)
        assert ep == pytest.approx(3e-6, rel=1e-14)


@pytest.mark.parametrize("x", [1e-8, 1e-6, 1e-4])
def test_elementary_small_phase_no_cancellation(x):
    # E+/t = (exp(ix) - 1)/(ix); its Taylor series to x^3 is exact to double
    # precision here, where the difference form loses up to 8 digits
    t = 1e-6
    d0 = x / t
    x = d0 * t
    ep = phase_integral_elementary(d0, t)
    taylor = complex(1.0 - x * x / 6.0, x / 2.0 - x**3 / 24.0)
    assert abs(ep / t - taylor) <= 4e-16


def test_quadrature_against_fresnel_integrals():
    # pure chirp (detuning 0): int_0^t e^{-i qg u^2/2} du in Fresnel form
    qg = 2e11
    for t in (1e-6, 5e-6, 2e-5):
        u = t * math.sqrt(qg / math.pi)
        s_f, c_f = sp.fresnel(u)
        expect = math.sqrt(math.pi / qg) * (c_f - 1j * s_f)
        got = phase_integral_quadrature(0.0, qg, t)
        assert abs(got - expect) < 1e-11 * abs(expect)
        closed = phase_integral_closed(0.0, qg, t)
        assert abs(closed - expect) < 1e-10 * abs(expect)


def test_quadrature_unreachable_tolerance_reported(monkeypatch):
    # a panel budget below the starting panel count leaves no doubling to try
    monkeypatch.setattr(analytic, "_PANEL_BUDGET", 4)
    p = paper_defaults(qg=1.5e7)
    with pytest.raises(QuadratureError, match="achieved error estimate inf"):
        phase_integral_quadrature(p.delta0, p.qg, 25e-6)


def test_closed_rejects_zero_gravity_and_negative_time():
    d0 = paper_defaults().delta0
    with pytest.raises(ValueError):
        phase_integral_closed(d0, 0.0, 1e-6)
    with pytest.raises(ValueError):
        phase_integral_closed(d0, 1e7, -1e-6)


def test_closed_matches_quadrature_paper_regime():
    rng = np.random.default_rng(33)
    for qg in (0.5e7, 1.5e7):
        p = paper_defaults(qg=qg)
        for _ in range(30):
            t = rng.uniform(1e-8, 25e-6)
            pp = rng.uniform(-3, 3)
            d0 = detuning0_of_p(pp, p)
            q = phase_integral_quadrature(d0, qg, t)
            c = phase_integral_closed(d0, qg, t)
            assert abs(c - q) < 1e-8 * abs(q)
    # one call over the whole node array matches node-by-node quadrature
    d0 = detuning0_of_p(build_momentum_grid(1.0, 32).nodes, p)
    t = 7.0 * math.pi / (2.0 * p.lam)
    c = phase_integral_closed(d0, p.qg, t)
    assert c.shape == d0.shape
    for d0_k, ep in zip(d0, c):
        q_ep = phase_integral_quadrature(d0_k, p.qg, t)
        q_em = phase_integral_quadrature(-d0_k, -p.qg, t)
        assert abs(ep - q_ep) < 1e-8 * abs(q_ep)
        assert abs(np.conj(ep) - q_em) < 1e-8 * abs(q_em)


def test_closed_matches_quadrature_through_chirp_resonance():
    # strong chirp drives the stationary point into the window (s > x)
    for t in (2e-6, 1e-5, 3e-5):
        q = phase_integral_quadrature(8e5, 5e10, t)
        c = phase_integral_closed(8e5, 5e10, t)
        assert abs(c - q) < 1e-10 * abs(q)


def test_closed_zero_gravity_continuity():
    # qg -> 0 limit approaches the elementary antiderivative
    d0 = detuning0_of_p(0.3, paper_defaults())
    for t in np.linspace(1e-7, 25e-6, 10):
        c = phase_integral_closed(d0, 1e-3, t)
        e = phase_integral_elementary(d0, t)
        assert abs(c - e) < 1e-4 * abs(e)


def test_eplus_regression_pin():
    p = paper_defaults(qg=1.5e7)
    t = 7.0 * math.pi / (2.0 * 1e6)
    for ep in (phase_integral_quadrature(p.delta0, p.qg, t),
               phase_integral_closed(p.delta0, p.qg, t)):
        assert abs(ep - EPLUS_PIN_QG15E6) < 1e-8 * abs(EPLUS_PIN_QG15E6)


def test_audit_selects_pinned_variant_uniquely():
    rep = audit_branch_variants()
    assert rep["winner"] == SELECTED_VARIANT_ID
    assert rep["matches_selected"]
    assert rep["winner_residual"] <= 1e-8
    # no runner-up comes close: a wrong branch is off by order unity or more
    assert rep["runner_up_residual"] > 1e-3


def test_literal_text_variant_disagrees_with_quadrature():
    # the expression as published ((-1, e^{3 i pi/4} ray, +) variant) misses
    literal = (-1, BRANCH_VARIANTS[0][1], +1)
    assert literal != SELECTED_VARIANT
    t = 4e-6
    ref = phase_integral_quadrature(8e5, 5e10, t)
    got = closed_form_variant(8e5, 5e10, t, literal)
    assert abs(got - ref) > 0.1 * abs(ref)


def test_branch_coeffs_sum_to_one_exactly():
    rng = np.random.default_rng(34)
    p = paper_defaults(qg=1.5e7)
    for _ in range(30):
        t = rng.uniform(1e-8, 25e-6)
        ep = phase_integral_closed(detuning0_of_p(rng.uniform(-2, 2), p), p.qg, t)
        for n in (0, 3, 40):
            a_n, b_n = branch_coeffs(n, ep, p.lam)
            assert a_n + b_n == 1.0  # exact by construction
            assert b_n == -(n + 1) * (-1j * p.lam**2 * ep * np.conj(ep)**2)


def test_branch_coeffs_dimensional_scale():
    # lam^2 E+ E-^2 is dimensionless: lam in rad/s, E in seconds
    p = paper_defaults(qg=1.5e7)
    ep = phase_integral_closed(p.delta0, p.qg, 5e-6)
    eta = -1j * p.lam**2 * ep * np.conj(ep)**2
    assert branch_coeffs(2, ep, p.lam)[1] == -3 * eta
    with pytest.raises(ValueError):
        branch_coeffs(-1, ep, p.lam)


@pytest.fixture(scope="module")
def small_setup():
    field = coherent_amplitudes(5.0, 100)
    grid = build_momentum_grid(1.0, 8)
    return field, grid


def test_analytic_state_initial_condition(small_setup):
    field, grid = small_setup
    p = paper_defaults(qg=1.5e7)
    st = branch_states_analytic(np.array([0.0]), p, field, grid).last
    assert st.norm() == pytest.approx(1.0, abs=1e-12)
    assert float(np.max(np.abs(st.d))) == 0.0
    np.testing.assert_allclose(unweighted(st.c, grid)[0, :101], field, atol=1e-14)


def test_analytic_state_regression_pin():
    field = coherent_amplitudes(5.0, 100)
    grid = build_momentum_grid(1.0, 1)
    p0 = paper_defaults(qg=0.0)
    sweep = branch_states_analytic(np.array([10.0 / 1e6]), p0, field, grid)
    st = sweep.last
    assert abs(complex(st.c[0, 10]) - C10_PIN) < 1e-12
    assert abs(complex(st.d[0, 10]) - D10_PIN) < 1e-12
    assert st.norm() == pytest.approx(NORM_PIN, abs=1e-10)
    assert sweep.meta["phase_integral_method"] == "elementary"


@pytest.mark.parametrize("qg", [0.0, 1.5e7])
def test_ground_branch_matches_its_definition(qg, stored_sweeps):
    # the sweep takes sqrt(b_{n+1}) as sqrt(n+2) sqrt(b_0); the definition takes
    # the root of b_{n+1} itself, at every n
    sc = builtin_scenario("fig1")
    times = sc.times_seconds()[::47]  # 43 samples: five full chunks and a partial one
    p = sc.params_for(qg)
    w = coherent_amplitudes(sc.alpha, adaptive_nmax(sc.alpha))
    grid = build_momentum_grid(sc.sigma0, sc.n_nodes)
    d0 = detuning0_of_p(grid.nodes, p)[:, None]
    n = np.arange(w.size)
    for st in branch_states_analytic(times, p, w, grid):
        ep = phase_integral_closed(d0, qg, st.t) if qg > 0 else phase_integral_elementary(d0, st.t)
        _, b = branch_coeffs(n + 1, ep, p.lam)
        expect = w * np.sqrt(b) * np.exp(0.5j * p.lam * ep * np.sqrt(n + 1.0))
        assert np.all(np.abs(unweighted(st.d, grid)[:, 1:] - expect) <= 1e-14 * np.abs(expect))


# --- populations from the moduli ------------------------------------------

MODULI_CASES = {**{f"fig1_qg{qg:g}": (qg, 8.5e7, 25.0) for qg in (0.0, 5e6, 1.5e7)},
                **{f"resonant_qg{qg:g}": (qg, 0.0, 40.0) for qg in (0.0, 1e10, 1e11)}}


@pytest.mark.parametrize("qg, delta0, lam_t", MODULI_CASES.values(), ids=MODULI_CASES)
def test_populations_from_moduli_match_the_rows(qg, delta0, lam_t, monkeypatch):
    # cc and dd summed from |a_n|, (n+2) |b_0| and exp(-lam Im E+ sqrt(n+1)) against
    # the same sums over every sample's complex rows: W within 2e-15 of the sample's
    # norm, also on resonance, where the norm reaches ~1e88.  cc and dd do not depend
    # on the cross term; the kept instant and cd are the rows' bit for bit
    sc = builtin_scenario("fig1")
    p = paper_defaults(qg=qg, delta0=delta0)
    w = coherent_amplitudes(sc.alpha, adaptive_nmax(sc.alpha))
    grid = build_momentum_grid(sc.sigma0, sc.n_nodes)
    times = np.linspace(0.0, lam_t, 200) / p.lam
    plain, crossed = (branch_states_analytic(times, p, w, grid, cross) for cross in (False, True))
    store_sweeps(monkeypatch)
    stored = branch_states_analytic(times, p, w, grid, True)
    rows_cc, rows_dd, rows_cd = overlaps(StoredSweep(t=times, c=stored.c, d=stored.d, meta={}))
    cc, dd, cd = overlaps(plain)
    assert cd is None
    assert np.all(np.abs((cc - dd) - (rows_cc - rows_dd)) <= 2e-15 * (cc + dd))
    assert np.array_equal(cc, crossed.cc) and np.array_equal(dd, crossed.dd)
    assert np.array_equal(crossed.cd, rows_cd)
    for st in (plain.last, crossed.last):
        assert np.array_equal(st.c, stored.c[-1]) and np.array_equal(st.d, stored.d[-1])


# --- pieces on a thread pool -----------------------------------------------


def fig1_chunks(qg):
    # 400 samples: six full pieces and a partial one, more pieces than two CPUs' threads
    sc = builtin_scenario("fig1")
    w = coherent_amplitudes(sc.alpha, adaptive_nmax(sc.alpha))
    return sc.times_seconds()[::5], sc.params_for(qg), w, build_momentum_grid(sc.sigma0, 8)


@pytest.mark.parametrize("qg", [0.0, 1.5e7])
def test_sweep_is_the_same_on_any_number_of_threads(qg, monkeypatch):
    # both backends, reduced and stored, on 1, 2 and 64 CPUs: the stored amplitudes and
    # the reduced sweep's overlaps and last instant are the same bit for bit, and the
    # reduced overlaps are those of the stored sweep
    times, p, w, grid = fig1_chunks(qg)
    real_coeffs = analytic.branch_coeffs
    backends = (branch_states_analytic, ode.branch_states_ode_sweep)
    builders = (core.branch_sweep, storing_branch_sweep)
    sweeps = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # threads interleave as often as they can
    try:
        for cpus in (1, 2, 64):  # 64 is more threads than the seven pieces can use
            threads = set()

            def coeffs(*args):
                threads.add(threading.get_ident())
                return real_coeffs(*args)

            monkeypatch.setattr(analytic, "branch_coeffs", coeffs)
            monkeypatch.setattr(core, "_cpus", lambda: cpus)
            for builder in builders:
                monkeypatch.setattr(analytic, "branch_sweep", builder)
                monkeypatch.setattr(ode, "branch_sweep", builder)
                for backend in backends:
                    sweeps[backend, builder, cpus] = backend(times, p, w, grid)
            # one CPU runs the pieces in the calling thread, more run none there
            assert (threads == {threading.get_ident()}) == (cpus == 1)
    finally:
        sys.setswitchinterval(interval)
    for backend in backends:
        stored = sweeps[backend, storing_branch_sweep, 1]
        reference = overlaps(stored)
        for cpus in (1, 2, 64):
            other = sweeps[backend, storing_branch_sweep, cpus]
            assert np.array_equal(other.c, stored.c) and np.array_equal(other.d, stored.d)
            reduced = sweeps[backend, core.branch_sweep, cpus]
            assert all(np.array_equal(a, b) for a, b in zip(overlaps(reduced), reference))
            assert np.array_equal(reduced[-1].c, stored.c[-1])
            assert np.array_equal(reduced[-1].d, stored.d[-1])


@pytest.mark.parametrize("samples", [3 * PIECE_TIMES + 8, 1])
@pytest.mark.parametrize("cross", [True, False])
def test_closed_form_evaluates_each_piece_once(samples, cross, monkeypatch):
    # one E+ evaluation per piece of PIECE_TIMES samples gives the moduli of every row
    # and the complex rows the sweep reads: those of every row for <C|D>, else the last
    times, p, w, grid = fig1_chunks(1.5e7)
    real_closed = analytic.phase_integral_closed
    calls = []

    def closed(d0, qg, t):
        calls.append(t.size)
        return real_closed(d0, qg, t)

    monkeypatch.setattr(analytic, "phase_integral_closed", closed)
    branch_states_analytic(times[:samples], p, w, grid, cross)
    assert len(calls) == math.ceil(samples / PIECE_TIMES)


@pytest.mark.parametrize("cpus", [1, 2, 64])
def test_failing_chunk_reaches_the_caller_unchanged(cpus, monkeypatch):
    # pieces 2 and 4 fail; the first in piece order is the one raised, as without threads
    times, p, w, grid = fig1_chunks(1.5e7)
    real_closed = analytic.phase_integral_closed

    def closed(d0, qg, t):  # t holds a piece's times
        if t[0, 0, 0] == times[2 * PIECE_TIMES]:
            raise OverflowError("faddeeva leaves the double range at z=(1-27j)")
        if t[0, 0, 0] == times[4 * PIECE_TIMES]:
            raise ValueError("faddeeva requires a finite argument")
        return real_closed(d0, qg, t)

    monkeypatch.setattr(analytic, "phase_integral_closed", closed)
    monkeypatch.setattr(core, "_cpus", lambda: cpus)
    with pytest.raises(OverflowError) as info:
        branch_states_analytic(times, p, w, grid)
    assert str(info.value) == "faddeeva leaves the double range at z=(1-27j)"


def test_pieces_after_a_failure_are_cancelled(monkeypatch):
    # piece 0 fails at once while the two threads' next pieces take 50 ms each:
    # the pieces still queued when the caller sees the failure never start
    started = []

    def piece(i):
        started.append(i)
        if i == 0:
            raise MemoryError("Unable to allocate 668. GiB")
        time.sleep(0.05)
        yield from ()

    monkeypatch.setattr(core, "_cpus", lambda: 2)
    grid = build_momentum_grid(1.0, 1)
    pieces = [piece(i) for i in range(20)]
    with pytest.raises(MemoryError, match="Unable to allocate 668. GiB"):
        core.branch_sweep(np.arange(20.0), pieces, np.ones(2), grid, {})
    assert 0 in started and len(started) < 10  # all 20 without the cancel


def test_one_piece_starts_no_thread(monkeypatch):
    # an ode sweep and a single instant are one piece each: they run in the calling thread
    def no_pool(*args, **kwargs):
        raise AssertionError("a one-piece sweep built a thread pool")

    monkeypatch.setattr(core, "ThreadPoolExecutor", no_pool)
    monkeypatch.setattr(core, "_cpus", lambda: 64)
    times, p, w, grid = fig1_chunks(1.5e7)
    before = threading.active_count()
    branch_states_analytic(times[:PIECE_TIMES], p, w, grid)
    branch_states_analytic(times[:1], p, w, grid)
    ode.branch_states_ode_sweep(times[:20], p, w, grid)
    assert threading.active_count() == before
