"""Tests for the time-ordered integration backend.

Oracles: the detuned Rabi closed form at zero gravity, an in-test
piecewise-constant 2x2 eigen-propagator for the chirped case, and the DOP853
integrator ``_integrate`` on the block equations as written, which the
Magnus propagator must match at tight tolerance.  The Rabi formula checks
both the Magnus propagator and ``_integrate`` itself.  Single blocks are read
off a one-node branch state: c_e = C_n / w_n and c_g = D_{n+1} / w_n.  On a
grid of K > 1 nodes the rows are first divided by sqrt(w_k) (``unweighted``).
A sweep keeps only its last instant's rows, so the tests that read every
sample's take the ``stored_sweeps`` fixture.
"""

import math
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gravjcm import core, ode
from gravjcm.analytic import CHUNK_TIMES, branch_states_analytic
from gravjcm.core import (
    MomentumGrid,
    adaptive_nmax,
    build_momentum_grid,
    coherent_amplitudes,
    detuning0_of_p,
    paper_defaults,
)
from gravjcm.observables import overlaps
from gravjcm.ode import IntegrationError, branch_states_ode_sweep
from gravjcm.scenario import builtin_scenario
from storing_sweep import store_sweeps, unweighted

FIELD = coherent_amplitudes(5.0, 100)


def state_at(t, params, field, grid):
    """Branch state at one time: a one-sample sweep."""
    return branch_states_ode_sweep(np.array([t]), params, field, grid)[0]


def node_grid(p):
    return MomentumGrid(nodes=np.array([p]), weights=np.array([1.0]))


def evolve(n, p, t, params):
    """(c_e, c_g) of block n at momentum node p, from c_e = 1, c_g = 0."""
    st = state_at(t, params, FIELD, node_grid(p))
    w = FIELD[n]
    return complex(st.c[0, n] / w), complex(st.d[0, n + 1] / w)


def rabi_excited_population(n, p, t, params):
    """|c_e|^2 for a static detuning (qg = 0), from the 2x2 diagonalization."""
    om = params.lam * math.sqrt(n + 1.0)
    d0 = detuning0_of_p(p, params)
    omr = math.sqrt(om * om + d0 * d0 / 4.0)
    return 1.0 - (om * om / (omr * omr)) * math.sin(omr * t) ** 2


def stepped_propagator(n, p, t, params, steps=20000):
    """Midpoint piecewise-constant propagator in the rotating frame.

    H(t) = [[0, Omega], [Omega, -(d0 - qg t)]] on (c_e, d_g); each slice is
    advanced with the exact 2x2 unitary of the frozen midpoint Hamiltonian.
    """
    om = params.lam * math.sqrt(n + 1.0)
    d0 = detuning0_of_p(p, params)
    y = np.array([1.0 + 0.0j, 0.0 + 0.0j])
    h = t / steps
    for k in range(steps):
        tm = (k + 0.5) * h
        chirped = d0 - params.qg * tm
        # H = c I + v.sigma with c = -chirped/2
        c = -chirped / 2.0
        vz = chirped / 2.0
        vnorm = math.sqrt(om * om + vz * vz)
        if vnorm == 0.0:
            u = np.exp(-1j * c * h) * np.eye(2)
        else:
            cs = math.cos(vnorm * h)
            sn = math.sin(vnorm * h) / vnorm
            u = np.exp(-1j * c * h) * np.array(
                [[cs - 1j * sn * vz, -1j * sn * om],
                 [-1j * sn * om, cs + 1j * sn * vz]]
            )
        y = u @ y
    phi = d0 * t - 0.5 * params.qg * t * t
    return y[0], y[1] * np.exp(-1j * phi)


def test_block_matches_detuned_rabi_formula():
    # the Magnus propagator and the DOP853 oracle each against the formula; one
    # oracle pass integrates the K x N blocks (p_k, n_k) and block k is read off
    # at its own time
    p = paper_defaults(qg=0.0)
    rng = np.random.default_rng(41)
    cases = [(int(rng.integers(0, 40)), rng.uniform(-3, 3), rng.uniform(1e-7, 1e-5))
             for _ in range(12)]
    ns, pps, ts = (np.array(v) for v in zip(*cases))
    omega = p.lam * np.sqrt(ns + 1.0)
    oracle = ode._integrate(detuning0_of_p(pps, p), omega, p.qg, np.sort(ts))
    rank = np.argsort(np.argsort(ts))
    for k, (n, pp, t) in enumerate(cases):
        for ce, cg in (evolve(n, pp, t, p), oracle[rank[k], :, k, k]):
            assert abs(ce) ** 2 == pytest.approx(
                rabi_excited_population(n, pp, t, p), abs=1e-9
            )
            assert abs(ce) ** 2 + abs(cg) ** 2 == pytest.approx(1.0, abs=1e-9)


def test_block_matches_stepped_propagator_with_gravity():
    p = paper_defaults(qg=1.5e7)
    for n, pp, t in ((0, 0.0, 5e-6), (8, 1.2, 3e-6), (24, -0.7, 7e-6)):
        ce, cg = evolve(n, pp, t, p)
        ce_ref, cg_ref = stepped_propagator(n, pp, t, p)
        assert abs(ce - ce_ref) < 1e-6
        assert abs(cg - cg_ref) < 1e-6


def test_argument_validation():
    p = paper_defaults()
    grid = node_grid(0.0)
    with pytest.raises(ValueError):
        state_at(-1e-6, p, FIELD, grid)


def test_zero_time_is_identity():
    # every block stays at c_e = 1, c_g = 0, so C = w and D = 0 exactly
    p = paper_defaults(qg=0.5e7)
    st = state_at(0.0, p, FIELD, node_grid(0.5))
    assert np.array_equal(st.c[0, :101], FIELD)
    assert not np.any(st.d)
    # a subnormal step must not turn sin(r) / r into nan
    st = state_at(1e-314, p, FIELD, node_grid(0.5))
    assert float(np.max(np.abs(st.c[0, :101] - FIELD))) < 1e-300
    assert float(np.max(np.abs(st.d))) < 1e-300


@pytest.fixture(scope="module")
def sweep_setup():
    field = coherent_amplitudes(5.0, 100)
    grid = build_momentum_grid(1.0, 8)
    return field, grid


def test_sweep_initial_state_and_norm(sweep_setup, stored_sweeps):
    field, grid = sweep_setup
    p = paper_defaults(qg=1.5e7)
    times = np.linspace(0.0, 1e-5, 6)
    sweep = branch_states_ode_sweep(times, p, field, grid)
    assert sweep.c.shape == sweep.d.shape == (6, grid.nodes.size, 102)
    # the t = 0 sample is the initial state exactly, sqrt(w_k) w_n on every node
    assert np.array_equal(sweep.c[0, :, :101], np.sqrt(grid.weights)[:, None] * field)
    assert not np.any(sweep.d[0])
    assert np.all(np.abs(sweep.norm() - 1.0) <= 1e-8)
    assert sweep.meta["backend"] == "ode"
    assert sweep.meta["method"] == "magnus4"
    assert sweep.meta["tol"] == 1e-10
    assert sweep.meta["steps"] == 5 * sweep.meta["substeps"] >= 5
    assert 0.0 <= sweep.meta["error_estimate"] <= 1e-10


# the fixture's patch is the same for every example
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(alpha=st.floats(0.1, 2.0), n_nodes=st.integers(1, 4), qg=st.floats(0.0, 1e11),
       delta0=st.floats(-1e8, 1e8), lam_t=st.floats(0.1, 25.0))
def test_sweep_block_norm_property(stored_sweeps, alpha, n_nodes, qg, delta0, lam_t):
    # each 2x2 block is unitary: |C_n|^2 + |D_{n+1}|^2 stays |w_n|^2 per node
    p = paper_defaults(qg=qg, delta0=delta0)
    field = coherent_amplitudes(alpha, adaptive_nmax(alpha))
    grid = build_momentum_grid(1.0, n_nodes)
    nb = field.size
    for state in branch_states_ode_sweep(np.linspace(0.0, lam_t / p.lam, 3), p, field, grid):
        c, d = unweighted(state.c, grid), unweighted(state.d, grid)
        blocks = np.abs(c[:, :nb]) ** 2 + np.abs(d[:, 1 : nb + 1]) ** 2
        assert float(np.max(np.abs(blocks - field**2))) <= 1e-12


# both backends hand their blocks to the one sweep builder, core.branch_sweep
SWEEPS = {"ode": branch_states_ode_sweep, "analytic": branch_states_analytic}


@pytest.mark.parametrize("backend", sorted(SWEEPS))
def test_sweep_consistent_with_single_shot(sweep_setup, backend, stored_sweeps):
    # 2 R + 3 samples end mid-chunk of the analytic backend, whose rows do not
    # depend on the chunking at all, on the elementary (qg = 0) and closed forms
    field, grid = sweep_setup
    sweep_of = SWEEPS[backend]
    times = np.linspace(2e-6, 6e-6, 2 * CHUNK_TIMES + 3)
    for qg in (0.0, 0.5e7):
        p = paper_defaults(qg=qg)
        for t, st in zip(times, sweep_of(times, p, field, grid)):
            single = sweep_of(np.array([t]), p, field, grid)[0]
            if backend == "analytic":
                assert np.array_equal(st.c, single.c) and np.array_equal(st.d, single.d)
            else:
                assert float(np.max(np.abs(unweighted(st.c - single.c, grid)))) < 1e-8
                assert float(np.max(np.abs(unweighted(st.d - single.d, grid)))) < 1e-8


@pytest.mark.parametrize("backend", sorted(SWEEPS))
def test_sweep_keeps_its_last_instant(sweep_setup, backend, monkeypatch):
    field, grid = sweep_setup
    times = np.linspace(0.0, 3e-6, 5)
    p = paper_defaults(qg=1.5e7)
    # the sweep holds each sample's node-summed overlaps and the last instant's rows
    sweep = SWEEPS[backend](times, p, field, grid)
    assert [f.name for f in fields(sweep)] == ["t", "cc", "dd", "cd", "last", "meta"]
    assert np.array_equal(sweep.t, times)
    for part in (sweep.cc, sweep.dd, sweep.cd):
        assert part.shape == times.shape
    last = sweep.last
    assert [f.name for f in fields(last)] == ["t", "c", "d"]
    assert last.c.shape == last.d.shape == (grid.nodes.size, field.size + 1)
    assert sweep[-1] is sweep[times.size - 1] is last
    assert list(sweep) == [last]
    assert last.t == times[-1]
    # the sweep carries its backend's meta; the instant holds rows alone
    assert sweep.meta["backend"] == backend
    assert not hasattr(last, "__getitem__")
    for i in (0, 3, times.size, -2):
        with pytest.raises(IndexError):
            sweep[i]
    # its last instant is the stored sweep's, bit for bit
    store_sweeps(monkeypatch)
    stored = SWEEPS[backend](times, p, field, grid)[-1]
    assert np.array_equal(last.c, stored.c) and np.array_equal(last.d, stored.d)


@pytest.mark.parametrize("backend", sorted(SWEEPS))
def test_fig1_sweep_keeps_no_amplitude_block(backend, monkeypatch):
    # every amplitude of a fig1 sweep (2000 samples, 32 nodes, 69 levels) would take
    # 2 x 2000 x 32 x 70 x 16 bytes = 143 MB; reduced as it is produced, the sweep
    # and its overlaps take a few MB, also with the closed form's chunks on two threads
    monkeypatch.setattr(core, "_cpus", lambda: 2)
    sc = builtin_scenario("fig1")
    w = coherent_amplitudes(sc.alpha, adaptive_nmax(sc.alpha))
    grid = build_momentum_grid(sc.sigma0, sc.n_nodes)
    times = sc.times_seconds()
    assert (times.size, grid.nodes.size, w.size) == (2000, 32, 69)
    tracemalloc.start()
    try:
        cc, _, _ = overlaps(SWEEPS[backend](times, sc.params_for(1.5e7), w, grid))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cc.shape == times.shape
    assert peak < 10 * 2**20


@pytest.mark.parametrize("backend", sorted(SWEEPS))
def test_sweep_time_grid_validation(sweep_setup, backend):
    field, grid = sweep_setup
    sweep_of = SWEEPS[backend]
    p = paper_defaults()
    with pytest.raises(ValueError):
        sweep_of(np.array([1e-6, 1e-6]), p, field, grid)
    with pytest.raises(ValueError):
        sweep_of(np.array([-1e-6, 1e-6]), p, field, grid)
    with pytest.raises(ValueError):
        sweep_of(np.array([]), p, field, grid)
    with pytest.raises(ValueError):
        sweep_of(np.array([[1e-6]]), p, field, grid)


def test_ground_branch_alignment(sweep_setup):
    # D lives one Fock level above its block: D[k, 0] must stay empty
    field, grid = sweep_setup
    p = paper_defaults(qg=0.0, delta0=0.0)
    st = state_at(2e-6, p, field, grid)
    assert float(np.max(np.abs(st.d[:, 0]))) == 0.0
    assert st.nfock == field.size + 1


# Oracle cases: a fig1-style sweep without and with the published gravity, a
# chirp whose detuning delta0(p) - qg t changes sign inside the sweep, and the
# strongly chirped resonant case of criterion 7 as a single instant.  A unit
# "field" (w_n = 1) makes C and D / sqrt(w_k) the block amplitudes themselves.
ORACLE_CASES = {
    "qg0": (dict(qg=0.0), np.linspace(0.0, 5.0, 401), 4),
    "qg1.5e7": (dict(qg=1.5e7), np.linspace(0.0, 5.0, 401), 4),
    "chirp_through_resonance": (dict(qg=1e12, delta0=2e6), np.linspace(0.0, 10.0, 101), 4),
    "resonant_qg3e13_instant": (dict(qg=3e13, delta0=0.0), np.array([5.0 * math.pi]), 1),
}
ORACLE_NMAX = 40


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_magnus_matches_dop853_oracle(case, monkeypatch, stored_sweeps):
    monkeypatch.setattr(ode, "TOL", 1e-12)
    overrides, lam_t, n_nodes = ORACLE_CASES[case]
    p = paper_defaults(**overrides)
    grid = build_momentum_grid(1.0, n_nodes)
    unit = np.ones(ORACLE_NMAX + 1, dtype=complex)
    times = lam_t / p.lam
    sweep = branch_states_ode_sweep(times, p, unit, grid)
    ce = unweighted(sweep.c, grid)[..., :-1]
    cg = unweighted(sweep.d, grid)[..., 1:]
    omega = p.lam * np.sqrt(np.arange(ORACLE_NMAX + 1) + 1.0)
    d0 = detuning0_of_p(grid.nodes, p)
    res = ode._integrate(d0, omega, p.qg, times)
    if case == "chirp_through_resonance":
        assert np.all(d0 > 0) and np.all(d0 - p.qg * times[-1] < 0)
    assert float(np.max(np.abs(ce - res[:, 0]))) <= 1e-8
    assert float(np.max(np.abs(cg - res[:, 1]))) <= 1e-8
    # every block stays on the unit sphere
    assert float(np.max(np.abs(np.abs(ce) ** 2 + np.abs(cg) ** 2 - 1.0))) <= 1e-12


def test_tighter_tol_never_fewer_substeps(monkeypatch):
    for overrides, lam_t in ((dict(qg=1.5e7), np.linspace(0.0, 5.0, 401)),
                             (dict(qg=1e12, delta0=2e6), np.linspace(0.0, 10.0, 101))):
        p = paper_defaults(**overrides)
        grid = build_momentum_grid(1.0, 4)
        substeps = []
        for tol in (1e-6, 1e-8, 1e-10, 1e-12):
            monkeypatch.setattr(ode, "TOL", tol)
            sweep = branch_states_ode_sweep(lam_t / p.lam, p, FIELD, grid)
            assert sweep.meta["tol"] == tol
            substeps.append(sweep.meta["substeps"])
        assert substeps == sorted(substeps)
        assert substeps[-1] > 1


def test_substep_cap_raises(monkeypatch):
    # the resonant 3e13 instant needs 2^17 substeps at tol 1e-12
    monkeypatch.setattr(ode, "MAX_SUBSTEPS", 2**10)
    monkeypatch.setattr(ode, "TOL", 1e-12)
    p = paper_defaults(qg=3e13, delta0=0.0)
    with pytest.raises(IntegrationError, match="substeps"):
        state_at(5.0 * math.pi / p.lam, p, FIELD, node_grid(0.0))


# Sweeps whose substeps the windowed estimate chooses or could lower: the
# published sweep at two gravities (32 nodes, 2000 samples, coherent field),
# a chirp whose detuning crosses zero mid-way through lam*t in [0, 17], and a
# resonant chirped sweep.  A unit field checks the block amplitudes themselves.
SCHEDULE_CASES = {
    "qg1.5e7": (dict(qg=1.5e7), np.linspace(0.0, 25.0, 2000), 32, "coherent"),
    "qg5e6": (dict(qg=5e6), np.linspace(0.0, 25.0, 2000), 32, "coherent"),
    "crosses_resonance": (dict(qg=1e13), np.linspace(0.0, 17.0, 18), 8, "unit"),
    "resonant_qg1e11": (dict(qg=1e11, delta0=0.0), np.linspace(0.0, 25.0, 26), 8, "unit"),
}


@pytest.mark.parametrize("case", sorted(SCHEDULE_CASES))
def test_chosen_substeps_meet_tol(case, monkeypatch, stored_sweeps):
    # the chosen schedule against the same schedule at 4x substeps
    overrides, lam_t, n_nodes, field_kind = SCHEDULE_CASES[case]
    p = paper_defaults(**overrides)
    grid = build_momentum_grid(1.0, n_nodes)
    nmax = adaptive_nmax(5.0)
    field = (coherent_amplitudes(5.0, nmax) if field_kind == "coherent"
             else np.ones(nmax + 1, dtype=complex))
    times = lam_t / p.lam
    if case == "crosses_resonance":
        d0 = detuning0_of_p(grid.nodes, p)
        assert np.all(d0 - p.qg * times[8] > 0) and np.all(d0 - p.qg * times[9] < 0)
    sweep = branch_states_ode_sweep(times, p, field, grid)
    chosen = ode._substeps
    monkeypatch.setattr(ode, "_substeps", lambda *args: (4 * chosen(*args)[0], 0.0))
    finer = branch_states_ode_sweep(times, p, field, grid)
    assert finer.meta["steps"] == 4 * sweep.meta["steps"]
    assert float(np.max(np.abs(unweighted(sweep.c - finer.c, grid)))) <= ode.TOL
    assert float(np.max(np.abs(unweighted(sweep.d - finer.d, grid)))) <= ode.TOL


def composed_propagator(h, t0, count, d0, omega, qg):
    """(u, v) of ``count`` Magnus steps of h from t0, each composed onto the last.

    The step-doubling estimate compared propagators composed this way before
    it advanced states; kept as the reference for ``ode._advance``.
    """
    u, v = ode._magnus_step(h, t0 + 0.5 * h, d0, omega, qg)
    for j in range(1, count):
        un, vn = ode._magnus_step(h, t0 + (j + 0.5) * h, d0, omega, qg)
        u, v = un * u - vn * np.conj(v), un * v + vn * np.conj(u)
    return u, v


# the unchirped published sweep, the strongest published chirp, and the chirp
# through resonance
DOUBLING_CASES = {"qg0": (dict(qg=0.0), np.linspace(0.0, 25.0, 2000), 32, "coherent"),
                  **{c: SCHEDULE_CASES[c] for c in ("qg1.5e7", "crosses_resonance")}}


@pytest.mark.parametrize("n", [1, ode.WINDOW])
@pytest.mark.parametrize("case", sorted(DOUBLING_CASES))
def test_doubling_error_matches_composed_propagators(case, n):
    # advancing the state (1, 0) gives the composed propagator's first column,
    # (u, -conj(v)), and the same error estimate, bit for bit, at the chosen step
    overrides, lam_t, n_nodes, _ = DOUBLING_CASES[case]
    p = paper_defaults(**overrides)
    times = lam_t / p.lam
    d0 = detuning0_of_p(build_momentum_grid(1.0, n_nodes).nodes, p)
    omega = p.lam * np.sqrt(np.arange(FIELD.size) + 1.0)

    def step(h, t_mid):
        return ode._magnus_step(h, t_mid, d0, omega, p.qg)

    h = float(np.diff(times).max()) / ode._substeps(times, step)[0].max()
    starts = [0.0, float(times[-1]) - n * h]
    if case == "crosses_resonance":  # centred on node 0's resonance, d0 = qg t
        starts.append(float(d0[0]) / p.qg - 0.5 * n * h)
    for t0 in starts:
        u, v = composed_propagator(h, t0, n, d0, omega, p.qg)
        a, b = ode._advance(1.0, 0.0, h, t0, n, step)
        assert np.array_equal(a, u) and np.array_equal(b, -np.conj(v))
        uc, vc = composed_propagator(0.5 * h, t0, 2 * n, d0, omega, p.qg)
        composed = float(max(np.max(np.abs(u - uc)), np.max(np.abs(v - vc))))
        assert ode._doubling_error(h, t0, step, n) == composed


def test_zero_gravity_computes_one_step_per_length(monkeypatch, stored_sweeps):
    # at qg = 0 the sweep's steps depend on h alone; the doubling probes aside,
    # each distinct step length is computed once and the Rabi formula holds
    p = paper_defaults(qg=0.0)
    times = np.linspace(0.0, 25.0, 2000) / p.lam
    lengths = []
    probing = []
    step, doubling = ode._magnus_step, ode._doubling_error

    def counted_step(h, *args):
        if not probing:
            lengths.append(h)
        return step(h, *args)

    def probe(*args):
        probing.append(True)
        try:
            return doubling(*args)
        finally:
            probing.pop()

    monkeypatch.setattr(ode, "_magnus_step", counted_step)
    monkeypatch.setattr(ode, "_doubling_error", probe)
    pp = 0.7
    sweep = branch_states_ode_sweep(times, p, FIELD, node_grid(pp))
    assert sweep.meta["steps"] == times.size - 1
    assert len(lengths) == len(set(lengths)) <= np.unique(np.diff(times)).size
    for n in (0, 7, 30):
        pop = np.abs(sweep.c[:, 0, n] / FIELD[n]) ** 2
        ref = [rabi_excited_population(n, pp, t, p) for t in times]
        assert float(np.max(np.abs(pop - ref))) <= 1e-9
