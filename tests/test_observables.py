"""Tests for overlaps, entropy, Husimi Q, peak analysis, and cat fidelity."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import entr

from gravjcm import observables
from gravjcm.analytic import branch_states_analytic
from gravjcm.core import (
    BranchState,
    adaptive_nmax,
    branch_sweep,
    build_momentum_grid,
    coherent_amplitudes,
    paper_defaults,
)
from gravjcm.observables import (
    PEAK_REL_THRESHOLD,
    QGrid,
    QGridSpec,
    _significant_modes,
    cat_ansatz,
    cat_fidelity,
    entropy,
    inversion,
    overlaps,
    q_function,
    q_peak_analysis,
)
from gravjcm.ode import branch_states_ode_sweep
from gravjcm.scenario import builtin_scenario
from storing_sweep import StoredSweep, unweighted


def pure_states(c_rows, d_rows):
    """A sweep on one node of weight 1 whose sample i holds the branches c_rows[i], d_rows[i]."""
    c = np.asarray(c_rows, dtype=np.complex128)[:, None, :]
    return StoredSweep(t=np.arange(float(c.shape[0])), c=c,
                       d=np.asarray(d_rows, dtype=np.complex128)[:, None, :], meta={})


def pure_state(c_vec, d_vec):
    return pure_states([c_vec], [d_vec])[0]


def coherent_branch_states(alpha, nmax=100):
    """A one-sample single-node sweep of the coherent state on the excited branch."""
    c = np.zeros(nmax + 2, dtype=np.complex128)
    c[: nmax + 1] = coherent_amplitudes(alpha, nmax)
    return pure_states([c], [np.zeros_like(c)])


def coherent_branch_state(alpha, nmax=100):
    return coherent_branch_states(alpha, nmax)[0]


def triple(cc, dd, cd):
    return np.array(cc, dtype=float), np.array(dd, dtype=float), np.array(cd, dtype=np.complex128)


def test_overlaps_hand_built():
    c = [math.sqrt(0.5), 0.0, 0.0]
    d = [0.0, 0.5, 0.5]
    cc, dd, cd = overlaps(pure_states([c], [d]))
    assert cc[0] == pytest.approx(0.5, abs=1e-14)
    assert dd[0] == pytest.approx(0.5, abs=1e-14)
    assert cd[0] == pytest.approx(0.0, abs=1e-14)
    assert inversion(cc, dd)[0] == pytest.approx(0.0, abs=1e-14)


def test_overlaps_cross_term_pairs_shifted_levels():
    c = [1.0 / math.sqrt(2.0), 0.0]
    d = [1.0 / math.sqrt(2.0), 0.0]
    cd = overlaps(pure_states([c], [d]))[2]
    assert cd[0] == pytest.approx(0.5, abs=1e-14)


def test_overlaps_reduce_each_state_of_a_sweep(stored_sweeps):
    # one call over the sweep gives each instant's own reduction, the last row of its
    # one-sample sweep, bit for bit: the closed form's at that one time, where its cc
    # and dd are sums of moduli, and the time-ordered one's from the stored rows; the
    # per-sample per-node np.dot form on the unweighted amplitudes stays as a
    # reference within a few ulps
    p = paper_defaults(qg=1.5e7)
    field = coherent_amplitudes(2.0, adaptive_nmax(2.0))
    grid = build_momentum_grid(1.0, 4)
    times = np.linspace(0.0, 6e-6, 7)
    wk = grid.weights
    for sweep_of in (branch_states_ode_sweep, branch_states_analytic):
        sweep = sweep_of(times, p, field, grid)
        whole = overlaps(sweep)
        for i in range(times.size):
            one = (sweep_of(times[i : i + 1], p, field, grid) if sweep_of is branch_states_analytic
                   else StoredSweep(t=times[i : i + 1], c=sweep.c[i : i + 1],
                                    d=sweep.d[i : i + 1], meta={}))
            assert all(col[i] == own[-1] for col, own in zip(whole, overlaps(one)))
            c, d = unweighted(sweep.c[i], grid), unweighted(sweep.d[i], grid)
            hand = (np.dot(wk, np.sum(np.abs(c) ** 2, axis=1)),
                    np.dot(wk, np.sum(np.abs(d) ** 2, axis=1)),
                    np.dot(wk, np.sum(np.conj(c) * d, axis=1)))
            for col, ref in zip(whole, hand):
                assert abs(col[i] - ref) <= 4 * np.finfo(float).eps


def test_entropy_pure_branch_is_zero():
    # one instant's overlaps are scalars; entropy takes them as they come
    e = entropy(*(part[-1] for part in overlaps(coherent_branch_states(2.0, 40))))
    assert e.pi_plus == pytest.approx(1.0, abs=1e-12)
    assert e.s_f == pytest.approx(0.0, abs=1e-12)


def test_entropy_balanced_orthogonal_branches_is_ln2():
    c = [math.sqrt(0.5), 0.0, 0.0]
    d = [0.0, 0.0, math.sqrt(0.5)]
    e = entropy(*overlaps(pure_states([c], [d])))
    assert e.s_f[0] == pytest.approx(math.log(2.0), abs=1e-12)
    assert e.pi_plus[0] + e.pi_minus[0] == pytest.approx(1.0, abs=1e-14)


def random_pure_states(count, seed=51):
    """A sweep of count random unit-norm single-node states: 4 excited, 3 ground levels."""
    rng = np.random.default_rng(seed)
    v = np.array([rng.normal(size=7) + 1j * rng.normal(size=7) for _ in range(count)])
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return pure_states(v[:, :4], np.concatenate([np.zeros((count, 1)), v[:, 4:]], axis=1))


def test_entropy_matches_eigensolver_on_random_states():
    cc, dd, cd = overlaps(random_pure_states(50))
    e = entropy(cc, dd, cd)
    for i in range(50):
        # rebuild the 2x2 atomic reduced density matrix and diagonalize it
        rho = np.array([[cc[i], cd[i]], [np.conj(cd[i]), dd[i]]])
        lams = np.linalg.eigvalsh(rho)
        assert e.pi_minus[i] == pytest.approx(float(lams[0]), abs=1e-10)
        assert e.pi_plus[i] == pytest.approx(float(lams[1]), abs=1e-10)
        assert 0.0 <= e.s_f[i] <= math.log(2.0) + 1e-12


def test_entropy_matches_scalar_formula_bit_for_bit():
    # the per-sample loop the array form replaced, kept as its reference
    o_cc, o_dd, o_cd = overlaps(random_pure_states(200, seed=7))
    s_f = entropy(o_cc, o_dd, o_cd).s_f
    for i in range(200):
        total = float(o_cc[i] + o_dd[i])
        cc, dd = float(o_cc[i]) / total, float(o_dd[i]) / total
        disc = 1.0 - 4.0 * (cc * dd - abs(complex(o_cd[i])) ** 2 / total**2)
        root = math.sqrt(min(max(disc, 0.0), 1.0))
        s = 0.0
        for lam in (0.5 * (1.0 + root), 0.5 * (1.0 - root)):
            if lam > 0.0:
                s -= lam * math.log(lam)
        assert s_f[i] == s


def fig2_eigenvalues(qg):
    sc = builtin_scenario("fig2")
    w = coherent_amplitudes(sc.alpha, adaptive_nmax(sc.alpha))
    grid = build_momentum_grid(sc.sigma0, sc.n_nodes)
    e = entropy(*overlaps(branch_states_ode_sweep(sc.times_seconds(), sc.params_for(qg), w, grid)))
    return e.pi_plus, e.pi_minus


def test_entropy_terms_are_scipy_entr_bit_for_bit():
    # scipy.special.entr is the reference; the run computes its terms without scipy
    tiny = np.finfo(float).tiny
    edge = np.array([0.0, 1.0, 0.5, 5e-324, 1e-310, tiny, np.nextafter(tiny, 0.0),
                     np.nextafter(1.0, 0.0)])
    values = np.concatenate([edge, *fig2_eigenvalues(1.5e7), *fig2_eigenvalues(0.0)])
    assert np.array_equal(observables._entr(values).view(np.int64),
                          entr(values).view(np.int64))
    # a scalar stays a scalar, 1 gives -0.0 as entr does
    term = observables._entr(np.float64(1.0))
    assert np.ndim(term) == 0 and np.array_equal(np.float64(term).view(np.int64),
                                                 entr(1.0).view(np.int64))


def test_entropy_norm_gate():
    # one sample of four outside the 1e-3 window fails the sweep, naming it
    with pytest.raises(ValueError, match="sum to 0.875 at sample 2"):
        entropy(*triple([0.5, 0.5, 0.75, 0.5], [0.5, 0.5, 0.125, 0.5], [0, 0, 0, 0]))
    # small drift inside the window, on every sample, is renormalized away
    e = entropy(*triple([0.5004, 0.4996, 0.5009, 0.5], [0.5001, 0.4997, 0.4999, 0.4991],
                        [0, 0, 0, 0]))
    assert np.allclose(e.s_f, math.log(2.0), rtol=0.0, atol=1e-6)
    assert np.array_equal(e.pi_plus + e.pi_minus, np.ones(4))


def test_entropy_discriminant_gate():
    # |cd|^2 > cc*dd is impossible for a physical state
    with pytest.raises(ValueError, match="at sample 1"):
        entropy(*triple([0.5, 0.5, 0.5, 0.5], [0.5, 0.5, 0.5, 0.5], [0, 0.8, 0, 0]))


@pytest.mark.parametrize("field_name", ["cc", "dd", "cd"])
def test_entropy_rejects_nan_overlap(field_name):
    # NaN compares false with every bound, so each gate tests for its bound holding
    o = triple([0.5] * 4, [0.5] * 4, [0.0] * 4)
    o[["cc", "dd", "cd"].index(field_name)][3] = np.nan
    with pytest.raises(ValueError, match="nan.* at sample 3"):
        entropy(*o)


def test_q_function_pure_coherent_peak():
    st = coherent_branch_state(5.0)
    q = q_function(st, QGridSpec(-9, 9, -9, 9, 181, 181), 5.0)
    iy, ix = np.unravel_index(np.argmax(q.values), q.values.shape)
    assert q.x[ix] == pytest.approx(5.0, abs=0.11)
    assert q.y[iy] == pytest.approx(0.0, abs=0.11)
    assert float(q.values.max()) == pytest.approx(1.0 / math.pi, rel=1e-3)
    dx = q.x[1] - q.x[0]
    assert float(q.values.sum()) * dx * dx == pytest.approx(1.0, abs=0.02)


@settings(max_examples=15, deadline=None)
@given(alpha=st.floats(0.5, 2.0), n_nodes=st.integers(1, 4), qg=st.floats(0.0, 1e11),
       delta0=st.floats(-1e8, 1e8), lam_t=st.floats(0.0, 25.0))
def test_q_riemann_sum_matches_ode_norm(alpha, n_nodes, qg, delta0, lam_t):
    p = paper_defaults(qg=qg, delta0=delta0)
    field = coherent_amplitudes(alpha, adaptive_nmax(alpha))
    grid = build_momentum_grid(1.0, n_nodes)
    state = branch_states_ode_sweep(np.array([lam_t / p.lam]), p, field, grid).last
    e = alpha + 5.0
    q = q_function(state, QGridSpec(-e, e, -e, e, 61, 61), alpha)
    dx = q.x[1] - q.x[0]
    assert float(q.values.sum()) * dx * dx == pytest.approx(state.norm(), rel=0.02)


def test_q_function_window_must_cover_state():
    # each side of the window must reach |alpha| + 4, not just one per axis
    st = coherent_branch_state(5.0)
    for spec in (QGridSpec(-6, 6, -6, 6, 61, 61), QGridSpec(0, 9, -9, 9, 61, 61)):
        with pytest.raises(ValueError):
            q_function(st, spec, 5.0)


def test_q_function_boundary_leak_warned():
    # a flat Fock ladder spreads Q out to the window edge
    c = np.ones(82, dtype=np.complex128)
    c /= np.linalg.norm(c)
    st = pure_state(c, np.zeros_like(c))
    with pytest.warns(UserWarning):
        q_function(st, QGridSpec(-6, 6, -6, 6, 61, 61), 1.0)


@pytest.mark.parametrize("extent", [300.0, 1000.0])
def test_q_function_large_window_stays_finite(extent):
    # far out the Fock ladder underflows to zero instead of overflowing
    st = coherent_branch_state(5.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        q = q_function(st, QGridSpec(-extent, extent, -extent, extent, 61, 61), 5.0)
    assert np.all(np.isfinite(q.values))
    assert np.all(q.values >= 0.0)


def test_q_function_coherent_state_exact():
    # Q of a pure coherent state is exp(-|beta - alpha|^2) / pi; 97 rows is no
    # multiple of the chunk size, so the last chunk is a partial one
    alpha = 3.0 + 2.0j
    st = coherent_branch_state(alpha)
    q = q_function(st, QGridSpec(-8.0, 10.0, -8.0, 9.0, 181, 97), alpha)
    assert q.values.shape == (97, 181)
    beta = q.x[None, :] + 1j * q.y[:, None]
    exact = np.exp(-np.abs(beta - alpha) ** 2) / math.pi
    assert np.max(np.abs(q.values - exact)) <= 1e-12 / math.pi


def q_reference(c, d, weights, spec):
    """Per-node two-GEMV evaluation over the whole grid, kept as q_function's reference.

    c and d are the unweighted branch amplitudes per node; node k counts weights[k].
    """
    x = np.linspace(spec.xmin, spec.xmax, spec.nx)
    y = np.linspace(spec.ymin, spec.ymax, spec.ny)
    bx, by = np.meshgrid(x, y)
    beta = bx + 1j * by
    nfock = c.shape[-1]
    conj_pow = np.ones(beta.shape + (nfock,), dtype=np.complex128)
    inv_sqrt = 1.0 / np.sqrt(np.arange(1, nfock))
    for n in range(nfock - 1):
        conj_pow[..., n + 1] = conj_pow[..., n] * np.conj(beta) * inv_sqrt[n]
    vals = np.zeros(beta.shape)
    for k, wk in enumerate(weights):
        vals += wk * (np.abs(conj_pow @ c[k]) ** 2 + np.abs(conj_pow @ d[k]) ** 2)
    return vals * np.exp(-np.abs(beta) ** 2) / math.pi


def normalized_state(c, d, grid):
    """The instant whose branch amplitudes on grid are c and d normalized, and the grid."""
    norm = math.sqrt(float(np.dot(grid.weights, np.sum(np.abs(c) ** 2 + np.abs(d) ** 2, axis=1))))
    root_w = np.sqrt(grid.weights)[:, None]
    return BranchState(t=0.0, c=root_w * (c / norm), d=root_w * (d / norm)), grid


def mixed_state():
    # three nodes with both branches populated check the stacking and sqrt(w_k) weights
    rng = np.random.default_rng(11)
    nfock = 40
    envelope = np.exp(-np.arange(nfock) / 4.0)
    c, d = ((rng.normal(size=(3, nfock)) + 1j * rng.normal(size=(3, nfock))) * envelope
            for _ in range(2))
    d[:, 0] = 0.0
    return normalized_state(c, d, build_momentum_grid(1.0, 3))


def rank_three_state():
    # 32 nodes whose 64 branches are combinations of 3 fixed vectors: B B^H has rank 3
    rng = np.random.default_rng(12)
    nfock = 40
    basis = ((rng.normal(size=(3, nfock)) + 1j * rng.normal(size=(3, nfock)))
             * np.exp(-np.arange(nfock) / 4.0))
    c, d = ((rng.normal(size=(32, 3)) + 1j * rng.normal(size=(32, 3))) @ basis
            for _ in range(2))
    return normalized_state(c, d, build_momentum_grid(1.0, 32))


def fig3_sweep(qg=1.5e7):
    # fig3's instant on the closed form, and its grid: at qg = 1.5e7 3 of its 64 modes
    # exceed eps Tr G, the 4th at 1.05e-16 Tr G
    sc = builtin_scenario("fig3")
    w = coherent_amplitudes(sc.alpha, adaptive_nmax(sc.alpha))
    grid = build_momentum_grid(sc.sigma0, sc.n_nodes)
    return branch_states_analytic(sc.times_seconds(), sc.params_for(qg), w, grid), grid


def fig3_state():
    sweep, grid = fig3_sweep()
    return sweep.last, grid


STATE_CASES = {"mixed_3_nodes": (mixed_state, 1.0, QGridSpec(-9.0, 9.0, -8.0, 8.0, 73, 61)),
               "rank_3_of_64": (rank_three_state, 1.0, QGridSpec(-9.0, 9.0, -8.0, 8.0, 73, 61)),
               "fig3_qg1p5e7": (fig3_state, 5.0, QGridSpec(-9.0, 9.0, -9.0, 9.0, 73, 61))}


@pytest.mark.parametrize("case", STATE_CASES)
def test_q_function_matches_reference_on_mixed_state(case):
    make, alpha, spec = STATE_CASES[case]
    st, grid = make()
    q = q_function(st, spec, alpha)
    ref = q_reference(unweighted(st.c, grid), unweighted(st.d, grid), grid.weights, spec)
    assert np.max(np.abs(q.values - ref)) <= 1e-13 * float(ref.max())


@pytest.mark.parametrize("case, rank", [("mixed_3_nodes", 6), ("rank_3_of_64", 3),
                                        ("fig3_qg1p5e7", 3)])
def test_significant_modes_drop_only_rounding(case, rank):
    # a full-rank state keeps all 2K rows, the rank-3 one keeps 3, and the kept
    # rows carry the whole Frobenius norm up to 2K eps
    st, _ = STATE_CASES[case][0]()
    b = np.concatenate([st.c, st.d])
    modes = _significant_modes(b)
    assert modes.shape == (rank, b.shape[1])
    kept = float(np.sum(np.abs(modes) ** 2))
    assert kept >= (1.0 - b.shape[0] * np.finfo(float).eps) * float(np.sum(np.abs(b) ** 2))


def test_sweep_applies_the_weights_once():
    # a 3-node sweep of one hand-built run holds sqrt(w_k) w_n times each block, bit
    # for bit, and its overlaps are each sample's flattened rows summed; a run that
    # gives the blocks' squared moduli and its last row's amplitudes alone takes cc
    # and dd from the moduli, weighted by w_k |w_n|^2, and keeps the same last row
    rng = np.random.default_rng(5)
    grid = build_momentum_grid(1.0, 3)
    w, x, y = (rng.normal(size=shape) + 1j * rng.normal(size=shape)
               for shape in ((7,), (2, 3, 7), (2, 3, 7)))
    xx, yy = rng.uniform(size=(2, 2, 3, 7))
    sweep = branch_sweep(np.arange(2.0), [[(0, x, y, None, None)]], w, grid, {})
    moduli = branch_sweep(np.arange(2.0), [[(0, x[-1:], y[-1:], xx, yy)]], w, grid, {},
                          cross=False)
    c = np.zeros((2, 3, 8), dtype=np.complex128)
    d = np.zeros_like(c)
    c[..., :7] = np.sqrt(grid.weights)[:, None] * w * x
    d[..., 1:] = np.sqrt(grid.weights)[:, None] * w * y
    for st in (sweep.last, moduli.last):
        assert np.array_equal(st.c, c[-1]) and np.array_equal(st.d, d[-1])
    rows_c, rows_d = c.reshape(2, -1), d.reshape(2, -1)
    sums = (np.sum(np.abs(rows_c) ** 2, axis=1), np.sum(np.abs(rows_d) ** 2, axis=1),
            np.sum(np.conj(rows_c) * rows_d, axis=1))
    for part, ref in zip(overlaps(sweep), sums):
        assert np.all(np.abs(part - ref) <= 8 * np.finfo(float).eps * np.abs(ref).max())
    weight = (grid.weights[:, None] * np.abs(w) ** 2).ravel()
    assert np.array_equal(moduli.cc, np.vecdot(xx.reshape(2, -1), weight))
    assert np.array_equal(moduli.dd, np.vecdot(yy.reshape(2, -1), weight))
    assert moduli.cd is None


def weighted_per_node(c, d, weights, alpha, spec):
    """Norm, overlaps, Q and cat fidelity of the unweighted amplitudes c, d, node k
    counting weights[k] in each: the formulas the consumers applied before the sweep
    builder weighted the rows, kept as their reference."""
    norm = np.sum(np.abs(c) ** 2 + np.abs(d) ** 2, axis=-1) @ weights
    parts = (np.vecdot(c, c).real, np.vecdot(d, d).real, np.vecdot(c, d))
    psi = cat_ansatz(alpha, c.shape[-1])
    amp = (c @ np.conj(psi) - 1j * (d @ np.conj(psi))) / math.sqrt(2.0)
    return (norm, tuple(np.vecdot(weights, part) for part in parts),
            q_reference(c, d, weights, spec), float(np.dot(weights, np.abs(amp) ** 2)))


def test_consumers_match_the_per_node_weighted_formulas():
    # fig3's 32-node instant: each consumer reads the weighted rows as they are, and
    # agrees with the per-node formulas on the unweighted amplitudes
    sweep, grid = fig3_sweep()
    _, alpha, spec = STATE_CASES["fig3_qg1p5e7"]
    st = sweep.last
    norm, parts, q, fidelity = weighted_per_node(
        unweighted(st.c, grid), unweighted(st.d, grid), grid.weights, alpha, spec)
    assert abs(st.norm() - norm) <= 1e-14
    for part, ref in zip(overlaps(sweep), parts):
        assert abs(part[-1] - ref) <= 1e-14
    assert np.max(np.abs(q_function(st, spec, alpha).values - q)) <= 1e-14
    assert abs(cat_fidelity(st, alpha) - fidelity) <= 1e-14


def test_q_function_of_a_stack_matches_each_state_bit_for_bit():
    # one ladder for the three stacked instants gives each one's Q as its own call
    # does, on the benchmark's 401^2 window
    states = [fig3_sweep(qg)[0].last for qg in builtin_scenario("fig3").qg_list]
    spec = QGridSpec(-9.0, 9.0, -9.0, 9.0, 401, 401)
    stack = BranchState(t=states[0].t, c=np.stack([s.c for s in states]),
                        d=np.stack([s.d for s in states]))
    q = q_function(stack, spec, 5.0)
    assert q.values.shape == (3, 401, 401)
    for st, values in zip(states, q.values):
        one = q_function(st, spec, 5.0)
        assert one.values.shape == (401, 401)
        assert np.array_equal(one.values, values)
        assert np.array_equal(one.x, q.x) and np.array_equal(one.y, q.y)


def test_q_function_boundary_leak_in_one_state_of_a_stack_warned():
    # the flat ladder reaches the window edge, the coherent state alone does not
    flat = np.ones(82, dtype=np.complex128) / math.sqrt(82.0)
    coherent = coherent_branch_state(1.0, nmax=80)
    spec = QGridSpec(-6, 6, -6, 6, 61, 61)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        q_function(coherent, spec, 1.0)
    stack = BranchState(t=0.0, c=np.stack([coherent.c, flat[None, :]]),
                        d=np.zeros((2, 1, 82), dtype=np.complex128))
    with pytest.warns(UserWarning, match="window boundary"):
        q = q_function(stack, spec, 1.0)
    assert q.values.shape == (2, 61, 61)


def test_q_function_working_set_is_a_few_mb():
    # a 401^2 grid with 102 Fock levels; the whole-grid ladder alone is 262 MB
    st = coherent_branch_state(5.0)
    assert st.nfock == 102
    tracemalloc.start()
    try:
        q_function(st, QGridSpec(-9, 9, -9, 9, 401, 401), 5.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def synthetic_two_gaussian_grid(sep=6.0, ratio=1.0, width=0.8, n=161):
    x = np.linspace(-9, 9, n)
    y = np.linspace(-9, 9, n)
    xx, yy = np.meshgrid(x, y)
    g1 = np.exp(-(((xx - sep / 2) ** 2) + yy**2) / (2 * width**2))
    g2 = ratio * np.exp(-(((xx + sep / 2) ** 2) + yy**2) / (2 * width**2))
    return QGrid(x=x, y=y, values=g1 + g2)


def test_peak_analysis_two_gaussians():
    rep = q_peak_analysis(synthetic_two_gaussian_grid())
    assert rep.count == 2
    assert rep.bimodal
    assert rep.separation == pytest.approx(6.0, abs=0.05)
    assert rep.height_ratio == pytest.approx(1.0, abs=1e-6)
    assert rep.widths[0] == pytest.approx(0.8, abs=0.05)
    locs = sorted(rep.locations, key=lambda z: z.real)
    assert locs[0].real == pytest.approx(-3.0, abs=0.03)
    assert locs[1].real == pytest.approx(3.0, abs=0.03)


def test_peak_analysis_single_gaussian():
    rep = q_peak_analysis(synthetic_two_gaussian_grid(sep=0.0))
    assert rep.count == 1
    assert not rep.bimodal


def test_peak_analysis_threshold_drops_minor_peak():
    rep = q_peak_analysis(synthetic_two_gaussian_grid(ratio=0.03))
    assert rep.count == 1
    assert not rep.bimodal


def test_peak_analysis_unbalanced_not_bimodal():
    rep = q_peak_analysis(synthetic_two_gaussian_grid(ratio=0.3))
    assert rep.count == 2
    assert not rep.bimodal


def test_peak_mask_matches_neighbour_by_neighbour_reference(monkeypatch):
    # grids of small integers are full of ties and plateaus; a peak is an interior
    # point above the cut that strictly exceeds each of its eight neighbours
    monkeypatch.setattr(observables, "_refine_peak",
                        lambda q, iy, ix: (complex(ix, iy), float(q.values[iy, ix]), 1.0))
    rng = np.random.default_rng(43)
    for _ in range(50):
        v = rng.integers(0, 5, size=(9, 12)).astype(float)
        v[1:4, 1:4] = -1.0
        v[2, 2] = 0.1  # a strict local maximum below the cut
        expect = {complex(ix, iy) for iy in range(1, 8) for ix in range(1, 11)
                  if v[iy, ix] > PEAK_REL_THRESHOLD * v.max()
                  and all(v[iy, ix] > v[iy + sy, ix + sx]
                          for sy in (-1, 0, 1) for sx in (-1, 0, 1) if sy or sx)}
        rep = q_peak_analysis(QGrid(x=np.arange(12.0), y=np.arange(9.0), values=v))
        assert set(rep.locations) == expect and rep.count == len(expect)


def sliding_window_peak_mask(v):
    """Peak mask as a count of strictly lower cells in each 3x3 window, kept as the reference."""
    win = np.lib.stride_tricks.sliding_window_view(v, (3, 3))  # win[i, j] centred on v[i+1, j+1]
    centre = win[..., 1:2, 1:2]
    cut = PEAK_REL_THRESHOLD * float(v.max())
    return (np.count_nonzero(win < centre, axis=(-2, -1)) == 8) & (centre[..., 0, 0] > cut)


def test_peak_mask_matches_sliding_window_reference(monkeypatch):
    # plateaus, ties, NaN and infinities, on square and non-square grids
    monkeypatch.setattr(observables, "_refine_peak",
                        lambda q, iy, ix: (complex(ix, iy), float(q.values[iy, ix]), 1.0))
    rng = np.random.default_rng(47)
    grids = [rng.integers(0, k, size=shape).astype(float)
             for k in (2, 3, 6) for shape in ((3, 3), (5, 9), (17, 11)) for _ in range(10)]
    grids += [np.exp(-np.abs(np.linspace(-3, 3, 41)[None, :] + 1j * np.linspace(-2, 4, 37)[:, None]
                             - c) ** 2) for c in (0.0, 1 + 1j, 3.0)]
    for bad in (np.nan, np.inf, -np.inf):
        for v in grids[:30:3]:
            w = v.copy()
            w[rng.integers(0, w.shape[0]), rng.integers(0, w.shape[1])] = bad
            grids.append(w)
    found = 0
    for v in grids:
        iys, ixs = np.nonzero(sliding_window_peak_mask(v))
        rep = q_peak_analysis(QGrid(x=np.arange(v.shape[1] * 1.0), y=np.arange(v.shape[0] * 1.0),
                                    values=v))
        assert set(rep.locations) == {complex(ix + 1, iy + 1) for iy, ix in zip(iys, ixs)}
        found += rep.count
    assert found > 50  # the grids do hold peaks


def test_peak_analysis_overlapping_blobs_not_bimodal():
    # separation below twice the width: no cat call even with two maxima
    rep = q_peak_analysis(synthetic_two_gaussian_grid(sep=2.2, width=1.0))
    if rep.count == 2:
        assert not rep.bimodal


def test_cat_fidelity_self_is_one():
    nfock = 102
    psi = np.arange(nfock) * coherent_amplitudes(5.0, nfock - 1)
    psi /= np.linalg.norm(psi)
    st = pure_state(psi / math.sqrt(2.0), 1j * psi / math.sqrt(2.0))
    assert cat_fidelity(st, 5.0) == pytest.approx(1.0, abs=1e-12)


def test_cat_fidelity_orthogonal_atom_is_zero():
    nfock = 102
    psi = np.arange(nfock) * coherent_amplitudes(5.0, nfock - 1)
    psi /= np.linalg.norm(psi)
    # (|e> - i|g>) atomic part is orthogonal to the ansatz (|e> + i|g>)
    st = pure_state(psi / math.sqrt(2.0), -1j * psi / math.sqrt(2.0))
    assert cat_fidelity(st, 5.0) == pytest.approx(0.0, abs=1e-12)
