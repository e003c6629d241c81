"""Tests for overlaps, entropy, Husimi Q, peak analysis, and cat fidelity."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gravjcm.core import (
    BranchState,
    MomentumGrid,
    adaptive_nmax,
    build_momentum_grid,
    coherent_amplitudes,
    paper_defaults,
)
from gravjcm.observables import (
    OverlapTriple,
    QGrid,
    QGridSpec,
    cat_fidelity,
    entropy,
    inversion,
    overlaps,
    q_function,
    q_peak_analysis,
)
from gravjcm.ode import branch_states_ode_sweep

SINGLE_NODE = MomentumGrid(nodes=np.zeros(1), weights=np.ones(1))


def pure_state(c_vec, d_vec):
    return BranchState(
        t=0.0,
        c=np.asarray(c_vec, dtype=np.complex128)[None, :],
        d=np.asarray(d_vec, dtype=np.complex128)[None, :],
        grid=SINGLE_NODE,
    )


def coherent_branch_state(alpha, nmax=100):
    w = coherent_amplitudes(alpha, nmax).w
    c = np.zeros(nmax + 2, dtype=np.complex128)
    c[: nmax + 1] = w
    return pure_state(c, np.zeros_like(c))


def test_overlaps_hand_built():
    c = [math.sqrt(0.5), 0.0, 0.0]
    d = [0.0, 0.5, 0.5]
    st = pure_state(c, d)
    o = overlaps(st)
    assert o.cc == pytest.approx(0.5, abs=1e-14)
    assert o.dd == pytest.approx(0.5, abs=1e-14)
    assert o.cd == pytest.approx(0.0, abs=1e-14)
    assert inversion(o) == pytest.approx(0.0, abs=1e-14)


def test_overlaps_cross_term_pairs_shifted_levels():
    c = [1.0 / math.sqrt(2.0), 0.0]
    d = [1.0 / math.sqrt(2.0), 0.0]
    o = overlaps(pure_state(c, d))
    assert o.cd == pytest.approx(0.5, abs=1e-14)


def test_entropy_pure_branch_is_zero():
    st = coherent_branch_state(2.0, 40)
    e = entropy(overlaps(st))
    assert e.pi_plus == pytest.approx(1.0, abs=1e-12)
    assert e.s_f == pytest.approx(0.0, abs=1e-12)


def test_entropy_balanced_orthogonal_branches_is_ln2():
    c = [math.sqrt(0.5), 0.0, 0.0]
    d = [0.0, 0.0, math.sqrt(0.5)]
    e = entropy(overlaps(pure_state(c, d)))
    assert e.s_f == pytest.approx(math.log(2.0), abs=1e-12)
    assert e.pi_plus + e.pi_minus == pytest.approx(1.0, abs=1e-14)


def test_entropy_matches_eigensolver_on_random_states():
    rng = np.random.default_rng(51)
    for _ in range(50):
        v = rng.normal(size=7) + 1j * rng.normal(size=7)
        v /= np.linalg.norm(v)
        o = overlaps(pure_state(v[:4], np.concatenate([[0.0], v[4:7]])))
        # rebuild the 2x2 atomic reduced density matrix and diagonalize it
        rho = np.array([[o.cc, o.cd], [np.conj(o.cd), o.dd]])
        lams = np.linalg.eigvalsh(rho)
        e = entropy(o)
        assert e.pi_minus == pytest.approx(float(lams[0]), abs=1e-10)
        assert e.pi_plus == pytest.approx(float(lams[1]), abs=1e-10)
        assert 0.0 <= e.s_f <= math.log(2.0) + 1e-12


def test_entropy_norm_gate():
    with pytest.raises(ValueError):
        entropy(OverlapTriple(cc=0.7, dd=0.2, cd=0.0))
    # small drift inside the 1e-3 window is renormalized away
    e = entropy(OverlapTriple(cc=0.5004, dd=0.5001, cd=0.0))
    assert e.s_f == pytest.approx(math.log(2.0), abs=1e-6)


def test_entropy_discriminant_gate():
    with pytest.raises(ValueError):
        # |cd|^2 > cc*dd is impossible for a physical state
        entropy(OverlapTriple(cc=0.5, dd=0.5, cd=0.8))


def test_q_function_pure_coherent_peak():
    params = paper_defaults()
    st = coherent_branch_state(5.0)
    q = q_function(st, QGridSpec(-9, 9, -9, 9, 181, 181), params)
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
    p = paper_defaults(qg=qg, delta0=delta0, alpha=alpha)
    field = coherent_amplitudes(alpha, adaptive_nmax(alpha))
    grid = build_momentum_grid(1.0, n_nodes)
    state = branch_states_ode_sweep(np.array([lam_t / p.lam]), p, field, grid)[0]
    e = alpha + 5.0
    q = q_function(state, QGridSpec(-e, e, -e, e, 61, 61), p)
    dx = q.x[1] - q.x[0]
    assert float(q.values.sum()) * dx * dx == pytest.approx(state.norm(), rel=0.02)


def test_q_function_window_must_cover_state():
    params = paper_defaults()
    st = coherent_branch_state(5.0)
    with pytest.raises(ValueError):
        q_function(st, QGridSpec(-6, 6, -6, 6, 61, 61), params)


def test_q_function_boundary_leak_warned():
    # a flat Fock ladder spreads Q out to the window edge
    params = paper_defaults(alpha=1.0)
    c = np.ones(82, dtype=np.complex128)
    c /= np.linalg.norm(c)
    st = pure_state(c, np.zeros_like(c))
    with pytest.warns(UserWarning):
        q_function(st, QGridSpec(-6, 6, -6, 6, 61, 61), params)


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


def test_peak_analysis_overlapping_blobs_not_bimodal():
    # separation below twice the width: no cat call even with two maxima
    rep = q_peak_analysis(synthetic_two_gaussian_grid(sep=2.2, width=1.0))
    if rep.count == 2:
        assert not rep.bimodal


def test_cat_fidelity_self_is_one():
    params = paper_defaults()
    nfock = 102
    psi = np.arange(nfock) * coherent_amplitudes(5.0, nfock - 1).w
    psi /= np.linalg.norm(psi)
    st = pure_state(psi / math.sqrt(2.0), 1j * psi / math.sqrt(2.0))
    assert cat_fidelity(st, params) == pytest.approx(1.0, abs=1e-12)


def test_cat_fidelity_orthogonal_atom_is_zero():
    params = paper_defaults()
    nfock = 102
    psi = np.arange(nfock) * coherent_amplitudes(5.0, nfock - 1).w
    psi /= np.linalg.norm(psi)
    # (|e> - i|g>) atomic part is orthogonal to the ansatz (|e> + i|g>)
    st = pure_state(psi / math.sqrt(2.0), -1j * psi / math.sqrt(2.0))
    assert cat_fidelity(st, params) == pytest.approx(0.0, abs=1e-12)
