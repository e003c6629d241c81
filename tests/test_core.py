"""Tests for the shared domain types: parameters, field, momentum grid."""

import cmath
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import pdtrc

from gravjcm.core import (
    MAX_NODES,
    MomentumGrid,
    TruncationError,
    adaptive_nmax,
    branch_sweep,
    build_momentum_grid,
    check_times,
    coherent_amplitudes,
    paper_defaults,
)


def test_coherent_amplitudes_against_factorial_formula():
    rng = np.random.default_rng(21)
    for _ in range(20):
        alpha = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        w = coherent_amplitudes(alpha, 60)
        pref = math.exp(-abs(alpha) ** 2 / 2.0)
        for n in (0, 1, 5, 17):
            expect = pref * alpha**n / math.sqrt(math.factorial(n))
            assert abs(w[n] - expect) < 1e-14 * max(abs(expect), 1.0)


def test_coherent_amplitudes_normalized():
    w = coherent_amplitudes(5.0, 100)
    assert float(np.sum(np.abs(w) ** 2)) == pytest.approx(1.0, abs=1e-12)


def test_truncation_rejected():
    with pytest.raises(TruncationError):
        coherent_amplitudes(5.0, 30)
    with pytest.raises(ValueError):
        coherent_amplitudes(1.0, -1)


@pytest.mark.parametrize("alpha", [38.3, 38.6])
def test_subnormal_seed_rejected(alpha):
    # e^(-|alpha|^2/2) is subnormal here and the probabilities sum above 1
    with pytest.raises(TruncationError, match="underflowed"):
        coherent_amplitudes(alpha, adaptive_nmax(alpha))


def poisson_tail(nbar, nmax):
    """Poisson probability above nmax, summed exactly over the levels above it."""
    return math.fsum(math.exp(k * math.log(nbar) - nbar - math.lgamma(k + 1))
                     for k in range(nmax + 1, nmax + 400))


def test_adaptive_nmax_tail_bound_and_floor():
    # the tail bound is the only floor: nmax is the smallest cutoff meeting it
    for alpha in (1.0, 3.0, 5.0, 8.029002996496242):
        nmax = adaptive_nmax(alpha)
        nbar = abs(alpha) ** 2
        assert poisson_tail(nbar, nmax) < 1e-12
        assert poisson_tail(nbar, nmax - 1) >= 1e-12
    assert adaptive_nmax(5.0) == 68
    assert adaptive_nmax(0.0) == 0


def test_adaptive_nmax_matches_poisson_survival_function():
    # scipy's pdtrc(n, nbar) = P(N > n) decreases in n: the cutoff is its first level below the budget
    for i in range(3701):
        alpha = i / 100
        nbar = alpha * alpha
        levels = np.arange(int(nbar + 50 * math.sqrt(nbar) + 101))
        assert adaptive_nmax(alpha) == np.argmax(pdtrc(levels, nbar) < 1e-12), alpha
    assert adaptive_nmax(316.2) == adaptive_nmax(1e100) == 100000  # the cap


@pytest.mark.parametrize("alpha", [1e200, complex(0.0, 1e155), math.nan, complex(1.0, math.inf)])
def test_adaptive_nmax_rejects_infinite_photon_number(alpha):
    # |alpha|^2 overflows (or is nan) here; it is a ValueError, not an OverflowError
    with pytest.raises(ValueError, match="alpha"):
        adaptive_nmax(alpha)


@settings(max_examples=200, deadline=None)
@given(r=st.one_of(st.just(1e-6), st.floats(0.0, 37.5)), phase=st.floats(0.0, 2.0 * math.pi))
def test_adaptive_cutoff_amplitudes_accepted(r, phase):
    # below the seed underflow the adaptive cutoff passes the sum check (no
    # TruncationError), also where its tail lies next to the budget
    # (alpha = 1e-6: 1e-12 - 5e-25) and where the recursion rounds most
    alpha = r * cmath.exp(1j * phase)
    coherent_amplitudes(alpha, adaptive_nmax(alpha))


def test_params_validation():
    with pytest.raises(ValueError):
        paper_defaults(lam=0.0)
    with pytest.raises(ValueError):
        paper_defaults(qg=-5.0)
    with pytest.raises(ValueError):
        paper_defaults(omega_rec=-0.5e6)


@pytest.mark.parametrize("times", [[], [[0.0, 1.0]], [-1.0, 1.0], [0.0, 2.0, 1.0], [1.0, 1.0],
                                   [0.0, np.inf], [0.0, 1.0, np.nan], [np.nan, 1.0]])
def test_check_times_rejects(times):
    with pytest.raises(ValueError, match="times must be"):
        check_times(times)


def test_momentum_grid_moments():
    for sigma0 in (0.5, 1.0, 2.0):
        g = build_momentum_grid(sigma0, 32)
        var = sigma0**2 / 4.0  # variance of |phi(p)|^2 ~ exp(-2 p^2/sigma0^2)
        assert float(np.sum(g.weights)) == pytest.approx(1.0, abs=1e-14)
        assert float(np.dot(g.weights, g.nodes)) == pytest.approx(0.0, abs=1e-14)
        assert float(np.dot(g.weights, g.nodes**2)) == pytest.approx(var, rel=1e-12)
        # Gaussian fourth moment, exact for a degree-4 polynomial
        assert float(np.dot(g.weights, g.nodes**4)) == pytest.approx(3 * var**2, rel=1e-12)


def test_momentum_grid_single_node():
    g = build_momentum_grid(1.0, 1)
    assert g.nodes.tolist() == [0.0]
    assert g.weights.tolist() == [1.0]
    with pytest.raises(ValueError):
        build_momentum_grid(1.0, 0)
    with pytest.raises(ValueError):
        build_momentum_grid(0.0, 4)
    with pytest.raises(ValueError, match="sigma0"):
        build_momentum_grid(-1.0, 4)


def test_momentum_grid_weight_sum_enforced():
    with pytest.raises(ValueError):
        MomentumGrid(nodes=np.zeros(2), weights=np.array([0.6, 0.3]))
    # NaN weights, as a rule whose weights overflowed normalizes to, and NaN nodes
    with pytest.raises(ValueError, match="sum to 1, got nan"):
        MomentumGrid(nodes=np.zeros(2), weights=np.array([np.nan, np.nan]))
    with pytest.raises(ValueError, match="nodes must be finite"):
        MomentumGrid(nodes=np.array([np.nan, 0.0]), weights=np.array([0.5, 0.5]))


def test_momentum_grid_node_cap():
    # the largest rule is finite and normalized; one node more is refused before
    # numpy computes a rule, whose weights would overflow
    g = build_momentum_grid(1.0, MAX_NODES)
    assert np.all(np.isfinite(g.nodes)) and g.weights.sum() == pytest.approx(1.0, abs=1e-12)
    for n in (MAX_NODES + 1, 10**7):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"n_nodes must be in 1 .. {MAX_NODES}, got {n}"):
            build_momentum_grid(1.0, n)
        assert time.perf_counter() - start < 0.1  # 10^7 took ~1 s and ~0.2 GB uncapped


def test_branch_state_norm():
    # one run of one sample: block 0 of each node holds half on each branch
    x = np.zeros((1, 2, 3), dtype=np.complex128)
    x[..., 0] = math.sqrt(0.5)
    grid = build_momentum_grid(1.0, 2)
    st = branch_sweep(np.zeros(1), [[(0, x, x)]], np.ones(3), grid, {}).last
    assert st.norm() == pytest.approx(1.0, abs=1e-14)
    assert st.nfock == 4
