"""Birman-Schwinger counter: spectrum, trace, counts, divergence mechanism."""

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from halfline import (
    Bump,
    SquareWell,
    bs_count,
    bs_trace_bound,
    build_bs,
    classify,
    diagonal_pair,
    free_count_below,
    kernel_eval,
    make_kernel,
    random_pair,
    validate_pair,
    zero_potential,
)
from halfline.errors import (
    EigenvalueNearOne,
    NotNegativePotential,
    RegimeViolation,
    SingularJost,
)
from halfline.fem import EPS_NEAR_ZERO, count_ladder

PI = np.pi


def dirichlet(n=1):
    return validate_pair(np.zeros((n, n)), np.eye(n))


def neumann(n=1):
    return validate_pair(np.eye(n), np.zeros((n, n)))


def test_zero_potential_gives_empty_matrix():
    bsm = build_bs(dirichlet(), zero_potential(1), E=-0.5)
    assert bsm.matrix.shape == (0, 0)
    assert bsm.eigenvalues().size == 0
    assert bs_trace_bound(dirichlet(), zero_potential(1), -0.5) == 0.0
    assert bs_count(dirichlet(), zero_potential(1), -0.5) == 0


def test_binding_channel_counted_in_closed_form():
    # V = 0 carries no kernel mass; the count below E = -0.5 is the
    # zero-potential eigenvalue -cot²(π/4) = -1 of the binding channel
    pair = diagonal_pair([PI / 4])
    assert free_count_below(classify(pair), -0.5) == 1
    assert bs_count(pair, zero_potential(1), -0.5) == 1
    assert bs_count(pair, zero_potential(1), -2.0) == 0


def test_requires_negative_energy_and_potential():
    with pytest.raises(RegimeViolation):
        build_bs(dirichlet(), zero_potential(1), E=0.5)
    with pytest.raises(NotNegativePotential):
        build_bs(dirichlet(), SquareWell(np.array([[1.0]]), 0.0, 1.0), E=-0.5)


def test_resonant_energy_raises():
    with pytest.raises(SingularJost):
        build_bs(diagonal_pair([PI / 4]),
                 SquareWell(np.array([[-1.0]]), 0.0, 1.0), E=-1.0)


def test_trace_matches_direct_quadrature():
    # Nyström trace against direct quadrature of the diagonal kernel
    g = 2.0
    V = SquareWell(np.array([[-g]]), 0.0, 1.0)
    E = -0.5
    bsm = build_bs(dirichlet(), V, E, nodes=400)
    kern = make_kernel(dirichlet(), E)
    ref, _ = quad(lambda x: g * kernel_eval(kern, x, x)[0, 0].real, 0.0, 1.0,
                  epsabs=1e-12, limit=200)
    assert bsm.trace() == pytest.approx(ref, abs=1e-6)


def test_trace_approaches_zero_energy_limit():
    # closed form at E → 0⁻ is g/2 for a Dirichlet unit well
    g = 1.0
    V = SquareWell(np.array([[-g]]), 0.0, 1.0)
    tr = bs_trace_bound(dirichlet(), V, E=-1e-4)
    assert tr == pytest.approx(0.5 * g, abs=1e-2 * g)


def test_deep_well_counts_match_matching_oracle():
    # matching oracle: two bound states at depth 25 (both below -1e-3)
    V = SquareWell(np.array([[-25.0]]), 0.0, 1.0)
    assert bs_count(dirichlet(), V, E=-1e-3) == 2


def test_shallow_well_agrees_with_fd():
    V = SquareWell(np.array([[-2.0]]), 0.0, 1.0)
    assert bs_count(dirichlet(), V, E=-1e-3) == 0
    ladder = count_ladder(dirichlet(), V, (-EPS_NEAR_ZERO, -1e-3))
    assert ladder.converged and ladder.rows[-1][3] == 0


def test_trace_dominates_crossing_count():
    V = SquareWell(np.array([[-25.0]]), 0.0, 1.0)
    bsm = build_bs(dirichlet(), V, E=-1e-3)
    rhos = bsm.eigenvalues()
    assert bsm.trace() >= np.count_nonzero(rhos > 1.0)


def test_psd_and_hermitian_without_binding_channels():
    pair = diagonal_pair([3 * PI / 4, PI])
    rng = np.random.default_rng(17)
    W = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))) / np.sqrt(2)
    V = Bump(amplitude=-(W.conj().T @ W), a=0.5, b=2.0)
    bsm = build_bs(pair, V, E=-0.8)
    mat = bsm.matrix
    np.testing.assert_allclose(mat, mat.conj().T, atol=1e-12)
    assert np.min(bsm.eigenvalues()) >= -1e-10


def test_eigenvalues_monotone_in_energy():
    # resolvent monotonicity below the spectrum: E1 < E2 < 0 implies
    # every ordered eigenvalue of B(E1) is <= the one of B(E2)
    V = SquareWell(np.array([[-4.0]]), 0.0, 1.0)
    nodes = 300
    rho1 = np.sort(build_bs(dirichlet(), V, -1.5, nodes=nodes).eigenvalues())
    rho2 = np.sort(build_bs(dirichlet(), V, -0.5, nodes=nodes).eigenvalues())
    assert np.all(rho1 <= rho2 + 1e-12)


def test_nystrom_doubling_stability():
    V = SquareWell(np.array([[-4.0]]), 0.0, 1.0)
    big = {}
    for nodes in (400, 800):
        rhos = np.sort(build_bs(dirichlet(), V, -0.5, nodes=nodes).eigenvalues())
        big[nodes] = rhos[rhos > 0.1]
    assert len(big[400]) == len(big[800])
    np.testing.assert_allclose(big[400], big[800], atol=1e-4)


def test_neumann_zero_energy_trace_divergence():
    # the trace grows like |E|^(-1/2): this is what forces the Neumann
    # term in the count bound
    V = SquareWell(np.array([[-1.0]]), 1.0, 2.0)
    traces = [bs_trace_bound(neumann(), V, E=-(10.0 ** -m)) for m in (2, 3, 4)]
    assert traces[0] < traces[1] < traces[2]
    slopes = np.diff(np.log(traces)) / np.log(10.0)
    np.testing.assert_allclose(slopes, 0.5, atol=0.1)


def test_eigenvalue_near_one_guard():
    # tune the depth until the largest BS eigenvalue sits on 1, then the
    # count must refuse rather than guess
    E = -0.5
    nodes = 200

    def rho_max_minus_one(g):
        V = SquareWell(np.array([[-g]]), 0.0, 1.0)
        return float(np.max(build_bs(dirichlet(), V, E, nodes=nodes).eigenvalues())) - 1.0

    g_star = brentq(rho_max_minus_one, 1.0, 8.0, xtol=1e-12)
    V = SquareWell(np.array([[-g_star]]), 0.0, 1.0)
    with pytest.raises(EigenvalueNearOne):
        bs_count(dirichlet(), V, E, nodes=nodes)
    # far from the tie the count is unambiguous
    assert bs_count(dirichlet(), SquareWell(np.array([[-g_star]]), 0.0, 1.0),
                    E - 0.2, nodes=nodes) in (0, 1)


def test_cross_oracle_seed11_instance():
    # random n=3 pair, fixed attractive bump: the two counters agree at
    # the probe energy and the ladder is stable
    pair = random_pair(3, 11)
    rng = np.random.default_rng(11)
    W = (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))) / np.sqrt(3)
    V = Bump(amplitude=-(W.conj().T @ W), a=0.5, b=2.0)
    E = -0.5
    bsm = build_bs(pair, V, E, nodes=300)
    rhos = bsm.eigenvalues()
    assert np.min(np.abs(rhos - 1.0)) > 1e-6
    bs = int(np.count_nonzero(rhos > 1.0)) + free_count_below(classify(pair), E)
    ladder = count_ladder(pair, V, (-EPS_NEAR_ZERO, E))
    assert ladder.converged
    assert bs == ladder.rows[-1][3] == 1
