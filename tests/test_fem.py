"""Form-discretization counter: counts, estimates, ladders, invariances."""

import numpy as np
import pytest
import scipy.linalg
from scipy.optimize import brentq

from halfline import (
    Bump,
    Conjugated,
    Discretization,
    Exponential,
    Sampled,
    SquareWell,
    assemble_form_matrix,
    bargmann_bound,
    classify,
    converge_count,
    count_negative,
    diagonal_pair,
    random_pair,
    validate_pair,
    zero_potential,
)
import halfline.fem as fem
from halfline.errors import MeshTooCoarse, NumericalSingularity, RegimeViolation
from halfline.fem import (
    EPS_NEAR_ZERO,
    _spectrum_floor,
    _tail_schur,
    count_ladder,
    inertia_below,
)

PI = np.pi


def dirichlet(n=1):
    return validate_pair(np.zeros((n, n)), np.eye(n))


def neumann(n=1):
    return validate_pair(np.eye(n), np.zeros((n, n)))


def matching_eigenvalues(g: float) -> list[float]:
    """Independent oracle for the Dirichlet square well of depth g on [0, 1].

    Bound states solve p cot p = -κ with p = √(g - κ²); roots are
    bracketed on the branches (n - ½)π < p < min(nπ, √g).
    """
    f = lambda p: p * np.cos(p) + np.sqrt(g - p * p) * np.sin(p)
    out = []
    nb = 1
    while (nb - 0.5) * PI < np.sqrt(g):
        lo = (nb - 0.5) * PI + 1e-12
        hi = min(nb * PI - 1e-12, np.sqrt(g) - 1e-12)
        if lo < hi and f(lo) * f(hi) < 0:
            p = brentq(f, lo, hi, xtol=1e-14)
            out.append(p * p - g)
        nb += 1
    return out


def test_free_dirichlet_has_no_negative_spectrum():
    rep = count_negative(dirichlet(), zero_potential(1),
                         Discretization(40.0, 0.02))
    assert rep.count == 0 and rep.eigenvalues == []
    # smallest Ritz value of the doubly-clamped truncation is ≈ (π/L)², positive
    fm = assemble_form_matrix(dirichlet(), zero_potential(1),
                              Discretization(10.0, 0.1))
    K, M = fm.to_sparse()
    vals = scipy.linalg.eigh(K.toarray(), M.toarray(), eigvals_only=True)
    assert vals[0] == pytest.approx((PI / 10.0) ** 2, rel=0.05)
    assert vals[0] > 0


def test_free_neumann_has_no_negative_spectrum():
    rep = count_negative(neumann(), zero_potential(1), Discretization(40.0, 0.02))
    assert rep.count == 0


def test_binding_channel_free_eigenvalue():
    rep = count_negative(diagonal_pair([PI / 4]), zero_potential(1),
                         Discretization(80.0, 0.01))
    assert rep.count == 1
    assert rep.eigenvalues[0] == pytest.approx(-1.0, abs=1e-3)


def test_inertia_matches_dense_eigensolver():
    # dual route: block LDL inertia against a dense generalized eigensolver
    pair = random_pair(2, seed=6)
    V = SquareWell(depth=-1.5 * np.eye(2), a=0.5, b=2.0)
    fm = assemble_form_matrix(pair, V, Discretization(12.0, 0.06))
    K, M = fm.to_sparse()
    dense = scipy.linalg.eigh(K.toarray(), M.toarray(), eigvals_only=True)
    for E in (0.0, -0.25, -1.0, -4.0):
        assert inertia_below(fm, E) == int(np.count_nonzero(dense < E))


def test_deep_well_count_and_eigenvalues_match_matching_oracle():
    oracle = matching_eigenvalues(25.0)
    assert len(oracle) == 2
    rep = converge_count(dirichlet(), SquareWell(np.array([[-25.0]]), 0.0, 1.0))
    assert rep.converged and rep.count == 2
    np.testing.assert_allclose(rep.eigenvalues, oracle, atol=2e-2)


def test_shallow_dirichlet_well_binds_nothing():
    assert matching_eigenvalues(2.0) == []
    rep = converge_count(dirichlet(), SquareWell(np.array([[-2.0]]), 0.0, 1.0))
    assert rep.converged and rep.count == 0


def test_counts_below_shifts_bracket_the_free_eigenvalue():
    pair = diagonal_pair([PI / 4])
    disc = Discretization(80.0, 0.01)
    assert count_negative(pair, zero_potential(1), disc, E=-2.0,
                          estimates=False).count == 0
    assert count_negative(pair, zero_potential(1), disc, E=-0.5,
                          estimates=False).count == 1


def test_count_rejects_positive_shift():
    with pytest.raises(RegimeViolation):
        count_negative(dirichlet(), zero_potential(1),
                       Discretization(40.0, 0.02), E=0.5)


def test_robin_dispersion():
    for theta in (PI / 8, PI / 4, 3 * PI / 8):
        rep = converge_count(diagonal_pair([theta]), zero_potential(1))
        assert rep.count == 1
        assert rep.eigenvalues[0] == pytest.approx(-1.0 / np.tan(theta) ** 2,
                                                   abs=1e-3)


def test_coupling_monotonicity():
    # V <= 0: deepening the well never removes states
    counts = []
    for lam in (0.25, 0.5, 1.0, 2.0):
        V = SquareWell(depth=np.array([[-4.0 * lam]]), a=0.0, b=1.0)
        counts.append(converge_count(dirichlet(), V, estimates=False).count)
    assert counts == sorted(counts)
    assert counts[0] == 0 and counts[-1] >= 1


def test_unitary_invariance_of_count():
    pair = random_pair(3, seed=11)
    cls = classify(pair)
    rng = np.random.default_rng(55)
    W = (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))) / np.sqrt(3)
    V = Bump(amplitude=-(W.conj().T @ W), a=0.5, b=2.0)
    rep = converge_count(pair, V, estimates=False)
    rotated = converge_count(diagonal_pair(cls.thetas), Conjugated(V, cls.M),
                             estimates=False)
    assert rep.converged and rotated.converged
    assert rep.count == rotated.count


def test_bc_shift_bracketing_single_flip():
    # diagonal potential vanishing near the origin; one angle flipped
    thetas = [2.0, 2.8]
    V = SquareWell(depth=np.diag([-3.0, -1.0]), a=0.5, b=1.5)
    base = converge_count(diagonal_pair(thetas), V, estimates=False)
    flipped = converge_count(diagonal_pair([0.9, 2.8]), V, estimates=False)
    assert base.converged and flipped.converged
    assert abs(flipped.count - base.count) <= 1


def test_converged_ladder_reports_rungs():
    rep = converge_count(dirichlet(), zero_potential(1), estimates=False)
    assert rep.converged
    assert rep.diagnostics["ladder"][0][:2] == (40.0, 0.02)
    assert rep.count == 0


def test_mesh_too_coarse():
    with pytest.raises(MeshTooCoarse):
        assemble_form_matrix(dirichlet(), zero_potential(1),
                             Discretization(10.0, 0.2))
    with pytest.raises(MeshTooCoarse):
        Discretization(5.0, 0.01)


def test_near_zero_diagnostic_present():
    rep = count_negative(dirichlet(), zero_potential(1),
                         Discretization(40.0, 0.02))
    assert rep.diagnostics["near_zero"] >= 0


def test_count_dominated_by_bargmann_bound():
    for seed in range(4):
        pair = random_pair(2, seed=200 + seed)
        thetas = classify(pair).thetas
        if np.any(thetas < 0.05):
            continue
        rng = np.random.default_rng(300 + seed)
        W = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))) / np.sqrt(2)
        V = Bump(amplitude=-(W.conj().T @ W), a=0.3, b=1.6)
        rep = converge_count(pair, V, estimates=False)
        total = bargmann_bound(pair, V).total
        assert rep.count <= total + 1e-9


def test_well_edge_blocks_match_quadrature_oracle():
    # well edges at irrational points exercise the exact overlap correction;
    # compare the straddling-element integrals against adaptive quadrature
    from scipy.integrate import quad
    from halfline.fem import _potential_element_blocks

    disc = Discretization(10.0, 0.1)
    V = SquareWell(depth=np.array([[-25.0]]), a=1 / 3, b=1 / 3 + 1.0)
    LL, LR, RR = _potential_element_blocks(V, np.eye(1, dtype=complex), disc)
    h = disc.h

    def vfun(x):
        return -25.0 if V.a <= x <= V.b else 0.0

    for e in (3, 13):   # elements containing 1/3 and 4/3
        xl, xr = e * h, (e + 1) * h
        hat_l = lambda x: (xr - x) / h
        hat_r = lambda x: (x - xl) / h
        pts = [p for p in (V.a, V.b) if xl < p < xr]
        ref_ll = quad(lambda x: hat_l(x) ** 2 * vfun(x), xl, xr, points=pts)[0]
        ref_lr = quad(lambda x: hat_l(x) * hat_r(x) * vfun(x), xl, xr, points=pts)[0]
        ref_rr = quad(lambda x: hat_r(x) ** 2 * vfun(x), xl, xr, points=pts)[0]
        assert LL[e][0, 0].real == pytest.approx(ref_ll, abs=1e-12)
        assert LR[e][0, 0].real == pytest.approx(ref_lr, abs=1e-12)
        assert RR[e][0, 0].real == pytest.approx(ref_rr, abs=1e-12)


def test_well_edges_off_mesh_converge():
    V = SquareWell(depth=np.array([[-25.0]]), a=1 / 3, b=1 / 3 + 1.0)
    rep = converge_count(dirichlet(), V, estimates=False)
    assert rep.converged
    assert rep.count <= bargmann_bound(dirichlet(), V).total


def full_mesh_inertia(fm, E):
    """Block LDL over every node of the mesh: the oracle for the tail condensation."""
    n, keep = fm.n, fm.keep0
    eye = np.eye(n)
    count = 0
    D = (fm.diag[0] - E * fm.mass_diag[0] * eye)[np.ix_(keep, keep)]
    for i in range(fm.m):
        count += int(np.count_nonzero(np.linalg.eigvalsh(D) < 0))
        if i + 1 < fm.m:
            B = fm.off[i] - E * fm.mass_off[i] * eye
            if i == 0:
                B = B[keep, :]
            D = (fm.diag[i + 1] - E * fm.mass_diag[i + 1] * eye
                 - B.conj().T @ np.linalg.solve(D, B))
    return count


def _condensation_cases():
    rng = np.random.default_rng(17)
    for n in (1, 2, 3, 4):
        W = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / np.sqrt(n)
        S = -2.0 * (W.conj().T @ W)
        profile = np.sin(np.linspace(0.0, 3.0, 7))
        potentials = {
            "well_edge_in_element": SquareWell(S, 1 / 3, 1 / 3 + 1.37),
            "exp": Exponential(S, 3.0),
            "exp_past_L": Exponential(S, 1.0),   # cut-off beyond L: empty tail
            "sampled": Sampled(np.linspace(0.2, 3.1, 7), profile[:, None, None] * S),
            "bump": Bump(S, 0.3, 2.0),
            "zero": zero_potential(n),
        }
        pairs = {"random": random_pair(n, seed=40 + n),
                 "all_dirichlet": diagonal_pair([PI] * n)}
        if n > 1:
            pairs["partial_dirichlet"] = diagonal_pair([PI] * (n - 1) + [2.0])
        for pname, pair in pairs.items():
            for vname, V in potentials.items():
                yield pytest.param(pair, V, id=f"n{n}-{pname}-{vname}")


@pytest.mark.parametrize("pair,V", list(_condensation_cases()))
def test_condensed_inertia_matches_dense_and_full_mesh(pair, V):
    fm = assemble_form_matrix(pair, V, Discretization(12.0, 0.1))
    assert 1 <= fm.tail_start <= fm.m
    K, M = fm.to_sparse()
    dense = scipy.linalg.eigh(K.toarray(), M.toarray(), eigvals_only=True)
    for E in (0.0, -EPS_NEAR_ZERO, -0.5, _spectrum_floor(fm)):
        expected = int(np.count_nonzero(dense < E))
        assert full_mesh_inertia(fm, E) == expected
        assert inertia_below(fm, E) == expected


def test_condensed_inertia_matches_full_mesh_on_a_long_tail():
    pair = random_pair(3, seed=8)
    V = Bump(amplitude=-3.0 * np.eye(3), a=0.5, b=2.5)
    fm = assemble_form_matrix(pair, V, Discretization(40.0, 0.02))
    assert fm.m - fm.tail_start > 1800
    for E in (0.0, -EPS_NEAR_ZERO, -0.5, -2.0):
        assert inertia_below(fm, E) == full_mesh_inertia(fm, E)


def test_tail_start_marks_the_free_pattern():
    fm = assemble_form_matrix(dirichlet(), zero_potential(1), Discretization(12.0, 0.1))
    assert fm.tail_start == 1
    fm = assemble_form_matrix(neumann(), SquareWell(np.array([[-1.0]]), 1.0, 2.05),
                              Discretization(12.0, 0.1))
    h = fm.disc.h
    free_diag, free_off = 2.0 / h, -1.0 / h
    j0 = fm.tail_start
    assert np.all(fm.diag[j0:] == free_diag) and np.all(fm.off[j0 - 1:] == free_off)
    # the node before the tail feels the well, which ends inside element 20
    assert j0 == 22 and fm.diag[j0 - 1, 0, 0] != free_diag


def backward_tail_schur(h, E, T):
    """b²/d_T by the explicit backward LDL recursion over the T tail nodes."""
    a = 2.0 / h - (2.0 * h / 3.0) * E
    b = -1.0 / h - (h / 6.0) * E
    d = a
    for _ in range(T - 1):
        d = a - b * b / d
    return b * b / d


@pytest.mark.parametrize("T", [1, 2, 10**3, 10**5])
@pytest.mark.parametrize("E", [0.0, -EPS_NEAR_ZERO, -0.5, -30.0, -1e5])
def test_tail_schur_closed_form_matches_backward_recursion(T, E):
    # E = 0 is the δ = 0 limit; E = -1e5 < -6/h² makes b positive
    h = 0.01
    assert _tail_schur(h, E, T) == pytest.approx(backward_tail_schur(h, E, T),
                                                 rel=1e-9)


def test_tail_schur_edge_cases():
    h = 0.01
    assert _tail_schur(h, -0.5, 0) == 0.0
    assert _tail_schur(h, -6.0 / h**2, 50) == pytest.approx(0.0, abs=1e-6)
    assert _tail_schur(h, 1e-3, 50) is None   # E > 0: indefinite tail


def test_count_negative_single_rung_is_not_converged():
    rep = count_negative(dirichlet(), SquareWell(np.array([[-25.0]]), 0.0, 1.0),
                         Discretization(40.0, 0.02), estimates=False)
    assert rep.count == 2 and rep.converged is False
    assert rep.diagnostics["ladder"] == [(40.0, 0.02, 2)]


def _fabricated_counts(monkeypatch, by_h):
    monkeypatch.setattr(fem, "inertia_below", lambda fm, E: by_h[fm.disc.h])


def test_count_drop_on_nested_ladder_raises(monkeypatch):
    _fabricated_counts(monkeypatch, {0.02: 3, 0.01: 2})
    with pytest.raises(NumericalSingularity, match=r"L=40.0, h=0.02.*L=80.0, h=0.01"):
        count_ladder(dirichlet(), zero_potential(1), (-0.5,),
                     ladder=((40.0, 0.02), (80.0, 0.01)))


def test_count_drop_on_non_nested_ladder_is_recorded(monkeypatch):
    _fabricated_counts(monkeypatch, {0.02: 3, 0.015: 2})
    rep = converge_count(dirichlet(), zero_potential(1), E=-0.5, estimates=False,
                         ladder=((40.0, 0.02), (40.0, 0.015)))
    assert rep.count == 2 and not rep.converged
    assert rep.diagnostics["drops"] == [
        {"from": [40.0, 0.02], "to": [40.0, 0.015], "E": -0.5, "counts": [3, 2]}
    ]
