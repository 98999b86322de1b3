"""The eigenvalue-count bound and its diagonal-case trace form."""

import numpy as np
import pytest

from halfline import (
    Bump,
    Conjugated,
    SquareWell,
    bargmann_bound,
    classify,
    diagonal_pair,
    diagonal_trace_bound,
    diagonal_trace_limit,
    random_pair,
    validate_pair,
    zero_potential,
)
from halfline.errors import NumericalSingularity, RegimeViolation

PI = np.pi


def dirichlet(n=1):
    return validate_pair(np.zeros((n, n)), np.eye(n))


def test_dirichlet_scalar_well():
    # Θ_T = 0 at θ = π, so the integrand is 2x on [0,1]
    res = bargmann_bound(dirichlet(), SquareWell(np.array([[-2.0]]), 0.0, 1.0))
    assert (res.n_Mb, res.n_N) == (0, 0)
    assert res.integral == pytest.approx(1.0, abs=1e-8)
    assert res.total == pytest.approx(1.0, abs=1e-8)
    assert res.integer_bound == 1


def test_binding_channel_zero_potential():
    res = bargmann_bound(diagonal_pair([PI / 4]), zero_potential(1))
    assert res.total == pytest.approx(1.0)
    assert res.n_Mb == 1 and res.integral == 0.0


def test_two_channel_hand_value():
    # θ = (π/2, 3π/4), V₋ = I on [0,1]: 1 (Neumann) + ∫[x + (x+1)]dx = 3
    pair = diagonal_pair([PI / 2, 3 * PI / 4])
    V = SquareWell(depth=-np.eye(2), a=0.0, b=1.0)
    res = bargmann_bound(pair, V)
    assert res.n_N == 1
    assert res.integral == pytest.approx(2.0, abs=1e-8)
    assert res.total == pytest.approx(3.0, abs=1e-8)


def _random_attractive(n, seed, a=0.4, b=1.8):
    rng = np.random.default_rng(seed)
    W = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / np.sqrt(n)
    return Bump(amplitude=-(W.conj().T @ W), a=a, b=b)


def test_gauge_invariance():
    pair = random_pair(3, seed=14)
    V = _random_attractive(3, 15)
    ref = bargmann_bound(pair, V).total
    rng = np.random.default_rng(16)
    for _ in range(3):
        while True:
            T = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            if np.linalg.cond(T) <= 1e3:
                break
        gauged = validate_pair(pair.A @ T, pair.B @ T)
        assert bargmann_bound(gauged, V).total == pytest.approx(ref, abs=1e-9)


def test_unitary_covariance():
    pair = random_pair(3, seed=30)
    cls = classify(pair)
    V = _random_attractive(3, 31)
    ref = bargmann_bound(pair, V)
    rotated = bargmann_bound(diagonal_pair(cls.thetas), Conjugated(V, cls.M))
    assert rotated.total == pytest.approx(ref.total, abs=1e-9)
    assert (rotated.n_Mb, rotated.n_N) == (ref.n_Mb, ref.n_N)


def test_integral_monotone_in_attractive_part():
    pair = random_pair(2, seed=41)
    V1 = _random_attractive(2, 42)
    V2 = Bump(amplitude=2.0 * V1.amplitude, a=V1.a, b=V1.b)
    b1 = bargmann_bound(pair, V1)
    b2 = bargmann_bound(pair, V2)
    assert b2.integral >= b1.integral - 1e-12
    assert b2.integral == pytest.approx(2.0 * b1.integral, rel=1e-7)


def test_positive_part_does_not_contribute():
    # adding a repulsive block leaves only the attractive part in the integral
    pair = dirichlet(2)
    attract = SquareWell(depth=np.diag([-3.0, 0.0]), a=0.0, b=1.0)
    mixed = SquareWell(depth=np.diag([-3.0, 5.0]), a=0.0, b=1.0)
    assert (bargmann_bound(pair, mixed).integral
            == pytest.approx(bargmann_bound(pair, attract).integral, rel=1e-8))


def test_trace_bound_dirichlet_limit():
    g = 1.0
    V = SquareWell(depth=np.array([[-g]]), a=0.0, b=1.0)
    limit = diagonal_trace_limit([PI], V)
    assert limit == pytest.approx(0.5 * g, abs=1e-10)
    finite = diagonal_trace_bound([PI], V, E=-1e-4)
    assert finite == pytest.approx(0.5 * g, abs=1e-2 * g)


def test_trace_bound_mixed_limit():
    # tan(3π/4) = -1: ∫ g (x + 1) dx = 3g/2
    g = 2.0
    V = SquareWell(depth=np.array([[-g]]), a=0.0, b=1.0)
    assert diagonal_trace_limit([3 * PI / 4], V) == pytest.approx(1.5 * g, abs=1e-9)


def test_trace_bound_zero_potential():
    assert diagonal_trace_bound([PI], zero_potential(1), E=-0.3) == 0.0
    assert diagonal_trace_limit([PI], zero_potential(1)) == 0.0


def test_trace_bound_energy_limit_converges():
    V = SquareWell(depth=np.array([[-1.0]]), a=0.0, b=1.0)
    limit = diagonal_trace_limit([3 * PI / 4], V)
    errors = [
        abs(diagonal_trace_bound([3 * PI / 4], V, E=-(10.0 ** -m)) - limit)
        for m in range(2, 7)
    ]
    # convergence rate is O(√|E|), so each decade of E gains about √10
    assert all(e2 < e1 for e1, e2 in zip(errors, errors[1:]))
    assert errors[-1] < 0.02 * errors[0]


def test_trace_bound_regime_violation():
    V = SquareWell(depth=np.array([[-1.0]]), a=0.0, b=1.0)
    with pytest.raises(RegimeViolation):
        diagonal_trace_bound([PI / 4], V, E=-0.5)
    with pytest.raises(RegimeViolation):
        diagonal_trace_bound([PI / 2], V, E=-0.5)
    with pytest.raises(RegimeViolation):
        diagonal_trace_bound([3 * PI / 4], V, E=0.5)


def test_trace_bound_requires_diagonal_nonpositive():
    V = SquareWell(depth=np.array([[0.0, -1.0], [-1.0, 0.0]]), a=0.0, b=1.0)
    with pytest.raises(RegimeViolation):
        diagonal_trace_limit([3 * PI / 4, PI], V)
    Vpos = SquareWell(depth=np.array([[1.0]]), a=0.0, b=1.0)
    with pytest.raises(RegimeViolation):
        diagonal_trace_limit([PI], Vpos)


def test_total_nonnegative_on_random_ensemble():
    for seed in range(8):
        pair = random_pair(3, seed=seed)
        V = _random_attractive(3, 100 + seed)
        res = bargmann_bound(pair, V)
        assert res.integral >= 0.0
        assert res.total >= 0.0
        assert res.integer_bound == int(np.floor(res.total + 1e-12))


def test_negative_integral_raises_instead_of_clamping(monkeypatch):
    # V₋ ⪰ 0 and xI - W ⪰ 0 make the integrand >= 0; fabricate a split
    # that returns -V₋ so the integral comes out negative
    import halfline.bound as bound_mod
    real_split = bound_mod.split

    def flipped(V, x):
        plus, minus, root = real_split(V, x)
        return plus, -minus, root

    monkeypatch.setattr(bound_mod, "split", flipped)
    with pytest.raises(NumericalSingularity, match="negative"):
        bargmann_bound(dirichlet(), SquareWell(np.array([[-2.0]]), 0.0, 1.0))
