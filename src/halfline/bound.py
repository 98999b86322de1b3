"""Bargmann-type upper bound on the number of negative eigenvalues.

For a boundary pair with n_Mb binding mixed channels, n_N Neumann
channels and hatted-tangent matrix W = M Θ_T M† (W ⪯ 0), the count of
negative eigenvalues of -d²/dx² + V with that boundary condition obeys

    N  <=  n_Mb + n_N + ∫₀^∞ trace[ V₋(x) (x·I - W) ] dx.

The two integer terms absorb the bound states that exist even for
arbitrarily weak attraction (binding channels bind at zero coupling,
Neumann channels at any coupling), and the integral is the half-line
Bargmann weight of the attractive part of the potential.
"""

import numpy as np
from dataclasses import dataclass

from scipy.integrate import quad

from .boundary import BoundaryClassification, BoundaryPair, classify
from .errors import NumericalSingularity, RegimeViolation
from .potentials import MatrixPotential, faddeev_moment, split
from .resolvent import branch_sqrt, free_jost_entry, free_regular_entry


@dataclass(frozen=True)
class BoundResult:
    """Value of the count bound and its three constituents."""

    n_Mb: int
    n_N: int
    integral: float
    total: float
    integer_bound: int

    def as_dict(self) -> dict:
        return {
            "n_Mb": self.n_Mb,
            "n_N": self.n_N,
            "integral": self.integral,
            "total": self.total,
            "integer_bound": self.integer_bound,
        }


def bargmann_bound(pair: BoundaryPair, V: MatrixPotential,
                   rel_tol: float = 1e-8,
                   classification: BoundaryClassification | None = None) -> BoundResult:
    """Evaluate the count bound for a validated pair and a Faddeev-class V."""
    faddeev_moment(V)  # raises DivergentMoment for inadmissible input
    cls = classification if classification is not None else classify(pair)
    W = cls.theta_t_matrix()

    lo, hi = V.support()
    if hi <= lo:
        integral = 0.0
    else:
        def integrand(x):
            vminus = split(V, x)[1]
            return float(np.trace(vminus @ (x * np.eye(cls.n) - W)).real)

        integral, abserr = quad(integrand, lo, hi, epsrel=rel_tol, limit=200)
        # V₋ ⪰ 0 and xI - W ⪰ 0, so the integrand is >= 0 pointwise
        if integral < -abserr:
            raise NumericalSingularity(
                f"bound integral {integral:.3e} is negative beyond its "
                f"quadrature error {abserr:.1e}")
        integral = float(integral)

    total = cls.n_Mb + cls.n_N + integral
    return BoundResult(
        n_Mb=cls.n_Mb,
        n_N=cls.n_N,
        integral=integral,
        total=total,
        integer_bound=int(np.floor(total + 1e-12)),
    )


def diagonal_trace_bound(thetas, V: MatrixPotential, E: float,
                         rel_tol: float = 1e-8) -> float:
    """Finite-energy trace bound -∫ trace[V(x) R₀(E)(x, x)] dx.

    Valid for diagonal pairs with every angle in (π/2, π] (no Neumann, no
    binding channels) and diagonal V <= 0; as E → 0⁻ the value converges
    to the closed form of `diagonal_trace_limit`.
    """
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    if np.any(thetas <= np.pi / 2):
        raise RegimeViolation("all angles must lie in (pi/2, pi]")
    if E >= 0:
        raise RegimeViolation(f"E must be negative, got {E}")

    _check_diagonal_nonpositive(V)
    k = branch_sqrt(E)
    jost = np.array([free_jost_entry(t, k) for t in thetas])
    lo, hi = V.support()
    if hi <= lo:
        return 0.0

    def integrand(x):
        # per-channel kernel diagonal, in the caller's channel order
        phi = np.array([free_regular_entry(t, k, x) for t in thetas])
        rdiag = (phi * np.exp(1j * k * x) / jost).real
        vd = np.diag(V.evaluate(x)).real
        return float(-np.sum(vd * rdiag))

    val, _ = quad(integrand, lo, hi, epsrel=rel_tol, limit=200)
    return float(val)


def diagonal_trace_limit(thetas, V: MatrixPotential, rel_tol: float = 1e-8) -> float:
    """Zero-energy limit -∫ Σ_j V_jj(x) (x - tan θ_j) dx of the trace bound."""
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    if np.any(thetas <= np.pi / 2):
        raise RegimeViolation("all angles must lie in (pi/2, pi]")
    _check_diagonal_nonpositive(V)
    tans = np.where(thetas == np.pi, 0.0, np.tan(thetas))
    lo, hi = V.support()
    if hi <= lo:
        return 0.0

    def integrand(x):
        vd = np.diag(V.evaluate(x)).real
        return float(-np.sum(vd * (x - tans)))

    val, _ = quad(integrand, lo, hi, epsrel=rel_tol, limit=200)
    return float(val)


def _check_diagonal_nonpositive(V: MatrixPotential, samples: int = 33):
    lo, hi = V.support()
    if hi <= lo:
        return
    for x in np.linspace(lo, hi, samples):
        Vx = V.evaluate(x)
        off = Vx - np.diag(np.diag(Vx))
        if np.linalg.norm(off) > 1e-10 * max(1.0, np.linalg.norm(Vx)):
            raise RegimeViolation("potential must be diagonal for the trace bound")
        if np.any(np.diag(Vx).real > 1e-10):
            raise RegimeViolation("potential must be <= 0 for the trace bound")
