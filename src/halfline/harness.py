"""Randomized verification harness and the necessity demonstration.

Each trial draws a random self-adjoint boundary pair and a random
attractive potential (a smooth bump profile times a random negative
Hermitian amplitude), then checks that the finite-element count of
negative eigenvalues never exceeds the Bargmann-type bound, and that the
finite-element and Birman-Schwinger counters agree on the number of
eigenvalues below a fixed probe energy.

Instances that land in numerically unresolvable windows are re-drawn
deterministically: angles too close to 0 (arbitrarily deep boundary
states the mesh ladder cannot see), binding channels whose
zero-potential eigenvalue sits on the probe energy (kernel pole,
count tie), and draws where a Birman-Schwinger eigenvalue falls too
close to 1 (the count is genuinely ambiguous there).  The re-draw
counters are part of the report, so the filtering is auditable.
"""

import numpy as np
from dataclasses import dataclass, field

from .boundary import BoundaryPair, classify, diagonal_pair, random_pair, validate_pair
from .bound import bargmann_bound
from .birman import build_bs, free_count_below
from .errors import SingularJost
from .fem import Discretization, EPS_NEAR_ZERO, count_ladder, count_negative
from .potentials import Bump, SquareWell, zero_potential
from .serialize import Instance

PROBE_ENERGY = -0.5
THETA_FLOOR = 0.05            # reject angles below this: state depth ~ cot²θ unresolvable
FREE_EIG_WINDOW = 2e-3        # reject binding channels with -cot²θ this close to the probe
RHO_WINDOW = 5e-3             # reject draws with a BS eigenvalue this close to 1
MAX_REDRAWS = 60
BS_NODE_DENSITY = 120         # per unit support length inside the harness
BOUND_SLACK = 1e-9


@dataclass
class VerifyReport:
    """Outcome of a randomized verification run."""

    trials: int
    n_max: int
    seed: int
    violations: list = field(default_factory=list)
    rows: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    @property
    def bound_violations(self) -> list:
        return [v for v in self.violations if v["kind"] == "bound"]

    @property
    def oracle_mismatches(self) -> list:
        return [v for v in self.violations if v["kind"] == "oracle"]

    def to_json(self) -> dict:
        return {
            "trials": self.trials,
            "n_max": self.n_max,
            "seed": self.seed,
            "violations": self.violations,
            "rows": self.rows,
            "stats": self.stats,
        }


def random_attractive_potential(n: int, rng: np.random.Generator) -> Bump:
    """Smooth compactly supported V ⪯ 0 with support inside (0, 10]."""
    a = rng.uniform(0.2, 2.0)
    width = rng.uniform(0.5, 2.0)
    c = rng.uniform(0.3, 3.0)
    W = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / np.sqrt(n)
    S = c * (W.conj().T @ W)
    return Bump(amplitude=-S, a=a, b=a + width)


def _angles_resolvable(thetas: np.ndarray, E: float) -> bool:
    if np.any(thetas < THETA_FLOOR):
        return False
    binding = thetas[(thetas > 0) & (thetas < np.pi / 2)]
    if binding.size:
        free = -1.0 / np.tan(binding) ** 2
        if np.any(np.abs(free - E) < FREE_EIG_WINDOW):
            return False
    return True


def run_trial(seed: int, trial: int, n_max: int, E: float = PROBE_ENERGY) -> dict:
    """One verification trial; re-draws until the guards pass."""
    redraws = 0
    for attempt in range(MAX_REDRAWS):
        rng = np.random.default_rng(
            np.random.SeedSequence(seed, spawn_key=(trial, attempt))
        )
        n = int(rng.integers(1, n_max + 1))
        pair = random_pair(n, rng)
        cls = classify(pair)
        if not _angles_resolvable(cls.thetas, E):
            redraws += 1
            continue
        V = random_attractive_potential(n, rng)

        lo, hi = V.support()
        nodes = max(160, int(np.ceil(BS_NODE_DENSITY * (hi - lo))))
        try:
            bsm = build_bs(pair, V, E, nodes=nodes, classification=cls)
        except SingularJost:
            redraws += 1
            continue
        rhos = bsm.eigenvalues()
        if rhos.size and np.min(np.abs(rhos - 1.0)) < RHO_WINDOW:
            redraws += 1
            continue
        bs_E = int(np.count_nonzero(rhos > 1.0)) + free_count_below(cls, E)

        ladder = count_ladder(pair, V, (-EPS_NEAR_ZERO, E), classification=cls)
        if not ladder.converged:
            redraws += 1
            continue
        fd_0, fd_E = ladder.rows[-1][2:]

        bound = bargmann_bound(pair, V, classification=cls)
        inst = Instance(pair, V, {"trial": trial, "attempt": attempt})
        return {
            "trial": trial,
            "n": n,
            "total": bound.total,
            "n_Mb": bound.n_Mb,
            "n_N": bound.n_N,
            "integral": bound.integral,
            "fd_count": fd_0,
            "fd_count_at_probe": fd_E,
            "bs_count_at_probe": bs_E,
            "margin": bound.total - fd_0,
            "redraws": redraws,
            "ladder": [list(r) for r in ladder.rows],
            "instance": inst.to_json(),
        }
    raise RuntimeError(f"trial {trial}: guards rejected {MAX_REDRAWS} draws")


def run_verify(trials: int, n_max: int, seed: int,
               E: float = PROBE_ENERGY, jobs: int = 1) -> VerifyReport:
    """Randomized sweep: count-bound domination plus cross-oracle agreement.

    Same (trials, n_max, seed) always produces the identical report.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 1 <= n_max <= 4:
        raise ValueError("n_max must lie in 1..4")

    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futs = [pool.submit(run_trial, seed, t, n_max, E) for t in range(trials)]
            rows = [f.result() for f in futs]
    else:
        rows = [run_trial(seed, t, n_max, E) for t in range(trials)]
    rows.sort(key=lambda r: r["trial"])

    violations = []
    for row in rows:
        if row["fd_count"] > row["total"] + BOUND_SLACK:
            violations.append({
                "kind": "bound",
                "trial": row["trial"],
                "fd_count": row["fd_count"],
                "total": row["total"],
                "instance": row["instance"],
            })
        if row["fd_count_at_probe"] != row["bs_count_at_probe"]:
            violations.append({
                "kind": "oracle",
                "trial": row["trial"],
                "fd_count_at_probe": row["fd_count_at_probe"],
                "bs_count_at_probe": row["bs_count_at_probe"],
                "instance": row["instance"],
            })

    margins = [row["margin"] for row in rows]
    stats = {
        "redraws": int(sum(row["redraws"] for row in rows)),
        "min_margin": min(margins),
        "max_fd_count": max(row["fd_count"] for row in rows),
        "probe_energy": E,
    }
    slim_rows = [
        {k: row[k] for k in (
            "trial", "n", "total", "n_Mb", "n_N", "integral", "fd_count",
            "fd_count_at_probe", "bs_count_at_probe", "margin", "redraws",
        )}
        for row in rows
    ]
    return VerifyReport(
        trials=trials, n_max=n_max, seed=seed,
        violations=violations, rows=slim_rows, stats=stats,
    )


def neumann_pair(n: int = 1) -> BoundaryPair:
    return validate_pair(np.eye(n), np.zeros((n, n)))


def dirichlet_pair(n: int = 1) -> BoundaryPair:
    return validate_pair(np.zeros((n, n)), np.eye(n))


def run_remark_demo() -> dict:
    """Show that both integer terms of the count bound are necessary.

    (a) binding angles θ in (0, π/2) with V = 0 already carry one bound
        state each at -cot²θ; (b) a Neumann channel binds for every
        coupling strength of an attractive well, however weak, while the
        same well under Dirichlet conditions binds nothing.
    """
    report = {"binding_channels": [], "neumann_wells": [], "dirichlet_contrast": None}

    for theta in (np.pi / 8, np.pi / 4, 3 * np.pi / 8):
        pair = diagonal_pair([theta])
        V = zero_potential(1)
        rep = count_negative(pair, V, Discretization(L=80.0, h=0.01))
        bound = bargmann_bound(pair, V)
        report["binding_channels"].append({
            "theta": float(theta),
            "count": rep.count,
            "eigenvalue": rep.eigenvalues[0] if rep.eigenvalues else None,
            "expected_eigenvalue": float(-1.0 / np.tan(theta) ** 2),
            "bound_total": bound.total,
            "bound_n_Mb": bound.n_Mb,
        })

    for lam in (0.01, 0.1, 1.0):
        V = SquareWell(depth=np.array([[-lam]]), a=1.0, b=2.0)
        kappa_est = lam * 1.0
        L = max(60.0, min(2000.0, 12.0 / kappa_est))
        rep = count_negative(neumann_pair(), V, Discretization(L=L, h=0.01))
        bound = bargmann_bound(neumann_pair(), V)
        report["neumann_wells"].append({
            "lambda": lam,
            "L": L,
            "count": rep.count,
            "eigenvalue": rep.eigenvalues[0] if rep.eigenvalues else None,
            "bound_total": bound.total,
            "bound_n_N": bound.n_N,
            "bound_integral": bound.integral,
        })

    V = SquareWell(depth=np.array([[-0.01]]), a=1.0, b=2.0)
    rep = count_negative(dirichlet_pair(), V, Discretization(L=1200.0, h=0.01))
    report["dirichlet_contrast"] = {"lambda": 0.01, "count": rep.count}
    return report
