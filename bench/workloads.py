"""The two workloads: seeded input streams, the timed operation and its output checks.

Every workload is a closed loop with one caller.  Its inputs come in
strata, one per value of the input property that sets an operation's
cost (the dimension n; the boundary angle and coupling strength), and
one cycle visits every stratum once; the seed draws everything else.
A run stops at a cycle boundary, so every run sees the same mix
whatever its seed and length.  Without that, the share of n = 1 trials,
which cost about a tenth of the others, would change from seed to seed.

An operation returns a tuple of its integer outputs, which the runner
digests and compares across repeats of one input, or raises:
`CheckFailed` for a wrong output, any library exception for a failed
operation.
"""

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from halfline import boundary, fem, harness, potentials

E_PROBE = harness.PROBE_ENERGY
N_MAX = 4
TRACE_CYCLES = 5         # cycles in one traced (and one untraced) pass


class CheckFailed(Exception):
    """An operation returned an output that violates a checked invariant."""


@dataclass(frozen=True)
class Workload:
    name: str
    cycles: object       # seed -> endless iterator of cycles, each a list of inputs
    op: object           # (input, stats Counter) -> tuple of ints
    warmup: object       # () -> the fixed input the set-up runs once
    tail_pct: float      # fixed, so that commits compare the same percentile

    @property
    def min_ops(self) -> int:
        """Operations needed for at least 10 samples beyond `tail_pct`."""
        return math.ceil(10 / (1 - self.tail_pct / 100))


# --- verify_sweep: harness.run_trial, every layer -------------------------

# Warm-up trial: n = 4 with support width 1.985, so 239 BS nodes per
# channel, about the largest BS matrix run_trial draws.  peak_rss_mb then
# measures that size instead of whichever widths a seed happens to draw.
VERIFY_WARMUP = (0, 323)


def _first_draw_n(seed: int, trial: int) -> int:
    # run_trial's first draw on attempt 0 picks the dimension; a re-draw
    # may change it, so the realised mix is reported, not assumed
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(trial, 0)))
    return int(rng.integers(1, N_MAX + 1))


def verify_cycles(seed: int):
    queued = {n: [] for n in range(1, N_MAX + 1)}
    trial = 0
    while True:
        while not all(queued.values()):
            queued[_first_draw_n(seed, trial)].append(trial)
            trial += 1
        yield [(seed, queued[n].pop(0)) for n in queued]


def verify_op(inp, stats: Counter):
    seed, trial = inp
    row = harness.run_trial(seed, trial, n_max=N_MAX)
    stats["harness.trials"] += 1
    stats["harness.attempts"] += row["redraws"] + 1
    stats[f"realised.n{row['n']}"] += 1
    stats[f"ladder_rungs.{len(row['ladder'])}"] += 1
    if row["fd_count"] > row["total"] + harness.BOUND_SLACK:
        raise CheckFailed(f"trial {trial}: fd_count {row['fd_count']} > bound {row['total']}")
    if row["fd_count_at_probe"] != row["bs_count_at_probe"]:
        raise CheckFailed(f"trial {trial}: FEM count {row['fd_count_at_probe']} "
                          f"!= BS count {row['bs_count_at_probe']} at E = {E_PROBE}")
    ladder = [c for r in row["ladder"] for c in r[2:]]
    return (row["n"], row["fd_count"], row["fd_count_at_probe"],
            row["bs_count_at_probe"], row["redraws"], *ladder)


# --- fem_slicing: scalar count_negative with spectrum slicing ---------------

ANGLES = ("neumann", "binding", "mixed", "dirichlet")
# six log-spaced strengths in [0.01, 5]; each draw is jittered by ±5 % in log
LAMBDAS = np.geomspace(0.01 * np.exp(0.05), 5.0 * np.exp(-0.05), 6)
MESH_H = 0.01
FREE_L = 60.0           # V = 0: the binding state decays at rate cot θ >= 0.41
FREE_EIG_TOL = 1e-3
# P1 elements with the well integrated exactly give eigenvalues above the
# exact ones of the truncated problem; at h = 0.01 by at most 6e-5 over
# 1000 drawn inputs.  An estimate may sit this far above its exact value,
# and a state this close to 0 may be missed by the count.
FEM_EIG_TOL = 1e-3


def _theta(kind: str, rng: np.random.Generator) -> float:
    if kind == "neumann":
        return np.pi / 2
    if kind == "dirichlet":
        return np.pi
    if kind == "binding":
        return rng.uniform(np.pi / 8, 3 * np.pi / 8)
    return rng.uniform(5 * np.pi / 8, 7 * np.pi / 8)


def sturm_count(theta: float, lam: float, a: float, b: float, L: float, E: float) -> int:
    """Exact number of eigenvalues below E of -u'' - λ·1[a,b] u on [0, L].

    The condition is u(0) cos θ + u'(0) sin θ = 0 at 0 and Dirichlet at L,
    as in `fem`.  By Sturm oscillation the count is the number of zeros in
    (0, L) of the solution that meets the condition at 0; on each piece of
    constant potential that solution is trigonometric, linear or hyperbolic.
    """
    u, du = math.sin(theta), -math.cos(theta)
    zeros = 0
    for length, q in ((a, -E), (b - a, -lam - E), (L - b, -E)):   # u'' = q u
        if q < 0:
            k = math.sqrt(-q)
            phi = math.atan2(u, du / k)      # u = r sin(k t + phi)
            zeros += math.floor((k * length + phi) / math.pi) - math.floor(phi / math.pi)
            c, s = math.cos(k * length), math.sin(k * length)
            u, du = u * c + du / k * s, -u * k * s + du * c
        elif q > 0:
            kap = math.sqrt(q)
            # u = u cosh(kap t) + du/kap sinh(kap t) vanishes once if tanh(kap t) = -kap u/du
            if u * du < 0 and kap * abs(u) < abs(du) \
                    and math.atanh(kap * abs(u) / abs(du)) <= kap * length:
                zeros += 1
            # growing and decaying parts, scaled by 2 exp(-kap length)
            grow, decay, g = u + du / kap, u - du / kap, math.exp(-2 * kap * length)
            u, du = (decay, -kap * decay) if grow == 0 else (grow + decay * g,
                                                             kap * (grow - decay * g))
        else:
            if u * du < 0 and -u / du <= length:
                zeros += 1
            u += du * length
        r = math.hypot(u, du)
        u, du = u / r, du / r
    return zeros


def exact_eigenvalues(theta: float, lam: float, a: float, b: float, L: float) -> tuple:
    """The truncated problem's eigenvalues below -EPS_NEAR_ZERO, by bisection on sturm_count."""
    def below(E):
        return sturm_count(theta, lam, a, b, L, E)

    top = -fem.EPS_NEAR_ZERO
    floor = -(lam + 1.0 / math.tan(theta) ** 2 + 1.0)
    while below(floor) > 0:
        floor *= 2
    out = []
    for k in range(1, below(top) + 1):
        lo, hi = floor, top
        while hi - lo > 1e-13 * max(1.0, abs(lo)):
            mid = 0.5 * (lo + hi)
            lo, hi = (lo, mid) if below(mid) >= k else (mid, hi)
        out.append(0.5 * (lo + hi))
    return tuple(out)


def fem_cycles(seed: int):
    """Every angle type with every strength, plus one V = 0 binding instance: 25 strata.

    Each input carries the exact eigenvalues of its truncated problem,
    computed here, outside the timed operation.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(3,)))
    while True:
        cycle = []
        for kind in ANGLES:
            for lam_c in LAMBDAS:
                lam = float(lam_c * np.exp(rng.uniform(-0.05, 0.05)))
                a = rng.uniform(0.5, 1.5)
                V = potentials.SquareWell(depth=np.array([[-lam]]), a=a, b=a + 1.0)
                # the demo's truncation rule: about 12 decay lengths of a state bound by λ
                L = max(60.0, min(2000.0, 12.0 / lam))
                theta = _theta(kind, rng)
                cycle.append((theta, V, L, exact_eigenvalues(theta, lam, a, a + 1.0, L), False))
        theta = _theta("binding", rng)
        cycle.append((theta, potentials.zero_potential(1), FREE_L,
                      exact_eigenvalues(theta, 0.0, 0.0, 0.0, FREE_L), True))
        yield cycle


def fem_op(inp, stats: Counter):
    theta, V, L, exact, free = inp
    pair = boundary.diagonal_pair([theta])
    rep = fem.count_negative(pair, V, fem.Discretization(L=L, h=MESH_H), estimates=True)
    eigs = rep.eigenvalues
    if not sum(x < -FEM_EIG_TOL for x in exact) <= rep.count <= len(exact):
        raise CheckFailed(f"count {rep.count}, exact eigenvalues {exact}")
    if rep.count != len(eigs):
        raise CheckFailed(f"count {rep.count} != {len(eigs)} eigenvalue estimates")
    for e, x in zip(eigs, exact):
        # the bisection stops within a relative 1e-7 of the discrete eigenvalue
        if not -1e-6 * abs(x) <= e - x <= FEM_EIG_TOL:
            raise CheckFailed(f"estimates {eigs}, exact eigenvalues {exact}")
    if free:
        expected = -1.0 / np.tan(theta) ** 2
        if rep.count != 1 or abs(eigs[0] - expected) > FREE_EIG_TOL:
            raise CheckFailed(f"V = 0 at θ = {theta}: {eigs}, expected [{expected}]")
    return (rep.count, rep.diagnostics["near_zero"])


WORKLOADS = {
    w.name: w for w in (
        Workload("verify_sweep", verify_cycles, verify_op, lambda: VERIFY_WARMUP,
                 tail_pct=75.0),
        # warm-up: a Neumann well at λ ≈ 0.4 on the shortest mesh
        Workload("fem_slicing", fem_cycles, fem_op,
                 lambda: next(fem_cycles(0))[3], tail_pct=95.0),
    )
}
