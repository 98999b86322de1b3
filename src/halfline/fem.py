"""Independent eigenvalue counter via quadratic-form discretization.

The operator's form  ∫|φ'|² - ⟨M Θ M† φ(0), φ(0)⟩ + ∫⟨Vφ, φ⟩  is
assembled with piecewise-linear finite elements on [0, L], truncated with
a hard Dirichlet condition at x = L.  Work happens in the rotated frame
where the boundary matrices are diagonal (potential conjugated to M†VM):
the boundary term is then a cotangent on each channel's origin node and
Dirichlet channels are essential constraints there.  Negative-eigenvalue
counts come from the inertia of K - E·Mass through a block-tridiagonal
LDL† recursion (Sylvester's law); eigenvalue estimates, when requested,
from inertia bisection (spectrum slicing) over the negative part.

Beyond the potential's reach the blocks of K - E·Mass are a·I on the
diagonal and b·I off it, so the Dirichlet-truncated tail is a constant
tridiagonal Toeplitz matrix.  For E <= 0 it is positive definite and
its Schur complement onto the last node the potential touches is
b²/d_T·I, with d_T the Chebyshev ratio |b|·sinh((T+1)t)/sinh(Tt),
cosh t = a/2|b| (a discrete transparent boundary condition).  The
inertia count eliminates the tail in that closed form and runs the LDL
recursion only over the nodes before it, so it costs O(support/h), not
O(L/h).  The truncation at L is unchanged: L remains a finite Dirichlet
cut, the matrix whose inertia is counted is the same as for a sweep
over every node (so, by Sylvester's law, is the count), and
EPS_NEAR_ZERO keeps its meaning.

Because P1 elements form a subspace of the form domain, discrete counts
never exceed the true count; refinement only adds states.  Along a
nested mesh ladder a count that falls is therefore reported as a fault.
"""

import numpy as np
from dataclasses import dataclass, field

import scipy.sparse as sp

from .boundary import BoundaryClassification, BoundaryPair, classify
from .errors import IndefiniteMass, MeshTooCoarse, NumericalSingularity, RegimeViolation
from .potentials import MatrixPotential

EPS_NEAR_ZERO = 1e-8    # discrete eigenvalues in (-EPS_NEAR_ZERO, 0) are truncation noise
DEFAULT_LADDER = ((40.0, 0.02), (80.0, 0.01), (160.0, 0.005))
_GAUSS_OFFSET = 0.5 / np.sqrt(3.0)   # 2-point Gauss nodes at mid ± h·offset


@dataclass(frozen=True)
class Discretization:
    """Uniform mesh on [0, L] with width h and hard Dirichlet at L."""

    L: float
    h: float

    def __post_init__(self):
        if self.h <= 0:
            raise MeshTooCoarse(f"mesh width must be positive, got {self.h}")
        if self.L < 10:
            raise MeshTooCoarse(f"truncation length must be >= 10, got {self.L}")

    @property
    def m(self) -> int:
        return int(round(self.L / self.h))


@dataclass
class CountReport:
    """Count of negative eigenvalues with optional estimates and diagnostics."""

    count: int
    eigenvalues: list | None
    converged: bool
    diagnostics: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "eigenvalues": self.eigenvalues,
            "converged": self.converged,
            "diagnostics": self.diagnostics,
        }


@dataclass
class FormMatrices:
    """Block-tridiagonal stiffness and mass data for the discretized form.

    Free nodes are 0..m-1 (node m is clamped); at node 0 only the
    channels in `keep0` (non-Dirichlet, in the rotated frame) are kept.
    `diag[i]`/`off[i]` are the n×n stiffness blocks, the mass is the
    scalar P1 pattern times the identity in channel space.  From node
    `tail_start` on, every block and every coupling into it has the
    potential-free pattern.
    """

    n: int
    m: int
    disc: Discretization
    keep0: np.ndarray
    diag: np.ndarray
    off: np.ndarray
    mass_diag: np.ndarray
    mass_off: np.ndarray
    classification: BoundaryClassification
    potential_scale: float
    tail_start: int

    @property
    def n_dof(self) -> int:
        return int(len(self.keep0)) + self.n * (self.m - 1)

    def to_sparse(self):
        """(K, Mass) as CSR matrices over the free DOFs."""
        n, m = self.n, self.m
        keep = self.keep0
        n0 = len(keep)
        offsets = np.concatenate(([0], n0 + n * np.arange(m)))

        entries_k: list[tuple[np.ndarray, int, int]] = []
        entries_m: list[tuple[np.ndarray, int, int]] = []
        for i in range(m):
            dofs = n0 if i == 0 else n
            blk = self.diag[i][np.ix_(keep, keep)] if i == 0 else self.diag[i]
            entries_k.append((blk, offsets[i], offsets[i]))
            entries_m.append((self.mass_diag[i] * np.eye(dofs), offsets[i], offsets[i]))
            if i < m - 1:
                ob = self.off[i][keep, :] if i == 0 else self.off[i]
                mo = self.mass_off[i] * (np.eye(n)[keep, :] if i == 0 else np.eye(n))
                for block, store in ((ob, entries_k), (mo, entries_m)):
                    store.append((block, offsets[i], offsets[i + 1]))
                    store.append((block.conj().T, offsets[i + 1], offsets[i]))

        def build(entries):
            rows, cols, vals = [], [], []
            for block, r0, c0 in entries:
                r, c = np.indices(block.shape)
                rows.append(r.ravel() + r0)
                cols.append(c.ravel() + c0)
                vals.append(np.asarray(block, dtype=complex).ravel())
            nd = self.n_dof
            return sp.csr_matrix(
                (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                shape=(nd, nd),
            )

        return build(entries_k), build(entries_m)


def _potential_element_blocks(V: MatrixPotential, M: np.ndarray, disc: Discretization):
    """Per-element integrals of the rotated potential against the P1 hats.

    Returns (LL, LR, RR) arrays of shape (m, n, n): the contributions of
    element [x_e, x_e + h] to the (e,e), (e,e+1) and (e+1,e+1) blocks.
    Uses 2-point Gauss (exact for piecewise-linear data), with an exact
    overlap correction for square-well edges interior to an element.
    """
    h, m = disc.h, disc.m
    lefts = np.arange(m) * h
    lo, hi = V.support()
    active = (lefts + h > lo - h) & (lefts < hi + h)
    n = V.n
    LL = np.zeros((m, n, n), dtype=complex)
    LR = np.zeros((m, n, n), dtype=complex)
    RR = np.zeros((m, n, n), dtype=complex)
    if not np.any(active):
        return LL, LR, RR

    idx = np.nonzero(active)[0]
    s = _GAUSS_OFFSET
    g1 = lefts[idx] + h * (0.5 - s)
    g2 = lefts[idx] + h * (0.5 + s)
    V1 = V.values(g1)
    V2 = V.values(g2)
    Mh = M.conj().T
    V1 = np.einsum("ab,xbc,cd->xad", Mh, V1, M)
    V2 = np.einsum("ab,xbc,cd->xad", Mh, V2, M)
    wl1, wl2 = 0.5 + s, 0.5 - s   # left-hat values at the two Gauss nodes
    LL[idx] = (h / 2) * (wl1**2 * V1 + wl2**2 * V2)
    RR[idx] = (h / 2) * (wl2**2 * V1 + wl1**2 * V2)
    LR[idx] = (h / 2) * (wl1 * wl2) * (V1 + V2)

    if V.kind == "square_well" and hi > lo:
        # a well edge strictly inside an element: replace the Gauss value
        # with the exact hat-product overlap against the constant depth
        depth = Mh @ V.depth @ M
        for edge in (lo, hi):
            e = int(np.floor(edge / h))
            if not 0 <= e < m:
                continue
            xl, xr = e * h, (e + 1) * h
            if not xl < edge < xr:
                continue
            p, q = max(xl, lo), min(xr, hi)
            e_ll = e_lr = e_rr = 0.0
            if q > p:
                e_ll = ((xr - p) ** 3 - (xr - q) ** 3) / (3 * h * h)
                e_rr = ((q - xl) ** 3 - (p - xl) ** 3) / (3 * h * h)
                u1, u2 = p - xl, q - xl
                e_lr = (h * (u2**2 - u1**2) / 2 - (u2**3 - u1**3) / 3) / (h * h)
            LL[e] = e_ll * depth
            RR[e] = e_rr * depth
            LR[e] = e_lr * depth

    return LL, LR, RR


def assemble_form_matrix(pair: BoundaryPair, V: MatrixPotential,
                         disc: Discretization,
                         classification: BoundaryClassification | None = None
                         ) -> FormMatrices:
    """Assemble the discretized form as block-tridiagonal (K, Mass) data."""
    cls = classification if classification is not None else classify(pair)
    n, m, h = cls.n, disc.m, disc.h
    if m < 100:
        raise MeshTooCoarse(f"need at least 100 nodes, got {m}")
    if V.n != n:
        raise RegimeViolation(f"potential dimension {V.n} != pair dimension {n}")

    eye = np.eye(n)
    diag_free, off_free = (2.0 / h) * eye, (-1.0 / h) * eye
    mass_diag_free, mass_off_free = 2 * h / 3, h / 6
    diag = np.empty((m, n, n), dtype=complex)
    off = np.empty((m - 1, n, n), dtype=complex)
    diag[:] = diag_free
    diag[0] = (1.0 / h) * eye - np.diag(cls.Theta)
    off[:] = off_free

    mass_diag = np.full(m, mass_diag_free)
    mass_diag[0] = h / 3
    mass_off = np.full(m - 1, mass_off_free)
    row_sums = np.zeros(m)
    row_sums[:-1] += np.abs(mass_off)
    row_sums[1:] += np.abs(mass_off)
    if np.any(mass_diag - row_sums <= 0):
        raise IndefiniteMass("assembled mass matrix lost diagonal dominance")

    LL, LR, RR = _potential_element_blocks(V, cls.M, disc)
    diag[:m] += LL
    diag[1:m] += RR[: m - 1]
    off[: m - 1] += LR[: m - 1]

    # the tail starts after the last node whose block, or whose coupling to
    # the next node, differs from the free pattern; node 0 never belongs to it
    odd_node = (np.any(diag != diag_free, axis=(1, 2))
                | (mass_diag != mass_diag_free))
    odd_link = (np.any(off != off_free, axis=(1, 2))
                | (mass_off != mass_off_free))
    last_odd = np.concatenate(([0], np.flatnonzero(odd_node),
                               np.flatnonzero(odd_link) + 1)).max()

    keep0 = np.nonzero(cls.thetas != np.pi)[0]
    pot_scale = float(np.linalg.norm(LL, axis=(1, 2)).max()) / (h / 2)
    return FormMatrices(
        n=n,
        m=m,
        disc=disc,
        keep0=keep0,
        diag=diag,
        off=off,
        mass_diag=mass_diag,
        mass_off=mass_off,
        classification=cls,
        potential_scale=pot_scale,
        tail_start=int(last_odd) + 1,
    )


def _inertia_blocks(diags, offs) -> int:
    """Negative-eigenvalue count of a Hermitian block-tridiagonal matrix.

    Block LDL†: D_{i+1} = A_{i+1} - B_i† D_i^{-1} B_i; by congruence the
    matrix inertia is the sum of the block inertias.
    """
    if not len(diags):
        return 0
    count = 0
    D = np.array(diags[0])
    for i in range(len(diags)):
        if D.shape == (1, 1):
            if D[0, 0].real < 0:
                count += 1
        else:
            count += int(np.count_nonzero(np.linalg.eigvalsh(D) < 0))
        if i < len(offs):
            B = offs[i]
            try:
                X = np.linalg.solve(D, B)
            except np.linalg.LinAlgError as exc:
                raise NumericalSingularity("LDL pivot block singular") from exc
            D = diags[i + 1] - B.conj().T @ X
    return count


def _inertia_scalar(d, o) -> int:
    """Fast Sturm recursion for n = 1 (plain float loop over lists)."""
    if not d:
        return 0
    count = 0
    prev = d[0]
    if prev < 0:
        count += 1
    if prev == 0.0:
        raise NumericalSingularity("LDL pivot is exactly zero")
    for i in range(1, len(d)):
        cur = d[i] - o[i - 1] * o[i - 1] / prev
        if cur < 0:
            count += 1
        if cur == 0.0:
            raise NumericalSingularity("LDL pivot is exactly zero")
        prev = cur
    return count


def _tail_schur(h: float, E: float, T: int) -> float | None:
    """Schur complement b²/d_T of the T-node free tail onto the node before it.

    The tail is the T×T tridiagonal Toeplitz matrix with a = 2/h - (2h/3)E
    on the diagonal and b = -1/h - (h/6)E off it, times I in channel
    space.  For E <= 0 it is positive definite (its eigenvalues are
    a + 2|b|cos(kπ/(T+1)) >= a - 2|b| >= 0 with a strict first inequality),
    so it adds no negative pivot, and its last backward LDL pivot is
    d_T = |b|·sinh((T+1)t)/sinh(Tt) with cosh t = a/2|b|.  Returns None
    when E > 0, where the tail is indefinite.
    """
    b = -1.0 / h - (h / 6) * E
    if T == 0 or b == 0.0:
        return 0.0
    # a - 2|b| in closed form, free of the cancellation between a and 2|b| near E = 0
    gap = -h * E if b < 0 else 4.0 / h - (h / 3) * E
    delta = gap / (2 * abs(b))
    if delta < 0:
        return None
    t = np.log1p(delta + np.sqrt(delta * (delta + 2.0)))
    if t == 0.0:
        ratio = (T + 1) / T
    else:
        ratio = np.exp(t) * np.expm1(-2 * (T + 1) * t) / np.expm1(-2 * T * t)
    return abs(b) / ratio


def _inertia_condensed(fm: FormMatrices, E: float) -> int:
    """Inertia count with the free tail eliminated in closed form."""
    n, keep = fm.n, fm.keep0
    j0 = fm.tail_start
    s = _tail_schur(fm.disc.h, E, fm.m - j0)
    if s is None:
        # indefinite tail (E > 0): sweep every node
        j0, s = fm.m, 0.0
    eye = np.eye(n)
    diags = fm.diag[:j0] - E * fm.mass_diag[:j0, None, None] * eye
    offs = fm.off[:j0 - 1] - E * fm.mass_off[:j0 - 1, None, None] * eye
    diags[-1] -= s * eye
    if len(keep) == 0:
        # every channel Dirichlet: node 0 carries no DOF
        diags, offs = diags[1:], offs[1:]
    elif len(keep) < n:
        diags = [diags[0][np.ix_(keep, keep)], *diags[1:]]
        offs = [offs[0][keep, :], *offs[1:]] if len(offs) else offs
    if n == 1:
        return _inertia_scalar(diags[:, 0, 0].real.tolist(),
                               offs[:, 0, 0].real.tolist())
    return _inertia_blocks(diags, offs)


def inertia_below(fm: FormMatrices, E: float) -> int:
    """Number of generalized eigenvalues of (K, Mass) below E."""
    shift = 0.0
    for attempt in range(4):
        try:
            return _inertia_condensed(fm, E + shift)
        except NumericalSingularity:
            # exact tie with a pivot: nudge the shift and retry
            shift = (attempt + 1) * 1e-11 * max(1.0, abs(E))
    raise NumericalSingularity(f"inertia failed at E = {E} after pivot nudges")


def _spectrum_floor(fm: FormMatrices) -> float:
    """A certified value below the smallest generalized eigenvalue."""
    cls = fm.classification
    cot_sq = float(np.max(cls.Theta**2)) if len(cls.Theta) else 0.0
    sigma = -(fm.potential_scale + cot_sq + 2.0)
    for _ in range(80):
        if inertia_below(fm, sigma) == 0:
            return sigma
        sigma *= 2.0
    raise NumericalSingularity("could not bracket the spectrum from below")


def eigenvalue_estimates(fm: FormMatrices, count: int,
                         rel_tol: float = 1e-7) -> list[float]:
    """The `count` smallest generalized eigenvalues by inertia bisection.

    Spectrum slicing on the Sturm count is immune to the clustering that
    defeats shift-invert iterations when a shallow state sits against
    the discretized continuum edge.
    """
    if count == 0:
        return []
    cache: dict[float, int] = {}

    def below(x: float) -> int:
        if x not in cache:
            cache[x] = inertia_below(fm, x)
        return cache[x]

    floor = _spectrum_floor(fm)
    out = []
    for k in range(1, count + 1):
        lo, hi = floor, -EPS_NEAR_ZERO
        # invariant: below(lo) < k <= below(hi)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if hi - lo <= max(1e-12, rel_tol * abs(mid)):
                break
            if below(mid) >= k:
                hi = mid
            else:
                lo = mid
        out.append(0.5 * (lo + hi))
    return sorted(out)


@dataclass
class LadderCounts:
    """Counts below a tuple of shifts on the rungs of a mesh ladder."""

    rows: list             # (L, h, count below each shift) per rung run
    converged: bool        # the last two rungs agree on every count
    drops: list            # counts that fell between rungs that are not nested
    fm: FormMatrices       # the last rung's matrices


def _nested(coarse: Discretization, fine: Discretization) -> bool:
    """Whether the coarse P1 space is a subspace of the fine one.

    It is when h_coarse/h_fine is an integer r, so every coarse node is a
    fine node, and the coarse mesh ends no later than the fine one.
    """
    ratio = coarse.h / fine.h
    r = round(ratio)
    return r >= 1 and abs(ratio - r) <= 1e-9 * ratio and coarse.m * r <= fine.m


def count_ladder(pair: BoundaryPair, V: MatrixPotential, shifts,
                 ladder=DEFAULT_LADDER,
                 classification: BoundaryClassification | None = None) -> LadderCounts:
    """Counts below every shift on each (L, h) rung until two rungs agree.

    Each rung is assembled once and counted at every shift; the ladder
    stops at the first rung whose counts all equal the previous rung's.
    By min-max a finer rung counts at least as many states as a coarser
    rung it nests, so a count that falls between nested rungs raises
    NumericalSingularity.  (The argument is exact for square wells and
    holds up to the 2-point Gauss quadrature error for other potentials.)
    Between rungs that are not nested a fall is recorded in `drops`.
    """
    cls = classification if classification is not None else classify(pair)
    rows, drops = [], []
    prev = None
    for (L, h) in ladder:
        disc = Discretization(L=float(L), h=float(h))
        fm = assemble_form_matrix(pair, V, disc, classification=cls)
        counts = tuple(inertia_below(fm, E) for E in shifts)
        if prev is not None:
            for E, before, after in zip(shifts, rows[-1][2:], counts):
                if after >= before:
                    continue
                if _nested(prev, disc):
                    raise NumericalSingularity(
                        f"count below E = {E} fell from {before} on rung "
                        f"(L={prev.L}, h={prev.h}) to {after} on the nested finer "
                        f"rung (L={disc.L}, h={disc.h})")
                drops.append({"from": [prev.L, prev.h], "to": [disc.L, disc.h],
                              "E": E, "counts": [before, after]})
        rows.append((disc.L, disc.h, *counts))
        prev = disc
        if len(rows) >= 2 and rows[-1][2:] == rows[-2][2:]:
            return LadderCounts(rows, True, drops, fm)
    return LadderCounts(rows, False, drops, fm)


def count_negative(pair: BoundaryPair, V: MatrixPotential, disc: Discretization,
                   E: float = 0.0, estimates: bool = True) -> CountReport:
    """Count generalized eigenvalues below E (E <= 0) on one mesh.

    The report says `converged=False`: one mesh cannot show that the
    count has converged (use `converge_count` for a ladder).
    """
    if E > 0:
        raise RegimeViolation(f"shift must be <= 0, got E = {E}")
    return converge_count(pair, V, ladder=((disc.L, disc.h),), E=E,
                          estimates=estimates)


def converge_count(pair: BoundaryPair, V: MatrixPotential,
                   ladder=DEFAULT_LADDER, E: float = 0.0,
                   estimates: bool = True) -> CountReport:
    """Count below E over a (L, h) ladder until two rungs agree.

    At E = 0 the count excludes the window (-EPS_NEAR_ZERO, 0): the
    continuum operator has no zero eigenvalue, so discrete values there
    are truncation artifacts (they are flagged in the diagnostics).
    Non-convergence is reported in the flag, never raised; a count that
    falls between nested rungs raises (see `count_ladder`).
    """
    lad = count_ladder(pair, V, (-EPS_NEAR_ZERO if E == 0.0 else E,), ladder)
    count = lad.rows[-1][2]
    near_zero = inertia_below(lad.fm, 0.0) - count if E == 0.0 else 0
    eigs = eigenvalue_estimates(lad.fm, count) if estimates else None
    return CountReport(
        count=count,
        eigenvalues=eigs,
        converged=lad.converged,
        diagnostics={"ladder": lad.rows, "E": E, "near_zero": near_zero,
                     "drops": lad.drops},
    )
