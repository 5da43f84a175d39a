"""Weyl-von Neumann decomposition of antilinear skew-self-adjoint operators.

The construction follows the finite-rank projection argument: split the
spectrum of |A| into n cells, push a seed vector through the spectral
projections to obtain an (f_k, kappa f_k) family, project onto its span,
and cancel the off-diagonal coupling with a small skew-self-adjoint
perturbation.  Iterating with a halving norm budget yields A = K + D with
||K||_p < epsilon and D block skew-diagonal.

Each outer step factors its operator once, for kappa and the resolution of
|A|, and doubles the cell count until its perturbation fits the budget.
The attempts are screened in the eigenbasis of |A|, where the step is
block-diagonal by cell, at O(n^2) cost each; only the attempt that the
screen cannot reject is formed densely and certified by its Schatten norm.
Youla puts each captured block of D in block form; the numerical kernel
left at the end joins the basis as pairs with d = 0.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import matcore
from .antilinear import (
    AntilinearOperator,
    Conjugation,
    is_skew_self_adjoint,
    is_tau_skew_symmetric,
    tau_fixed_basis,
)
from .canonical import CLUSTER_TOL, block_skew_matrix, polar_kappa, youla_decompose
from .errors import (
    BudgetFailure,
    InvalidP,
    KernelMismatch,
    NotSkewSelfAdjoint,
    NotSkewSymmetric,
    OddKernel,
    SkewvnError,
    ZeroVector,
)
from .matcore import DEFAULT_TOL, frob
from .schatten import schatten_norm

SEED_TOL = 1e-10
CELL_DROP_TOL = 1e-12
N_MAX = 2**20
# Bounds on the rounding error of _step_norm_estimate, relative and times
# ||A|| (at most 3e-9 and 1.3e-14 on generic, clustered and near-degenerate
# inputs up to n = 128); an attempt is skipped only when its estimate clears
# the budget by more, so rounding cannot skip a step the dense norm accepts.
SCREEN_RTOL = 1e-6
SCREEN_ATOL = 1e-12


@dataclass(frozen=True)
class SpectralResolution:
    """Clustered eigenvectors of |A|, so that E(omega) f = V_omega (V_omega* f).

    Column j of ``vectors`` has the eigenvalue ``eigenvalues[cluster_of[j]]``.
    """

    a: float
    b: float
    eigenvalues: np.ndarray
    vectors: np.ndarray
    cluster_of: np.ndarray

    def cluster_vectors(self, j):
        """Orthonormal basis of the eigenspace of cluster j."""
        return self.vectors[:, self.cluster_of == j]

    def cells(self, n):
        """Cell of each cluster in the uniform partition of [a, b] into n
        cells [a + (k-1)h, a + kh), the last one closed at b; n for a value
        above b."""
        lam = self.eigenvalues
        edges = self.a + np.arange(1, n) * ((self.b - self.a) / n)
        cell = np.searchsorted(edges, lam, side="right")
        cell[lam > self.b] = n
        return cell

    def projection(self, clusters):
        """Dense eigenprojection E(omega) onto the clusters in a boolean mask."""
        v = self.vectors[:, clusters[self.cluster_of]]
        return v @ v.conj().T


@dataclass(frozen=True)
class StepResult:
    """One rank-projection step; cells are indexed 0 .. n-1 from the left.

    ``saturated``: every kept cell holds one cluster, so finer cells give the
    same P and K.
    """

    p: np.ndarray
    k: AntilinearOperator
    kept_cells: np.ndarray
    saturated: bool


@dataclass(frozen=True)
class WvnResult:
    k: AntilinearOperator
    d: AntilinearOperator
    basis: list
    d_values: np.ndarray
    p: float
    epsilon: float
    achieved_norm: float


def spectral_resolution(a, tol=DEFAULT_TOL, spectrum=None):
    """Eigenvalues and eigenvectors of |A|, clustered at relative gap 1e-8.

    ``spectrum`` is a precomputed ``matcore.singular_spectrum(a.mat)``.
    """
    if not is_skew_self_adjoint(a, tol):
        raise NotSkewSelfAdjoint("operator is not skew-self-adjoint")
    s, v = matcore.singular_spectrum(a.mat) if spectrum is None else spectrum
    s_max = float(s[-1]) if s.size else 0.0
    clusters = matcore.cluster_indices(list(s), CLUSTER_TOL * max(s_max, 1e-300))
    return SpectralResolution(
        a=0.0,
        b=s_max,
        eigenvalues=np.array([float(np.mean(s[c])) for c in clusters]),
        vectors=v,
        cluster_of=np.repeat(np.arange(len(clusters)), [len(c) for c in clusters]),
    )


def spectral_measure_G(a, kappa, clusters, res=None):
    """G(omega) = kappa E(omega), the antilinear spectral measure of A, with
    omega given by a boolean mask over the clusters of ``res``."""
    if res is None:
        res = spectral_resolution(a)
    e = res.projection(clusters)
    return AntilinearOperator(kappa.mat @ np.conj(e))


@dataclass(frozen=True)
class _CellCut:
    """The seed cut along an n-cell partition, column by column of V.

    ``cell[j]`` is the cell of column j (``n`` for no cell), ``phi[j]`` the
    coefficient of the stacked normalised f_k = E(omega_k) f / ||E(omega_k) f||
    on column j, and ``kept`` the cells where f_k does not vanish.
    """

    n: int
    cell: np.ndarray
    phi: np.ndarray
    kept: np.ndarray
    saturated: bool


def _cut_cells(res, f, n):
    """Place the clusters in cells (``res.cells``) and split the seed along them."""
    f = np.asarray(f, dtype=complex).reshape(-1)
    fnorm = np.linalg.norm(f)
    if fnorm == 0.0:
        raise ZeroVector("seed vector is zero")
    cell = res.cells(n)
    col_cell = cell[res.cluster_of]
    coef = res.vectors.conj().T @ f
    mass = np.bincount(col_cell, weights=np.abs(coef) ** 2, minlength=n + 1)
    keep = np.sqrt(mass) > CELL_DROP_TOL * fnorm
    keep[n] = False
    kept = np.flatnonzero(keep)
    scale = np.sqrt(np.where(keep[col_cell], mass[col_cell], 1.0))
    return _CellCut(
        n=n,
        cell=col_cell,
        phi=np.where(keep[col_cell], coef / scale, 0.0),
        kept=kept,
        saturated=bool(np.all(np.bincount(cell, minlength=n + 1)[kept] == 1)),
    )


def rank_projection_step(a, kappa, f, n, tol=DEFAULT_TOL, res=None):
    """One finite-rank reduction step.

    Builds f_k = E(omega_k) f and g_k = kappa f_k over an n-cell partition
    of [0, ||A||], drops the cells where f_k vanishes, projects onto the
    span, and returns the projection P together with the skew-self-adjoint
    perturbation K = -(I-P)AP - PA(I-P), so that A + K is reduced by R(P).
    """
    if res is None:
        res = spectral_resolution(a, tol)
    cut = _cut_cells(res, f, n)
    # column j of F is f_k for the j-th kept cell k
    fs = res.vectors @ ((cut.cell[:, None] == cut.kept) * cut.phi[:, None])
    q = np.hstack([fs, kappa.mat @ np.conj(fs)])
    p = q @ q.conj().T
    p = (p + p.conj().T) / 2.0
    ident = np.eye(a.dim)
    # antilinear composition: matrix of X o A o Y is X @ a.mat @ conj(Y)
    k_mat = -(ident - p) @ a.mat @ np.conj(p) - p @ a.mat @ np.conj(ident - p)
    return StepResult(
        p=p, k=AntilinearOperator(k_mat), kept_cells=cut.kept, saturated=cut.saturated
    )


def _cell_sums(cell, x, n):
    """Per-cell sums of the complex entries x, cell n included."""
    return np.bincount(cell, weights=x.real, minlength=n + 1) + 1j * np.bincount(
        cell, weights=x.imag, minlength=n + 1
    )


def _step_norm_estimate(a, kappa, res, cut, p):
    """||K||_p of the step for ``cut``, without forming P or K.

    In the eigenbasis V of |A| both A and kappa are block-diagonal by
    cluster, so P and K are block-diagonal by cell and
    ||K||_p^p = 2 sum_k ||Y_k||_p^p with Y_k = (I - P_k) A [f_k, kappa f_k].
    The stacked phi = sum_k f_k gives every Y_k from a few mat-vecs; the
    2x2 Gram matrices of the Y_k come from per-cell sums.  Vectors are
    scaled by a power of two near 1/||A|| so that the Gram entries neither
    overflow nor underflow, and the result scales exactly with A.
    """
    n = cut.n
    shift = matcore.pow2_exponent(res.b)
    v = res.vectors
    f_hat = cut.phi  # phi in the basis V
    phi = v @ f_hat
    g = kappa.mat @ np.conj(phi)
    ay = math.ldexp(1.0, -shift) * (a.mat @ np.conj(np.column_stack([phi, g])))
    g_hat, *ay_hat = (v.conj().T @ np.column_stack([g, ay])).T
    resid = []
    for u in ay_hat:
        # Gram-Schmidt against f_k and kappa f_k inside each cell
        cf = _cell_sums(cut.cell, np.conj(f_hat) * u, n)
        cg = _cell_sums(cut.cell, np.conj(g_hat) * u, n)
        resid.append(u - f_hat * cf[cut.cell] - g_hat * cg[cut.cell])
    r1, r2 = resid
    g11 = np.bincount(cut.cell, weights=np.abs(r1) ** 2, minlength=n + 1)
    g22 = np.bincount(cut.cell, weights=np.abs(r2) ** 2, minlength=n + 1)
    g12 = _cell_sums(cut.cell, np.conj(r1) * r2, n)
    mid = (g11 + g22) / 2.0
    rad = np.hypot((g11 - g22) / 2.0, np.abs(g12))
    s = np.sqrt(np.maximum(np.concatenate([mid + rad, mid - rad]), 0.0))
    smax = float(s.max(initial=0.0))
    if smax == 0.0:
        return 0.0
    return math.ldexp(smax * float(2.0 * np.sum((s / smax) ** p)) ** (1.0 / p), shift)


def _check_p(p):
    if not (1 < p < math.inf):
        raise InvalidP(f"the decomposition needs 1 < p < inf, got {p}")


def _projection_split(p):
    """Orthonormal bases of R(P) and R(I-P) from an approximate projection."""
    w, v = np.linalg.eigh(p)
    inside = v[:, w > 0.5]
    outside = v[:, w <= 0.5]
    return inside, outside


def wvn_decompose(a, epsilon, p=2.0, tol=DEFAULT_TOL, rank_tol=DEFAULT_TOL):
    """Decompose A = K + D with ||K||_p < epsilon and D block skew-diagonal.

    Repeats the rank-projection step on the unexplored complement, seeding
    each step with the first standard basis vector not yet captured and
    doubling the partition size until the step perturbation fits the
    halving budget epsilon / 2^j, and stopping once the compression to the
    complement is below rank_tol * ||A||, that is numerical kernel.  Each
    captured block is then exactly skew-diagonalized to produce the paired
    basis and the d-sequence; the kernel left over is paired with d = 0.
    D is A plus the sum of the step perturbations and K is minus that sum,
    so A - K - D vanishes exactly.  Raises BudgetFailure as soon as finer
    cells cannot change a step that misses its budget.
    """
    _check_p(p)
    if epsilon <= 0:
        raise SkewvnError("epsilon must be positive")
    if not is_skew_self_adjoint(a, tol):
        raise NotSkewSelfAdjoint("operator is not skew-self-adjoint")
    n = a.dim
    mat = a.mat
    k_total = np.zeros((n, n), dtype=complex)
    w = np.eye(n, dtype=complex)  # orthonormal basis of the unexplored complement
    blocks = []
    step_index = 0
    while w.shape[1] > 0:
        step_index += 1
        sub = w.conj().T @ (mat + k_total) @ np.conj(w)
        a_sub = AntilinearOperator(sub)
        spectrum = matcore.singular_spectrum(sub)
        s = spectrum[0]
        if step_index == 1:  # sub is A itself
            norm_a = s[-1]
            kernel_dim = int(np.count_nonzero(s <= rank_tol * norm_a))
            if kernel_dim % 2 != 0:
                raise OddKernel(f"numerical kernel dimension {kernel_dim} is odd")
        elif s[-1] <= rank_tol * norm_a:
            # the rest is numerical kernel of A; its own roundoff spectrum
            # need not pair, so it is not decomposed further
            break
        # seed: first standard basis vector with mass left in the complement
        seeds = np.flatnonzero(np.linalg.norm(w, axis=1) > SEED_TOL)
        if seeds.size == 0:
            break
        f_sub = w[seeds[0]].conj()
        kappa = polar_kappa(a_sub, tol=tol, rank_tol=rank_tol, spectrum=spectrum)
        res = spectral_resolution(a_sub, tol, spectrum=spectrum)
        budget = epsilon / 2.0**step_index
        cells = 4
        while True:
            cut = _cut_cells(res, f_sub, cells)
            estimate = _step_norm_estimate(a_sub, kappa, res, cut, p)
            # every accepted step and every BudgetFailure is decided by the
            # dense norm; the estimate only skips attempts that finer cells
            # can still improve
            last = cut.saturated or cells >= N_MAX
            if last or estimate * (1.0 - SCREEN_RTOL) - SCREEN_ATOL * res.b < budget:
                step = rank_projection_step(a_sub, kappa, f_sub, cells, tol, res=res)
                norm = schatten_norm(step.k, p)
                if norm < budget:
                    break
                if step.saturated or cells >= N_MAX:
                    raise BudgetFailure(
                        f"||K||_p = {norm:.3e} >= budget {budget:.3e} at outer step "
                        f"{step_index}: {cells} cells for {res.eigenvalues.size} clusters"
                        + ("; finer cells give the same step" if step.saturated else "")
                    )
            cells *= 2
        k_total = k_total + w @ step.k.mat @ w.T
        inside, outside = _projection_split(step.p)
        blocks.append(w @ inside)
        w = w @ outside

    d_mat = mat + k_total
    basis = []
    d_values = []
    for vb in blocks:
        sub_d = vb.conj().T @ d_mat @ np.conj(vb)
        yres = youla_decompose(sub_d, tol=1e-8)
        # Youla columns hold (f, e) for each r_j, then the kernel pairs with d = 0
        cols = vb @ yres.u
        paired = 2 * yres.r.size
        basis.extend((cols[:, j + 1], cols[:, j]) for j in range(0, paired, 2))
        basis.extend((cols[:, j], cols[:, j + 1]) for j in range(paired, cols.shape[1], 2))
        d_values.extend([float(r) for r in yres.r] + [0.0] * (yres.kernel_dim // 2))
    # the numerical kernel left when the loop stops early, d = 0
    basis.extend((w[:, j], w[:, j + 1]) for j in range(0, w.shape[1], 2))
    d_values.extend([0.0] * (w.shape[1] // 2))

    k = AntilinearOperator(-k_total)
    return WvnResult(
        k=k,
        d=AntilinearOperator(d_mat),
        basis=basis,
        d_values=np.array(d_values),
        p=p,
        epsilon=epsilon,
        achieved_norm=schatten_norm(k, p),
    )

@dataclass(frozen=True)
class SkewWvnResult:
    k: np.ndarray
    d: np.ndarray
    u: np.ndarray
    d_values: np.ndarray
    achieved_norm: float


def skew_symmetric_wvn(t, tau, epsilon, p=2.0, tol=DEFAULT_TOL, rank_tol=DEFAULT_TOL):
    """T = K + U D U^tr for a tau-skew-symmetric linear operator T.

    D is the literal block matrix diag of d_j [[0, 1], [-1, 0]] in the
    standard basis.  For the standard conjugation the identity uses the
    plain transpose; for a general tau the transpose is taken in a
    tau-fixed basis, which amounts to T = K + U D U^T conj(C) with C the
    matrix of tau.
    """
    _check_p(p)
    t = matcore.require_square(t)
    if not is_tau_skew_symmetric(t, tau, tol):
        raise NotSkewSymmetric("matrix is not tau-skew-symmetric within tolerance")
    r_basis = tau_fixed_basis(tau)
    t_fixed = r_basis.conj().T @ t @ r_basis  # plain skew-symmetric here
    a = AntilinearOperator(t_fixed)
    res = wvn_decompose(a, epsilon, p, tol, rank_tol)
    n = t.shape[0]
    k = r_basis @ res.k.mat @ r_basis.conj().T
    d = block_skew_matrix(res.d_values, n)
    cols = []
    for e, f in res.basis:
        # column order (f, e) makes U D U^tr reproduce the antilinear block form
        cols.extend([r_basis @ f, r_basis @ e])
    u = np.column_stack(cols) if cols else np.eye(n, dtype=complex)
    return SkewWvnResult(
        k=k, d=d, u=u, d_values=res.d_values, achieved_norm=res.achieved_norm
    )


def skew_wvn_residual(t, tau, result):
    """Frobenius residual of T - K - U D U^tr (tau-basis transpose)."""
    recon = result.k + result.u @ result.d @ result.u.T @ np.conj(tau.mat)
    return frob(t - recon)


def kernel_split_wvn(t, tau, epsilon, p=2.0, tol=DEFAULT_TOL, rank_tol=DEFAULT_TOL):
    """Kernel-splitting variant: works for any kernel dimension when
    N(T) = N(T*).

    Splits H into the numerical kernel and its complement, runs the
    decomposition on the (injective) compression, and re-embeds with the
    identity on the kernel block.
    """
    _check_p(p)
    t = matcore.require_square(t)
    if not is_tau_skew_symmetric(t, tau, tol):
        raise NotSkewSymmetric("matrix is not tau-skew-symmetric within tolerance")
    n = t.shape[0]
    u_sv, s, vh = np.linalg.svd(t)
    s_max = float(s[0]) if s.size else 0.0
    small = s <= rank_tol * max(s_max, 1e-300)
    ker_t = vh.conj().T[:, small]  # right null space
    ker_tstar = u_sv[:, small]  # null space of T*
    p_t = ker_t @ ker_t.conj().T
    p_tstar = ker_tstar @ ker_tstar.conj().T
    if frob(p_t - p_tstar) > max(tol, 1e-8):
        raise KernelMismatch("numerical kernels of T and T* differ")
    # tau must reduce N(T): tau of every kernel vector stays in the kernel
    tau_leak = frob((np.eye(n) - p_t) @ tau.mat @ np.conj(p_t))
    if tau_leak > max(tol, 1e-8):
        raise SkewvnError("conjugation does not reduce the kernel of T")

    if not small.any():
        # T is injective, so its compression to N(T)^perp is T itself
        return skew_symmetric_wvn(t, tau, epsilon, p, tol, rank_tol)
    if ker_t.shape[1] == n:
        return SkewWvnResult(
            k=np.zeros((n, n), dtype=complex),
            d=np.zeros((n, n), dtype=complex),
            u=np.eye(n, dtype=complex),
            d_values=np.zeros(0),
            achieved_norm=0.0,
        )

    b_ker = tau_fixed_basis(tau, ker_t)
    perp = u_sv[:, ~small]  # range of T = N(T)^perp here
    b_perp = tau_fixed_basis(tau, perp)
    t2 = b_perp.conj().T @ t @ b_perp
    tau2 = Conjugation.standard(t2.shape[0])
    sub = skew_symmetric_wvn(t2, tau2, epsilon, p, tol, rank_tol)
    k = b_perp @ sub.k @ b_perp.conj().T
    d = block_skew_matrix(sub.d_values, n)
    u = np.column_stack([b_perp @ sub.u, b_ker])
    return SkewWvnResult(
        k=k, d=d, u=u, d_values=sub.d_values, achieved_norm=sub.achieved_norm
    )
