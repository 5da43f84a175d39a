"""Weyl-von Neumann decomposition of antilinear skew-self-adjoint operators.

The finite-rank projection argument: split the spectrum of |A| into n
cells, push a seed through the spectral projections to get the family
(f_k, kappa f_k), project onto its span with P and cancel the coupling with
K = -(I-P)AP - PA(I-P).  Iterating, each step within half of the budget
left, gives A = K + D with ||K||_p < epsilon and D block skew-diagonal.
``rank_projection_step`` forms one step densely.  ``wvn_decompose`` factors
A once, with Youla, and takes every step in that basis, where A is the pair
form B and kappa swaps each pair: the step is block-diagonal by cell, its
||K||_p and the value d_k of each captured pair are per-cell sums, and the
rest of a kept cell, the complement of (f_k, kappa f_k) there, is again a
pair basis after one real eigensolve of |A| on it.  A kept cell of one
value up to roundoff, a single pair included, is captured whole, with
K = 0 there: E(omega_k) reduces A and its Youla pairs are D-blocks, so a
generic spectrum's WvN is its Youla form.  Kept cells write their pairs,
in Youla's layout, over Youla columns already read and coupled cells Y_k
into one n x n array, which give K, D and the basis; the kernel left
closes the basis, d = 0.  The linear corollaries run the same loop on T in
a tau-fixed basis: ``kernel_split_wvn`` reads N(T) off the same Youla form
and leaves it unpaired, last in U.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import matcore
from .antilinear import AntilinearOperator, tau_fixed_basis
from .canonical import block_skew_matrix, youla_decompose
from .errors import (
    BudgetFailure,
    InvalidP,
    KernelMismatch,
    SkewvnError,
    ZeroVector,
)
from .matcore import DEFAULT_TOL, frob
from .schatten import _schatten

CLUSTER_TOL = 1e-8
SEED_TOL = 1e-10
CELL_DROP_TOL = 1e-12
# a cell whose values spread by at most this times eps * b holds one value
COUPLING_EPS = 64.0
N_MAX = 2**20
# An epsilon at most ROUNDOFF_FLOOR * eps * ||A||_p is refused: the dense
# step leaves ||K||_2 = 11.5 ... 35 eps ||A||_F of roundoff once its cells
# saturate (generic inputs, n = 16 ... 512), so no such budget can be met.
ROUNDOFF_FLOOR = 8.0


@dataclass(frozen=True)
class SpectralResolution:
    """Clustered eigenvectors of |A|, so that E(omega) f = V_omega (V_omega* f).

    Column j of ``vectors`` has the eigenvalue ``eigenvalues[cluster_of[j]]``.
    """

    b: float
    eigenvalues: np.ndarray
    vectors: np.ndarray
    cluster_of: np.ndarray

    def cells(self, n):
        """Cell of each cluster in the uniform partition of [0, b] into n
        cells [(k-1)h, kh), the last one closed at b; n for a value above b."""
        lam = self.eigenvalues
        edges = np.arange(1, n) * (self.b / n)
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
    """``achieved_norm``, the sum of the outer steps' attempt norms, bounds
    ||K||_p; a cell captured whole has K = 0 but its roundoff counts, so on
    a generic spectrum it is the saturated step's roundoff while K = 0."""

    k: AntilinearOperator
    d: AntilinearOperator
    u: np.ndarray
    d_values: np.ndarray
    p: float
    epsilon: float
    achieved_norm: float

    @property
    def basis(self):
        """[(e_j, f_j)], views of ``u``, whose columns are f_1, e_1, f_2, ... as in Youla"""
        return list(zip(self.u[:, 1::2].T, self.u[:, 0::2].T))


def _resolve(vectors, lam):
    """Resolution with the descending eigenvalues lam on the columns of
    vectors; a gap above the cluster tolerance starts a new cluster, and
    clusters count upwards.  b is the top cluster's mean, which can round
    above lam[0]: every cluster then lies in a cell."""
    s_max = float(lam[0]) if lam.size else 0.0
    down = np.cumsum(-np.diff(lam, prepend=lam[:1]) > CLUSTER_TOL * max(s_max, 1e-300))
    cluster_of = down.max(initial=0) - down
    mean = np.bincount(cluster_of, weights=lam) / np.bincount(cluster_of)
    return SpectralResolution(float(mean.max(initial=0.0)), mean, vectors, cluster_of)


def spectral_resolution(youla):
    """Eigenvalues and eigenvectors of |A|, clustered at relative gap 1e-8,
    read off the Youla form M = U B U^tr of A: |A| = U diag(r_1, r_1, ...,
    0) U*, so the columns of U are its eigenvectors."""
    return _resolve(youla.u, np.concatenate([np.repeat(youla.r, 2), np.zeros(youla.kernel_dim)]))


def spectral_measure_G(kappa, clusters, res):
    """G(omega) = kappa E(omega), the antilinear spectral measure of A, with
    omega given by a boolean mask over the clusters of A's resolution ``res``."""
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


def _cut_cells(res, coef, n):
    """Place the clusters in cells (``res.cells``) and split the seed, given
    by its coefficients on the columns of ``res.vectors``, along them."""
    fnorm = np.linalg.norm(coef)
    if fnorm == 0.0:
        raise ZeroVector("seed vector is zero")
    cell = res.cells(n)
    col_cell = cell[res.cluster_of]
    mass = np.bincount(col_cell, weights=np.abs(coef) ** 2, minlength=n + 1)
    keep = np.sqrt(mass) > CELL_DROP_TOL * fnorm
    keep[n] = False
    kept, inside = np.flatnonzero(keep), keep[col_cell]
    phi = np.where(inside, coef / np.sqrt(np.where(inside, mass[col_cell], 1.0)), 0.0)
    saturated = bool(np.all(np.bincount(cell, minlength=n + 1)[kept] == 1))
    return _CellCut(n, col_cell, phi, kept, saturated)


def rank_projection_step(a, kappa, f, n, tol=DEFAULT_TOL, res=None):
    """One finite-rank reduction step, formed densely.

    Builds f_k = E(omega_k) f and g_k = kappa f_k over an n-cell partition
    of [0, ||A||], drops the cells where f_k vanishes, projects onto the
    span, and returns the projection P together with the skew-self-adjoint
    perturbation K = -(I-P)AP - PA(I-P), so that A + K is reduced by R(P).
    ``wvn_decompose`` takes the same step in a Youla basis.  ``res``
    defaults to ``spectral_resolution(youla_decompose(a.mat, tol))``.
    """
    if res is None:
        res = spectral_resolution(youla_decompose(a.mat, tol))
    f = np.asarray(f, dtype=complex).reshape(-1)
    cut = _cut_cells(res, res.vectors.conj().T @ f, n)
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


def _check_budget(epsilon, p):
    """Refuse p outside (1, inf) or epsilon <= 0 before any factorization."""
    if not (1 < p < math.inf):
        raise InvalidP(f"the decomposition needs 1 < p < inf, got {p}")
    _check_epsilon(epsilon)


def _check_epsilon(epsilon):
    """Refuse an epsilon that is not positive, NaN included."""
    if not epsilon > 0:
        raise SkewvnError(f"epsilon must be positive, got {epsilon}")


def _check_floor(r, epsilon, p):
    """Refuse an epsilon at or below ROUNDOFF_FLOOR eps ||A||_p, with
    ||A||_p read off the Youla pair values r."""
    norm_a = _schatten(r, p, 2.0)
    floor = ROUNDOFF_FLOOR * np.finfo(float).eps * norm_a
    if epsilon <= floor:
        raise BudgetFailure(
            f"epsilon {epsilon:.3e} is at or below the roundoff floor {floor:.3e} "
            f"= {ROUNDOFF_FLOOR:g} eps ||A||_p with ||A||_p = {norm_a:.3e}"
        )


def _swap(x):
    """J x with J = diag([[0, 1], [-1, 0]], ...): the pair form B with r = 1,
    and kappa(x) = J conj(x) in a pair basis."""
    out = np.empty_like(x)
    out[0::2] = x[1::2]
    out[1::2] = -x[0::2]
    return out


def _step_norm(lam, cut, p):
    """(||K||_p, d) of the step for ``cut`` in a pair basis with the values
    lam; d[k] is the value of the pair captured in cell k.  With w = |phi|^2,
    d_k = sum_k lam w, and Y_k = (I - P_k) A [f_k, kappa f_k]
    = [(lam - d_k) kappa f_k, (d_k - lam) f_k] has two singular values
    (sum_k (lam - d_k)^2 w)^(1/2), so ||K||_p^p = 4 sum_k of their p-th
    powers.  lam is scaled by a power of two, so the result scales exactly.
    """
    shift = matcore.pow2_exponent(lam)
    lam = np.ldexp(lam, -shift)
    w = np.abs(cut.phi) ** 2
    d = np.bincount(cut.cell, weights=lam * w, minlength=cut.n + 1)
    var = np.bincount(cut.cell, weights=(lam - d[cut.cell]) ** 2 * w, minlength=cut.n + 1)
    return math.ldexp(_schatten(np.sqrt(var), p, 4.0), shift), np.ldexp(d, shift)


def _cell_complement(v, lam, phi):
    """Pair basis and values of the complement of [f_k, kappa f_k] in a cell
    with the columns v, the values lam, not one value, and the seed
    coefficients phi of f_k.  The rotation [[a, -conj b], [b, conj a]] / rho
    of each pair (E, F), with (a, b) the seed's coefficients there, commutes
    with kappa and lam and takes the seed to E rho; the complement is E X,
    F X for the real X that diagonalizes H^tr diag(lam) H, H spanning
    rho^perp (Golub 1973)."""
    rho = np.hypot(np.abs(phi[0::2]), np.abs(phi[1::2]))
    al, be = phi.reshape(-1, 2).T / np.where(rho > 0.0, rho, 1.0)
    al += rho == 0.0  # the identity on a pair the seed misses
    rot = np.empty((lam.size, v.shape[0]), dtype=complex)  # rows: rotated E, F
    rot[0::2] = al[:, None] * v[:, 0::2].T + be[:, None] * v[:, 1::2].T
    rot[1::2] = np.conj(al)[:, None] * v[:, 1::2].T - np.conj(be)[:, None] * v[:, 0::2].T
    h = np.linalg.qr(rho[:, None], mode="complete")[0][:, 1:]
    shift = matcore.pow2_exponent(lam)
    mu, z = np.linalg.eigh(h.T @ (np.ldexp(lam[0::2], -shift)[:, None] * h))
    # E X and F X at once: X^tr times the rows of rot in pairs, as reals
    out = (z[:, ::-1].T @ h.T @ rot.reshape(rho.size, -1).view(float)).view(complex)
    return out.reshape(-1, v.shape[0]).T, np.ldexp(np.maximum(mu[::-1], 0.0), shift)


def wvn_decompose(a, epsilon, p=2.0, tol=DEFAULT_TOL, rank_tol=DEFAULT_TOL):
    """Decompose A = K + D with ||K||_p < epsilon and D block skew-diagonal.

    Repeats the rank-projection step on the unexplored complement, seeded
    with the first standard basis vector not yet captured, doubling the
    cells until the step fits half of the budget left, (epsilon - spent) / 2,
    until the rest is below rank_tol * ||A||, numerical kernel paired with
    d = 0.  Each kept cell captures all of E(omega_k), with its Youla values
    and K = 0 there, if its values are one up to COUPLING_EPS eps ||A||, as a
    single pair's are, or else (f_k, kappa f_k) with d_k = <kappa f_k, A f_k>.
    D = A + sum of the steps and K = -sum, so A - K - D vanishes exactly.
    Raises NotSkewSymmetric as ``youla_decompose`` does, OddKernel for an
    odd numerical kernel, and BudgetFailure when epsilon <= ROUNDOFF_FLOOR
    eps ||A||_p or finer cells cannot change a step that misses its budget.
    """
    _check_budget(epsilon, p)
    k, u, d_values, spent = _wvn(youla_decompose(a.mat, tol, rank_tol), epsilon, p, tol,
                                 rank_tol)
    return WvnResult(k=AntilinearOperator(k), d=AntilinearOperator(a.mat - k), u=u,
                     d_values=d_values, p=p, epsilon=epsilon, achieved_norm=spent)


def _wvn(youla, epsilon, p, tol, rank_tol, split_kernel=False):
    """(K, U, d, sum of the step norms) of ``wvn_decompose`` for an epsilon
    and p that ``_check_budget`` admits.  U is ``youla.u``, overwritten, so
    callers do not read ``youla`` after.  With ``split_kernel`` its kernel
    columns Z close U unpaired, with K and d zero there, once N(A) = conj(Z)
    is N(A*) = Z: ||P_N(A) - P_N(A*)||_F = sqrt(2) ||conj(Z) - Z Z* conj(Z)||_F
    at most max(tol, 1e-8), else KernelMismatch.  Without, an odd kernel
    raises OddKernel.
    """
    # v: pair basis of the unexplored complement, r: its pair values,
    # descending; u's columns from ``paired`` on hold the unpaired kernel
    u, r = (youla.u, youla.r) if split_kernel else youla.pair_basis()
    paired = 2 * r.size
    if split_kernel:
        z = u[:, paired:]
        mismatch = math.sqrt(2.0) * frob(np.conj(z) - z @ np.conj(z.T @ z))  # Z* conj(Z)
        if mismatch > max(tol, 1e-8):
            raise KernelMismatch(f"numerical kernels of T and T* differ: "
                                 f"||P_N(T) - P_N(T*)||_F = {mismatch:.3e}")
    _check_floor(r, epsilon, p)
    # kept cell i: kappa f_k, f_k in columns 2i, 2i+1 of u, as Youla's f, e; Y_k in y's
    v, y = u[:, :paired], np.zeros_like(u)
    kernel_floor = rank_tol * float(r.max(initial=0.0))
    used, d_values = 0, np.zeros(r.size)  # the kernel left keeps d = 0
    coupled = 0  # end of the last pair captured with Y_k != 0
    spent = 0.0  # sum of the accepted step norms
    step = 0
    while v.shape[1] > 0 and (step == 0 or r[0] > kernel_floor):
        # seed: first standard basis vector with mass left in the complement
        seeds = np.flatnonzero(np.linalg.norm(v, axis=1) > SEED_TOL)
        if seeds.size == 0:
            break
        step += 1
        lam = np.repeat(r, 2)
        res = _resolve(v, lam)
        coef = v[seeds[0]].conj()
        budget = (epsilon - spent) / 2.0
        cells = 4
        while True:
            cut = _cut_cells(res, coef, cells)
            norm, d = _step_norm(lam, cut, p)
            if norm < budget:
                break
            if cut.saturated or cells >= N_MAX:
                raise BudgetFailure(
                    f"||K||_p = {norm:.3e} >= budget {budget:.3e} at outer step "
                    f"{step}: {cells} cells for {res.eigenvalues.size} clusters"
                    + ("; finer cells give the same step" if cut.saturated else "")
                )
            cells *= 2
        spent += norm

        # cells are runs of columns, as lam descends; the cells the seed
        # missed keep their pairs, a cell of one value (any single pair) is
        # captured whole and each other one leaves its own complement
        phi, g, dev = cut.phi, _swap(np.conj(cut.phi)), lam - d[cut.cell]
        x = np.column_stack([g, phi, -dev * phi, dev * g])
        starts = np.flatnonzero(np.diff(cut.cell, prepend=-1))
        kept = np.isin(cut.cell[starts], cut.kept)
        rest = ~np.isin(cut.cell, cut.kept)
        parts = [(v[:, rest], r[rest[0::2]])]  # (pair basis, values) of the next complement
        one_value = COUPLING_EPS * np.finfo(float).eps * res.b
        # used <= lo, kept cells spanning >= 2 columns: only read columns of v change
        for lo, hi in zip(starts[kept], np.append(starts[1:], lam.size)[kept]):
            if lam[lo] - lam[hi - 1] <= one_value:
                # E(omega_k) reduces A, Y_k = 0; v views u at step 1, and numpy
                # copies an overlapping source before it assigns
                new = slice(used, used + hi - lo)
                u[:, new] = v[:, lo:hi]
                d_values[used // 2 : new.stop // 2], used = lam[lo:hi:2], new.stop
                continue
            parts.append(_cell_complement(v[:, lo:hi], lam[lo:hi], phi[lo:hi]))
            u[:, used : used + 2], y[:, used : used + 2] = np.hsplit(v[:, lo:hi] @ x[lo:hi], 2)
            d_values[used // 2] = d[cut.cell[lo]]
            used = coupled = used + 2
        v_parts, r_parts = zip(*parts)
        r = np.concatenate(r_parts)
        order = np.argsort(-r, kind="stable")
        v = np.hstack(v_parts)[:, (2 * order[:, None] + np.arange(2)).ravel()]
        r = r[order]

    # K = -(sum of the steps Q Y^tr - Y Q^tr), Q = [f_k, kappa f_k] per
    # coupled cell; Y = 0 on the cells captured whole
    k_total = y[:, :coupled] @ u[:, :coupled].T
    del y
    k_total -= k_total.T
    # the kernel left closes the basis in its own pairs, d = 0
    u[:, used:paired] = v
    return k_total, u, d_values, spent


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
    matrix of tau.  Raises NotSkewSymmetric as ``youla_decompose`` does on
    T in a tau-fixed basis, OddKernel for an odd numerical kernel.
    """
    return _skew_wvn(t, tau, epsilon, p, tol, rank_tol, split_kernel=False)


def kernel_split_wvn(t, tau, epsilon, p=2.0, tol=DEFAULT_TOL, rank_tol=DEFAULT_TOL):
    """Kernel-splitting variant: works for any kernel dimension when
    N(T) = N(T*).

    The same decomposition as ``skew_symmetric_wvn``, from the same Youla
    form, except that its numerical kernel is left unpaired: the last
    columns of U are an orthonormal basis of N(T), where D and K vanish,
    and d covers the range pairs only.  Raises KernelMismatch when the
    numerical kernels of T and T* differ.
    """
    return _skew_wvn(t, tau, epsilon, p, tol, rank_tol, split_kernel=True)


def _skew_wvn(t, tau, epsilon, p, tol, rank_tol, split_kernel):
    _check_budget(epsilon, p)
    t = matcore.require_square(t)
    # the standard basis is tau-fixed for the standard conjugation
    r_basis = None if tau.is_standard() else tau_fixed_basis(tau)
    t_fixed = t if r_basis is None else r_basis.conj().T @ t @ r_basis  # skew iff T is tau-skew
    k, u, d_values, spent = _wvn(youla_decompose(t_fixed, tol, rank_tol), epsilon, p, tol,
                                 rank_tol, split_kernel)
    if r_basis is not None:
        k, u = r_basis @ k @ r_basis.conj().T, r_basis @ u
    d = block_skew_matrix(d_values, t.shape[0])
    return SkewWvnResult(k=k, d=d, u=u, d_values=d_values, achieved_norm=spent)
