"""Canonical forms of complex skew-symmetric matrices.

``youla_decompose`` is the one factorization of a skew matrix: a unitary U
with M = U B U^tr, B the direct sum of blocks r_j [[0, 1], [-1, 0]] padded
with zeros.  Read as an antilinear operator, U* o A o U is the block form B,
with the pair (e_j, f_j) in columns (2j+1, 2j) of U; an even kernel is
stored in pairs the same way.  The polar factorization
A = kappa |A| = |A| kappa is read off it: kappa sends e_j -> f_j -> -e_j,
``checks.polar`` certifies it, and |A| = U diag(r_1, r_1, ..., 0) U*.

Every step is a unitary congruence, so the factorization is backward
stable.  Skew Householder congruences reduce M (on an exact power-of-two
prescale) to tridiagonal form (Ward & Gray 1978; Wimmer 2012), PANEL
columns at a time with one rank-(2 PANEL) update of the trailing matrix, as
LAPACK's zhetrd does (Dongarra, Hammarling & Sorensen 1989).  A diagonal
phase makes the tridiagonal form real with a nonnegative superdiagonal, and
an odd/even permutation turns it into a real bidiagonal matrix whose SVD
gives the pairs.  The reflectors, in compact WY form, carry the pairs back.
Pairs with r <= rank_tol * r_max, and for odd n the unpaired column, span
the numerical kernel.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import matcore
from .antilinear import AntilinearOperator
from .errors import NotSkewSymmetric, OddKernel
from .matcore import DEFAULT_TOL, frob

PANEL = 32  # columns per panel of the blocked tridiagonalization

K2 = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)  # matrix of (x,y) -> (-conj y, conj x)


@dataclass(frozen=True)
class YoulaResult:
    u: np.ndarray
    r: np.ndarray
    kernel_dim: int

    @property
    def dim(self):
        return self.u.shape[0]

    def block_matrix(self):
        """B = direct sum of [[0, r_j], [-r_j, 0]] blocks padded with zeros."""
        return block_skew_matrix(self.r, self.dim)

    def pair_basis(self):
        """(U, r), M = U B U^tr with B = block_skew_matrix(r): U itself, no
        copy, and r padded with zeros; kappa maps column 2j+1 to column 2j.
        Raises OddKernel when the numerical kernel is odd dimensional, where
        no anticonjugation exists."""
        if self.kernel_dim % 2 != 0:
            raise OddKernel(
                f"numerical kernel dimension {self.kernel_dim} is odd; "
                "no anticonjugation factorization exists"
            )
        return self.u, np.concatenate([self.r, np.zeros(self.kernel_dim // 2)])

    def kappa(self):
        """The anticonjugation e_j -> f_j, f_j -> -e_j of ``pair_basis``,
        F E^tr - E F^tr with e_j, f_j in columns 2j+1, 2j: exactly skew,
        unitary with kappa^2 = -I as far as U is."""
        v = self.pair_basis()[0]
        fe = v[:, 0::2] @ v[:, 1::2].T
        return AntilinearOperator(fe - fe.T)

    def modulus(self):
        """|A| = U diag(r_1, r_1, ..., r_k, r_k, 0, ..., 0) U*."""
        s = np.concatenate([np.repeat(self.r, 2), np.zeros(self.kernel_dim)])
        return (self.u * s) @ self.u.conj().T

    def polar(self):
        return PolarResult(kappa=self.kappa(), modulus=self.modulus())


def block_skew_matrix(d_values, dim):
    """Direct sum of d_j [[0, 1], [-1, 0]] blocks padded with zeros."""
    d = np.asarray(d_values, dtype=float)
    out = np.zeros((dim, dim), dtype=complex)
    j = 2 * np.arange(d.size)
    out[j, j + 1] = d
    out[j + 1, j] = -d
    return out


@dataclass(frozen=True)
class PolarResult:
    kappa: AntilinearOperator
    modulus: np.ndarray


def _tridiagonalize(c):
    """(sub, panels) for a skew c, which it overwrites: Q c Q^tr is skew
    tridiagonal with the subdiagonal sub, and Q* = P_1 P_2 ... with one
    P = I - V S V* per panel (lo, V, S), V acting on rows lo + 1 on."""
    n = c.shape[0]
    sub = np.zeros(max(n - 1, 0), dtype=complex)
    panels = []
    for lo in range(0, n - 2, PANEL):
        hi = min(lo + PANEL, n - 2)
        # column j of v: the reflector of column lo + j; with w, the panel's
        # congruence so far is c + V W^tr - W V^tr; row r of c is row
        # r - lo - 1 of v and w
        v = np.zeros((n - lo - 1, hi - lo), dtype=complex)
        w = np.zeros_like(v)
        tau = np.zeros(hi - lo)
        for j in range(hi - lo):
            i = lo + j
            x = c[i + 1 :, i] + v[j:, :j] @ w[j - 1, :j] - w[j:, :j] @ v[j - 1, :j]
            norm = np.linalg.norm(x)
            if norm == 0.0:
                continue
            # H = I - tau v v* with H x = alpha e_1, applied as H c H^tr;
            # for a skew c, v* c conj(v) = 0, so w = tau c conj(v)
            alpha = -norm * (x[0] / abs(x[0]) if x[0] != 0 else 1.0)
            sub[i] = alpha
            x[0] -= alpha
            tau[j] = 2.0 / np.vdot(x, x).real
            v[j:, j] = x
            cv = np.conj(x)
            w[j:, j] = tau[j] * (c[i + 1 :, i + 1 :] @ cv + v[j:, :j] @ (w[j:, :j].T @ cv)
                                 - w[j:, :j] @ (v[j:, :j].T @ cv))
        vw = v[hi - lo - 1 :] @ w[hi - lo - 1 :].T
        c[hi:, hi:] += vw
        c[hi:, hi:] -= vw.T
        del vw
        # H_lo ... H_(hi-1) = I - V S V* with S upper triangular (LAPACK larft)
        g = v.conj().T @ v
        s = np.diag(tau).astype(complex)
        for j in range(1, hi - lo):
            s[:j, j] = -tau[j] * (s[:j, :j] @ g[:j, j])
        panels.append((lo, v, s))
    if n >= 2:
        sub[n - 2] = c[n - 1, n - 2]
    return sub, panels


def youla_decompose(m, tol=DEFAULT_TOL, rank_tol=DEFAULT_TOL):
    """Unitary congruence M = U B U^tr with B block skew-diagonal.

    M must be complex skew-symmetric within tol, ||M + M^tr||_F <=
    tol ||M||_F as on the ``skew_symmetry`` line, else NotSkewSymmetric
    before any work: the one skew test of every decomposition.  r holds
    each singular value above rank_tol * r_max once per pair, descending;
    the other ``kernel_dim`` columns of U span the numerical kernel.
    """
    m = matcore.require_square(m)
    if not frob(m + m.T) <= tol * frob(m):
        raise NotSkewSymmetric("matrix is not skew-symmetric within tolerance")
    n = m.shape[0]
    # exact power-of-two prescale: the reflector norms of a matrix near
    # 2^+-600 would overflow or underflow, and r scales back exactly
    shift = matcore.pow2_exponent(m)
    c = m * math.ldexp(1.0, -shift)
    c -= c.T
    c /= 2.0
    sub, panels = _tridiagonalize(c)
    del c
    # D = diag(d) with d_i d_(i+1) t_i = |t_i| makes D T D real, with the
    # nonnegative superdiagonal |t_i|, t_i = -sub_i
    t = np.abs(sub)
    d = np.ones(n, dtype=complex)
    for i in range(n - 1):
        if t[i] > 0.0:
            d[i + 1] = np.conj(d[i] * -sub[i]) / t[i]
    # rows 0, 2, 4, ... against columns 1, 3, 5, ... of D T D: a real
    # lower bidiagonal matrix X diag(sigma) Y^tr; pair j is X_j on the even
    # rows and Y_j on the odd rows, the last X column is the unpaired one
    ce, fl = (n + 1) // 2, n // 2
    bd = np.zeros((ce, fl))
    bd[np.arange(fl), np.arange(fl)] = t[0::2]
    bd[np.arange(1, ce), np.arange(ce - 1)] = -t[1::2]
    x, sigma, yt = np.linalg.svd(bd)
    # sigma descends, so the pairs kept are the first; an even kernel is
    # stored in pairs with Y_j before X_j
    kept = int(np.count_nonzero(sigma > rank_tol * sigma.max(initial=0.0)))
    swap = (np.arange(ce) >= kept) & (n % 2 == 0)
    u = np.zeros((n, n), dtype=complex)
    u[0::2, 2 * np.arange(ce) + swap] = x
    u[1::2, 2 * np.arange(fl) + 1 - swap[:fl]] = yt.T
    del x, yt
    # M = z (D T D) z^tr with z = Q* conj(D)
    u *= np.conj(d)[:, None]
    while panels:  # last panel first, each freed once applied
        lo, v, s = panels.pop()
        rows = u[lo + 1 :]
        rows -= v @ (s @ (v.conj().T @ rows))
    return YoulaResult(u=u, r=np.ldexp(sigma[:kept], shift), kernel_dim=n - 2 * kept)


def polar_factorize(a, tol=DEFAULT_TOL, rank_tol=DEFAULT_TOL):
    """Factor A = kappa |A| = |A| kappa, both read off one Youla form (see
    ``YoulaResult.kappa`` and ``YoulaResult.modulus``).  A is
    skew-self-adjoint exactly when a.mat is skew-symmetric, which
    ``youla_decompose`` tests.  Raises OddKernel when the numerical kernel
    dimension is odd."""
    return youla_decompose(a.mat, tol, rank_tol).polar()
