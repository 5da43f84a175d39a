"""Canonical forms of complex skew-symmetric matrices.

``youla_decompose`` is the one factorization of a skew matrix: a unitary U
with M = U B U^tr, B the direct sum of blocks r_j [[0, 1], [-1, 0]] padded
with zeros.  Read as an antilinear operator, U* o A o U is the block form B,
with the pair (e_j, f_j) in columns (2j+1, 2j) of U; an even kernel is
stored in pairs the same way.  The polar factorization
A = kappa |A| = |A| kappa is read off it: kappa sends e_j -> f_j -> -e_j
and |A| = U diag(r_1, r_1, r_2, r_2, ..., 0) U*.

Every step is a unitary congruence, so the factorization is backward
stable.  The eigenvectors W of the Gram matrix M M* (on an exact power-of-two
prescale) compress M to C = W* M conj(W), which is block-diagonal by
singular value cluster up to roundoff.  C splits into the contiguous
diagonal blocks that no entry above COUPLING_EPS * eps * max|C| couples.  A
2x2 block takes a phase.  A larger block is reduced by skew Householder
congruence to tridiagonal form (Ward & Gray 1978; Wimmer 2012), a diagonal
phase makes that real with a nonnegative superdiagonal, and an odd/even
permutation turns it into a real bidiagonal matrix whose SVD gives the
pairs.  Pairs with r <= rank_tol * r_max, and the column an odd block leaves
unpaired, span the numerical kernel.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import matcore
from .antilinear import Anticonjugation
from .errors import NotSkewSymmetric, OddKernel
from .matcore import DEFAULT_TOL, frob

# entries of the compression at most this times eps * max|C| are roundoff
COUPLING_EPS = 64.0

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
        F E^tr - E F^tr with e_j, f_j in columns 2j+1, 2j."""
        v = self.pair_basis()[0]
        fe = v[:, 0::2] @ v[:, 1::2].T
        return Anticonjugation(fe - fe.T)

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
    kappa: Anticonjugation
    modulus: np.ndarray


def _coupled_blocks(c):
    """Starts and sizes of the contiguous diagonal blocks of c that no entry
    above COUPLING_EPS * eps * max|c| crosses."""
    mag = np.abs(c)
    big = mag > COUPLING_EPS * np.finfo(float).eps * mag.max(initial=0.0)
    rows = np.arange(c.shape[0])
    # the last column each row couples to (the zero diagonal makes it at
    # least the row itself), and the farthest any row up to it reaches: a
    # block ends where that is the row itself
    last = np.where(big, rows, rows[:, None]).max(axis=1, initial=0)
    ends = np.flatnonzero(np.maximum.accumulate(last) == rows) + 1
    starts = np.concatenate([[0], ends])[:-1]
    return starts, ends - starts


def _reduce_block(c):
    """(g, sigma) with g unitary and c = g B g^tr for a k x k skew block c,
    k >= 3, where B pairs column j with column ceil(k/2) + j at sigma_j; for
    odd k the column ceil(k/2) - 1 is left unpaired."""
    k = c.shape[0]
    c = c.copy()
    q = np.eye(k, dtype=complex)
    sub = np.zeros(k - 1, dtype=complex)  # subdiagonal of T = Q c Q^tr
    for i in range(k - 2):
        x = c[i + 1 :, i]
        norm = np.linalg.norm(x)
        if norm == 0.0:
            continue
        # H = I - tau v v* with H x = alpha e_1, applied as H c H^tr; for a
        # skew c, v* c conj(v) = 0 and the trailing update has rank two
        alpha = -norm * (x[0] / abs(x[0]) if x[0] != 0 else 1.0)
        sub[i] = alpha
        v = x.copy()
        v[0] -= alpha
        tau = 2.0 / np.vdot(v, v).real
        trail = c[i + 1 :, i + 1 :]
        cv = trail @ np.conj(v)
        trail += tau * (np.outer(v, cv) - np.outer(cv, v))
        q[i + 1 :] -= tau * np.outer(v, v.conj() @ q[i + 1 :])
    sub[k - 2] = c[k - 1, k - 2]
    # D = diag(d) with d_i d_(i+1) t_i = |t_i| makes D T D real, with the
    # nonnegative superdiagonal |t_i|, t_i = -sub_i
    t = np.abs(sub)
    d = np.ones(k, dtype=complex)
    for i in range(k - 1):
        if t[i] > 0.0:
            d[i + 1] = np.conj(d[i] * -sub[i]) / t[i]
    # rows 0, 2, 4, ... against columns 1, 3, 5, ... of D T D: a real
    # lower bidiagonal matrix
    ce, fl = (k + 1) // 2, k // 2
    bd = np.zeros((ce, fl))
    bd[np.arange(fl), np.arange(fl)] = t[0::2]
    bd[np.arange(1, ce), np.arange(ce - 1)] = -t[1::2]
    x, sigma, yt = np.linalg.svd(bd)
    z = q.conj().T * np.conj(d)  # c = z (D T D) z^tr
    return np.hstack([z[:, 0::2] @ x, z[:, 1::2] @ yt.T]), sigma


def youla_decompose(m, tol=DEFAULT_TOL, rank_tol=DEFAULT_TOL):
    """Unitary congruence M = U B U^tr with B block skew-diagonal.

    M must be complex skew-symmetric within tol, ||M + M^tr||_F <=
    tol (1 + ||M||_F), else NotSkewSymmetric before any work; this is the
    one skew test of every decomposition.  r holds each singular
    value above rank_tol * r_max once per pair, descending; the remaining
    ``kernel_dim`` columns of U span the numerical kernel, paired when even.
    """
    m = matcore.require_square(m)
    if not frob(m + m.T) <= tol * (1.0 + frob(m)):
        raise NotSkewSymmetric("matrix is not skew-symmetric within tolerance")
    # exact power-of-two prescale: the Gram matrix of a matrix near 2^+-600
    # would overflow or underflow, and r scales back exactly
    shift = matcore.pow2_exponent(m)
    scale = math.ldexp(1.0, -shift)
    scaled = m * scale
    gram = scaled @ scaled.conj().T
    del scaled  # rebuilt bit for bit below: eigh holds no n x n array of ours but gram
    gram += gram.conj().T
    gram /= 2.0
    w = np.linalg.eigh(gram)[1]
    del gram
    # C = W* M' conj(W) = conj(W^tr conj(M') W), from transposed views of W
    c = w.T @ np.conj(m * scale) @ w
    np.conj(c, out=c)
    c -= c.T
    c /= 2.0

    # U = W diag(g_1, g_2, ...) with c = g_i B_i g_i^tr on each block,
    # formed in place of W
    starts, sizes = _coupled_blocks(c)
    two = starts[sizes == 2]
    top = c[two, two + 1]
    sigmas = [np.abs(top)]
    w[:, two] *= np.divide(top, sigmas[0], out=np.ones_like(top), where=sigmas[0] > 0.0)
    firsts, seconds, unpaired = [two], [two + 1], [starts[sizes == 1]]
    for lo, k in zip(starts[sizes > 2], sizes[sizes > 2]):
        g, sigma = _reduce_block(c[lo : lo + k, lo : lo + k])
        w[:, lo : lo + k] = w[:, lo : lo + k] @ g
        ce, fl = (k + 1) // 2, k // 2
        firsts.append(lo + np.arange(fl))
        seconds.append(lo + ce + np.arange(fl))
        unpaired.append(np.arange(lo + fl, lo + ce))
        sigmas.append(sigma)
    del c

    first, second, sigma = (np.concatenate(x) for x in (firsts, seconds, sigmas))
    keep = sigma > rank_tol * sigma.max(initial=0.0)
    order = np.argsort(-sigma[keep], kind="stable")
    kernel = np.sort(np.concatenate(unpaired + [first[~keep], second[~keep]]))
    kernel = kernel.reshape(-1, 2)[:, ::-1].ravel() if kernel.size % 2 == 0 else kernel
    pairs = np.column_stack([first[keep][order], second[keep][order]]).ravel()
    return YoulaResult(
        u=w[:, np.concatenate([pairs, kernel])],
        r=np.ldexp(sigma[keep][order], shift),
        kernel_dim=int(kernel.size),
    )


def polar_factorize(a, tol=DEFAULT_TOL, rank_tol=DEFAULT_TOL):
    """Factor A = kappa |A| = |A| kappa, both read off one Youla form (see
    ``YoulaResult.kappa`` and ``YoulaResult.modulus``).  A is
    skew-self-adjoint exactly when a.mat is skew-symmetric, which
    ``youla_decompose`` tests.  Raises OddKernel when the numerical kernel
    dimension is odd."""
    return youla_decompose(a.mat, tol, rank_tol).polar()
