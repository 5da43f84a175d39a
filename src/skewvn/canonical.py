"""Canonical forms of complex skew-symmetric matrices.

Youla block skew-diagonalization ``M = U (sum of 2x2 blocks + 0) U^tr``
and the polar-type factorization ``A = kappa |A| = |A| kappa`` through an
anticonjugation.  Both are read off one ``matcore.singular_spectrum``: the
pairing below gives U and kappa, and the same values and vectors give |A|.
Read as an antilinear operator, M = U B U^tr says that U* o A o U is the
block form B, with the pair (e_j, f_j) in columns (2j+1, 2j) of U.

The pairing algorithm: eigendecompose the Hermitian PSD matrix mat mat*
(whose eigenvalues are squared singular values, each with even
multiplicity), cluster the singular values, and inside each positive
cluster repeatedly pick a unit vector e orthogonal to the pairs already
formed and set f = A(e)/r.  The orthogonality lemma <h, kappa h> = 0 makes
e and f automatically orthogonal, so the pairing is stable whenever the
clusters are.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import matcore
from .antilinear import (
    Anticonjugation,
    _modulus_from_spectrum,
    is_skew_self_adjoint,
    make_anticonjugation,
)
from .errors import ConvergenceFailure, NotSkewSelfAdjoint, NotSkewSymmetric, OddKernel
from .matcore import DEFAULT_TOL, frob

CLUSTER_TOL = 1e-8

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


def block_skew_matrix(d_values, dim):
    """Direct sum of d_j [[0, 1], [-1, 0]] blocks padded with zeros."""
    out = np.zeros((dim, dim), dtype=complex)
    for j, d in enumerate(d_values):
        out[2 * j, 2 * j + 1] = d
        out[2 * j + 1, 2 * j] = -d
    return out


@dataclass(frozen=True)
class PolarResult:
    kappa: Anticonjugation
    modulus: np.ndarray


def _skew_pairs(mat, cluster_tol=CLUSTER_TOL, rank_tol=DEFAULT_TOL, spectrum=None):
    """Pair the spectrum of a skew-symmetric matrix.

    Returns ``(pairs, kernel, s_max)`` where pairs is a list of
    ``(e, f, r)`` with ``mat conj(e) = r f`` and ``mat conj(f) = -r e``,
    sorted by descending r, and kernel is a list of orthonormal vectors
    spanning the numerical kernel.  ``spectrum`` is a precomputed
    ``matcore.singular_spectrum(mat)``.
    """
    n = mat.shape[0]
    s, v = matcore.singular_spectrum(mat) if spectrum is None else spectrum
    s_max = float(s[-1]) if n else 0.0
    if s_max == 0.0:
        return [], [v[:, j] for j in range(n)], 0.0

    thr = rank_tol * s_max
    # pair on mat 2^-shift, whose columns neither overflow nor underflow
    # when squared, and scale r back
    shift = matcore.pow2_exponent(mat)
    scale = math.ldexp(1.0, -shift)
    kernel_idx = [j for j in range(n) if s[j] <= thr]
    positive_idx = [j for j in range(n) if s[j] > thr]
    kernel = [v[:, j] for j in kernel_idx]

    pairs = []
    clusters = matcore.cluster_indices(
        [s[j] for j in positive_idx], cluster_tol * s_max
    )
    for cluster in clusters:
        idx = [positive_idx[i] for i in cluster]
        span = remaining = v[:, idx]
        used = []
        while remaining.shape[1] > 0:
            if remaining.shape[1] == 1:
                raise ConvergenceFailure(
                    "odd-dimensional singular value cluster; "
                    "pairing cannot complete"
                )
            e = remaining[:, 0]
            ae = mat @ np.conj(e) * scale  # = (mat 2^-shift) conj(e), exactly
            r = float(np.linalg.norm(ae))
            f = span @ (span.conj().T @ (ae / r))
            for u in used + [e]:
                f = f - u * np.vdot(u, f)
            nrm = np.linalg.norm(f)
            if nrm < 0.5:
                raise ConvergenceFailure("pairing vector collapsed")
            f = f / nrm
            pairs.append((e, f, math.ldexp(r, shift)))
            used.extend([e, f])
            rest = remaining[:, 1:]
            rest = rest - np.outer(e, e.conj() @ rest) - np.outer(f, f.conj() @ rest)
            rest = matcore.orthonormal_columns(rest, tol=1e-6)
            if rest.shape[1] != remaining.shape[1] - 2:
                raise ConvergenceFailure("cluster basis lost rank while pairing")
            remaining = rest

    pairs.sort(key=lambda t: -t[2])
    return pairs, kernel, s_max


def youla_decompose(m, tol=DEFAULT_TOL):
    """Unitary congruence M = U B U^tr with B block skew-diagonal.

    M must be complex skew-symmetric within tol.  r holds each positive
    singular value with half its (even) multiplicity, descending.
    """
    m = matcore.require_square(m)
    if frob(m + m.T) > tol * (1.0 + frob(m)):
        raise NotSkewSymmetric("matrix is not skew-symmetric within tolerance")
    pairs, kernel, _ = _skew_pairs(m, rank_tol=tol)
    cols = []
    for e, f, _r in pairs:
        # with columns (f, e) the congruence U B U^tr reproduces M
        cols.extend([f, e])
    cols.extend(kernel)
    u = np.column_stack(cols) if cols else np.zeros((m.shape[0], 0))
    r = np.array([p[2] for p in pairs])
    return YoulaResult(u=u, r=r, kernel_dim=len(kernel))


def polar_kappa(a, tol=DEFAULT_TOL, rank_tol=DEFAULT_TOL, spectrum=None):
    """The anticonjugation kappa of A = kappa |A|, without the modulus.

    The anticonjugation acts as the canonical 2x2 block on each singular
    pair; kernel vectors are paired among themselves.  Raises OddKernel
    when the numerical kernel dimension is odd (no anticonjugation exists
    then, matching the odd-dimension obstruction).
    """
    if not is_skew_self_adjoint(a, tol):
        raise NotSkewSelfAdjoint("operator is not skew-self-adjoint")
    pairs, kernel, _ = _skew_pairs(a.mat, rank_tol=rank_tol, spectrum=spectrum)
    if len(kernel) % 2 != 0:
        raise OddKernel(
            f"numerical kernel dimension {len(kernel)} is odd; "
            "no anticonjugation factorization exists"
        )
    kappa_pairs = [(e, f) for e, f, _r in pairs]
    for j in range(0, len(kernel), 2):
        kappa_pairs.append((kernel[j], kernel[j + 1]))
    return make_anticonjugation(kappa_pairs)


def polar_factorize(a, tol=DEFAULT_TOL, rank_tol=DEFAULT_TOL):
    """Factor A = kappa |A| with kappa (see polar_kappa) commuting with |A|.

    kappa and |A| come from one singular spectrum: A is skew, so mat mat*
    is A# A and its eigenvectors with the singular values give |A|.
    """
    spectrum = matcore.singular_spectrum(a.mat)
    return PolarResult(
        kappa=polar_kappa(a, tol, rank_tol, spectrum=spectrum),
        modulus=_modulus_from_spectrum(spectrum),
    )
