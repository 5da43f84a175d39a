"""Dense complex-matrix primitives.

Everything downstream works on square complex numpy arrays.  The helpers
here pin down the tolerance and scaling conventions: input coercion, a
Frobenius norm that scales exactly, the power-of-two exponent behind every
exact prescale, and block Gram-Schmidt with an explicit drop threshold
(used for tau-fixed bases; spectral objects come from ``canonical``).
"""

import math

import numpy as np

from .errors import DimensionMismatch

DEFAULT_TOL = 1e-10


def as_matrix(m):
    """Coerce to a finite complex 2-d array; reject NaN/Inf entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise DimensionMismatch(f"expected a 2-d array, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    return a


def require_square(m):
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got {a.shape}")
    return a


def frob(m):
    """Frobenius norm, taken on m 2^-e so that squaring the entries neither
    overflows nor underflows; it scales exactly with m."""
    shift = pow2_exponent(m)
    return float(np.ldexp(np.linalg.norm(m * math.ldexp(1.0, -shift), "fro"), shift))


def orthonormalize(vectors, tol=DEFAULT_TOL):
    """Orthonormalize a sequence of complex vectors.

    Block classical Gram-Schmidt, twice (CGS2): each candidate in turn loses
    its projection onto all accepted vectors at once.  Vectors whose residual
    then has norm <= tol are dropped, so the output may be shorter (or empty);
    it never has more than n vectors, a basis of C^n.
    """
    vecs = [np.asarray(vec, dtype=complex).reshape(-1) for vec in vectors]
    if any(v.shape != vecs[0].shape for v in vecs):
        raise DimensionMismatch("vectors have mixed dimensions")
    dim = vecs[0].size if vecs else 0
    basis = np.empty((min(len(vecs), dim), dim), dtype=complex)
    k = 0  # accepted vectors, the rows basis[:k]
    for v in vecs:
        for _ in range(2):
            v = v - np.conj(basis[:k] @ np.conj(v)) @ basis[:k]  # v - B B* v
        nrm = np.linalg.norm(v)
        if nrm > tol and k < len(basis):
            basis[k] = v / nrm
            k += 1
    return list(basis[:k])


def pow2_exponent(mat):
    """e with max|mat| in [2^(e-1), 2^e), so that mat * 2^-e is exact and of
    order one; 0 for an empty or zero matrix.  e >= -1022 keeps 2^-e finite."""
    return max(int(np.frexp(np.max(np.abs(mat), initial=0.0))[1]), -1022)
