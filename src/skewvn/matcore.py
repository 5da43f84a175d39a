"""Dense complex-matrix primitives.

Everything downstream works on square complex numpy arrays.  The helpers
here pin down the tolerance and scaling conventions: the singular spectrum
(values and the eigenvectors of mat mat*) that every spectral object is
read from, norms and spectra taken on an exact power-of-two prescale, and
Gram-Schmidt orthonormalization with an explicit drop threshold.
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


def opnorm(m):
    if min(np.asarray(m).shape, default=0) == 0:
        return 0.0
    return float(np.linalg.norm(m, 2))


def orthonormalize(vectors, tol=DEFAULT_TOL):
    """Orthonormalize a sequence of complex vectors.

    Modified Gram-Schmidt with one re-orthogonalization pass.  Vectors whose
    residual after projection onto the accepted set has norm <= tol are
    dropped, so the output may be shorter than the input (or empty).
    """
    basis = []
    for vec in vectors:
        v = np.asarray(vec, dtype=complex).reshape(-1)
        if basis and v.shape != basis[0].shape:
            raise DimensionMismatch("vectors have mixed dimensions")
        for _ in range(2):
            for b in basis:
                v = v - b * np.vdot(b, v)
        nrm = np.linalg.norm(v)
        if nrm > tol:
            basis.append(v / nrm)
    return basis


def orthonormal_columns(mat, tol=DEFAULT_TOL):
    """Column-wise orthonormalize, returned as an n x k array."""
    mat = as_matrix(mat)
    cols = orthonormalize(list(mat.T), tol)
    if not cols:
        return np.zeros((mat.shape[0], 0), dtype=complex)
    return np.column_stack(cols)


def pow2_exponent(mat):
    """e with max|mat| in [2^(e-1), 2^e), so that mat * 2^-e is exact and of
    order one; 0 for an empty or zero matrix.  e >= -1022 keeps 2^-e finite."""
    return max(int(np.frexp(np.max(np.abs(mat), initial=0.0))[1]), -1022)


def singular_spectrum(mat):
    """Ascending singular values paired with eigenvectors of mat mat*.

    Values come from an SVD (accurate down to machine epsilon times the
    largest value), vectors from eigh of the Gram matrix; going through
    the square would floor small singular values at ~sqrt(eps) * s_max.
    """
    mat = as_matrix(mat)
    # exact power-of-two prescale: the Gram matrix of a matrix near 2^+-600
    # would overflow or underflow, the vectors do not depend on the scale,
    # and the values scale back exactly
    shift = pow2_exponent(mat)
    scaled = mat * math.ldexp(1.0, -shift)
    s = np.ldexp(np.linalg.svd(scaled, compute_uv=False)[::-1], shift)
    gram = scaled @ scaled.conj().T
    del scaled
    _w, v = np.linalg.eigh((gram + gram.conj().T) / 2.0)
    return s, v


def cluster_indices(values, gap):
    """Group sorted values into clusters separated by more than ``gap``.

    ``values`` must be ascending.  Returns a list of index lists.
    """
    clusters = []
    current = []
    for i, v in enumerate(values):
        if current and v - values[current[-1]] > gap:
            clusters.append(current)
            current = []
        current.append(i)
    if current:
        clusters.append(current)
    return clusters
