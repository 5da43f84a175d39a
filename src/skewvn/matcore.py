"""Dense complex-matrix primitives.

Everything downstream works on square complex numpy arrays.  The helpers
here pin down the tolerance conventions: Hermitian eigendecomposition with
a residual contract, the positive-semidefinite square root with eigenvalue
clamping, and Gram-Schmidt orthonormalization with an explicit drop
threshold.
"""

import math

import numpy as np

from .errors import DimensionMismatch, NotHermitian, NotPSD

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
    return float(np.linalg.norm(m, "fro"))


def opnorm(m):
    if min(np.asarray(m).shape, default=0) == 0:
        return 0.0
    return float(np.linalg.norm(m, 2))


def hermitian_eig(h, tol=DEFAULT_TOL):
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(eigenvalues, V)`` with eigenvalues ascending and
    ``h = V diag(w) V*``.  Raises NotHermitian when the input deviates from
    its adjoint by more than ``tol * (1 + ||h||_F)``.
    """
    h = require_square(h)
    scale = 1.0 + frob(h)
    if frob(h - h.conj().T) > tol * scale:
        raise NotHermitian("matrix is not Hermitian within tolerance")
    # eigh sees the exactly Hermitian average, keeping the reconstruction
    # residual at the tol level even for inputs off by almost tol.
    w, v = np.linalg.eigh((h + h.conj().T) / 2.0)
    return w, v


def psd_sqrt(h, tol=DEFAULT_TOL):
    """Positive-semidefinite square root of a Hermitian PSD matrix.

    Eigenvalues in [-tol*(1+||h||_F), 0) are clamped to zero so the result
    is exactly PSD; anything below that raises NotPSD.  Positive
    eigenvalues below the same threshold are clamped too: they are noise
    of the same size, and their square roots (~sqrt(tol)) would dominate
    the error of the result while changing S*S by at most tol.
    """
    h = require_square(h)
    w, v = hermitian_eig(h, tol)
    scale = 1.0 + frob(h)
    if w.size and w[0] < -tol * scale:
        raise NotPSD(f"minimum eigenvalue {w[0]:.3e} below -tol*(1+||H||)")
    w = np.where(w < tol * scale, 0.0, w)
    s = (v * np.sqrt(w)) @ v.conj().T
    return (s + s.conj().T) / 2.0


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
    order one; 0 for an empty or zero matrix."""
    return int(np.frexp(np.max(np.abs(mat), initial=0.0))[1])


def singular_spectrum(mat):
    """Ascending singular values paired with eigenvectors of mat mat*.

    Values come from an SVD (accurate down to machine epsilon times the
    largest value), vectors from eigh of the Gram matrix; going through
    the square would floor small singular values at ~sqrt(eps) * s_max.
    """
    mat = as_matrix(mat)
    # exact power-of-two prescale: the Gram matrix of a matrix near 2^+-600
    # would overflow or underflow, and the vectors do not depend on the scale
    scaled = mat * math.ldexp(1.0, -pow2_exponent(mat))
    gram = scaled @ scaled.conj().T
    del scaled
    _w, v = np.linalg.eigh((gram + gram.conj().T) / 2.0)
    s = np.linalg.svd(mat, compute_uv=False)[::-1]
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
