"""Dense complex-matrix primitives.

Everything downstream works on square complex numpy arrays.  The helpers
here pin down the tolerance and scaling conventions: input coercion, a
Frobenius norm that scales exactly, and the power-of-two exponent behind
every exact prescale.  Spectral objects come from ``canonical``.
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


def pow2_exponent(mat):
    """e with max|mat| in [2^(e-1), 2^e), so that mat * 2^-e is exact and of
    order one; 0 for an empty or zero matrix.  e >= -1022 keeps 2^-e finite."""
    return max(int(np.frexp(np.max(np.abs(mat), initial=0.0))[1]), -1022)
