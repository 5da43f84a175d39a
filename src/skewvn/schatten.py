"""Singular values and Schatten p-norms of antilinear operators.

``_schatten`` is the one Schatten sum, shared by ``schatten_norm``, the WvN
step norms and ``checks.wvn``.
"""

import math

import numpy as np

from .antilinear import AntilinearOperator
from .errors import InvalidP


def singular_values(a):
    """Eigenvalues of |A| = (A# A)^(1/2), sorted descending.

    These coincide with the singular values of the representing matrix, so
    they are computed by SVD, which resolves small values far better than
    the square root of the Gram spectrum would.
    """
    mat = a.mat if isinstance(a, AntilinearOperator) else np.asarray(a, dtype=complex)
    return np.linalg.svd(mat, compute_uv=False)


def schatten_norm(a, p):
    """(sum_j s_j^p)^(1/p); p = inf gives the operator norm.

    Only 1 < p <= inf is accepted.
    """
    if not (p > 1):
        raise InvalidP(f"Schatten norm needs p > 1, got {p}")
    s = singular_values(a)
    if math.isinf(p):
        return float(np.max(s, initial=0.0))
    return _schatten(s, p)


def _schatten(s, p, times=1.0):
    """(times * sum s^p)^(1/p), on s / max(s) so that no power overflows."""
    smax = float(np.max(s, initial=0.0))
    if smax == 0.0:
        return 0.0
    return smax * float(times * np.sum((s / smax) ** p)) ** (1.0 / p)
