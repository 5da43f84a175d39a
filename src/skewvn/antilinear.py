"""Antilinear operators, conjugations and anticonjugations.

An antilinear operator is stored by the matrix of its composition with
entrywise conjugation: ``A(x) = mat @ conj(x)``.  With this convention the
antilinear adjoint is exactly the transpose, and skew-self-adjointness is
exactly complex skew-symmetry of ``mat``.  The modulus |A| = (A# A)^(1/2)
is read off the singular spectrum of ``mat^tr``; A# A is never square-rooted.
"""

from dataclasses import dataclass

import numpy as np

from . import matcore
from .errors import (
    DimensionMismatch,
    NotOrthonormal,
    OddDimension,
    SkewvnError,
)
from .matcore import DEFAULT_TOL, frob


@dataclass(frozen=True)
class AntilinearOperator:
    """Operator x -> mat @ conj(x) on C^n."""

    mat: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mat", matcore.require_square(self.mat))

    @property
    def dim(self):
        return self.mat.shape[0]

    def __call__(self, x):
        return self.mat @ np.conj(np.asarray(x, dtype=complex))

    def sharp(self):
        """Antilinear adjoint: <Ax, y> = conj(<x, A# y>)."""
        return AntilinearOperator(self.mat.T)

    def compose(self, other):
        """Composition with another antilinear operator.

        The result is linear, so it is returned as a plain matrix, never as
        an AntilinearOperator.
        """
        if self.dim != other.dim:
            raise DimensionMismatch("operator dimensions differ")
        return self.mat @ np.conj(other.mat)


@dataclass(frozen=True)
class Conjugation:
    """Antilinear isometric involution x -> mat @ conj(x)."""

    mat: np.ndarray
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        c = matcore.require_square(self.mat)
        object.__setattr__(self, "mat", c)
        n = c.shape[0]
        if frob(c.conj().T @ c - np.eye(n)) > self.tol * max(1.0, np.sqrt(n)):
            raise SkewvnError("conjugation matrix is not unitary")
        if frob(c @ np.conj(c) - np.eye(n)) > self.tol * max(1.0, np.sqrt(n)):
            raise SkewvnError("conjugation does not square to the identity")

    @classmethod
    def standard(cls, n):
        """Entrywise conjugation, fixing every standard basis vector."""
        return cls(np.eye(n))

    @property
    def dim(self):
        return self.mat.shape[0]

    def __call__(self, x):
        return self.mat @ np.conj(np.asarray(x, dtype=complex))

    def is_standard(self, tol=DEFAULT_TOL):
        return frob(self.mat - np.eye(self.dim)) <= tol


@dataclass(frozen=True)
class Anticonjugation:
    """Antilinear isometry squaring to -I; exists only in even dimension."""

    mat: np.ndarray
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        k = matcore.require_square(self.mat)
        object.__setattr__(self, "mat", k)
        n = k.shape[0]
        if n % 2 != 0:
            raise OddDimension("anticonjugations need even dimension")
        scale = max(1.0, np.sqrt(n))
        if frob(k.conj().T @ k - np.eye(n)) > self.tol * scale:
            raise SkewvnError("anticonjugation matrix is not unitary")
        if frob(k @ np.conj(k) + np.eye(n)) > self.tol * scale:
            raise SkewvnError("anticonjugation does not square to -I")
        if frob(k + k.T) > self.tol * scale:
            raise SkewvnError("anticonjugation matrix is not skew-symmetric")

    @property
    def dim(self):
        return self.mat.shape[0]

    def __call__(self, x):
        return self.mat @ np.conj(np.asarray(x, dtype=complex))

    def as_operator(self):
        return AntilinearOperator(self.mat)


def is_skew_self_adjoint(a, tol=DEFAULT_TOL):
    """True iff A# = -A, i.e. the matrix is skew-symmetric within tol."""
    m = a.mat
    return frob(m + m.T) <= tol * (1.0 + frob(m))


def modulus(a):
    """|A|, the positive square root of A# A (a linear operator).

    A# A = mat^tr conj(mat) is the Gram matrix of mat^tr, so |A| is
    V diag(s) V* with (s, V) the singular spectrum of mat^tr.
    """
    return _modulus_from_spectrum(matcore.singular_spectrum(a.mat.T))


def _modulus_from_spectrum(spectrum):
    """V diag(s) V* from a ``matcore.singular_spectrum``."""
    s, v = spectrum
    return (v * s) @ v.conj().T


def make_anticonjugation(pairs):
    """Anticonjugation sending e_j -> f_j and f_j -> -e_j.

    ``pairs`` is a sequence of (e_j, f_j); the combined vectors must be an
    orthonormal basis of the whole (even-dimensional) space.  With the e_j
    and f_j as the columns of E and F, the formula K = F E^T - (F E^T)^T is
    exactly skew-symmetric in floating point.
    """
    if not pairs:
        raise OddDimension("no pairs given")
    vecs = []
    for e, f in pairs:
        vecs.append(np.asarray(e, dtype=complex).reshape(-1))
        vecs.append(np.asarray(f, dtype=complex).reshape(-1))
    n = vecs[0].shape[0]
    if any(v.shape[0] != n for v in vecs):
        raise DimensionMismatch("pair vectors have mixed dimensions")
    if len(vecs) != n:
        raise OddDimension(
            f"{len(pairs)} pairs do not exhaust dimension {n}"
        )
    q = np.column_stack(vecs)
    if frob(q.conj().T @ q - np.eye(n)) > 1e-8 * max(1.0, np.sqrt(n)):
        raise NotOrthonormal("pair vectors are not orthonormal")
    fe = q[:, 1::2] @ q[:, 0::2].T
    return Anticonjugation(fe - fe.T)


def antilinear_from_linear(t, tau):
    """A = T o tau, an antilinear operator with matrix T @ C."""
    t = matcore.require_square(t)
    if t.shape[0] != tau.dim:
        raise DimensionMismatch("matrix and conjugation dimensions differ")
    return AntilinearOperator(t @ tau.mat)


def linear_from_antilinear(a, tau):
    """Inverse of antilinear_from_linear: T = A o tau, matrix mat @ conj(C)."""
    if a.dim != tau.dim:
        raise DimensionMismatch("operator and conjugation dimensions differ")
    return a.mat @ np.conj(tau.mat)


def tau_transpose(t, tau):
    """Matrix of tau o T* o tau; equals the plain transpose for standard tau."""
    t = matcore.require_square(t)
    c = tau.mat
    return c @ t.T @ np.conj(c)


def transpose_check(t, tau):
    """Frobenius residual of T^tr against the matrix of tau o T* o tau."""
    t = matcore.require_square(t)
    return frob(t.T - tau_transpose(t, tau))


def is_tau_skew_symmetric(t, tau, tol=DEFAULT_TOL):
    t = matcore.require_square(t)
    return frob(tau_transpose(t, tau) + t) <= tol * (1.0 + frob(t))


def tau_fixed_basis(tau, span=None, tol=1e-8):
    """Orthonormal basis of tau-fixed vectors for a tau-invariant subspace.

    ``span`` is an n x m array with orthonormal columns (defaults to the
    whole space).  Every returned column v satisfies tau(v) = v; fixed
    vectors have real mutual inner products, so Gram-Schmidt keeps them
    fixed.  Returns an n x m array.
    """
    c = tau.mat
    n = tau.dim
    if span is None:
        if tau.is_standard():
            return np.eye(n)
        span = np.eye(n)
    span = matcore.as_matrix(span)
    m = span.shape[1]
    if m == 0:
        return np.zeros((n, 0), dtype=complex)
    proj = span @ span.conj().T
    candidates = []
    for j in range(m):
        w = span[:, j]
        cw = c @ np.conj(w)
        candidates.append(w + cw)
        candidates.append(1j * (w - cw))
    # keep candidates inside the subspace (relevant when invariance is only
    # approximate) before orthonormalizing
    candidates = [proj @ v for v in candidates]
    basis = matcore.orthonormalize(candidates, tol=tol)
    if len(basis) != m:
        raise SkewvnError(
            f"could not build a tau-fixed basis ({len(basis)} of {m} vectors)"
        )
    return np.column_stack(basis)
