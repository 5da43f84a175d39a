"""Antilinear operators and conjugations.

An antilinear operator is stored by the matrix of its composition with
entrywise conjugation: ``A(x) = mat @ conj(x)``.  With this convention the
antilinear adjoint is exactly the transpose, and skew-self-adjointness is
exactly complex skew-symmetry of ``mat``.  For a skew-self-adjoint A,
``canonical.youla_decompose`` gives the modulus |A| = (A# A)^(1/2) together
with the anticonjugation of its polar factorization, an AntilinearOperator.
A linear T and a conjugation tau give the antilinear T o tau, with the
matrix T C; T is tau-skew exactly when its matrix in a tau-fixed basis is
skew, and its transpose there is the matrix of tau o T* o tau.
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
class Conjugation(AntilinearOperator):
    """Antilinear isometric involution x -> mat @ conj(x)."""

    def __post_init__(self):
        super().__post_init__()
        c, n = self.mat, self.dim
        if self.is_standard(0.0):  # the identity's residuals are exactly 0
            return
        bound = DEFAULT_TOL * max(1.0, np.sqrt(n))
        if frob(c.conj().T @ c - np.eye(n)) > bound:
            raise SkewvnError("conjugation matrix is not unitary")
        if frob(c @ np.conj(c) - np.eye(n)) > bound:
            raise SkewvnError("conjugation does not square to the identity")

    @classmethod
    def standard(cls, n):
        """Entrywise conjugation, fixing every standard basis vector."""
        return cls(np.eye(n, dtype=complex))

    def is_standard(self, tol=DEFAULT_TOL):
        return frob(self.mat - np.eye(self.dim)) <= tol


def make_anticonjugation(pairs):
    """Anticonjugation sending e_j -> f_j and f_j -> -e_j, as an
    AntilinearOperator.

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
    return AntilinearOperator(fe - fe.T)


def tau_transpose(t, tau):
    """Matrix of tau o T* o tau; equals the plain transpose for standard tau."""
    t = matcore.require_square(t)
    if tau.is_standard():
        return t.T
    c = tau.mat
    return c @ t.T @ np.conj(c)


def tau_fixed_basis(tau):
    """Orthonormal basis of C^n, as the columns of an n x n array, whose
    every column v satisfies tau(v) = v.

    With the matrix of tau written C = X + iY, X and Y real symmetric,
    tau(a + ib) = a + ib says exactly that (a, b) is in the +1 eigenspace
    of the real symmetric involution L = [[X, Y], [Y, -X]], which has
    dimension n.  Fixed vectors have real mutual inner products, so the
    real orthonormal eigenvectors of L are complex orthonormal (Garcia &
    Putinar 2006, C-real bases).
    """
    n = tau.dim
    if tau.is_standard():
        return np.eye(n)
    c = (tau.mat + tau.mat.T) / 2.0
    z = np.linalg.eigh(np.block([[c.real, c.imag], [c.imag, -c.real]]))[1][:, n:]
    return z[:n] + 1j * z[n:]
