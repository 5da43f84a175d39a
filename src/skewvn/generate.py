"""Seeded instance generators: every input family of the CLI and the tests.

Each kind is a function of (dim, rank, seed) alone.  The spectrum families
(clustered, near-degenerate, graded) are ``from_spectrum`` of a prescribed
list of pair values, so their singular values are known exactly.
"""

import numpy as np

from .canonical import block_skew_matrix
from .errors import DimensionMismatch, InvalidRank, SkewvnError

RANKED = ("skew-symmetric-rank", "tau-skew-symmetric-with-kernel")
KINDS = ("skew-symmetric", *RANKED, "clustered", "near-degenerate", "graded")


def random_complex(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def random_unitary(rng, n):
    q, r = np.linalg.qr(random_complex(rng, n, n))
    # fix the phase so the factorization is unique and seed-deterministic
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_skew(rng, n):
    """W - W^tr for standard-normal complex W; exactly skew."""
    w = random_complex(rng, n, n)
    return w - w.T


def from_spectrum(r, n, seed):
    """U B U^tr for the seeded unitary U and B = block_skew_matrix(r, n),
    made exactly skew: its pair values are r and its kernel n - 2 len(r)."""
    u = random_unitary(np.random.default_rng(seed), n)
    m = u @ block_skew_matrix(r, n) @ u.T
    return (m - m.T) / 2.0


def gen(kind, dim, rank=None, seed=0):
    """The seeded matrix of one kind; see KINDS.  ``rank`` is read by the
    RANKED kinds only."""
    if dim < 1:
        raise DimensionMismatch(f"dimension must be positive, got {dim}")
    if rank is not None and rank < 0:
        raise InvalidRank(f"rank must be nonnegative, got {rank}")
    if seed < 0:
        raise SkewvnError(f"seed must be nonnegative, got {seed}")
    if kind not in KINDS:
        raise SkewvnError(f"unknown kind {kind!r}")
    if kind in RANKED:
        if rank is None:
            raise InvalidRank(f"rank is required for {kind}")
        if rank % 2 != 0:
            raise InvalidRank(f"skew-symmetric matrices have even rank, got {rank}")
        if rank > dim:
            raise InvalidRank(f"rank {rank} exceeds dimension {dim}")
    if kind == "skew-symmetric":
        return random_skew(np.random.default_rng(seed), dim)
    if kind == "skew-symmetric-rank":  # a congruence, not made exactly skew
        rng = np.random.default_rng(seed)
        u = random_unitary(rng, dim)
        r = np.sort(rng.uniform(0.5, 2.0, size=rank // 2))[::-1]
        return u @ block_skew_matrix(r, dim) @ u.T
    if kind == "tau-skew-symmetric-with-kernel":  # zero rows and columns pad the kernel
        out = np.zeros((dim, dim), dtype=complex)
        out[:rank, :rank] = random_skew(np.random.default_rng(seed), rank)
        return out
    pairs = dim // 2
    if kind == "clustered":  # four levels of equal multiplicity
        r = np.repeat(np.linspace(2.0, 0.5, 4), -(-pairs // 4))[:pairs]
    elif kind == "near-degenerate":  # pairs of values at relative gap 1e-7
        base = np.random.default_rng(seed + 1).uniform(0.5, 2.0, dim // 4)
        r = np.sort(np.concatenate([base, base * (1.0 + 1e-7)]))[::-1]
    else:  # graded: 1 ... 1e-12, log-uniform
        r = np.logspace(0.0, -12.0, pairs)
    return from_spectrum(r, dim, seed)
