"""Seeded instance generators for the CLI and the test corpus."""

import numpy as np

from .errors import DimensionMismatch, InvalidRank, SkewvnError

KINDS = ("skew-symmetric", "skew-symmetric-rank", "tau-skew-symmetric-with-kernel")


def random_complex(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def random_unitary(rng, n):
    q, r = np.linalg.qr(random_complex(rng, n, n))
    # fix the phase so the factorization is unique and seed-deterministic
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_skew_symmetric(dim, seed):
    """W - W^tr from seeded standard-normal complex W; exactly skew."""
    w = random_complex(np.random.default_rng(seed), dim, dim)
    return w - w.T


def random_skew_symmetric_rank(dim, rank, seed):
    """Skew-symmetric with prescribed even rank, via a seeded congruence."""
    if rank % 2 != 0:
        raise InvalidRank(f"skew-symmetric matrices have even rank, got {rank}")
    if rank > dim:
        raise InvalidRank(f"rank {rank} exceeds dimension {dim}")
    rng = np.random.default_rng(seed)
    u = random_unitary(rng, dim)
    b = np.zeros((dim, dim), dtype=complex)
    r_values = np.sort(rng.uniform(0.5, 2.0, size=rank // 2))[::-1]
    for j, r in enumerate(r_values):
        b[2 * j, 2 * j + 1] = r
        b[2 * j + 1, 2 * j] = -r
    return u @ b @ u.T


def random_skew_with_kernel(dim, rank, seed):
    """Skew-symmetric (standard tau) with zero rows/cols padding the kernel."""
    if rank % 2 != 0:
        raise InvalidRank(f"skew-symmetric matrices have even rank, got {rank}")
    if rank > dim:
        raise InvalidRank(f"rank {rank} exceeds dimension {dim}")
    w = random_complex(np.random.default_rng(seed), rank, rank)
    core = w - w.T
    out = np.zeros((dim, dim), dtype=complex)
    out[:rank, :rank] = core
    return out


def gen(kind, dim, rank=None, seed=0):
    """Deterministic generator dispatch; see KINDS."""
    if dim < 1:
        raise DimensionMismatch(f"dimension must be positive, got {dim}")
    if rank is not None and rank < 0:
        raise InvalidRank(f"rank must be nonnegative, got {rank}")
    if seed < 0:
        raise SkewvnError(f"seed must be nonnegative, got {seed}")
    if kind == "skew-symmetric":
        return random_skew_symmetric(dim, seed)
    if kind == "skew-symmetric-rank":
        if rank is None:
            raise InvalidRank("rank is required for skew-symmetric-rank")
        return random_skew_symmetric_rank(dim, rank, seed)
    if kind == "tau-skew-symmetric-with-kernel":
        if rank is None:
            raise InvalidRank("rank is required for tau-skew-symmetric-with-kernel")
        return random_skew_with_kernel(dim, rank, seed)
    raise InvalidRank(f"unknown kind {kind!r}")
