import math

import numpy as np
import pytest

from skewvn.antilinear import AntilinearOperator
from skewvn.errors import InvalidP
from skewvn.schatten import schatten_norm, singular_values


def random_complex(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def random_unitary(rng, n):
    q, r = np.linalg.qr(random_complex(rng, n, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def gram_singular_values(mat):
    """Oracle: descending square roots of the eigenvalues of mat mat*."""
    w = np.linalg.eigvalsh(mat @ mat.conj().T)
    return np.sqrt(np.clip(w, 0.0, None))[::-1]


def test_singular_values_examples():
    a = AntilinearOperator(np.array([[0, 2], [-2, 0]], dtype=complex))
    assert np.allclose(singular_values(a), [2, 2])
    assert np.allclose(singular_values(AntilinearOperator(np.zeros((3, 3)))), 0.0)
    m = np.array(
        [[0, 3, 0, 0], [-3, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]], dtype=complex
    )
    assert np.allclose(singular_values(AntilinearOperator(m)), [3, 3, 1, 1])


def test_singular_values_against_gram_oracle():
    rng = np.random.default_rng(21)
    for n in (3, 6, 9):
        m = random_complex(rng, n, n)
        s = singular_values(AntilinearOperator(m))
        assert np.all(np.diff(s) <= 1e-12)
        assert np.allclose(s, gram_singular_values(m), atol=1e-9)


def test_schatten_norm_examples():
    a = AntilinearOperator(np.array([[0, 2], [-2, 0]], dtype=complex))
    assert abs(schatten_norm(a, 2) - 2 * math.sqrt(2)) <= 1e-12
    assert schatten_norm(AntilinearOperator(np.zeros((4, 4))), 1.5) == 0.0
    m = np.array(
        [[0, 3, 0, 0], [-3, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]], dtype=complex
    )
    assert abs(schatten_norm(AntilinearOperator(m), math.inf) - 3.0) <= 1e-12


def test_schatten_norm_invalid_p():
    a = AntilinearOperator(np.eye(2))
    for p in (1.0, 0.5, 0.0, -2.0):
        with pytest.raises(InvalidP):
            schatten_norm(a, p)


def test_schatten_norm_monotone_in_p():
    rng = np.random.default_rng(22)
    a = AntilinearOperator(random_complex(rng, 5, 5))
    ps = [1.5, 2.0, 3.0, 10.0, math.inf]
    norms = [schatten_norm(a, p) for p in ps]
    for lo, hi in zip(norms[1:], norms[:-1]):
        assert lo <= hi + 1e-12


def test_finite_rank_bound():
    # rank <= n gives ||A||_p <= n^(1/p) ||A||
    rng = np.random.default_rng(23)
    for _ in range(10):
        dim = int(rng.integers(6, 13))
        n = int(rng.integers(1, dim // 2 + 1))
        mat = np.zeros((dim, dim), dtype=complex)
        for _ in range(n):
            u = random_complex(rng, dim, 1).ravel()
            v = random_complex(rng, dim, 1).ravel()
            mat += np.outer(u, v)
        a = AntilinearOperator(mat)
        op = schatten_norm(a, math.inf)
        for p in (1.5, 2.0, 3.0):
            assert schatten_norm(a, p) <= n ** (1.0 / p) * op + 1e-9


def test_sharp_preserves_singular_values():
    rng = np.random.default_rng(24)
    a = AntilinearOperator(random_complex(rng, 7, 7))
    assert np.allclose(
        singular_values(a), singular_values(a.sharp()), atol=1e-10
    )


def test_unitary_congruence_invariance():
    rng = np.random.default_rng(25)
    m = random_complex(rng, 6, 6)
    u = random_unitary(rng, 6)
    a = AntilinearOperator(m)
    b = AntilinearOperator(u @ m @ u.T)
    assert np.allclose(singular_values(a), singular_values(b), atol=1e-10)
