import itertools

import numpy as np

from skewvn import matcore


def random_complex(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def test_orthonormalize_scaling():
    out = matcore.orthonormalize([np.array([1.0, 0.0]), np.array([0.0, 2.0])])
    assert len(out) == 2
    assert np.allclose(out[0], [1, 0])
    assert np.allclose(out[1], [0, 1])


def test_orthonormalize_drops_duplicates():
    out = matcore.orthonormalize([np.array([1.0, 0.0]), np.array([1.0, 0.0])])
    assert len(out) == 1


def gram_det_rank(vectors, tol=1e-8):
    """Brute-force rank: largest k with a k-subset of nonvanishing Gram det."""
    best = 0
    for k in range(1, len(vectors) + 1):
        for subset in itertools.combinations(vectors, k):
            g = np.array([[np.vdot(u, v) for v in subset] for u in subset])
            if abs(np.linalg.det(g)) > tol:
                best = max(best, k)
    return best


def test_orthonormalize_rank():
    rng = np.random.default_rng(11)
    vecs = [random_complex(rng, 3, 1).ravel() for _ in range(5)]
    out = matcore.orthonormalize(vecs)
    assert len(out) == gram_det_rank(vecs) == 3


def test_orthonormalize_gram_identity():
    rng = np.random.default_rng(13)
    vecs = [random_complex(rng, 6, 1).ravel() for _ in range(4)]
    out = matcore.orthonormalize(vecs)
    g = np.array([[np.vdot(u, v) for v in out] for u in out])
    assert matcore.frob(g - np.eye(len(out))) <= 1e-12


def test_singular_spectrum_values_scale_exactly():
    # the SVD runs on the power-of-two prescaled matrix, so the values of
    # m 2^k are those of m times 2^k bit for bit, and the vectors are equal
    rng = np.random.default_rng(17)
    m = random_complex(rng, 12, 12)
    s, v = matcore.singular_spectrum(m)
    assert np.allclose(s, np.linalg.svd(m, compute_uv=False)[::-1])
    for k in (600, -600):
        s_k, v_k = matcore.singular_spectrum(m * 2.0**k)
        assert np.array_equal(s_k, s * 2.0**k)
        assert np.array_equal(v_k, v)


def test_frob_scales_exactly():
    rng = np.random.default_rng(19)
    m = random_complex(rng, 5, 5)
    assert matcore.frob(m) == float(np.linalg.norm(m, "fro"))
    for k in (600, -600):
        assert matcore.frob(m * 2.0**k) == matcore.frob(m) * 2.0**k
    assert matcore.frob(np.zeros((3, 3))) == 0.0
