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


def orthonormalize_loop(vectors, tol):
    """Modified Gram-Schmidt, one vector at a time, with one re-pass."""
    basis = []
    for v in vectors:
        for _ in range(2):
            for b in basis:
                v = v - b * np.vdot(b, v)
        nrm = np.linalg.norm(v)
        if nrm > tol:
            basis.append(v / nrm)
    return basis


def test_orthonormalize_matches_the_vector_loop():
    # tau-fixed candidates w + conj(w), i (w - conj(w)) of a 5-dim span
    # with a zero and a repeated direction: the same vectors are kept, in
    # order, within roundoff
    rng = np.random.default_rng(17)
    span = np.linalg.qr(random_complex(rng, 9, 5))[0]
    vecs = [x for w in span.T for x in (w + w.conj(), 1j * (w - w.conj()))]
    vecs[3:3] = [np.zeros(9), 2.0 * vecs[0]]
    out, ref = matcore.orthonormalize(vecs, 1e-8), orthonormalize_loop(vecs, 1e-8)
    assert len(out) == len(ref) == 9
    assert max(np.linalg.norm(x - y) for x, y in zip(out, ref)) <= 1e-13


def test_orthonormalize_returns_at_most_a_basis():
    # with tol = 0 the roundoff left of a 4th vector in C^3 is not dropped
    # by the norm test; a full basis is never extended
    rng = np.random.default_rng(19)
    out = matcore.orthonormalize([random_complex(rng, 3, 1).ravel() for _ in range(4)], 0.0)
    assert len(out) == 3


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


def test_frob_scales_exactly():
    rng = np.random.default_rng(19)
    m = random_complex(rng, 5, 5)
    assert matcore.frob(m) == float(np.linalg.norm(m, "fro"))
    for k in (600, -600):
        assert matcore.frob(m * 2.0**k) == matcore.frob(m) * 2.0**k
    assert matcore.frob(np.zeros((3, 3))) == 0.0
