import numpy as np
import pytest

from skewvn.antilinear import AntilinearOperator, Conjugation
from skewvn import canonical
from skewvn.canonical import K2, polar_factorize, youla_decompose
from skewvn.errors import NotSkewSymmetric, OddKernel
from skewvn.matcore import frob
from skewvn.wvn import kernel_split_wvn, skew_symmetric_wvn, wvn_decompose


def random_complex(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def random_unitary(rng, n):
    q, r = np.linalg.qr(random_complex(rng, n, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_skew(rng, n):
    w = random_complex(rng, n, n)
    return w - w.T


def roundtrip_residual(m, result):
    return frob(m - result.u @ result.block_matrix() @ result.u.T)


def test_youla_canonical_form_input():
    m = np.array([[0, 1], [-1, 0]], dtype=complex)
    result = youla_decompose(m)
    assert np.allclose(result.r, [1.0])
    assert result.kernel_dim == 0
    assert roundtrip_residual(m, result) <= 1e-10


def test_youla_zero():
    result = youla_decompose(np.zeros((2, 2)))
    assert result.r.size == 0
    assert result.kernel_dim == 2


def test_youla_with_kernel_svd_oracle():
    m = np.array([[0, 2j, 0], [-2j, 0, 0], [0, 0, 0]], dtype=complex)
    # oracle: singular values of m are {2, 2, 0}
    assert np.allclose(np.linalg.svd(m, compute_uv=False), [2, 2, 0])
    result = youla_decompose(m)
    assert np.allclose(result.r, [2.0])
    assert result.kernel_dim == 1
    assert roundtrip_residual(m, result) <= 1e-9 * (1 + frob(m))


def test_youla_rejects_non_skew():
    with pytest.raises(NotSkewSymmetric):
        youla_decompose(np.eye(3))


def test_youla_roundtrip_random():
    rng = np.random.default_rng(30)
    for n in (2, 3, 5, 8, 13, 21):
        m = random_skew(rng, n)
        result = youla_decompose(m)
        assert roundtrip_residual(m, result) <= 1e-9 * (1 + frob(m))
        assert (
            frob(result.u.conj().T @ result.u - np.eye(n)) <= 1e-10 * n
        )
        assert np.all(np.diff(result.r) <= 1e-12)
        # r carries each positive singular value with half its multiplicity
        s = np.linalg.svd(m, compute_uv=False)
        paired = np.sort(np.concatenate([result.r, result.r]))[::-1]
        positive = s[s > 1e-10 * s[0]]
        assert np.allclose(paired, positive, atol=1e-8 * (1 + s[0]))


def test_multiplicity_evenness():
    rng = np.random.default_rng(31)
    for n in (4, 7, 10):
        m = random_skew(rng, n)
        s = np.linalg.svd(m, compute_uv=False)
        s_max = s[0]
        positive = [x for x in s if x > 1e-10 * s_max]
        # cluster at relative gap 1e-8 and check each cluster size is even
        clusters = []
        for x in positive:
            if clusters and abs(clusters[-1][-1] - x) <= 1e-8 * s_max:
                clusters[-1].append(x)
            else:
                clusters.append([x])
        assert all(len(c) % 2 == 0 for c in clusters)


def compression(a, u):
    """Matrix of U* o A o U for the antilinear A: U* mat conj(U)."""
    return u.conj().T @ a.mat @ np.conj(u)


def test_antilinear_block_exact():
    a = AntilinearOperator(np.array([[0, -3], [3, 0]], dtype=complex))
    result = youla_decompose(a.mat)
    assert np.allclose(result.r, [3.0])
    # the pair (e, f) = (column 1, column 0) carries the block 3 K2
    assert frob(compression(a, result.u[:, ::-1]) - 3 * K2) <= 1e-10
    assert frob(compression(a, result.u) - result.block_matrix()) <= 1e-10


def test_antilinear_block_zero():
    result = youla_decompose(AntilinearOperator(np.zeros((4, 4))).mat)
    assert result.r.size == 0
    assert result.kernel_dim == 4


def test_antilinear_block_construct_recover():
    rng = np.random.default_rng(32)
    u0 = random_unitary(rng, 4)
    b = np.zeros((4, 4), dtype=complex)
    b[:2, :2] = 2 * K2
    b[2:, 2:] = 1 * K2
    a = AntilinearOperator(u0 @ b @ u0.T)
    result = youla_decompose(a.mat)
    assert np.allclose(result.r, [2.0, 1.0], atol=1e-10)
    target = np.zeros((4, 4), dtype=complex)
    for j, r in enumerate(result.r):
        target[2 * j : 2 * j + 2, 2 * j : 2 * j + 2] = -r * K2
    assert frob(compression(a, result.u) - target) <= 1e-9


def test_antilinear_block_rejects_non_skew():
    with pytest.raises(NotSkewSymmetric):
        youla_decompose(AntilinearOperator(np.eye(4)).mat)


def decompositions(m, tol):
    """Every decomposition of a skew matrix, called on m with tolerance tol."""
    a, tau = AntilinearOperator(m), Conjugation.standard(m.shape[0])
    return (lambda: youla_decompose(m, tol), lambda: polar_factorize(a, tol),
            lambda: wvn_decompose(a, 1.0, tol=tol),
            lambda: skew_symmetric_wvn(m, tau, 1.0, tol=tol),
            lambda: kernel_split_wvn(m, tau, 1.0, tol=tol))


def test_non_skew_input_is_refused_before_any_eigensolve(monkeypatch):
    # one skew test, ||M + M^tr||_F <= tol ||M||_F, ahead of the Householder
    # reduction, with the same verdict at every scale; a NaN tolerance
    # admits nothing
    reductions = []
    real = canonical._tridiagonalize

    def counting(c):
        reductions.append(c.shape)
        return real(c)

    monkeypatch.setattr(canonical, "_tridiagonalize", counting)
    near = random_skew(np.random.default_rng(37), 6) + 1e-9 * np.eye(6)
    symmetric = np.array([[1.0, 2.0], [2.0, 3.0]])
    for m, tol in ((np.eye(2), 1e-10), (np.arange(16.0).reshape(4, 4), 1e-10),
                   (near, 1e-10), (np.array([[0, 1], [-1, 0]], dtype=complex), float("nan")),
                   (symmetric * 2.0**-600, 1e-10), (symmetric, 1e-10),
                   (symmetric * 2.0**600, 1e-10)):
        for run in decompositions(m, tol):
            with pytest.raises(NotSkewSymmetric):
                run()
    # a general tau: T is tau-skew exactly when its matrix in a tau-fixed
    # basis is skew, which youla_decompose tests there
    rng = np.random.default_rng(11)
    w = random_unitary(rng, 4)
    tau = Conjugation(w @ w.T)
    for split in (skew_symmetric_wvn, kernel_split_wvn):
        with pytest.raises(NotSkewSymmetric):
            split(np.eye(4), tau, 1.0)
    assert reductions == []
    for split in (skew_symmetric_wvn, kernel_split_wvn):
        split(random_skew(rng, 4) @ np.conj(tau.mat), tau, 1.0)
    for m in (np.array([[0, 1], [-1, 0]], dtype=complex), np.array([[0, 2j], [-2j, 0]]), near):
        for run in decompositions(m, 1e-8):
            run()
    assert reductions


def test_polar_exact_two_by_two():
    a = AntilinearOperator(np.array([[0, 3], [-3, 0]], dtype=complex))
    result = polar_factorize(a)
    assert frob(result.modulus - 3 * np.eye(2)) <= 1e-10
    assert frob(result.kappa.mat - np.array([[0, 1], [-1, 0]])) <= 1e-10


def test_polar_odd_kernel():
    m = np.array([[0, 1, 0], [-1, 0, 0], [0, 0, 0]], dtype=complex)
    with pytest.raises(OddKernel):
        polar_factorize(AntilinearOperator(m))


def test_polar_zero_operator():
    result = polar_factorize(AntilinearOperator(np.zeros((4, 4))))
    assert np.allclose(result.modulus, 0.0)
    k = result.kappa.mat
    assert frob(k.conj().T @ k - np.eye(4)) <= 1e-10
    assert frob(k @ np.conj(k) + np.eye(4)) <= 1e-10


def test_polar_identities_random():
    rng = np.random.default_rng(33)
    for n in (2, 4, 6, 10):
        a = AntilinearOperator(random_skew(rng, n))
        result = polar_factorize(a)
        k = result.kappa.mat
        s = result.modulus
        scale = 1e-9 * (1 + frob(a.mat))
        # A = kappa |A|: antilinear o linear has matrix K conj(S)
        assert frob(a.mat - k @ np.conj(s)) <= scale
        # A = |A| kappa: linear o antilinear has matrix S K
        assert frob(a.mat - s @ k) <= scale
        assert frob(k @ np.conj(s) - s @ k) <= scale


def test_polar_kappa_commutes_with_spectral_projections():
    from skewvn.wvn import spectral_resolution

    rng = np.random.default_rng(34)
    a = AntilinearOperator(random_skew(rng, 8))
    result = polar_factorize(a)
    res = spectral_resolution(youla_decompose(a.mat))
    k = result.kappa.mat
    for j in range(res.eigenvalues.size):
        proj = res.projection(np.arange(res.eigenvalues.size) == j)
        # kappa o E and E o kappa as matrices: K conj(E) vs E K
        assert frob(k @ np.conj(proj) - proj @ k) <= 1e-9


def test_youla_and_polar_scale_by_powers_of_two():
    # the reflector norms of an input near 2^+-600 overflow or underflow
    # unless it is prescaled; the prescale is exact, so outputs scale exactly
    from skewvn.generate import gen

    m = gen("skew-symmetric", 32, None, 4)
    youla = youla_decompose(m)
    polar = polar_factorize(AntilinearOperator(m))
    for shift in (600, -600):
        scaled = m * 2.0**shift
        y = youla_decompose(scaled)
        assert np.array_equal(y.u, youla.u)
        assert np.array_equal(y.r, youla.r * 2.0**shift)
        p = polar_factorize(AntilinearOperator(scaled))
        assert np.array_equal(p.kappa.mat, polar.kappa.mat)
        assert np.array_equal(p.modulus, polar.modulus * 2.0**shift)


def test_youla_rejects_non_skew_at_huge_scale():
    # frob works on m 2^-e, so the skew check neither overflows nor passes
    # a non-skew matrix at 2^600
    with pytest.raises(NotSkewSymmetric):
        youla_decompose(np.arange(16.0).reshape(4, 4) * 2.0**600)


def test_polar_factorizes_once(monkeypatch):
    # kappa and |A| come from one Youla form
    calls = []
    real = canonical.youla_decompose

    def counting(mat, *args, **kwargs):
        calls.append(mat.shape)
        return real(mat, *args, **kwargs)

    monkeypatch.setattr(canonical, "youla_decompose", counting)
    a = AntilinearOperator(random_skew(np.random.default_rng(36), 10))
    result = polar_factorize(a)
    assert calls == [(10, 10)]
    scale = 1e-12 * (1 + frob(a.mat))
    assert frob(a.mat - result.kappa.mat @ np.conj(result.modulus)) <= scale
    assert frob(result.modulus - result.modulus.conj().T) <= scale


def test_kappa_is_the_anticonjugation_of_the_pair_basis_bit_for_bit():
    # kappa = F E^tr - E F^tr, formed without restacking the pairs, equals
    # make_anticonjugation over the pairs (e_j, f_j) = (v_2j+1, v_2j)
    from skewvn.antilinear import make_anticonjugation
    from skewvn.generate import gen

    for m in (gen("skew-symmetric", 8, None, 1), gen("skew-symmetric", 64, None, 2),
              gen("skew-symmetric-rank", 64, 40, 3),
              gen("tau-skew-symmetric-with-kernel", 12, 4, 4)):
        youla = youla_decompose(m)
        v = youla.pair_basis()[0]
        assert np.shares_memory(v, youla.u)
        ref = make_anticonjugation(list(zip(v[:, 1::2].T, v[:, 0::2].T)))
        assert np.array_equal(youla.kappa().mat, ref.mat)
