import numpy as np
import pytest

from skewvn.antilinear import (
    AntilinearOperator,
    Conjugation,
    make_anticonjugation,
    tau_fixed_basis,
    tau_transpose,
)
from skewvn.canonical import youla_decompose
from skewvn.errors import (
    NotOrthonormal,
    NotSkewSymmetric,
    OddDimension,
    SkewvnError,
)
from skewvn.matcore import frob


def random_complex(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def random_unitary(rng, n):
    q, r = np.linalg.qr(random_complex(rng, n, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_conjugation(rng, n):
    # C = R R^tr for unitary R is unitary, symmetric, and C conj(C) = I
    r = random_unitary(rng, n)
    return Conjugation(r @ r.T)


def random_anticonjugation(rng, n):
    u = random_unitary(rng, n)
    pairs = [(u[:, 2 * j], u[:, 2 * j + 1]) for j in range(n // 2)]
    return make_anticonjugation(pairs)


def test_sharp_is_transpose():
    a = AntilinearOperator(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert np.array_equal(a.sharp().mat, np.array([[0.0, -1.0], [1.0, 0.0]]))


def test_sharp_involution():
    rng = np.random.default_rng(0)
    a = AntilinearOperator(random_complex(rng, 4, 4))
    assert np.array_equal(a.sharp().sharp().mat, a.mat)


def test_sharp_pairing_identity():
    # <Ax, y> = conj(<x, A# y>) checked by direct inner products
    rng = np.random.default_rng(1)
    a = AntilinearOperator(random_complex(rng, 5, 5))
    for _ in range(20):
        x = random_complex(rng, 5, 1).ravel()
        y = random_complex(rng, 5, 1).ravel()
        lhs = np.vdot(y, a(x))  # <Ax, y> with physics-free convention <u,v>=v*u
        rhs = np.conj(np.vdot(a.sharp()(y), x))
        assert abs(lhs - rhs) <= 1e-12 * (1 + abs(lhs))


def test_modulus_examples():
    a = AntilinearOperator(np.array([[0, 3], [-3, 0]], dtype=complex))
    assert frob(youla_decompose(a.mat).modulus() - 3 * np.eye(2)) <= 1e-12
    assert np.allclose(youla_decompose(np.zeros((3, 3))).modulus(), 0.0)
    b = AntilinearOperator(np.array([[0, 1 + 1j], [-(1 + 1j), 0]]))
    assert frob(youla_decompose(b.mat).modulus() - np.sqrt(2) * np.eye(2)) <= 1e-12


def test_modulus_matches_gram_oracle():
    # |A|^2 must reproduce mat^tr conj(mat); the library takes |A| of a
    # skew-self-adjoint A off its Youla form
    rng = np.random.default_rng(2)
    w = random_complex(rng, 6, 6)
    m = w - w.T
    s = youla_decompose(m).modulus()
    assert frob(s @ s - m.T @ np.conj(m)) <= 1e-10 * (1 + frob(m) ** 2)


def test_make_anticonjugation_single_pair():
    k = make_anticonjugation([(np.array([1.0, 0.0]), np.array([0.0, 1.0]))])
    assert np.allclose(k.mat, [[0, -1], [1, 0]])
    # action (x, y) -> (-conj y, conj x)
    out = k(np.array([2 + 1j, 3.0]))
    assert np.allclose(out, [-3.0, 2 - 1j])


def test_make_anticonjugation_standard_dim4():
    e = np.eye(4)
    k = make_anticonjugation([(e[:, 0], e[:, 1]), (e[:, 2], e[:, 3])])
    block = np.array([[0, -1], [1, 0]])
    expected = np.block(
        [[block, np.zeros((2, 2))], [np.zeros((2, 2)), block]]
    )
    assert np.allclose(k.mat, expected)


def test_make_anticonjugation_random_unitary_pairs():
    rng = np.random.default_rng(5)
    kappa = random_anticonjugation(rng, 6)
    k = kappa.mat
    assert frob(k.conj().T @ k - np.eye(6)) <= 1e-12 * np.sqrt(6)
    assert frob(k @ np.conj(k) + np.eye(6)) <= 1e-12 * np.sqrt(6)
    assert frob(k + k.T) <= 1e-12


def test_make_anticonjugation_pair_action():
    rng = np.random.default_rng(6)
    u = random_unitary(rng, 4)
    pairs = [(u[:, 0], u[:, 1]), (u[:, 2], u[:, 3])]
    kappa = make_anticonjugation(pairs)
    for e, f in pairs:
        assert np.linalg.norm(kappa(e) - f) <= 1e-12
        assert np.linalg.norm(kappa(f) + e) <= 1e-12


def test_make_anticonjugation_errors():
    with pytest.raises(NotOrthonormal):
        make_anticonjugation([(np.array([1.0, 0.0]), np.array([1.0, 0.0]))])
    e = np.eye(4)
    with pytest.raises(OddDimension):
        make_anticonjugation([(e[:, 0], e[:, 1])])  # does not exhaust dim 4
    with pytest.raises(OddDimension):
        make_anticonjugation([])


def test_antilinear_from_linear_standard():
    t = np.array([[0, 1], [-1, 0]], dtype=complex)
    a = AntilinearOperator(t @ Conjugation.standard(2).mat)
    assert np.array_equal(a.mat, t)


def test_antilinear_linear_roundtrip():
    # T = (T o tau) o tau, the matrix T C conj(C)
    rng = np.random.default_rng(8)
    for n in (2, 5):
        t = random_complex(rng, n, n)
        tau = random_conjugation(rng, n)
        back = AntilinearOperator(t @ tau.mat).mat @ np.conj(tau.mat)
        assert frob(back - t) <= 1e-12 * (1 + frob(t))


def test_skew_linear_gives_skew_self_adjoint():
    rng = np.random.default_rng(9)
    w = random_complex(rng, 6, 6)
    t = w - w.T
    a = AntilinearOperator(t @ Conjugation.standard(6).mat)
    assert frob(a.sharp().mat + a.mat) <= 1e-10 * (1.0 + frob(a.mat))  # A# = -A


def test_transpose_check_examples():
    tau = Conjugation.standard(2)
    for t in (np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([[0, 1j], [0, 0]])):
        assert frob(t.T - tau_transpose(t, tau)) == 0.0


def test_transpose_check_random():
    rng = np.random.default_rng(10)
    tau = Conjugation.standard(6)
    t = random_complex(rng, 6, 6)
    assert frob(t.T - tau_transpose(t, tau)) <= 1e-14 * (1 + frob(t))


def test_is_tau_skew_symmetric_general_tau():
    # T is tau-skew (tau T* tau = -T) exactly when its matrix in a
    # tau-fixed basis is skew, which youla_decompose tests there
    rng = np.random.default_rng(11)
    tau = random_conjugation(rng, 4)
    m = random_complex(rng, 4, 4)
    t = (m - m.T) @ np.conj(tau.mat)
    r = tau_fixed_basis(tau)
    assert frob(tau_transpose(t, tau) + t) <= 1e-12 * frob(t)
    youla_decompose(r.conj().T @ t @ r)
    assert frob(tau_transpose(np.eye(4), tau) + np.eye(4)) > 1.0
    with pytest.raises(NotSkewSymmetric):
        youla_decompose(r.conj().T @ np.eye(4) @ r)


def test_orthogonality_lemma():
    # <h, kappa h> = 0 for every anticonjugation
    rng = np.random.default_rng(12)
    for n in (2, 4, 6, 8):
        kappa = random_anticonjugation(rng, n)
        for _ in range(10):
            h = random_complex(rng, n, 1).ravel()
            assert abs(np.vdot(h, kappa(h))) <= 1e-12 * np.linalg.norm(h) ** 2


def test_conjugation_flips_inner_product():
    rng = np.random.default_rng(13)
    tau = random_conjugation(rng, 5)
    for _ in range(10):
        x = random_complex(rng, 5, 1).ravel()
        y = random_complex(rng, 5, 1).ravel()
        lhs = np.vdot(tau(y), tau(x))  # <tau x, tau y>
        rhs = np.vdot(x, y)  # <y, x>
        assert abs(lhs - rhs) <= 1e-12 * (1 + abs(rhs))


def test_conjugation_rejects_non_involution():
    # unitary but tau^2 = -I, not a conjugation
    with pytest.raises(SkewvnError):
        Conjugation(np.array([[0.0, -1.0], [1.0, 0.0]]))


def test_conjugation_checks_every_matrix_but_the_exact_identity():
    n = 8
    assert Conjugation.standard(n).is_standard()
    assert Conjugation(np.eye(n)).is_standard()
    near = np.eye(n, dtype=complex)
    near[0, 1] = 1e-6  # not unitary
    cycle = np.eye(n)[:, [1, 2, 0, *range(3, n)]]  # unitary, C conj(C) != I
    for c in (near, cycle):
        with pytest.raises(SkewvnError):
            Conjugation(c)


def test_tau_fixed_basis_standard():
    assert np.array_equal(tau_fixed_basis(Conjugation.standard(3)), np.eye(3))


def test_tau_fixed_basis_general():
    rng = np.random.default_rng(14)
    for n in (6, 7, 257):
        tau = random_conjugation(rng, n)
        r = tau_fixed_basis(tau)
        assert r.shape == (n, n)
        bound = 1e-12 * np.sqrt(n)
        assert frob(r.conj().T @ r - np.eye(n)) <= bound
        assert frob(tau.mat @ np.conj(r) - r) <= bound
        for j in range(n):
            v = r[:, j]
            assert np.linalg.norm(tau(v) - v) <= 1e-10


def test_compose_is_plain_matrix():
    rng = np.random.default_rng(16)
    a = AntilinearOperator(random_complex(rng, 3, 3))
    b = AntilinearOperator(random_complex(rng, 3, 3))
    c = a.compose(b)
    assert isinstance(c, np.ndarray)
    x = random_complex(rng, 3, 1).ravel()
    assert np.allclose(c @ x, a(b(x)))
