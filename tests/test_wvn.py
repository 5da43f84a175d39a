import math

import numpy as np
import pytest

from skewvn import generate, wvn
from skewvn.antilinear import (
    AntilinearOperator,
    Conjugation,
    make_anticonjugation,
    tau_fixed_basis,
)
from skewvn.canonical import K2, polar_factorize
from skewvn.errors import BudgetFailure, InvalidP, OddKernel, ZeroVector
from skewvn.matcore import frob, opnorm
from skewvn.schatten import schatten_norm
from skewvn.wvn import (
    CELL_DROP_TOL,
    SpectralResolution,
    block_skew_matrix,
    kernel_split_wvn,
    rank_projection_step,
    skew_symmetric_wvn,
    skew_wvn_residual,
    spectral_measure_G,
    spectral_resolution,
    wvn_decompose,
)


def random_complex(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def random_skew(rng, n):
    w = random_complex(rng, n, n)
    return w - w.T


def two_block_matrix():
    m = np.zeros((4, 4), dtype=complex)
    m[:2, :2] = 2 * K2
    m[2:, 2:] = 1 * K2
    return m


def cluster_projection(res, j):
    vc = res.cluster_vectors(j)
    return vc @ vc.conj().T


def cell_oracle(a, b, n, x):
    """Cell of x in the uniform partition of [a, b] into n cells [lo, hi),
    the last one closed at b; n when x is in no cell.  The scalar reference
    for ``SpectralResolution.cells``."""
    h = (b - a) / n
    for k in range(1, n + 1):
        lo, hi = a + (k - 1) * h, (b if k == n else a + k * h)
        if lo <= x < hi or (k == n and lo <= x <= hi):
            return k - 1
    return n


def oracle_cells(res, n):
    return np.array([cell_oracle(res.a, res.b, n, x) for x in res.eigenvalues])


def diagonal_resolution(b, lam):
    """A resolution with one eigenvalue per coordinate vector."""
    dim = len(lam)
    return SpectralResolution(
        a=0.0,
        b=b,
        eigenvalues=np.array(lam),
        vectors=np.eye(dim, dtype=complex),
        cluster_of=np.arange(dim),
    )


def test_partition_cells_cover_interval():
    # every point in [0, 2] lands in one of the 4 cells, the one the oracle names
    res = diagonal_resolution(2.0, np.linspace(0.0, 2.0, 41))
    cell = res.cells(4)
    assert list(cell) == list(oracle_cells(res, 4))
    assert list(np.bincount(cell)) == [10, 10, 10, 11]


def test_spectral_resolution_scalar_modulus():
    a = AntilinearOperator(np.array([[0, 2], [-2, 0]], dtype=complex))
    res = spectral_resolution(a)
    assert np.allclose(res.eigenvalues, [2.0])
    assert frob(cluster_projection(res, 0) - np.eye(2)) <= 1e-10
    assert res.a == 0.0 and abs(res.b - 2.0) <= 1e-12


def test_spectral_resolution_zero():
    res = spectral_resolution(AntilinearOperator(np.zeros((3, 3))))
    assert np.allclose(res.eigenvalues, [0.0])
    assert frob(cluster_projection(res, 0) - np.eye(3)) <= 1e-12


def test_spectral_resolution_two_blocks():
    a = AntilinearOperator(two_block_matrix())
    res = spectral_resolution(a)
    assert np.allclose(res.eigenvalues, [1.0, 2.0])
    projections = [cluster_projection(res, j) for j in range(res.eigenvalues.size)]
    for proj in projections:
        assert abs(np.trace(proj).real - 2.0) <= 1e-10
        assert frob(proj @ proj - proj) <= 1e-10
        assert frob(proj - proj.conj().T) <= 1e-10
    total = sum(projections)
    assert frob(total - np.eye(4)) <= 1e-10


def test_spectral_projection_selection():
    a = AntilinearOperator(two_block_matrix())
    res = spectral_resolution(a)
    lam = res.eigenvalues
    low = res.projection((lam >= 0.5) & (lam < 1.5))
    # projection onto the eigenvalue-1 eigenspace = last two coordinates
    expected = np.diag([0.0, 0.0, 1.0, 1.0]).astype(complex)
    assert frob(low - expected) <= 1e-10
    full = res.projection(np.ones(lam.size, dtype=bool))
    assert frob(full - np.eye(4)) <= 1e-10
    empty = res.projection((lam >= 5.0) & (lam < 6.0))
    assert frob(empty) == 0.0


def test_g_full_interval_is_kappa():
    rng = np.random.default_rng(40)
    a = AntilinearOperator(random_skew(rng, 6))
    kappa = polar_factorize(a).kappa
    res = spectral_resolution(a)
    g = spectral_measure_G(a, kappa, oracle_cells(res, 1) == 0, res=res)
    assert frob(g.mat - kappa.mat) <= 1e-10


def test_g_empty_interval():
    rng = np.random.default_rng(41)
    a = AntilinearOperator(random_skew(rng, 4))
    kappa = polar_factorize(a).kappa
    res = spectral_resolution(a)
    lam = res.eigenvalues
    g = spectral_measure_G(a, kappa, (lam >= res.b + 1.0) & (lam < res.b + 2.0), res=res)
    assert frob(g.mat) == 0.0


def test_g_square_property():
    rng = np.random.default_rng(42)
    a = AntilinearOperator(random_skew(rng, 6))
    kappa = polar_factorize(a).kappa
    res = spectral_resolution(a)
    lower = oracle_cells(res, 2) == 0  # [a, (a + b) / 2)
    g = spectral_measure_G(a, kappa, lower, res=res)
    e = res.projection(lower)
    # G(omega)^2 = -E(omega)
    assert frob(g.compose(g) + e) <= 1e-10


def test_g_sharp_and_additivity():
    rng = np.random.default_rng(43)
    a = AntilinearOperator(random_skew(rng, 8))
    kappa = polar_factorize(a).kappa
    res = spectral_resolution(a)
    cell = res.cells(3)
    total = np.zeros((8, 8), dtype=complex)
    for k in range(3):
        g = spectral_measure_G(a, kappa, cell == k, res=res)
        assert frob(g.sharp().mat + g.mat) <= 1e-10
        total += g.mat
    assert frob(total - kappa.mat) <= 1e-10


def test_rank_projection_step_zero_operator():
    a = AntilinearOperator(np.zeros((4, 4)))
    kappa = polar_factorize(a).kappa
    f = np.array([1.0, 0.0, 0.0, 0.0])
    step = rank_projection_step(a, kappa, f, 4)
    span = np.column_stack([f, kappa(f)])
    expected = span @ span.conj().T
    assert frob(step.p - expected) <= 1e-10
    assert frob(step.k.mat) <= 1e-12


def test_rank_projection_step_isolates_block():
    a = AntilinearOperator(two_block_matrix())
    kappa = polar_factorize(a).kappa
    f = np.array([1.0, 0.0, 0.0, 0.0])
    step = rank_projection_step(a, kappa, f, 4)
    expected = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
    assert frob(step.p - expected) <= 1e-10
    assert frob(step.k.mat) <= 1e-10


def test_rank_projection_step_zero_seed():
    a = AntilinearOperator(np.zeros((2, 2)))
    kappa = polar_factorize(a).kappa
    with pytest.raises(ZeroVector):
        rank_projection_step(a, kappa, np.zeros(2), 4)


def test_rank_projection_step_bounds():
    rng = np.random.default_rng(44)
    a = AntilinearOperator(random_skew(rng, 8))
    kappa = polar_factorize(a).kappa
    res = spectral_resolution(a)
    width = res.b - res.a
    f = np.eye(8)[:, 0]
    theoretical = []
    for n in (2, 4, 8):
        step = rank_projection_step(a, kappa, f, n, res=res)
        p = step.p
        q = np.eye(8) - p
        off = q @ a.mat @ np.conj(p)
        assert opnorm(off) <= width / n + 1e-9
        for p_exp in (1.5, 2.0, 3.0):
            q_exp = p_exp / (p_exp - 1.0)
            bound = 2.0 * (2.0 / n) ** (1.0 / q_exp) * width
            assert schatten_norm(AntilinearOperator(off), p_exp) <= bound + 1e-9
        theoretical.append(2.0 * (2.0 / n) ** 0.5 * width)
        # structural step invariants
        rank = int(round(np.trace(p).real))
        assert rank % 2 == 0 and rank <= 2 * n
        assert frob(kappa.mat @ np.conj(p) - p @ kappa.mat) <= 1e-9
        assert np.linalg.norm(p @ f - f) <= 1e-9
        kf = kappa(f)
        assert np.linalg.norm(p @ kf - kf) <= 1e-9
        reduced = a.mat + step.k.mat
        assert frob(q @ reduced @ np.conj(p)) <= 1e-9
        assert frob(p @ reduced @ np.conj(q)) <= 1e-9
        assert frob(step.k.mat + step.k.mat.T) <= 1e-12 * (1 + frob(step.k.mat))
    # the p=2 theoretical bound shrinks as the partition refines
    assert theoretical[0] > theoretical[1] > theoretical[2]


def test_step_family_orthogonality():
    rng = np.random.default_rng(45)
    a = AntilinearOperator(random_skew(rng, 8))
    kappa = polar_factorize(a).kappa
    res = spectral_resolution(a)
    f = random_complex(rng, 8, 1).ravel()
    fs, gs = [], []
    cell = oracle_cells(res, 4)
    for k in range(4):
        fk = res.projection(cell == k) @ f
        if np.linalg.norm(fk) > 1e-12:
            fs.append(fk)
            gs.append(kappa(fk))
    norm2 = np.linalg.norm(f) ** 2
    for j, fj in enumerate(fs):
        for k, gk in enumerate(gs):
            assert abs(np.vdot(gk, fj)) <= 1e-10 * norm2
        for k, fk in enumerate(fs):
            if j != k:
                assert abs(np.vdot(fk, fj)) <= 1e-10 * norm2
                assert abs(np.vdot(gs[k], gs[j])) <= 1e-10 * norm2
    # range orthogonality through A
    a_scale = 1e-9 * (1 + opnorm(a.mat)) ** 2 * (1 + norm2)
    afs = [a(v) for v in fs]
    ags = [a(v) for v in gs]
    for j in range(len(fs)):
        assert abs(np.vdot(ags[j], afs[j])) <= a_scale
        for k in range(len(fs)):
            if j != k:
                assert abs(np.vdot(afs[k], afs[j])) <= a_scale
                assert abs(np.vdot(ags[k], ags[j])) <= a_scale


def test_wvn_single_block():
    a = AntilinearOperator(np.array([[0, 1], [-1, 0]], dtype=complex))
    result = wvn_decompose(a, 0.1, 2.0)
    assert np.allclose(result.d_values, [1.0], atol=1e-9)
    assert result.achieved_norm < 0.1
    assert frob(a.mat - result.k.mat - result.d.mat) <= 1e-10
    # oracle: d matches the singular values of A
    assert np.allclose(
        np.sort(result.d_values), [1.0], atol=1e-9
    )


def test_wvn_zero_operator():
    result = wvn_decompose(AntilinearOperator(np.zeros((4, 4))), 0.5)
    assert frob(result.k.mat) <= 1e-12
    assert frob(result.d.mat) <= 1e-12
    assert np.allclose(result.d_values, [0.0, 0.0])


def test_wvn_random_weyl_stability():
    rng = np.random.default_rng(46)
    a = AntilinearOperator(random_skew(rng, 16))
    result = wvn_decompose(a, 1e-3, 2.0)
    assert result.achieved_norm < 1e-3
    # oracle: singular values from an independent eigensolve of mat mat*
    w = np.linalg.eigvalsh(a.mat @ a.mat.conj().T)
    s_oracle = np.sqrt(np.clip(w, 0.0, None))[::-1]
    d_paired = np.sort(np.concatenate([result.d_values, result.d_values]))[::-1]
    k_op = schatten_norm(result.k, math.inf)
    assert np.max(np.abs(d_paired - s_oracle)) <= k_op + 1e-9


def test_wvn_basis_block_structure():
    rng = np.random.default_rng(47)
    a = AntilinearOperator(random_skew(rng, 10))
    result = wvn_decompose(a, 1e-2, 2.0)
    d = result.d
    for (e, f), dv in zip(result.basis, result.d_values):
        assert np.linalg.norm(d(e) - dv * f) <= 1e-9 * (1 + frob(a.mat))
        assert np.linalg.norm(d(f) + dv * e) <= 1e-9 * (1 + frob(a.mat))
    flat = [v for pair in result.basis for v in pair]
    q = np.column_stack(flat)
    assert frob(q.conj().T @ q - np.eye(10)) <= 1e-9


def test_wvn_odd_kernel_and_bad_p():
    m = np.zeros((3, 3), dtype=complex)
    m[:2, :2] = K2
    with pytest.raises(OddKernel):
        wvn_decompose(AntilinearOperator(m), 0.1)
    with pytest.raises(InvalidP):
        wvn_decompose(AntilinearOperator(np.zeros((2, 2))), 0.1, p=1.0)
    with pytest.raises(InvalidP):
        wvn_decompose(AntilinearOperator(np.zeros((2, 2))), 0.1, p=math.inf)


def test_skew_wvn_single_block():
    tau = Conjugation.standard(2)
    t = np.array([[0, 1], [-1, 0]], dtype=complex)
    result = skew_symmetric_wvn(t, tau, 0.1)
    assert abs(result.d_values[0] - 1.0) < 0.1
    assert skew_wvn_residual(t, tau, result) <= 1e-10
    assert result.d[0, 1].real == pytest.approx(result.d_values[0])


def test_skew_wvn_zero():
    tau = Conjugation.standard(2)
    result = skew_symmetric_wvn(np.zeros((2, 2)), tau, 0.5)
    assert frob(result.k) <= 1e-12
    assert frob(result.d) <= 1e-12
    assert skew_wvn_residual(np.zeros((2, 2)), tau, result) <= 1e-12


def test_skew_wvn_random_postconditions():
    rng = np.random.default_rng(48)
    tau = Conjugation.standard(12)
    t = random_skew(rng, 12)
    result = skew_symmetric_wvn(t, tau, 1e-2, p=2.0)
    scale = 1 + frob(t)
    assert skew_wvn_residual(t, tau, result) <= 1e-9 * scale
    # for standard tau the residual uses the plain transpose
    assert frob(t - result.k - result.u @ result.d @ result.u.T) <= 1e-9 * scale
    assert frob(result.k + result.k.T) <= 1e-9 * (1 + frob(result.k))
    assert result.achieved_norm < 1e-2
    assert frob(result.d - block_skew_matrix(result.d_values, 12)) <= 1e-12
    assert frob(result.u.conj().T @ result.u - np.eye(12)) <= 1e-9


def test_skew_wvn_general_tau():
    rng = np.random.default_rng(49)
    n = 8
    q, r = np.linalg.qr(random_complex(rng, n, n))
    un = q * (np.diag(r) / np.abs(np.diag(r)))
    tau = Conjugation(un @ un.T)
    m = random_skew(rng, n)
    t = m @ np.conj(tau.mat)  # tau-skew-symmetric by construction
    result = skew_symmetric_wvn(t, tau, 1e-2)
    assert skew_wvn_residual(t, tau, result) <= 1e-9 * (1 + frob(t))
    assert result.achieved_norm < 1e-2
    # K stays tau-skew-symmetric
    c = tau.mat
    assert frob(c @ result.k.conj().T @ np.conj(c) + result.k) <= 1e-9 * (
        1 + frob(result.k)
    )


def test_kernel_split_odd_kernel():
    t = np.zeros((3, 3), dtype=complex)
    t[1:, 1:] = np.array([[0, 1], [-1, 0]])
    tau = Conjugation.standard(3)
    result = kernel_split_wvn(t, tau, 0.1)
    assert np.allclose(result.d_values, [1.0], atol=0.1)
    assert skew_wvn_residual(t, tau, result) <= 1e-9 * (1 + frob(t))


def test_kernel_split_zero():
    tau = Conjugation.standard(3)
    result = kernel_split_wvn(np.zeros((3, 3)), tau, 0.1)
    assert frob(result.k) <= 1e-12
    assert frob(result.d) <= 1e-12
    assert frob(result.u - np.eye(3)) <= 1e-12


def test_kernel_split_padded_random():
    rng = np.random.default_rng(50)
    core = random_skew(rng, 10)
    t = np.zeros((13, 13), dtype=complex)
    t[:10, :10] = core
    tau = Conjugation.standard(13)
    result = kernel_split_wvn(t, tau, 1e-2)
    scale = 1 + frob(t)
    assert skew_wvn_residual(t, tau, result) <= 1e-9 * scale
    assert result.achieved_norm < 1e-2
    assert frob(result.u.conj().T @ result.u - np.eye(13)) <= 1e-9
    # kernel block untouched: K vanishes on the padding rows/columns
    assert frob(result.k[10:, :]) <= 1e-9
    assert frob(result.k[:, 10:]) <= 1e-9


def test_kernel_split_kernel_mismatch():
    # a tau-skew T whose kernel is not fixed by the standard tau:
    # kernel of M = r (f e^tr - e f^tr) is {conj(e), conj(f)}^perp, which is
    # not conjugation-invariant for generic complex e, f
    rng = np.random.default_rng(51)
    q, _ = np.linalg.qr(random_complex(rng, 4, 2))
    e, f = q[:, 0], q[:, 1]
    t = np.outer(f, e) - np.outer(e, f)
    tau = Conjugation.standard(4)
    with pytest.raises(Exception) as excinfo:
        kernel_split_wvn(t, tau, 0.1)
    assert excinfo.type.__module__.startswith("skewvn")


def test_block_skew_matrix():
    out = block_skew_matrix([2.0, 1.0], 5)
    expected = np.zeros((5, 5), dtype=complex)
    expected[0, 1], expected[1, 0] = 2.0, -2.0
    expected[2, 3], expected[3, 2] = 1.0, -1.0
    assert np.array_equal(out, expected)


def test_wvn_scales_by_powers_of_two():
    m = generate.gen("skew-symmetric", 32, None, 4)
    base = wvn_decompose(AntilinearOperator(m), 1e-2)
    for shift in (600, -600):
        result = wvn_decompose(AntilinearOperator(m * 2.0**shift), 1e-2 * 2.0**shift)
        assert np.array_equal(result.k.mat, base.k.mat * 2.0**shift)
        assert np.array_equal(result.d_values, base.d_values * 2.0**shift)


def test_kernel_split_injective_is_skew_symmetric_wvn():
    tau = Conjugation.standard(24)
    t = generate.gen("skew-symmetric", 24, None, 8)
    split = kernel_split_wvn(t, tau, 1e-2)
    direct = skew_symmetric_wvn(t, tau, 1e-2)
    for field in ("k", "d", "u", "d_values"):
        assert np.array_equal(getattr(split, field), getattr(direct, field))
    assert split.achieved_norm == direct.achieved_norm


def test_kernel_split_odd_kernel_compresses_to_the_range():
    # the kernel path: tau-fixed bases of N(T)^perp and N(T), and the
    # decomposition of the compression of T to N(T)^perp
    t = generate.gen("tau-skew-symmetric-with-kernel", 21, 16, 6)
    tau = Conjugation.standard(21)
    result = kernel_split_wvn(t, tau, 1e-2)
    u_sv, s, vh = np.linalg.svd(t)
    small = s <= 1e-10 * s[0]
    assert np.count_nonzero(small) == 5
    b_perp = tau_fixed_basis(tau, u_sv[:, ~small])
    b_ker = tau_fixed_basis(tau, vh.conj().T[:, small])
    sub = skew_symmetric_wvn(b_perp.conj().T @ t @ b_perp, Conjugation.standard(16), 1e-2)
    assert np.array_equal(result.k, b_perp @ sub.k @ b_perp.conj().T)
    assert np.array_equal(result.u, np.column_stack([b_perp @ sub.u, b_ker]))
    assert np.array_equal(result.d_values, sub.d_values)
    assert np.array_equal(result.d, block_skew_matrix(sub.d_values, 21))


def dense_rank_projection_step(a, kappa, f, n, res):
    """The step built cell by cell from dense projections: the reference."""
    fnorm = np.linalg.norm(f)
    fs = []
    cell = oracle_cells(res, n)
    for k in range(n):
        fk = res.projection(cell == k) @ f
        if np.linalg.norm(fk) > CELL_DROP_TOL * fnorm:
            fs.append(fk / np.linalg.norm(fk))
    q = np.column_stack(fs + [kappa(v) for v in fs])
    p = q @ q.conj().T
    p = (p + p.conj().T) / 2.0
    ident = np.eye(a.dim)
    k = -(ident - p) @ a.mat @ np.conj(p) - p @ a.mat @ np.conj(ident - p)
    return p, k


def test_rank_projection_step_matches_dense_cells():
    rng = np.random.default_rng(52)
    u = generate.random_unitary(rng, 16)
    # clusters of multiplicity 2, 4 and 6 among the singular values
    r = [3.0, 3.0, 2.0, 2.0, 2.0, 1.0, 0.5, 0.5 + 1e-3]
    a = AntilinearOperator(u @ block_skew_matrix(r, 16) @ u.T)
    kappa = polar_factorize(a).kappa
    res = spectral_resolution(a)
    f = random_complex(rng, 16, 1).ravel()
    for n in (1, 2, 3, 4, 5, 8, 16, 4096):
        step = rank_projection_step(a, kappa, f, n, res=res)
        p, k = dense_rank_projection_step(a, kappa, f, n, res)
        assert frob(step.p - p) <= 1e-12
        assert frob(step.k.mat - k) <= 1e-12


def test_rank_projection_step_cells_follow_interval_contains():
    # one eigenvalue per coordinate, placed on every cell edge, just below
    # it, at b and beyond b; the seed picks one eigenvalue at a time
    for b, n in ((1.0, 7), (0.3, 10), (2.9, 3)):
        edges = [k * (b / n) for k in range(1, n)]
        lam = edges + [np.nextafter(x, -1.0) for x in edges]
        lam += [b, np.nextafter(b, 2.0 * b), 0.0]
        lam += [0.0] * (len(lam) % 2)
        dim = len(lam)
        res = diagonal_resolution(b, lam)
        assert list(res.cells(n)) == list(oracle_cells(res, n))
        a = AntilinearOperator(np.zeros((dim, dim)))
        e = np.eye(dim)
        kappa = make_anticonjugation([(e[:, j], e[:, j + 1]) for j in range(0, dim, 2)])
        for j, x in enumerate(lam):
            step = rank_projection_step(a, kappa, e[:, j], n, res=res)
            expected = [k for k in [cell_oracle(0.0, b, n, x)] if k < n]
            assert list(step.kept_cells) == expected


def test_spectral_resolution_memory_is_quadratic():
    n = 256
    res = spectral_resolution(AntilinearOperator(generate.gen("skew-symmetric", n, None, 3)))
    fields = vars(res).values()
    held = sum(
        np.asarray(x).nbytes for v in fields for x in (v if isinstance(v, list) else [v])
    )
    assert held <= 3 * n * n * 16


def test_wvn_near_degenerate_reconstruction_is_exact():
    # singular values 1 and 1 + 1e-6 leave K of norm ~1e-6, large enough
    # that returning the sum of step perturbations unnegated breaks A = K + D
    u = generate.random_unitary(np.random.default_rng(3), 8)
    m = u @ block_skew_matrix([2.0, 1.5, 1.0, 1.0 + 1e-6], 8) @ u.T
    result = wvn_decompose(AntilinearOperator(m), 1e-3)
    assert frob(result.k.mat) > 1e-7
    assert frob(m - result.k.mat - result.d.mat) <= 1e-10 * (1 + frob(m))
    assert result.achieved_norm < 1e-3


def count_calls(monkeypatch, name, key):
    """Record key(args) for every call to ``wvn.<name>``."""
    calls = []
    real = getattr(wvn, name)

    def counting(*args, **kwargs):
        calls.append(key(args))
        return real(*args, **kwargs)

    monkeypatch.setattr(wvn, name, counting)
    return calls


def count_attempts(monkeypatch):
    """Cell counts of the screened attempts and of the dense steps."""
    screened = count_calls(monkeypatch, "_step_norm_estimate", lambda args: args[3].n)
    dense = count_calls(monkeypatch, "rank_projection_step", lambda args: args[3])
    return screened, dense


def test_wvn_budget_failure_stops_when_cells_saturate(monkeypatch):
    # at scale 1e150 the roundoff in K is ~1e134, far above epsilon = 1e-3;
    # once every cluster has its own cell finer cells cannot help
    a = AntilinearOperator(generate.gen("skew-symmetric", 16, None, 5) * 1e150)
    screened, dense = count_attempts(monkeypatch)
    with pytest.raises(BudgetFailure) as excinfo:
        wvn_decompose(a, 1e-3)
    # first cell count 4 * 2^j at which the clusters of |A| sit in distinct cells
    res = spectral_resolution(a)
    cells = 4
    while True:
        owners = oracle_cells(res, cells)
        if len(set(owners)) == len(owners):
            break
        cells *= 2
    assert screened == [4 * 2**j for j in range(int(math.log2(cells // 4)) + 1)]
    # only the saturated attempt forms its step, and it decides the failure
    assert dense == [cells]
    message = str(excinfo.value)
    assert f"{cells} cells" in message and f"{res.eigenvalues.size} clusters" in message
    assert "budget 5.000e-04" in message


def estimate_inputs():
    """Generic, clustered and near-degenerate inputs of size 16 ... 128."""
    rng = np.random.default_rng(53)
    for n in (16, 64, 128):
        yield generate.gen("skew-symmetric", n, None, n)
    for n in (32, 128):
        u = generate.random_unitary(rng, n)
        yield u @ block_skew_matrix(np.repeat([3.0, 2.0, 1.0, 0.5], n // 8), n) @ u.T
        r = np.sort(rng.uniform(0.5, 2.0, n // 4))
        yield u @ block_skew_matrix(np.concatenate([r, r * (1.0 + 1e-7)]), n) @ u.T


def test_step_norm_estimate_matches_dense_norm():
    for m in estimate_inputs():
        a = AntilinearOperator(m)
        kappa = polar_factorize(a).kappa
        res = spectral_resolution(a)
        f = np.eye(a.dim)[:, 0]
        for cells in [4 * 2**j for j in range(11)]:
            step = rank_projection_step(a, kappa, f, cells, res=res)
            cut = wvn._cut_cells(res, f, cells)
            for p in (1.5, 2.0, 3.0):
                dense = schatten_norm(step.k, p)
                estimate = wvn._step_norm_estimate(a, kappa, res, cut, p)
                if dense > 1e-8 * res.b:
                    assert abs(estimate - dense) <= 1e-6 * dense
                else:
                    assert abs(estimate - dense) <= 1e-12 * res.b


def dense_accepted_cells(a, epsilon, p=2.0):
    """Cells of the accepted step of each outer step of the unscreened loop."""
    n = a.dim
    k_total = np.zeros((n, n), dtype=complex)
    w = np.eye(n, dtype=complex)
    accepted = []
    while w.shape[1] > 0:
        sub = AntilinearOperator(w.conj().T @ (a.mat + k_total) @ np.conj(w))
        seeds = np.flatnonzero(np.linalg.norm(w, axis=1) > wvn.SEED_TOL)
        if seeds.size == 0:
            break
        kappa = polar_factorize(sub).kappa
        res = spectral_resolution(sub)
        budget = epsilon / 2.0 ** (len(accepted) + 1)
        cells = 4
        while True:
            step = rank_projection_step(sub, kappa, w[seeds[0]].conj(), cells, res=res)
            if schatten_norm(step.k, p) < budget:
                break
            cells *= 2
        accepted.append(cells)
        k_total = k_total + w @ step.k.mat @ w.T
        evals, evecs = np.linalg.eigh(step.p)
        w = w @ evecs[:, evals <= 0.5]
    return accepted


def test_screened_loop_accepts_the_dense_cell_counts(monkeypatch):
    for m, epsilon in zip(estimate_inputs(), (1e-1, 1e-2, 1e-3, 1e-2, 1e-4, 1e-2, 1e-3)):
        a = AntilinearOperator(m)
        expected = dense_accepted_cells(a, epsilon)
        _, dense = count_attempts(monkeypatch)
        wvn_decompose(a, epsilon)
        monkeypatch.undo()
        # one dense step per outer step, and it is the accepted one
        assert dense == expected


def test_one_dense_step_per_outer_step_on_generic_input(monkeypatch):
    a = AntilinearOperator(generate.gen("skew-symmetric", 128, None, 7))
    screened, dense = count_attempts(monkeypatch)
    outer = count_calls(monkeypatch, "spectral_resolution", lambda args: args[0].dim)
    result = wvn_decompose(a, 1e-2)
    assert result.achieved_norm < 1e-2
    assert len(dense) == len(outer) >= 1
    assert len(screened) > len(dense)


def test_wvn_kernel_heavy_input():
    # rank n/2: once the unexplored complement is numerical kernel of A its
    # compression holds only roundoff singular values, which need not pair,
    # so it closes the basis as pairs with d = 0 instead of being decomposed
    for n, seed in ((64, 0), (64, 3), (64, 5), (128, 1)):
        m = generate.gen("skew-symmetric-rank", n, n // 2, seed)
        result = wvn_decompose(AntilinearOperator(m), 1e-2)
        scale = 1 + frob(m)
        assert frob(m - result.k.mat - result.d.mat) <= 1e-10 * scale
        assert result.achieved_norm < 1e-2
        q = np.column_stack([v for pair in result.basis for v in pair])
        assert frob(q.conj().T @ q - np.eye(n)) <= 1e-9
        for (e, f), dv in zip(result.basis, result.d_values):
            assert np.linalg.norm(result.d(e) - dv * f) <= 1e-9 * scale
            assert np.linalg.norm(result.d(f) + dv * e) <= 1e-9 * scale
        assert np.count_nonzero(result.d_values == 0.0) == n // 4
        s_a = np.linalg.svd(m, compute_uv=False)
        s_d = np.linalg.svd(result.d.mat, compute_uv=False)
        assert np.max(np.abs(s_a - s_d)) <= schatten_norm(result.k, math.inf) + 1e-9
        tau = Conjugation.standard(n)
        skew = skew_symmetric_wvn(m, tau, 1e-2)
        assert skew_wvn_residual(m, tau, skew) <= 1e-9 * scale
        assert skew.achieved_norm < 1e-2
        assert frob(skew.u.conj().T @ skew.u - np.eye(n)) <= 1e-10 * np.sqrt(n)
