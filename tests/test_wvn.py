import math

import numpy as np
import pytest

from skewvn import canonical, checks, generate, wvn
from skewvn.antilinear import (
    AntilinearOperator,
    Conjugation,
    make_anticonjugation,
)
from skewvn.canonical import K2, YoulaResult, polar_factorize, youla_decompose
from skewvn.checks import VerificationReport
from skewvn.errors import (
    BudgetFailure,
    InvalidP,
    KernelMismatch,
    OddKernel,
    SkewvnError,
    ZeroVector,
)
from skewvn.generate import from_spectrum, random_complex, random_skew, random_unitary
from skewvn.matcore import frob
from skewvn.schatten import schatten_norm
from skewvn.wvn import (
    CELL_DROP_TOL,
    SpectralResolution,
    block_skew_matrix,
    kernel_split_wvn,
    rank_projection_step,
    skew_symmetric_wvn,
    spectral_measure_G,
    spectral_resolution,
    wvn_decompose,
)


def two_block_matrix():
    m = np.zeros((4, 4), dtype=complex)
    m[:2, :2] = 2 * K2
    m[2:, 2:] = 1 * K2
    return m


def cluster_projection(res, j):
    return res.projection(np.arange(res.eigenvalues.size) == j)


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
    return np.array([cell_oracle(0.0, res.b, n, x) for x in res.eigenvalues])


def diagonal_resolution(b, lam):
    """A resolution with one eigenvalue per coordinate vector."""
    dim = len(lam)
    return SpectralResolution(
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
    res = spectral_resolution(youla_decompose(a.mat))
    assert np.allclose(res.eigenvalues, [2.0])
    assert frob(cluster_projection(res, 0) - np.eye(2)) <= 1e-10
    assert abs(res.b - 2.0) <= 1e-12


def test_spectral_resolution_zero():
    res = spectral_resolution(youla_decompose(np.zeros((3, 3))))
    assert np.allclose(res.eigenvalues, [0.0])
    assert frob(cluster_projection(res, 0) - np.eye(3)) <= 1e-12


def test_spectral_resolution_two_blocks():
    a = AntilinearOperator(two_block_matrix())
    res = spectral_resolution(youla_decompose(a.mat))
    assert np.allclose(res.eigenvalues, [1.0, 2.0])
    projections = [cluster_projection(res, j) for j in range(res.eigenvalues.size)]
    for proj in projections:
        assert abs(np.trace(proj).real - 2.0) <= 1e-10
        assert frob(proj @ proj - proj) <= 1e-10
        assert frob(proj - proj.conj().T) <= 1e-10
    total = sum(projections)
    assert frob(total - np.eye(4)) <= 1e-10


def test_spectral_resolution_top_cluster_lies_in_a_cell():
    # the mean of three pairs at 0.7 rounds up to 0.7000000000000001; the
    # cluster must still lie in a cell, not beyond b
    youla = YoulaResult(u=np.eye(6, dtype=complex), r=np.full(3, 0.7), kernel_dim=0)
    res = spectral_resolution(youla)
    assert res.eigenvalues[0] > 0.7
    for n in (1, 4, 7):
        assert list(res.cells(n)) == [n - 1]


def test_spectral_projection_selection():
    a = AntilinearOperator(two_block_matrix())
    res = spectral_resolution(youla_decompose(a.mat))
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
    res = spectral_resolution(youla_decompose(a.mat))
    g = spectral_measure_G(kappa, oracle_cells(res, 1) == 0, res)
    assert frob(g.mat - kappa.mat) <= 1e-10


def test_g_empty_interval():
    rng = np.random.default_rng(41)
    a = AntilinearOperator(random_skew(rng, 4))
    kappa = polar_factorize(a).kappa
    res = spectral_resolution(youla_decompose(a.mat))
    lam = res.eigenvalues
    g = spectral_measure_G(kappa, (lam >= res.b + 1.0) & (lam < res.b + 2.0), res)
    assert frob(g.mat) == 0.0


def test_g_square_property():
    rng = np.random.default_rng(42)
    a = AntilinearOperator(random_skew(rng, 6))
    kappa = polar_factorize(a).kappa
    res = spectral_resolution(youla_decompose(a.mat))
    lower = oracle_cells(res, 2) == 0  # [a, (a + b) / 2)
    g = spectral_measure_G(kappa, lower, res)
    e = res.projection(lower)
    # G(omega)^2 = -E(omega)
    assert frob(g.compose(g) + e) <= 1e-10


def test_g_sharp_and_additivity():
    rng = np.random.default_rng(43)
    a = AntilinearOperator(random_skew(rng, 8))
    kappa = polar_factorize(a).kappa
    res = spectral_resolution(youla_decompose(a.mat))
    cell = res.cells(3)
    total = np.zeros((8, 8), dtype=complex)
    for k in range(3):
        g = spectral_measure_G(kappa, cell == k, res)
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
    res = spectral_resolution(youla_decompose(a.mat))
    width = res.b
    f = np.eye(8)[:, 0]
    theoretical = []
    for n in (2, 4, 8):
        step = rank_projection_step(a, kappa, f, n, res=res)
        p = step.p
        q = np.eye(8) - p
        off = q @ a.mat @ np.conj(p)
        assert np.linalg.norm(off, 2) <= width / n + 1e-9
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
    res = spectral_resolution(youla_decompose(a.mat))
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
    a_scale = 1e-9 * (1 + np.linalg.norm(a.mat, 2)) ** 2 * (1 + norm2)
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


def decomposition_report(prefix, t, tau, result, epsilon=None):
    """The decomposition lines of ``result`` for the antilinear form T o tau,
    whose matrix is T C: T = K + U D U^tr conj(C) iff T C = K C + U D U^tr."""
    report = VerificationReport()
    c = tau.mat
    checks.decomposition(report, prefix, t @ c, result.k @ c, result.d, result.u, 1e-10,
                         epsilon)
    return report


def reconstruction(t, tau, result):
    """||T C - K C - U D U^tr||_F, read off the skew_wvn_reconstruction line."""
    lines = decomposition_report("skew_wvn", t, tau, result).checks
    return {name: residual for name, _, residual, _ in lines}["skew_wvn_reconstruction"]


def test_skew_wvn_single_block():
    tau = Conjugation.standard(2)
    t = np.array([[0, 1], [-1, 0]], dtype=complex)
    result = skew_symmetric_wvn(t, tau, 0.1)
    assert abs(result.d_values[0] - 1.0) < 0.1
    assert reconstruction(t, tau, result) <= 1e-10
    assert result.d[0, 1].real == pytest.approx(result.d_values[0])


def test_skew_wvn_zero():
    tau = Conjugation.standard(2)
    result = skew_symmetric_wvn(np.zeros((2, 2)), tau, 0.5)
    assert frob(result.k) <= 1e-12
    assert frob(result.d) <= 1e-12
    assert reconstruction(np.zeros((2, 2)), tau, result) <= 1e-12


def test_skew_wvn_random_postconditions():
    rng = np.random.default_rng(48)
    tau = Conjugation.standard(12)
    t = random_skew(rng, 12)
    result = skew_symmetric_wvn(t, tau, 1e-2, p=2.0)
    scale = 1 + frob(t)
    assert reconstruction(t, tau, result) <= 1e-9 * scale
    # for standard tau the residual uses the plain transpose
    assert frob(t - result.k - result.u @ result.d @ result.u.T) <= 1e-9 * scale
    assert frob(result.k + result.k.T) <= 1e-9 * (1 + frob(result.k))
    assert result.achieved_norm < 1e-2
    assert frob(result.d - block_skew_matrix(result.d_values, 12)) <= 1e-12
    assert frob(result.u.conj().T @ result.u - np.eye(12)) <= 1e-9


def test_skew_wvn_general_tau():
    rng = np.random.default_rng(49)
    n = 8
    un = random_unitary(rng, n)
    tau = Conjugation(un @ un.T)
    m = random_skew(rng, n)
    t = m @ np.conj(tau.mat)  # tau-skew-symmetric by construction
    result = skew_symmetric_wvn(t, tau, 1e-2)
    assert reconstruction(t, tau, result) <= 1e-9 * (1 + frob(t))
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
    assert reconstruction(t, tau, result) <= 1e-9 * (1 + frob(t))


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
    assert reconstruction(t, tau, result) <= 1e-9 * scale
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
    with pytest.raises(KernelMismatch):
        kernel_split_wvn(t, tau, 0.1)


def test_kernel_split_factors_once(monkeypatch):
    # one Youla form per call, one Householder reduction and no n x n SVD:
    # the kernel is read off that form (Youla's own SVD is of the half-size
    # real bidiagonal)
    youla = count_calls(monkeypatch, "youla_decompose", lambda args: args[0].shape)
    reductions = count_calls(monkeypatch, "_tridiagonalize", lambda args: args[0].shape,
                             canonical)
    svds = count_calls(monkeypatch, "svd", lambda args: args[0].shape, np.linalg)
    padded = np.zeros((14, 14), dtype=complex)
    padded[:10, :10] = random_skew(np.random.default_rng(52), 10)
    inputs = [
        generate.gen("skew-symmetric", 24, None, 8),
        padded,  # even kernel
        generate.gen("tau-skew-symmetric-with-kernel", 21, 16, 6),  # odd kernel
    ]
    for t in inputs:
        for calls in (youla, reductions, svds):
            calls.clear()
        kernel_split_wvn(t, Conjugation.standard(t.shape[0]), 1e-2)
        assert youla == reductions == [t.shape]
        assert t.shape not in svds


def test_block_skew_matrix():
    out = block_skew_matrix([2.0, 1.0], 5)
    expected = np.zeros((5, 5), dtype=complex)
    expected[0, 1], expected[1, 0] = 2.0, -2.0
    expected[2, 3], expected[3, 2] = 1.0, -1.0
    assert np.array_equal(out, expected)


def test_wvn_scales_by_powers_of_two():
    # generic, graded (1 ... 1e-12) and near-degenerate (relative gap 1e-7)
    near = np.random.default_rng(7).uniform(0.5, 2.0, 16)
    spectra = [np.logspace(0.0, -12.0, 32), np.concatenate([near, near * (1.0 + 1e-7)])]
    inputs = [generate.gen("skew-symmetric", 32, None, 4)]
    inputs += [from_spectrum(np.sort(r)[::-1], 64, 6) for r in spectra]
    for m in inputs:
        base = wvn_decompose(AntilinearOperator(m), 1e-2)
        for shift in (600, -600):
            result = wvn_decompose(AntilinearOperator(m * 2.0**shift), 1e-2 * 2.0**shift)
            assert np.array_equal(result.k.mat, base.k.mat * 2.0**shift)
            assert np.array_equal(result.d_values, base.d_values * 2.0**shift)
            assert np.array_equal(result.u, base.u)


def test_kernel_split_injective_is_skew_symmetric_wvn():
    tau = Conjugation.standard(24)
    t = generate.gen("skew-symmetric", 24, None, 8)
    split = kernel_split_wvn(t, tau, 1e-2)
    direct = skew_symmetric_wvn(t, tau, 1e-2)
    for field in ("k", "d", "u", "d_values"):
        assert np.array_equal(getattr(split, field), getattr(direct, field))
    assert split.achieved_norm == direct.achieved_norm
    # the antilinear WvN writes the same K and U, in the same pair layout
    anti = wvn_decompose(AntilinearOperator(t), 1e-2)
    for got, want in ((anti.k.mat, direct.k), (anti.u, direct.u),
                      (anti.d_values, direct.d_values)):
        assert np.array_equal(got, want)


def check_kernel_split_contract(t, tau):
    """kernel_split_wvn on a rank-16 input of dimension 21: the decomposition
    lines pass for the antilinear form T o tau, whose matrix is T C, and the
    last five columns of U are N(T), where K and D vanish."""
    result = kernel_split_wvn(t, tau, 1e-2)
    report = decomposition_report("kernel_split", t, tau, result, 1e-2)
    assert report.all_pass, report.render()
    assert 2 * result.d_values.size == 16
    u_ker = result.u[:, 16:]
    assert frob(t @ u_ker) <= 1e-12 * frob(t)
    assert frob(result.k @ u_ker) <= 1e-12 * frob(t)
    assert not result.d[:, 16:].any() and not result.d[16:, :].any()


def test_kernel_split_odd_kernel_leaves_the_kernel_unpaired():
    t = generate.gen("tau-skew-symmetric-with-kernel", 21, 16, 6)
    check_kernel_split_contract(t, Conjugation.standard(21))


def test_kernel_split_odd_kernel_under_a_general_tau():
    # T = W M W* is tau-skew-symmetric for tau = W W^tr, whose fixed vectors
    # are the columns of W, and N(T) = W N(M) = N(T*)
    w = random_unitary(np.random.default_rng(53), 21)
    m = generate.gen("tau-skew-symmetric-with-kernel", 21, 16, 6)
    check_kernel_split_contract(w @ m @ w.conj().T, Conjugation(w @ w.T))


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
    u = random_unitary(rng, 16)
    # clusters of multiplicity 2, 4 and 6 among the singular values
    r = [3.0, 3.0, 2.0, 2.0, 2.0, 1.0, 0.5, 0.5 + 1e-3]
    a = AntilinearOperator(u @ block_skew_matrix(r, 16) @ u.T)
    kappa = polar_factorize(a).kappa
    res = spectral_resolution(youla_decompose(a.mat))
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
    res = spectral_resolution(youla_decompose(generate.gen("skew-symmetric", n, None, 3)))
    fields = vars(res).values()
    held = sum(
        np.asarray(x).nbytes for v in fields for x in (v if isinstance(v, list) else [v])
    )
    assert held <= 3 * n * n * 16


def test_wvn_near_degenerate_reconstruction_is_exact():
    # singular values 1.1 and 1.1 + 1e-6 leave K of norm ~1e-6, large enough
    # that returning the sum of step perturbations unnegated breaks A = K + D;
    # no value sits on an edge of the 4- or 8-cell partition of [0, 2]
    u = random_unitary(np.random.default_rng(3), 8)
    m = u @ block_skew_matrix([2.0, 1.5, 1.1, 1.1 + 1e-6], 8) @ u.T
    result = wvn_decompose(AntilinearOperator(m), 1e-3)
    assert frob(result.k.mat) > 1e-7
    assert frob(m - result.k.mat - result.d.mat) <= 1e-10 * (1 + frob(m))
    assert result.achieved_norm < 1e-3


def count_calls(monkeypatch, name, key, module=wvn):
    """Record key(args) for every call to ``module.<name>``."""
    calls = []
    real = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(key(args))
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def count_attempts(monkeypatch):
    """Cell counts of the attempted steps and of the dense steps."""
    attempts = count_calls(monkeypatch, "_step_norm", lambda args: args[1].n)
    dense = count_calls(monkeypatch, "rank_projection_step", lambda args: args[3])
    return attempts, dense


def accepted_per_step(attempts):
    """The accepted cell count of each outer step; every step starts at 4."""
    starts = [i for i, cells in enumerate(attempts) if cells == 4] + [len(attempts)]
    return [attempts[j - 1] for j in starts[1:]]


def test_wvn_budget_failure_stops_when_cells_saturate(monkeypatch):
    # the pairs at 1 and 1 + 5e-9 form one cluster (their gap is below
    # CLUSTER_TOL * 2), so every step keeps their spread in K, ~1e-9, far
    # above epsilon = 1e-10; once every cluster has its own cell finer cells
    # cannot help
    a = AntilinearOperator(from_spectrum([2.0, 1.7, 1.3, 1.0 + 5e-9, 1.0, 0.6, 0.3, 0.1], 16, 5))
    attempts, dense = count_attempts(monkeypatch)
    with pytest.raises(BudgetFailure) as excinfo:
        wvn_decompose(a, 1e-10)
    # first cell count 4 * 2^j at which the clusters of |A| sit in distinct cells
    res = spectral_resolution(youla_decompose(a.mat))
    assert res.eigenvalues.size == 7
    cells = 4
    while True:
        owners = oracle_cells(res, cells)
        if len(set(owners)) == len(owners):
            break
        cells *= 2
    assert attempts == [4 * 2**j for j in range(int(math.log2(cells // 4)) + 1)]
    assert dense == []
    message = str(excinfo.value)
    assert f"{cells} cells" in message and f"{res.eigenvalues.size} clusters" in message
    assert "budget 5.000e-11" in message
    assert "finer cells give the same step" in message


def test_wvn_refuses_epsilon_at_the_roundoff_floor(monkeypatch):
    # at scale 1e150 the roundoff of any step is ~1e135, far above
    # epsilon = 1e-3; the request is refused before the first attempt
    m = generate.gen("skew-symmetric", 16, None, 5) * 1e150
    attempts, dense = count_attempts(monkeypatch)
    with pytest.raises(BudgetFailure) as excinfo:
        wvn_decompose(AntilinearOperator(m), 1e-3)
    assert attempts == [] and dense == []
    floor = wvn.ROUNDOFF_FLOOR * np.finfo(float).eps * frob(m)  # ||A||_2 = ||M||_F
    message = str(excinfo.value)
    assert "epsilon 1.000e-03" in message
    assert f"floor {floor:.3e}" in message and f"||A||_p = {frob(m):.3e}" in message
    # just above the floor the same input decomposes
    result = wvn_decompose(AntilinearOperator(m), 2.0 * floor)
    assert result.achieved_norm < 2.0 * floor


def test_wvn_refuses_an_epsilon_that_is_not_positive(monkeypatch):
    # epsilon and p are checked ahead of the tau check, the tau-fixed basis
    # and the Youla form, in every entry point and in verify --epsilon
    from skewvn.cli import run_verify

    rng = np.random.default_rng(50)
    un = random_unitary(rng, 8)
    tau = Conjugation(un @ un.T)
    m = generate.gen("skew-symmetric", 8, None, 5)
    runs = (lambda e, p: wvn_decompose(AntilinearOperator(m), e, p),
            lambda e, p: skew_symmetric_wvn(m @ np.conj(tau.mat), tau, e, p),
            lambda e, p: kernel_split_wvn(m, Conjugation.standard(8), e, p),
            lambda e, p: run_verify(m, 1e-10, 1e-10, e, p))
    attempts, _ = count_attempts(monkeypatch)
    reductions = count_calls(monkeypatch, "_tridiagonalize", lambda args: args[0].shape,
                             canonical)
    for run in runs:
        for epsilon in (float("nan"), 0.0, -1e-2):
            with pytest.raises(SkewvnError) as excinfo:
                run(epsilon, 2.0)
            assert type(excinfo.value) is SkewvnError
            assert str(excinfo.value) == f"epsilon must be positive, got {epsilon}"
        for p in (1.0, math.inf):
            with pytest.raises(InvalidP) as excinfo:
                run(1e-2, p)
            assert str(excinfo.value) == f"the decomposition needs 1 < p < inf, got {p}"
    assert attempts == [] and reductions == []
    for run in runs:
        run(1e-2, 2.0)
    assert attempts and reductions


def test_wvn_budget_does_not_underflow_on_many_outer_steps():
    # sixteen equal pairs take one outer step each; a budget of epsilon / 2^j
    # fell below the roundoff of step 13 (||K|| = 2.8e-14 >= 1.2e-14), while
    # half of the budget left stays near epsilon / 2
    result = wvn_decompose(AntilinearOperator(from_spectrum(np.ones(16), 32, 3)), 1e-10)
    assert result.achieved_norm < 1e-10
    assert np.allclose(result.d_values, 1.0)


def estimate_inputs():
    """Generic, clustered and near-degenerate inputs of size 16 ... 128."""
    rng = np.random.default_rng(53)
    for n in (16, 64, 128):
        yield generate.gen("skew-symmetric", n, None, n)
    for n in (32, 128):
        u = random_unitary(rng, n)
        yield u @ block_skew_matrix(np.repeat([3.0, 2.0, 1.0, 0.5], n // 8), n) @ u.T
        r = np.sort(rng.uniform(0.5, 2.0, n // 4))
        yield u @ block_skew_matrix(np.concatenate([r, r * (1.0 + 1e-7)]), n) @ u.T


def roundoff(m):
    """The agreement asked of the pair-basis loop and the dense one."""
    return 1e3 * np.finfo(float).eps * frob(m)


def test_step_norm_estimate_matches_dense_norm():
    # the step in the pair basis of one Youla form: ||K||_p against the
    # Schatten norm of the dense step, d_k against <f_k, |A| f_k>
    for m in estimate_inputs():
        a = AntilinearOperator(m)
        youla = youla_decompose(m)
        v, r = youla.pair_basis()
        lam = np.repeat(r, 2)
        res = wvn._resolve(v, lam)
        f = np.eye(a.dim)[:, 0]
        for cells in [4 * 2**j for j in range(11)]:
            step = rank_projection_step(a, youla.kappa(), f, cells, res=res)
            cut = wvn._cut_cells(res, v.conj().T @ f, cells)
            for p in (1.5, 2.0, 3.0):
                norm, d = wvn._step_norm(lam, cut, p)
                dense = schatten_norm(step.k, p)
                tol = 1e-6 * dense if dense > 1e-8 * res.b else 1e-12 * res.b
                assert abs(norm - dense) <= min(tol, roundoff(m))
            fs = v @ ((cut.cell[:, None] == cut.kept) * cut.phi[:, None])
            expected = np.sum(fs.conj() * (youla.modulus() @ fs), axis=0).real
            assert np.max(np.abs(d[cut.kept] - expected)) <= roundoff(m)


def dense_accepted_cells(a, epsilon, p=2.0):
    """The outer loop of dense steps: the accepted cells of each outer step,
    K, and the d-values, from one more Youla form of each captured block.
    A kept cell whose Youla values are one up to COUPLING_EPS eps b, a
    single pair included, is captured whole: P takes E(omega_k) there in
    place of (f_k, kappa f_k), and K = -(I-P)AP - PA(I-P) of that P."""
    n = a.dim
    eps = np.finfo(float).eps
    k_total = np.zeros((n, n), dtype=complex)
    w = np.eye(n, dtype=complex)
    accepted, blocks = [], []
    spent = 0.0
    while w.shape[1] > 0:
        sub = AntilinearOperator(w.conj().T @ (a.mat + k_total) @ np.conj(w))
        seeds = np.flatnonzero(np.linalg.norm(w, axis=1) > wvn.SEED_TOL)
        if seeds.size == 0:
            break
        kappa = polar_factorize(sub).kappa
        youla = youla_decompose(sub.mat)
        res = spectral_resolution(youla)
        # each step gets half of the budget left
        budget = (epsilon - spent) / 2.0
        cells = 4
        while True:
            step = rank_projection_step(sub, kappa, w[seeds[0]].conj(), cells, res=res)
            norm = schatten_norm(step.k, p)
            if norm < budget:
                break
            cells *= 2
        accepted.append(cells)
        spent += norm
        lam = np.concatenate([np.repeat(youla.r, 2), np.zeros(youla.kernel_dim)])
        cluster_cell = res.cells(cells)
        whole = np.zeros(cluster_cell.size, dtype=bool)  # clusters captured whole
        for k in step.kept_cells:
            cols = cluster_cell[res.cluster_of] == k
            if np.ptp(lam[cols]) <= wvn.COUPLING_EPS * eps * res.b:
                whole |= cluster_cell == k
        e = res.projection(whole)
        proj = step.p - e @ step.p @ e + e
        ident = np.eye(sub.dim)
        k_step = (-(ident - proj) @ sub.mat @ np.conj(proj)
                  - proj @ sub.mat @ np.conj(ident - proj))
        k_total = k_total + w @ k_step @ w.T
        evals, evecs = np.linalg.eigh(proj)
        blocks.append(w @ evecs[:, evals > 0.5])
        w = w @ evecs[:, evals <= 0.5]
    d_mat = a.mat + k_total
    d_values = [youla_decompose(b.conj().T @ d_mat @ np.conj(b)).r for b in blocks]
    return accepted, -k_total, np.concatenate(d_values)


def test_screened_loop_accepts_the_dense_cell_counts(monkeypatch):
    for m, epsilon in zip(estimate_inputs(), (1e-1, 1e-2, 1e-3, 1e-2, 1e-4, 1e-2, 1e-3)):
        a = AntilinearOperator(m)
        accepted, k, d_values = dense_accepted_cells(a, epsilon)
        attempts, dense = count_attempts(monkeypatch)
        result = wvn_decompose(a, epsilon)
        monkeypatch.undo()
        assert accepted_per_step(attempts) == accepted
        assert dense == []
        assert frob(result.k.mat - k) <= roundoff(m)
        assert np.max(np.abs(np.sort(result.d_values) - np.sort(d_values))) <= roundoff(m)


def test_generic_wvn_factors_once_and_forms_no_dense_step(monkeypatch):
    n = 128
    m = generate.gen("skew-symmetric", n, None, 7)
    a = AntilinearOperator(m)
    attempts, dense = count_attempts(monkeypatch)
    youla = count_calls(monkeypatch, "youla_decompose", lambda args: args[0].shape)
    reductions = count_calls(monkeypatch, "_tridiagonalize", lambda args: args[0].shape,
                             module=canonical)
    solvers = {  # shapes of the SVDs and eigensolves
        name: count_calls(monkeypatch, name, lambda args: args[0].shape, module=np.linalg)
        for name in ("svd", "eigh", "eig", "eigvals", "eigvalsh")
    }
    result = wvn_decompose(a, 1e-2)
    monkeypatch.undo()
    assert len(accepted_per_step(attempts)) == 1
    assert dense == []
    assert youla == [(n, n)]
    # Youla's Householder reduction is the one n x n factorization: no
    # SVD or eigensolve of an n x n array follows it
    assert reductions == [(n, n)]
    square = [name for name, shapes in solvers.items() for shape in shapes if shape == (n, n)]
    assert square == []
    # one outer step: the sum of the step norms is ||K||_p
    assert result.achieved_norm < 1e-2
    assert abs(result.achieved_norm - schatten_norm(result.k, 2.0)) <= roundoff(a.mat)
    # every kept cell is one pair, captured whole: the WvN is the Youla form
    # with K = 0, every entry +0.0 as K.cmat writes it
    assert not np.any(result.k.mat) and not np.any(np.signbit(result.k.mat.view(float)))
    youla_form = youla_decompose(m)
    assert np.array_equal(result.u, youla_form.u)
    assert np.array_equal(result.d_values, youla_form.r)
    assert np.array_equal(result.d.mat, m)
    skew = skew_symmetric_wvn(m, Conjugation.standard(n), 1e-2)
    assert np.array_equal(skew.d, block_skew_matrix(youla_form.r, n))


def test_wvn_factors_once_per_outer_step(monkeypatch):
    # A is factored once; a later step updates the complement of each kept
    # cell with one real eigensolve and factors no block again
    youla = count_calls(monkeypatch, "youla_decompose", lambda args: args[0].shape[0])
    attempts, _ = count_attempts(monkeypatch)
    resolutions = count_calls(monkeypatch, "spectral_resolution", lambda args: args[0].dim)
    m = from_spectrum(np.repeat([2.0, 1.5, 1.0, 0.5], 4), 32, 4)
    result = wvn_decompose(AntilinearOperator(m), 1e-2)
    assert result.achieved_norm < 1e-2
    # four values: every kept cell holds one and is captured whole, K = 0
    assert len(accepted_per_step(attempts)) == 1
    assert not np.any(result.k.mat) and not np.any(np.signbit(result.k.mat.view(float)))
    assert youla == [32] and resolutions == []
    # ten distinct values: cells of several values leave complements
    del youla[:], attempts[:]
    m = from_spectrum(np.linspace(2.0, 0.2, 16), 32, 4)
    result = wvn_decompose(AntilinearOperator(m), 0.5)
    assert result.achieved_norm < 0.5
    assert len(accepted_per_step(attempts)) > 1
    assert youla == [32]
    assert frob(m - result.k.mat - result.d.mat) <= 1e-10 * frob(m)
    # graded values 1 ... 1e-12: most pairs share cell 0 for many steps
    del youla[:], attempts[:]
    m = from_spectrum(np.logspace(0.0, -12.0, 32), 64, 5)
    result = wvn_decompose(AntilinearOperator(m), 1e-2)
    assert result.achieved_norm < 1e-2
    assert len(accepted_per_step(attempts)) > 1
    assert youla == [64]


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
        assert reconstruction(m, tau, skew) <= 1e-9 * scale
        assert skew.achieved_norm < 1e-2
        assert frob(skew.u.conj().T @ skew.u - np.eye(n)) <= 1e-10 * np.sqrt(n)


def youla_cell_values(lam, fg):
    """The complement's pair values from a QR of fg and a Youla form of the
    compression of B to it, with no rank cut: the reference for
    ``_cell_complement``."""
    q = np.linalg.qr(fg, mode="complete")[0][:, 2:]
    c = q.conj().T @ (lam[:, None] * wvn._swap(np.conj(q)))
    return youla_decompose((c - c.T) / 2.0, rank_tol=0.0).pair_basis()[1]


def cell_inputs():
    """(pair values, seed) of cells whose values are not one up to roundoff:
    graded, near-degenerate, repeated mixed with distinct, with kernel
    pairs, and seeds with no mass on some pairs."""
    rng = np.random.default_rng(11)
    base = rng.uniform(0.5, 1.0, 6)
    spectra = [
        np.logspace(0.0, -12.0, 12),
        np.sort(np.concatenate([base, base * (1.0 + 1e-7)]))[::-1],
        np.array([1.0, 0.8, 0.8, 0.8, 0.5, 0.5, 0.3, 0.1]),
        np.array([1.0, 0.7, 0.7, 0.2, 0.0, 0.0, 0.0]),
        np.concatenate([np.logspace(0.0, -12.0, 6), np.zeros(2)]),
    ]
    for r in spectra:
        for missing in ([], [0], [1, 3, r.size - 1]):
            phi = random_complex(rng, 2 * r.size, 1)[:, 0]
            phi.reshape(-1, 2)[missing] = 0.0  # no mass on these pairs
            yield r, phi / np.linalg.norm(phi)


def test_cell_complement_matches_a_youla_form_of_the_compression():
    eps = np.finfo(float).eps
    for r, phi in cell_inputs():
        m = 2 * r.size
        lam, b = np.repeat(r, 2), float(r[0])
        v = random_unitary(np.random.default_rng(m), m)
        fg = np.column_stack([phi, wvn._swap(np.conj(phi))])
        assert lam[0] - lam[-1] > wvn.COUPLING_EPS * eps * b  # not one value
        out, mu = wvn._cell_complement(v, lam, phi)
        reference = youla_cell_values(lam, fg)
        assert out.shape == (m, m - 2) and mu.shape == (r.size - 1,)
        assert np.all(mu[:-1] >= mu[1:]) and np.all(mu >= 0.0)
        assert np.max(np.abs(mu - reference)) <= 1e3 * eps * b
        # orthonormal, and orthogonal to f and kappa f
        assert frob(out.conj().T @ out - np.eye(m - 2)) <= 1e3 * eps
        assert frob(out.conj().T @ (v @ fg)) <= 1e3 * eps
        # kappa = v J v^tr conj(.) maps column 2i+1 to column 2i
        kappa = v @ block_skew_matrix(np.ones(r.size), m) @ v.T
        assert frob(kappa @ np.conj(out[:, 1::2]) - out[:, 0::2]) <= 1e3 * eps
        # the compression of A = v B v^tr is the pair form of mu
        a = v @ block_skew_matrix(r, m) @ v.T
        compressed = out.conj().T @ a @ np.conj(out)
        assert frob(compressed - block_skew_matrix(mu, m - 2)) <= 1e3 * eps * b
