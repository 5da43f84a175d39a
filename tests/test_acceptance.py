"""End-to-end acceptance checks, one test per criterion.

Each test prints a single summary line (PASS/FAIL) in addition to the
pytest outcome.
"""

import math
import time

import numpy as np
import pytest

from skewvn import checks, cli, cmatio
from skewvn.antilinear import (
    AntilinearOperator,
    Conjugation,
    make_anticonjugation,
    tau_transpose,
)
from skewvn.canonical import polar_factorize, youla_decompose
from skewvn.checks import VerificationReport
from skewvn.errors import OddKernel
from skewvn.generate import random_complex, random_skew, random_unitary
from skewvn.matcore import frob
from skewvn.schatten import schatten_norm
from skewvn.wvn import (
    kernel_split_wvn,
    rank_projection_step,
    skew_symmetric_wvn,
    spectral_measure_G,
    spectral_resolution,
    wvn_decompose,
)

TOL = 1e-10  # the CLI's default --tol


def corpus_dims(count=200, seed=1000):
    rng = np.random.default_rng(seed)
    return [int(d) for d in rng.integers(2, 65, size=count)]


def finish(name, ok):
    print(f"{name}: {'PASS' if ok else 'FAIL'}")
    assert ok, name


def test_acceptance_1_youla_roundtrip():
    dims = corpus_dims()
    start = time.perf_counter()
    ok = True
    for i, n in enumerate(dims):
        m = random_skew(np.random.default_rng(2000 + i), n)
        result = youla_decompose(m)
        report = VerificationReport()
        checks.youla(report, m, result.u, result.r, TOL)
        ok &= report.all_pass
    elapsed = time.perf_counter() - start
    ok &= elapsed < 10.0
    finish("acceptance 1 youla roundtrip", ok)


def test_acceptance_2_polar_factorization():
    dims = corpus_dims()
    ok = True
    for i, n in enumerate(dims):
        m = random_skew(np.random.default_rng(2000 + i), n)
        a = AntilinearOperator(m)
        if n % 2 != 0:
            # full-spectrum odd instance: kernel dimension 1, no factorization
            try:
                polar_factorize(a)
                ok = False
            except OddKernel:
                pass
            continue
        polar = polar_factorize(a)
        report = VerificationReport()
        checks.polar(report, m, polar.kappa.mat, polar.modulus, TOL)
        ok &= report.all_pass
    finish("acceptance 2 polar factorization", ok)


def test_acceptance_3_rank_projection_step():
    ok = True
    instances = 0
    for i in range(25):
        rng = np.random.default_rng(3000 + i)
        dim = int(rng.choice([4, 8, 16, 24, 32]))
        a = AntilinearOperator(random_skew(rng, dim))
        kappa = polar_factorize(a).kappa
        res = spectral_resolution(youla_decompose(a.mat))
        width = res.b
        f = np.eye(dim)[:, 0]
        ident = np.eye(dim)
        for n in (2, 4, 8, 16):
            instances += 1
            step = rank_projection_step(a, kappa, f, n, res=res)
            p = step.p
            q = ident - p
            off = q @ a.mat @ np.conj(p)
            ok &= np.linalg.norm(off, 2) <= width / n + 1e-9
            for p_exp in (1.5, 2.0, 3.0):
                q_exp = p_exp / (p_exp - 1.0)
                bound = 2.0 * (2.0 / n) ** (1.0 / q_exp) * width
                ok &= schatten_norm(AntilinearOperator(off), p_exp) <= bound + 1e-9
            ok &= frob(kappa.mat @ np.conj(p) - p @ kappa.mat) <= 1e-9
            ok &= np.linalg.norm(p @ f - f) <= 1e-9
            kf = kappa(f)
            ok &= np.linalg.norm(p @ kf - kf) <= 1e-9
            reduced = a.mat + step.k.mat
            ok &= frob(q @ reduced @ np.conj(p)) <= 1e-9
            ok &= frob(p @ reduced @ np.conj(q)) <= 1e-9
            rank = int(round(np.trace(p).real))
            ok &= rank % 2 == 0 and rank <= 2 * n
    ok &= instances == 100
    finish("acceptance 3 rank projection step", ok)


def test_acceptance_4_wvn_decomposition():
    ok = True
    case = 0
    for epsilon in (1e-1, 1e-3):
        for p in (1.5, 2.0, 3.0):
            for dim in (4, 8, 16, 32):
                case += 1
                a = AntilinearOperator(
                    random_skew(np.random.default_rng(4000 + case), dim)
                )
                start = time.perf_counter()
                result = wvn_decompose(a, epsilon, p)
                elapsed = time.perf_counter() - start
                ok &= elapsed < 5.0
                report = VerificationReport()
                checks.wvn(report, a.mat, result.k.mat, result.d.mat, result.u,
                           result.d_values, TOL, epsilon, p)
                ok &= report.all_pass
    finish("acceptance 4 wvn decomposition", ok)


def test_acceptance_5_skew_symmetric_corollary():
    ok = True
    epsilon, p = 1e-2, 2.0

    def check(t, result):
        nonlocal ok
        # tau K* tau = K^tr for the standard conjugation, so K is skew
        report = VerificationReport()
        checks.decomposition(report, "skew_wvn", t, result.k, result.d, result.u,
                             TOL, epsilon, p)
        ok &= report.all_pass
        # D's entries hold the d-sequence exactly, more tightly than the
        # report's block-structure bound
        d = result.d
        for j, dv in enumerate(result.d_values):
            ok &= abs(d[2 * j, 2 * j + 1] - dv) <= 1e-12
            ok &= abs(d[2 * j + 1, 2 * j] + dv) <= 1e-12
        mask = np.ones_like(d, dtype=bool)
        for j in range(len(result.d_values)):
            mask[2 * j, 2 * j + 1] = mask[2 * j + 1, 2 * j] = False
        ok &= np.linalg.norm(d[mask]) <= 1e-12

    for i, dim in enumerate((2, 6, 12, 20, 32)):
        t = random_skew(np.random.default_rng(5000 + i), dim)
        tau = Conjugation.standard(dim)
        check(t, skew_symmetric_wvn(t, tau, epsilon, p))
    for i, (core_dim, pad) in enumerate(((10, 3), (16, 5), (8, 2))):
        dim = core_dim + pad
        t = np.zeros((dim, dim), dtype=complex)
        t[:core_dim, :core_dim] = random_skew(
            np.random.default_rng(5100 + i), core_dim
        )
        tau = Conjugation.standard(dim)
        check(t, kernel_split_wvn(t, tau, epsilon, p))
    finish("acceptance 5 skew-symmetric corollary", ok)


def test_acceptance_6_lemma_suite():
    ok = True
    rng = np.random.default_rng(6000)
    # orthogonality lemma, 1000 random (kappa, h)
    for _ in range(1000):
        n = 2 * int(rng.integers(1, 7))
        u = random_unitary(rng, n)
        kappa = make_anticonjugation(
            [(u[:, 2 * j], u[:, 2 * j + 1]) for j in range(n // 2)]
        )
        h = random_complex(rng, n, 1).ravel()
        ok &= abs(np.vdot(h, kappa(h))) <= 1e-12 * np.linalg.norm(h) ** 2
    # finite-rank Schatten bound, 100 random rank-n operators
    for _ in range(100):
        dim = int(rng.integers(4, 13))
        n = int(rng.integers(1, dim // 2 + 1))
        mat = np.zeros((dim, dim), dtype=complex)
        for _ in range(n):
            mat += np.outer(
                random_complex(rng, dim, 1).ravel(),
                random_complex(rng, dim, 1).ravel(),
            )
        a = AntilinearOperator(mat)
        op = schatten_norm(a, math.inf)
        for p in (1.5, 2.0, 3.0):
            ok &= schatten_norm(a, p) <= n ** (1.0 / p) * op + 1e-9
    # transpose lemma, 100 random T, standard tau
    for _ in range(100):
        dim = int(rng.integers(2, 10))
        t = random_complex(rng, dim, dim)
        ok &= frob(t.T - tau_transpose(t, Conjugation.standard(dim))) <= 1e-14 * (1 + frob(t))
    # spectral-measure properties on 50 random (A, partition) pairs
    for _ in range(50):
        dim = 2 * int(rng.integers(2, 6))
        a = AntilinearOperator(random_skew(rng, dim))
        kappa = polar_factorize(a).kappa
        res = spectral_resolution(youla_decompose(a.mat))
        cells = int(rng.integers(2, 7))
        cell = res.cells(cells)
        total = np.zeros((dim, dim), dtype=complex)
        for k in range(cells):
            e = res.projection(cell == k)
            g = spectral_measure_G(kappa, cell == k, res)
            ok &= frob(g.compose(g) + e) <= 1e-10
            ok &= frob(g.sharp().mat + g.mat) <= 1e-10
            total += g.mat
        full = np.ones(res.eigenvalues.size, dtype=bool)
        g_full = spectral_measure_G(kappa, full, res)
        ok &= frob(g_full.mat - kappa.mat) <= 1e-10
        ok &= frob(total - g_full.mat) <= 1e-10
    finish("acceptance 6 lemma suite", ok)


def test_acceptance_7_cli_end_to_end(tmp_path):
    ok = True
    blobs = []
    for run in ("r1", "r2"):
        mpath = str(tmp_path / f"{run}.cmat")
        prefix = str(tmp_path / run)
        ok &= cli.main(["gen", "--kind", "skew-symmetric", "--dim", "16",
                        "--seed", "42", "--out", mpath]) == 0
        ok &= cli.main(["wvn", mpath, "--epsilon", "1e-2",
                        "--out-prefix", prefix]) == 0
        ok &= cli.main(["verify", mpath, "--epsilon", "1e-2",
                        "--out-prefix", prefix + ".verify"]) == 0
        blobs.append(b"".join(
            (tmp_path / f"{run}{suffix}").read_bytes()
            for suffix in (".cmat", ".K.cmat", ".D.cmat", ".U.cmat",
                           ".report.txt", ".values.txt",
                           ".verify.report.txt")
        ))
    ok &= blobs[0] == blobs[1]
    # negative controls
    corrupted = tmp_path / "bad.cmat"
    corrupted.write_text("CMAT v2 2 2\n0,0 0,0\n0,0 0,0\n")
    ok &= cli.main(["verify", str(corrupted)]) == 2
    odd = str(tmp_path / "odd.cmat")
    cli.main(["gen", "--kind", "tau-skew-symmetric-with-kernel", "--dim", "5",
              "--rank", "4", "--out", odd])
    ok &= cli.main(["verify", odd]) == 2
    sw = str(tmp_path / "sw")
    cli.main(["skew-wvn", str(tmp_path / "r1.cmat"), "--epsilon", "1e-2",
              "--out-prefix", sw])
    u = cmatio.read_cmat(f"{sw}.U.cmat")
    u[0, 0] += 0.25
    cmatio.write_cmat(f"{sw}.U.cmat", u)
    ok &= cli.main(["verify", str(tmp_path / "r1.cmat"),
                    "--decomp-prefix", sw, "--epsilon", "1e-2"]) == 1
    finish("acceptance 7 cli end to end", ok)
