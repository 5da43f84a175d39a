"""The check registry: each report line fails on the fault it names, bounds
scale with the input, budget lines are strict, and the README table lists
exactly the lines the CLI prints."""

import dataclasses
import itertools
import re
from pathlib import Path

import numpy as np
import pytest

from skewvn import checks, cli, generate
from skewvn.antilinear import AntilinearOperator, Conjugation
from skewvn.canonical import polar_factorize, youla_decompose
from skewvn.checks import VerificationReport
from skewvn.errors import NotSkewSymmetric
from skewvn.schatten import schatten_norm
from skewvn.wvn import skew_symmetric_wvn, spectral_resolution, wvn_decompose

TOL = 1e-10
EPSILON = 1e-2
M = generate.gen("skew-symmetric", 12, None, 3)
# two pair values 1e-3 apart share a WvN cell, so K carries their spread,
# ||K||_2 ~ 1e-3, where on M it is roundoff or exactly 0
NEAR = generate.from_spectrum([2.0, 1.2, 1.2 - 1e-3, 0.5, 0.3, 0.1], 12, 3)
README = Path(__file__).resolve().parent.parent / "README.md"


def failing(check, *args):
    """Names of the lines ``check`` reports as FAIL."""
    report = VerificationReport()
    check(report, *args)
    assert report.checks
    return {name for name, status, _, _ in report.checks if status == "FAIL"}


def bump(x, i=0, j=3, delta=1e-6):
    y = np.array(x, dtype=complex)
    y[i, j] += delta
    return y


def test_skew_symmetry_fails_on_a_non_skew_matrix():
    assert failing(checks.skew_symmetry, M, TOL) == set()
    assert failing(checks.skew_symmetry, bump(M), TOL) == {"skew_symmetry"}


def bump_first(r, delta=1e-6):
    y = np.array(r, dtype=float)
    y[0] += delta
    return y


def test_youla_lines_fail_on_their_faults():
    result = youla_decompose(M)
    u, r = result.u, result.r
    assert failing(checks.youla, M, u, r, TOL) == set()
    assert failing(checks.youla, M, bump(u), r, TOL) == {"youla_roundtrip", "youla_unitary"}
    assert failing(checks.youla, M, u, bump_first(r), TOL) == {"youla_roundtrip"}


def test_polar_lines_fail_on_their_faults():
    polar = polar_factorize(AntilinearOperator(M))
    kappa, s = polar.kappa.mat, polar.modulus
    assert failing(checks.polar, M, kappa, s, TOL) == set()
    assert failing(checks.polar, M, kappa, bump(s), TOL) == {"polar_factor", "polar_commute"}
    assert failing(checks.polar, M, bump(kappa), s, TOL) == {
        "polar_factor", "polar_commute", "kappa_unitary", "kappa_square", "kappa_skew"}


G_CELL_LINES = [f"g_{kind}_cell{i}" for kind in ("square", "sharp") for i in range(1, 5)]


def test_spectral_measure_lines_fail_on_a_wrong_kappa():
    kappa = polar_factorize(AntilinearOperator(M)).kappa.mat
    res = spectral_resolution(youla_decompose(M))
    assert failing(checks.spectral_measure, kappa, res) == set()
    # G(w) = kappa E(w) is linear in kappa, so a wrong kappa keeps G additive
    # and G([0, ||A||]) = kappa; a kappa that is not skew breaks G(w)# = -G(w)
    # and G(w)^2 = -E(w) in every cell, a scaled kappa only the latter
    assert failing(checks.spectral_measure, bump(kappa), res) == set(G_CELL_LINES)
    assert failing(checks.spectral_measure, 2.0 * kappa, res) == set(G_CELL_LINES[:4])


def wvn_args(result, epsilon=EPSILON, m=M):
    return (m, result.k.mat, result.d.mat, result.u, result.d_values, TOL, epsilon, 2.0)


def test_wvn_lines_fail_on_their_faults():
    result = wvn_decompose(AntilinearOperator(M), EPSILON)
    m, k, d, u, d_values, tol, epsilon, p = wvn_args(result)
    assert failing(checks.wvn, m, k, d, u, d_values, tol, epsilon, p) == set()
    # an off-block entry of D breaks A = K + D, the block form and the spectrum
    assert failing(checks.wvn, m, k, bump(d), u, d_values, tol, epsilon, p) == {
        "wvn_reconstruction", "wvn_block_residual", "wvn_weyl_stability"}
    assert failing(checks.wvn, m, k, d, u, bump_first(d_values), tol, epsilon, p) == {
        "wvn_block_residual"}


def test_wvn_unitary_fails_on_a_perturbed_basis():
    # D rebuilt as sum_j d_j (f_j e_j^tr - e_j f_j^tr) over a basis 1e-6 off
    # unitary, and K = M - D: the other four lines cannot see the fault
    m = generate.gen("skew-symmetric", 32, None, 4)
    result = wvn_decompose(AntilinearOperator(m), EPSILON)
    g = np.random.default_rng(0).standard_normal((32, 32))
    u = result.u @ (np.eye(32) + 1e-6 * g)
    e, f, d_values = u[:, 1::2], u[:, 0::2], result.d_values
    d = (f * d_values) @ e.T - (e * d_values) @ f.T
    assert failing(checks.wvn, m, result.k.mat, result.d.mat, result.u, d_values,
                   TOL, EPSILON, 2.0) == set()
    assert failing(checks.wvn, m, m - d, d, u, d_values, TOL, EPSILON, 2.0) == {"wvn_unitary"}


def test_wvn_lines_decompose_k_once(monkeypatch):
    # the budget and the Weyl line share one SVD of K: s(M), s(D) and s(K)
    result = wvn_decompose(AntilinearOperator(M), EPSILON)
    svds = []
    real = np.linalg.svd

    def counting(mat, *args, **kwargs):
        svds.append(mat.shape)
        return real(mat, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    assert failing(checks.wvn, *wvn_args(result)) == set()
    assert len(svds) == 3


def skew_wvn(m=M):
    return skew_symmetric_wvn(m, Conjugation.standard(m.shape[0]), EPSILON)


def test_decomposition_lines_fail_on_their_faults():
    r = skew_wvn(NEAR)
    k, d, u = r.k, r.d, r.u
    for prefix in ("skew_wvn", "decomp"):
        assert failing(checks.decomposition, prefix, NEAR, k, d, u, TOL, EPSILON) == set()
        assert failing(checks.decomposition, prefix, NEAR, k, d, bump(u), TOL, EPSILON) == {
            f"{prefix}_unitary", f"{prefix}_reconstruction"}
        assert failing(checks.decomposition, prefix, NEAR, k, bump(d), u, TOL, EPSILON) == {
            f"{prefix}_block_structure", f"{prefix}_reconstruction"}
        symmetric = bump(bump(k, 0, 3), 3, 0)  # adds to K + K^tr
        assert failing(checks.decomposition, prefix, NEAR, symmetric, d, u, TOL, EPSILON) == {
            f"{prefix}_k_skew", f"{prefix}_reconstruction"}
        assert failing(checks.decomposition, prefix, NEAR, k, d, u, TOL, 1e-20) == {
            f"{prefix}_k_norm"}


def test_budget_lines_fail_when_the_norm_equals_epsilon():
    r = skew_wvn(NEAR)
    norm = schatten_norm(r.k, 2.0)
    assert norm > 1e-6
    for prefix in ("skew_wvn", "decomp"):
        assert failing(checks.decomposition, prefix, NEAR, r.k, r.d, r.u, TOL, norm) == {
            f"{prefix}_k_norm"}
    result = wvn_decompose(AntilinearOperator(NEAR), EPSILON)
    norm = schatten_norm(result.k, 2.0)
    assert norm > 1e-6
    assert failing(checks.wvn, *wvn_args(result, epsilon=norm, m=NEAR)) == {"wvn_norm_budget"}


@pytest.mark.parametrize("shift", [-600, 0, 600])
def test_verdicts_do_not_depend_on_the_scale(shift):
    scale = 2.0**shift
    m = M * scale
    result = youla_decompose(m)
    assert failing(checks.youla, m, result.u, result.r, TOL) == set()
    assert failing(checks.youla, m, result.u, bump_first(result.r, 1e-6 * scale), TOL) == {
        "youla_roundtrip"}
    # the g lines are dimensionless: kappa and the resolution's columns do
    # not scale with M, and neither do their faults
    kappa, res = result.polar().kappa.mat, spectral_resolution(result)
    assert failing(checks.spectral_measure, kappa, res) == set()
    assert failing(checks.spectral_measure, bump(kappa), res) == set(G_CELL_LINES)
    assert failing(checks.spectral_measure, 2.0 * kappa, res) == set(G_CELL_LINES[:4])
    # columns 1e-6 off unitary break every cell's identities and G([0, ||A||])
    # = kappa, while the cells still add up to the whole
    g = np.random.default_rng(0).standard_normal((12, 12))
    off = dataclasses.replace(res, vectors=res.vectors @ (np.eye(12) + 1e-6 * g))
    assert failing(checks.spectral_measure, kappa, off) == {*G_CELL_LINES, "g_full_is_kappa"}
    r = skew_wvn()
    k, d = r.k * scale, r.d * scale
    assert failing(checks.decomposition, "decomp", m, k, d, r.u, TOL) == set()
    names = failing(checks.decomposition, "decomp", m, k, bump(d, delta=1e-6 * scale), r.u, TOL)
    # decomp_block_structure keeps an absolute bound
    assert names - {"decomp_block_structure"} == {"decomp_reconstruction"}
    # the skew line and the one skew test of every decomposition share the
    # bound tol ||M||_F (tests/test_canonical.py runs all five decompositions)
    sym = np.array([[1.0, 2.0], [2.0, 3.0]]) * scale
    assert failing(checks.skew_symmetry, sym, TOL) == {"skew_symmetry"}
    with pytest.raises(NotSkewSymmetric):
        youla_decompose(sym)


def test_zero_decomposition_of_a_tiny_input_fails():
    # K = D = 0 and U = I explain nothing of M, however small M is
    m = generate.gen("skew-symmetric", 8, None, 4) * 2.0**-600
    zero = np.zeros((8, 8), dtype=complex)
    report, code = cli.run_verify(m, TOL, TOL, decomp=(zero, zero, np.eye(8, dtype=complex)))
    assert code == 1
    assert [c[0] for c in report.checks if c[1] == "FAIL"] == ["decomp_reconstruction"]


def readme_line_names():
    """Line names of the README's verification report table, braces expanded."""
    text = README.read_text(encoding="utf-8")
    section = text.split("### Verification report", 1)[1].split("\n#", 1)[0]
    names = set()
    for row in re.findall(r"^\| `([^`]+)` \|", section, flags=re.MULTILINE):
        parts = re.split(r"\{([^}]*)\}", row)
        options = [[p] if i % 2 == 0 else p.split(",") for i, p in enumerate(parts)]
        names.update("".join(choice) for choice in itertools.product(*options))
    return names


def printed_names(text):
    return {line.split()[0] for line in text.splitlines() if line and not line.startswith("#")}


def test_readme_table_lists_every_printed_line(tmp_path, capsys):
    mpath = str(tmp_path / "m.cmat")
    assert cli.main(["gen", "--kind", "skew-symmetric", "--dim", "8",
                     "--seed", "1", "--out", mpath]) == 0
    names = set()
    for command, extra in (("youla", []), ("polar", []),
                           ("wvn", ["--epsilon", "1e-2"]), ("skew-wvn", ["--epsilon", "1e-2"])):
        prefix = str(tmp_path / command)
        assert cli.main([command, mpath, "--out-prefix", prefix, *extra]) == 0
        names |= printed_names(Path(f"{prefix}.report.txt").read_text())
    capsys.readouterr()
    assert cli.main(["verify", mpath, "--epsilon", "1e-2"]) == 0
    assert cli.main(["verify", mpath, "--epsilon", "1e-2",
                     "--decomp-prefix", str(tmp_path / "skew-wvn")]) == 0
    names |= printed_names(capsys.readouterr().out)
    assert names == readme_line_names()
