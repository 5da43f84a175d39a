"""The spectrum families whose Youla pairing used to fail: every README
contract holds for youla, polar, wvn and skew-wvn, checked through the
check registry; and a property test over drawn spectra and scales."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from skewvn import checks, generate
from skewvn.antilinear import AntilinearOperator, Conjugation
from skewvn.canonical import polar_factorize, youla_decompose
from skewvn.checks import VerificationReport
from skewvn.matcore import frob
from skewvn.wvn import (
    kernel_split_wvn,
    skew_symmetric_wvn,
    spectral_measure_G,
    spectral_resolution,
    wvn_decompose,
)

TOL = 1e-10
EPSILON = 1e-2
FAMILIES = ("clustered", "near-degenerate", "graded")
CASES = [(family, n) for family in FAMILIES for n in (16, 48)]


def build(family, n, seed):
    """One input of a family, through ``generate.gen``; kernel-heavy has rank
    n/2 and odd-kernel is n + 1 wide with rank n/2."""
    if family == "kernel-heavy":
        return generate.gen("skew-symmetric-rank", n, 2 * (n // 4), seed)
    if family == "odd-kernel":
        return generate.gen("tau-skew-symmetric-with-kernel", n + 1, n // 2, seed)
    return generate.gen("skew-symmetric" if family == "generic" else family, n, None, seed)


@pytest.mark.parametrize("family, n", CASES)
def test_corpus_youla_and_polar(family, n):
    m = build(family, n, n)
    report = VerificationReport()
    youla = youla_decompose(m)
    checks.youla(report, m, youla.u, youla.r, TOL)
    a = AntilinearOperator(m)
    polar = polar_factorize(a)
    checks.polar(report, m, polar.kappa.mat, polar.modulus, TOL)
    res = spectral_resolution(youla)
    checks.spectral_measure(report, polar.kappa.mat, res)
    assert report.all_pass, report.render()
    # each printed g residual is the one formed through the dense E(w) and G(w)
    kappa, cell, total, dense = polar.kappa, res.cells(checks.G_CELLS), 0.0, []
    for i in range(checks.G_CELLS):
        g = spectral_measure_G(kappa, cell == i, res)
        dense += [frob(g.compose(g) + res.projection(cell == i)), frob(g.sharp().mat + g.mat)]
        total = total + g.mat
    full = spectral_measure_G(kappa, cell < checks.G_CELLS, res).mat
    dense += [frob(full - kappa.mat), frob(total - full)]
    printed = [residual for name, _, residual, _ in report.checks if name.startswith("g_")]
    assert np.allclose(printed, dense, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("family, n", CASES)
def test_corpus_wvn_and_skew_wvn(family, n):
    m = build(family, n, n)
    report = VerificationReport()
    result = wvn_decompose(AntilinearOperator(m), EPSILON)
    checks.wvn(report, m, result.k.mat, result.d.mat, result.u, result.d_values,
               TOL, EPSILON, 2.0)
    skew = skew_symmetric_wvn(m, Conjugation.standard(n), EPSILON)
    checks.decomposition(report, "skew_wvn", m, skew.k, skew.d, skew.u, TOL, EPSILON)
    assert report.all_pass, report.render()


@pytest.mark.parametrize("family", ("generic", "kernel-heavy", *FAMILIES))
@pytest.mark.parametrize("n", [64, 256])
def test_youla_backward_error_is_near_eps(family, n):
    # every step is a unitary congruence: ||M - U B U^tr||_F stays within
    # 8 sqrt(n) eps ||M||_F on every family, with no rank cut to hide behind
    m = build(family, n, 3)
    youla = youla_decompose(m, rank_tol=0.0)
    residual = frob(m - youla.u @ youla.block_matrix() @ youla.u.T)
    assert residual <= 8.0 * np.sqrt(n) * np.finfo(float).eps * frob(m)


def test_corpus_graded_kernel_is_the_rank_cut():
    # values below rank_tol * r_max are kernel, and only those
    m = build("graded", 48, 48)
    r = np.logspace(0.0, -12.0, 24)
    youla = youla_decompose(m)
    assert youla.kernel_dim == 2 * np.count_nonzero(r <= TOL)
    assert np.allclose(youla.r, r[r > TOL], rtol=1e-4, atol=0.0)


@st.composite
def spectra(draw):
    """(pair values, kernel pairs, scale exponent) for n <= 24: up to four
    clusters of 1-3 equal pairs, each level below the last by a relative gap
    of 5e-13 ... 0.5, and up to 12 pairs in all."""
    r = []
    value = 1.0
    for _ in range(draw(st.integers(1, 4))):
        r.extend([value] * draw(st.integers(1, 3)))
        value *= 1.0 - 10.0 ** -draw(st.integers(0, 12)) / 2.0
    kernel_pairs = draw(st.integers(0, 12 - len(r)))
    return np.array(r), kernel_pairs, draw(st.integers(-600, 600))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(spectra(), st.integers(0, 2**31))
def test_youla_and_polar_hold_on_drawn_spectra(spectrum, seed):
    r, kernel_pairs, k = spectrum
    n = 2 * (r.size + kernel_pairs)
    m = generate.from_spectrum(r, n, seed)
    scaled = m * 2.0**k
    report = VerificationReport()
    youla = youla_decompose(scaled)
    checks.youla(report, scaled, youla.u, youla.r, TOL)
    polar = polar_factorize(AntilinearOperator(scaled))
    checks.polar(report, scaled, polar.kappa.mat, polar.modulus, TOL)
    assert report.all_pass, report.render()
    # the prescale is exact: U is the same and r scales bit for bit
    base = youla_decompose(m)
    assert np.array_equal(youla.u, base.u)
    assert np.array_equal(youla.r, base.r * 2.0**k)
    assert youla.kernel_dim == 2 * kernel_pairs


def traced_peak(op, m):
    """Peak memory traced while op(m) runs, in n x n complex arrays."""
    tracemalloc.start()
    try:
        op(m)
        return tracemalloc.get_traced_memory()[1] / m.nbytes
    finally:
        tracemalloc.stop()


WORKING_SET_OPS = {
    "youla": youla_decompose,
    "wvn": lambda m: wvn_decompose(AntilinearOperator(m), EPSILON),
    "skew-wvn": lambda m: skew_symmetric_wvn(m, Conjugation.standard(m.shape[0]), EPSILON),
    "kernel-split": lambda m: kernel_split_wvn(m, Conjugation.standard(m.shape[0]), EPSILON),
}
# (family, op, bound): Youla's Householder reduction holds the reduced copy
# of its input and one rank-(2 PANEL) update, then U and one WY product; the
# WvN basis is written over the Youla basis and Y into one more array, so
# generic wvn stays near 3.2 and skew-wvn one array above.  A cell of one
# value is captured whole, with no complement, so clustered and kernel-heavy
# wvn (whose kernel is one such cell) stay there too.  A graded input's cell
# complements hold most of the spectrum at the first steps.  kernel-split
# reads its kernel off the same Youla form, so it stays at the skew-wvn
# bound; the odd-kernel input has n = 257 and rank 128.
WORKING_SET = [
    ("generic", "youla", 4.5),
    ("generic", "wvn", 3.5),
    ("generic", "skew-wvn", 4.5),
    ("near-degenerate", "wvn", 4.5),
    ("kernel-heavy", "wvn", 3.5),
    ("clustered", "wvn", 3.5),
    ("graded", "wvn", 6.0),
    ("graded", "skew-wvn", 7.0),
    ("generic", "kernel-split", 4.5),
    ("odd-kernel", "kernel-split", 4.5),
]


@pytest.mark.parametrize("family, op, bound", WORKING_SET)
def test_working_set_stays_at_the_eigensolver_floor(family, op, bound):
    m = build(family, 256, 3)
    assert traced_peak(WORKING_SET_OPS[op], m) <= bound
