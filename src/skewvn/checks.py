"""Verification checks: every residual the CLI reports and its bound.

Each function takes the plain arrays of a decomposition, with the input
matrix M or its spectral resolution, and appends ``<name> <PASS|FAIL>
residual=.. bound=..`` lines to a ``VerificationReport``; the CLI and the
tests call the same code.

Bounds follow the normwise backward error: a residual of a quantity that
scales with M is bounded by a tolerance times ||M||_F, so a verdict does not
change when M is scaled by a power of two.  Unitarity residuals are bounded
by tol * max(1, sqrt(n)) and the spectral-measure identities, which hold
between projections and partial isometries, by a dimensionless 1e-10.
Budget lines pass only when ||K||_p < epsilon, strictly.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import wvn as wvn_mod
from .antilinear import AntilinearOperator
from .canonical import block_skew_matrix
from .matcore import frob
from .schatten import _schatten, schatten_norm, singular_values

# the least relative tolerance of the Youla and polar residuals
FACTOR_TOL = 1e-9
G_BOUND = 1e-10
G_CELLS = 4


@dataclass
class VerificationReport:
    checks: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def add(self, name, residual, bound, strict=False):
        """PASS when residual <= bound, or residual < bound if ``strict``."""
        ok = residual < bound if strict else residual <= bound
        self.checks.append((name, "PASS" if ok else "FAIL", float(residual), float(bound)))

    def note(self, text):
        self.notes.append(text)

    @property
    def all_pass(self):
        return all(status == "PASS" for _, status, _, _ in self.checks)

    @property
    def exit_code(self):
        return 0 if self.all_pass else 1

    def render(self):
        lines = [
            f"{name} {status} residual={residual!r} bound={bound!r}"
            for name, status, residual, bound in self.checks
        ]
        lines.extend(f"# {note}" for note in self.notes)
        return "\n".join(lines) + "\n"


def _unit_bound(tol, n):
    return tol * max(1.0, math.sqrt(n))


def _unitarity(u):
    return frob(u.conj().T @ u - np.eye(u.shape[1]))


def skew_symmetry(report, m, tol):
    """M^tr = -M."""
    report.add("skew_symmetry", frob(m + m.T), tol * frob(m))


def youla(report, m, u, b, tol):
    """M = U B U^tr with U unitary."""
    report.add("youla_roundtrip", frob(m - u @ b @ u.T), max(tol, FACTOR_TOL) * frob(m))
    report.add("youla_unitary", _unitarity(u), _unit_bound(tol, m.shape[0]))


def polar(report, m, kappa, modulus, tol):
    """A = kappa |A| = |A| kappa with kappa a unitary anticonjugation."""
    bound = max(tol, FACTOR_TOL) * frob(m)
    factor = kappa @ np.conj(modulus)
    report.add("polar_factor", frob(m - factor), bound)
    report.add("polar_commute", frob(factor - modulus @ kappa), bound)
    n = m.shape[0]
    unit = _unit_bound(tol, n)
    report.add("kappa_unitary", _unitarity(kappa), unit)
    report.add("kappa_square", frob(kappa @ np.conj(kappa) + np.eye(n)), unit)
    report.add("kappa_skew", frob(kappa + kappa.T), unit)


def spectral_measure(report, kappa, res):
    """G(omega)^2 = -E(omega), G(omega)# = -G(omega), G([a, b]) = kappa and
    additivity, over the uniform partition of [0, ||A||] into G_CELLS cells;
    ``res`` is the ``wvn.spectral_resolution`` of A."""
    kappa = AntilinearOperator(kappa)
    cell = res.cells(G_CELLS)
    total = np.zeros_like(kappa.mat)
    for i in range(G_CELLS):
        e = res.projection(cell == i)
        g = wvn_mod.spectral_measure_G(kappa, cell == i, res)
        report.add(f"g_square_cell{i+1}", frob(g.compose(g) + e), G_BOUND)
        report.add(f"g_sharp_cell{i+1}", frob(g.sharp().mat + g.mat), G_BOUND)
        total = total + g.mat
    g_full = wvn_mod.spectral_measure_G(kappa, cell < G_CELLS, res)
    report.add("g_full_is_kappa", frob(g_full.mat - kappa.mat), G_BOUND)
    report.add("g_additive", frob(total - g_full.mat), G_BOUND)


def wvn(report, m, k, d, u, d_values, tol, epsilon, p):
    """A = K + D, ||K||_p < epsilon, u unitary, D = sum_j d_j (f_j e_j^tr -
    e_j f_j^tr) over the paired basis in the columns e_1, f_1, e_2, ... of
    u, and Weyl stability of the spectrum."""
    scale = frob(m)
    report.add("wvn_reconstruction", frob(m - k - d), 1e-10 * scale)
    s_k = singular_values(k)  # one SVD serves the budget and the Weyl line
    report.add("wvn_norm_budget", _schatten(s_k, p), epsilon, strict=True)
    report.add("wvn_unitary", _unitarity(u), _unit_bound(tol, m.shape[0]))
    e, f = u[:, 0::2], u[:, 1::2]
    block = (f * d_values) @ e.T - (e * d_values) @ f.T
    report.add("wvn_block_residual", frob(d - block), 1e-9 * scale)
    shift = np.abs(singular_values(m) - singular_values(d))
    report.add("wvn_weyl_stability", float(np.max(shift)), float(s_k[0]) + 1e-9)


def decomposition(report, prefix, m, k, d, u, tol, epsilon=None, p=2.0):
    """T = K + U D U^tr with U unitary, D block skew-diagonal, K skew and,
    given epsilon, ||K||_p < epsilon; lines are named ``<prefix>_*``."""
    report.add(f"{prefix}_unitary", _unitarity(u), _unit_bound(tol, m.shape[0]))
    model = block_skew_matrix(np.diagonal(d, 1)[0::2].real, d.shape[0])
    report.add(f"{prefix}_block_structure", frob(d - model), 1e-9)
    report.add(f"{prefix}_reconstruction", frob(m - k - u @ d @ u.T), 1e-9 * frob(m))
    report.add(f"{prefix}_k_skew", frob(k + k.T), 1e-9 * (1.0 + frob(k)))
    if epsilon is not None:
        report.add(f"{prefix}_k_norm", schatten_norm(k, p), epsilon, strict=True)
