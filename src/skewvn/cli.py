"""Command-line front end.

Subcommands: gen, youla, polar, wvn, skew-wvn, verify.  Outputs are CMAT
files plus a plain-text report with one check per line in the format
``<name> <PASS|FAIL> residual=<float> bound=<float>``.  Exit codes: 0 all
checks pass, 1 a verification check failed, 2 input or usage error.
"""

import argparse
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import canonical, cmatio, generate, wvn as wvn_mod
from .antilinear import AntilinearOperator, Conjugation
from .errors import OddKernel, SkewvnError
from .matcore import DEFAULT_TOL, frob
from .schatten import schatten_norm, singular_values


@dataclass
class VerificationReport:
    checks: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def add(self, name, residual, bound):
        status = "PASS" if residual <= bound else "FAIL"
        self.checks.append((name, status, float(residual), float(bound)))

    def note(self, text):
        self.notes.append(text)

    @property
    def all_pass(self):
        return all(status == "PASS" for _, status, _, _ in self.checks)

    def render(self):
        lines = [
            f"{name} {status} residual={residual!r} bound={bound!r}"
            for name, status, residual, bound in self.checks
        ]
        lines.extend(f"# {note}" for note in self.notes)
        return "\n".join(lines) + "\n"


def _write_report(prefix, report):
    with open(f"{prefix}.report.txt", "w", encoding="ascii", newline="\n") as fh:
        fh.write(report.render())


def _write_values(prefix, values):
    vals = sorted((float(v) for v in values), reverse=True)
    with open(f"{prefix}.values.txt", "w", encoding="ascii", newline="\n") as fh:
        fh.write(" ".join(repr(v) for v in vals) + "\n")


def _check_youla(report, m, result, tol):
    n = m.shape[0]
    recon = result.u @ result.block_matrix() @ result.u.T
    report.add("youla_roundtrip", frob(m - recon), tol * (1.0 + frob(m)))
    report.add(
        "youla_unitary",
        frob(result.u.conj().T @ result.u - np.eye(n)),
        tol * max(1.0, np.sqrt(n)),
    )


def _check_polar(report, a, polar, tol):
    k = polar.kappa.mat
    s = polar.modulus
    n = a.dim
    scale = tol * (1.0 + frob(a.mat))
    report.add("polar_factor", frob(a.mat - k @ np.conj(s)), scale)
    report.add("polar_commute", frob(k @ np.conj(s) - s @ k), scale)
    unit = max(1.0, np.sqrt(n)) * tol
    report.add("kappa_unitary", frob(k.conj().T @ k - np.eye(n)), unit)
    report.add("kappa_square", frob(k @ np.conj(k) + np.eye(n)), unit)
    report.add("kappa_skew", frob(k + k.T), unit)


def _check_g_properties(report, a, kappa, tol):
    res = wvn_mod.spectral_resolution(a, tol)
    cell = res.cells(4)
    bound = 1e-10 * (1.0 + res.b) * (1.0 + res.b)  # inf, not OverflowError, past 1e154
    total = np.zeros((a.dim, a.dim), dtype=complex)
    for i in range(4):
        e = res.projection(cell == i)
        g = wvn_mod.spectral_measure_G(a, kappa, cell == i, res=res)
        report.add(f"g_square_cell{i+1}", frob(g.compose(g) + e), bound)
        report.add(f"g_sharp_cell{i+1}", frob(g.sharp().mat + g.mat), bound)
        total = total + g.mat
    g_full = wvn_mod.spectral_measure_G(a, kappa, cell < 4, res=res)  # omega = [a, b]
    report.add("g_full_is_kappa", frob(g_full.mat - kappa.mat), bound)
    report.add("g_additive", frob(total - g_full.mat), bound)


def _check_wvn(report, a, result, tol):
    mat = a.mat
    scale = 1.0 + frob(mat)
    report.add(
        "wvn_reconstruction",
        frob(mat - result.k.mat - result.d.mat),
        1e-10 * scale,
    )
    report.add(
        "wvn_norm_budget", result.achieved_norm, result.epsilon
    )
    block = np.zeros_like(mat)
    for (e, f), d in zip(result.basis, result.d_values):
        block += d * (np.outer(f, e) - np.outer(e, f))
    report.add("wvn_block_residual", frob(result.d.mat - block), 1e-9 * scale)
    s_a = singular_values(a)
    s_d = singular_values(result.d)
    k_op = schatten_norm(result.k, math.inf)
    report.add(
        "wvn_weyl_stability",
        float(np.max(np.abs(s_a - s_d))),
        k_op + 1e-9,
    )


def run_verify(m, tol, rank_tol, epsilon=None, p=2.0, decomp=None):
    """Aggregate verification; returns (report, exit_code)."""
    report = VerificationReport()
    scale = 1.0 + frob(m)
    report.add("skew_symmetry", frob(m + m.T), tol * scale)
    if not report.all_pass:
        return report, 1

    if decomp is not None:
        k, d, u = decomp
        n = m.shape[0]
        report.add(
            "decomp_unitary",
            frob(u.conj().T @ u - np.eye(n)),
            tol * max(1.0, np.sqrt(n)),
        )
        report.add("decomp_block_structure", _block_structure_residual(d), 1e-9)
        report.add(
            "decomp_reconstruction", frob(m - k - u @ d @ u.T), 1e-9 * scale
        )
        report.add("decomp_k_skew", frob(k + k.T), 1e-9 * (1.0 + frob(k)))
        if epsilon is not None:
            report.add("decomp_k_norm", schatten_norm(k, p), epsilon)
        return report, (0 if report.all_pass else 1)

    youla = canonical.youla_decompose(m, tol)
    _check_youla(report, m, youla, max(tol, 1e-9))

    a = AntilinearOperator(m)
    try:
        polar = canonical.polar_factorize(a, tol=tol, rank_tol=rank_tol)
    except OddKernel as exc:
        report.note(f"OddKernel: {exc}")
        return report, 2
    _check_polar(report, a, polar, max(tol, 1e-9))
    _check_g_properties(report, a, polar.kappa, tol)

    if epsilon is not None:
        result = wvn_mod.wvn_decompose(a, epsilon, p, tol, rank_tol)
        _check_wvn(report, a, result, tol)

    return report, (0 if report.all_pass else 1)


def _block_structure_residual(d):
    """How far D is from a direct sum of d_j [[0,1],[-1,0]] blocks."""
    n = d.shape[0]
    values = [d[2 * j, 2 * j + 1].real for j in range(n // 2)]
    model = wvn_mod.block_skew_matrix(values, n)
    return frob(d - model)


def _add_common(parser):
    parser.add_argument("--tol", type=float, default=DEFAULT_TOL)
    parser.add_argument("--rank-tol", type=float, default=DEFAULT_TOL)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="skewvn",
        description="Decompositions of complex skew-symmetric matrices and "
        "antilinear skew-self-adjoint operators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a seeded test matrix")
    p_gen.add_argument("--kind", choices=generate.KINDS, required=True)
    p_gen.add_argument("--dim", type=int, required=True)
    p_gen.add_argument("--rank", type=int, default=None)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True)

    p_youla = sub.add_parser("youla", help="Youla block skew-diagonalization")
    p_youla.add_argument("matrix")
    p_youla.add_argument("--out-prefix", required=True)
    _add_common(p_youla)

    p_polar = sub.add_parser("polar", help="anticonjugation polar factorization")
    p_polar.add_argument("matrix")
    p_polar.add_argument("--out-prefix", required=True)
    _add_common(p_polar)

    p_wvn = sub.add_parser("wvn", help="Weyl-von Neumann decomposition (antilinear)")
    p_wvn.add_argument("matrix")
    p_wvn.add_argument("--epsilon", type=float, required=True)
    p_wvn.add_argument("--p", type=float, default=2.0)
    p_wvn.add_argument("--out-prefix", required=True)
    _add_common(p_wvn)

    p_swvn = sub.add_parser(
        "skew-wvn", help="Weyl-von Neumann decomposition (linear skew-symmetric)"
    )
    p_swvn.add_argument("matrix")
    p_swvn.add_argument("--epsilon", type=float, required=True)
    p_swvn.add_argument("--p", type=float, default=2.0)
    p_swvn.add_argument("--out-prefix", required=True)
    _add_common(p_swvn)

    p_verify = sub.add_parser("verify", help="run the residual check suite")
    p_verify.add_argument("matrix")
    p_verify.add_argument("--epsilon", type=float, default=None)
    p_verify.add_argument("--p", type=float, default=2.0)
    p_verify.add_argument("--decomp-prefix", default=None)
    p_verify.add_argument("--out-prefix", default=None)
    _add_common(p_verify)

    return parser


def _cmd_gen(args):
    m = generate.gen(args.kind, args.dim, args.rank, args.seed)
    cmatio.write_cmat(args.out, m)
    return 0


def _cmd_youla(args):
    m = cmatio.read_cmat(args.matrix)
    result = canonical.youla_decompose(m, args.tol)
    cmatio.write_cmat(f"{args.out_prefix}.U.cmat", result.u)
    cmatio.write_cmat(f"{args.out_prefix}.D.cmat", result.block_matrix())
    _write_values(args.out_prefix, result.r)
    report = VerificationReport()
    _check_youla(report, m, result, max(args.tol, 1e-9))
    _write_report(args.out_prefix, report)
    return 0 if report.all_pass else 1


def _cmd_polar(args):
    m = cmatio.read_cmat(args.matrix)
    a = AntilinearOperator(m)
    result = canonical.polar_factorize(a, tol=args.tol, rank_tol=args.rank_tol)
    cmatio.write_cmat(f"{args.out_prefix}.K.cmat", result.kappa.mat)
    cmatio.write_cmat(f"{args.out_prefix}.D.cmat", result.modulus)
    report = VerificationReport()
    _check_polar(report, a, result, max(args.tol, 1e-9))
    _write_report(args.out_prefix, report)
    return 0 if report.all_pass else 1


def _cmd_wvn(args):
    m = cmatio.read_cmat(args.matrix)
    a = AntilinearOperator(m)
    result = wvn_mod.wvn_decompose(a, args.epsilon, args.p, args.tol, args.rank_tol)
    cmatio.write_cmat(f"{args.out_prefix}.K.cmat", result.k.mat)
    cmatio.write_cmat(f"{args.out_prefix}.D.cmat", result.d.mat)
    cols = []
    for e, f in result.basis:
        cols.extend([e, f])
    u = np.column_stack(cols)
    cmatio.write_cmat(f"{args.out_prefix}.U.cmat", u)
    _write_values(args.out_prefix, result.d_values)
    report = VerificationReport()
    _check_wvn(report, a, result, args.tol)
    _write_report(args.out_prefix, report)
    return 0 if report.all_pass else 1


def _cmd_skew_wvn(args):
    m = cmatio.read_cmat(args.matrix)
    tau = Conjugation.standard(m.shape[0])
    result = wvn_mod.skew_symmetric_wvn(
        m, tau, args.epsilon, args.p, args.tol, args.rank_tol
    )
    cmatio.write_cmat(f"{args.out_prefix}.K.cmat", result.k)
    cmatio.write_cmat(f"{args.out_prefix}.D.cmat", result.d)
    cmatio.write_cmat(f"{args.out_prefix}.U.cmat", result.u)
    _write_values(args.out_prefix, result.d_values)
    report = VerificationReport()
    scale = 1.0 + frob(m)
    report.add(
        "skew_wvn_reconstruction",
        wvn_mod.skew_wvn_residual(m, tau, result),
        1e-9 * scale,
    )
    report.add("skew_wvn_k_norm", result.achieved_norm, args.epsilon)
    report.add(
        "skew_wvn_k_skew", frob(result.k + result.k.T), 1e-9 * (1.0 + frob(result.k))
    )
    _write_report(args.out_prefix, report)
    return 0 if report.all_pass else 1


def _cmd_verify(args):
    m = cmatio.read_cmat(args.matrix)
    decomp = None
    if args.decomp_prefix is not None:
        decomp = (
            cmatio.read_cmat(f"{args.decomp_prefix}.K.cmat"),
            cmatio.read_cmat(f"{args.decomp_prefix}.D.cmat"),
            cmatio.read_cmat(f"{args.decomp_prefix}.U.cmat"),
        )
    report, code = run_verify(
        m, args.tol, args.rank_tol, args.epsilon, args.p, decomp
    )
    text = report.render()
    sys.stdout.write(text)
    if args.out_prefix:
        _write_report(args.out_prefix, report)
    return code


_COMMANDS = {
    "gen": _cmd_gen,
    "youla": _cmd_youla,
    "polar": _cmd_polar,
    "wvn": _cmd_wvn,
    "skew-wvn": _cmd_skew_wvn,
    "verify": _cmd_verify,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except SkewvnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
