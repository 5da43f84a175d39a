"""Command-line front end.

Subcommands: gen, youla, polar, wvn, skew-wvn, verify.  This module parses
arguments, reads and writes files and runs the decompositions; every report
line, residual and bound comes from ``checks``.  Outputs are CMAT files plus
a plain-text report with one check per line in the format
``<name> <PASS|FAIL> residual=<float> bound=<float>``.  Exit codes: 0 all
checks pass, 1 a verification check failed, 2 input or usage error.
"""

import argparse
import math
import sys

from . import canonical, checks, cmatio, generate, wvn as wvn_mod
from .antilinear import AntilinearOperator, Conjugation
from .checks import VerificationReport
from .errors import DimensionMismatch, InvalidP, OddKernel, SkewvnError
from .matcore import DEFAULT_TOL


def _write_report(prefix, report):
    with open(f"{prefix}.report.txt", "w", encoding="ascii", newline="\n") as fh:
        fh.write(report.render())


def _write_values(prefix, values):
    vals = sorted((float(v) for v in values), reverse=True)
    with open(f"{prefix}.values.txt", "w", encoding="ascii", newline="\n") as fh:
        fh.write(" ".join(repr(v) for v in vals) + "\n")


def run_verify(m, tol, rank_tol, epsilon=None, p=2.0, decomp=None):
    """Aggregate verification; returns (report, exit_code)."""
    if epsilon is not None and decomp is None:
        wvn_mod._check_budget(epsilon, p)
    elif epsilon is not None:  # a given decomposition admits --p inf
        wvn_mod._check_epsilon(epsilon)
        if not p > 1:
            raise InvalidP(f"--p must be > 1, got {p}")
    report = VerificationReport()
    checks.skew_symmetry(report, m, tol)
    if not report.all_pass:
        return report, 1
    if decomp is not None:
        k, d, u = decomp
        checks.decomposition(report, "decomp", m, k, d, u, tol, epsilon, p)
        return report, report.exit_code

    # one factorization for the youla, polar, spectral-measure and wvn lines
    youla = canonical.youla_decompose(m, tol, rank_tol)
    if epsilon is not None:
        wvn_mod._check_floor(youla.r, epsilon, p)
    checks.youla(report, m, youla.u, youla.block_matrix(), tol)

    try:
        polar = youla.polar()
    except OddKernel as exc:
        report.note(f"OddKernel: {exc}")
        return report, 2
    checks.polar(report, m, polar.kappa.mat, polar.modulus, tol)
    checks.spectral_measure(report, polar.kappa.mat, wvn_mod.spectral_resolution(youla))

    if epsilon is not None:
        k, u, d_values, _ = wvn_mod._wvn(youla, epsilon, p, tol, rank_tol)
        checks.wvn(report, m, k, m - k, u, d_values, tol, epsilon, p)

    return report, report.exit_code


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

    for name, text in (
        ("youla", "Youla block skew-diagonalization"),
        ("polar", "anticonjugation polar factorization"),
        ("wvn", "Weyl-von Neumann decomposition (antilinear)"),
        ("skew-wvn", "Weyl-von Neumann decomposition (linear skew-symmetric)"),
    ):
        p_dec = sub.add_parser(name, help=text)
        p_dec.add_argument("matrix")
        if name in ("wvn", "skew-wvn"):
            p_dec.add_argument("--epsilon", type=float, required=True)
            p_dec.add_argument("--p", type=float, default=2.0)
        p_dec.add_argument("--out-prefix", required=True)
        _add_common(p_dec)

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


def _finish(prefix, check, *args):
    """Run one check of ``checks`` into a new report and write it."""
    report = VerificationReport()
    check(report, *args)
    _write_report(prefix, report)
    return report.exit_code


def _cmd_youla(args):
    m = cmatio.read_cmat(args.matrix)
    result = canonical.youla_decompose(m, args.tol, args.rank_tol)
    b = result.block_matrix()
    cmatio.write_cmat(f"{args.out_prefix}.U.cmat", result.u)
    cmatio.write_cmat(f"{args.out_prefix}.D.cmat", b)
    _write_values(args.out_prefix, result.r)
    return _finish(args.out_prefix, checks.youla, m, result.u, b, args.tol)


def _cmd_polar(args):
    m = cmatio.read_cmat(args.matrix)
    a = AntilinearOperator(m)
    result = canonical.polar_factorize(a, tol=args.tol, rank_tol=args.rank_tol)
    cmatio.write_cmat(f"{args.out_prefix}.K.cmat", result.kappa.mat)
    cmatio.write_cmat(f"{args.out_prefix}.D.cmat", result.modulus)
    return _finish(args.out_prefix, checks.polar, m, result.kappa.mat, result.modulus, args.tol)


def _cmd_wvn(args):
    m = cmatio.read_cmat(args.matrix)
    a = AntilinearOperator(m)
    result = wvn_mod.wvn_decompose(a, args.epsilon, args.p, args.tol, args.rank_tol)
    cmatio.write_cmat(f"{args.out_prefix}.K.cmat", result.k.mat)
    cmatio.write_cmat(f"{args.out_prefix}.D.cmat", result.d.mat)
    cmatio.write_cmat(f"{args.out_prefix}.U.cmat", result.u)
    _write_values(args.out_prefix, result.d_values)
    return _finish(args.out_prefix, checks.wvn, m, result.k.mat, result.d.mat,
                   result.u, result.d_values, args.tol, args.epsilon, args.p)


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
    return _finish(args.out_prefix, checks.decomposition, "skew_wvn", m, result.k,
                   result.d, result.u, args.tol, args.epsilon, args.p)


def _cmd_verify(args):
    m = cmatio.read_cmat(args.matrix)
    decomp = None
    if args.decomp_prefix is not None:
        decomp = [cmatio.read_cmat(f"{args.decomp_prefix}.{x}.cmat") for x in "KDU"]
        for x, mat in zip("KDU", decomp):
            if mat.shape != m.shape:
                raise DimensionMismatch(f"{args.decomp_prefix}.{x}.cmat has shape {mat.shape}, "
                                        f"{args.matrix} has shape {m.shape}")
    report, code = run_verify(
        m, args.tol, args.rank_tol, args.epsilon, args.p, decomp
    )
    sys.stdout.write(report.render())
    if args.out_prefix:
        _write_report(args.out_prefix, report)
    return code


def _check_tolerances(args):
    """--tol must be finite and >= 0, --rank-tol in [0, 1)."""
    tol, rank_tol = getattr(args, "tol", 0.0), getattr(args, "rank_tol", 0.0)
    if not 0.0 <= tol < math.inf:
        raise SkewvnError(f"--tol must be finite and >= 0, got {tol!r}")
    if not 0.0 <= rank_tol < 1.0:
        raise SkewvnError(f"--rank-tol must be in [0, 1), got {rank_tol!r}")


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
        _check_tolerances(args)
        return _COMMANDS[args.command](args)
    except (SkewvnError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
