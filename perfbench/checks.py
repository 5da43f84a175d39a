"""Contract checks on decomposition outputs, independent of skewvn.

The bounds are the ones the ``skewvn`` CLI reports at its default
``--tol 1e-10`` (so ``max(tol, 1e-9)`` where the CLI uses it); a check here
is never looser than the CLI's.  Each check returns ``(problems,
backward_err)``: a list of failed-check descriptions (empty when the
contract holds) and ``||M - reconstruction||_F / (eps * ||M||_F)``.
"""

import hashlib
import math

import numpy as np

EPS = float(np.finfo(float).eps)
TOL = 1e-9  # max(default tol 1e-10, 1e-9), as the CLI applies it
TIGHT = 1e-10  # default tol where the CLI uses it unwidened


def frob(m):
    return float(np.linalg.norm(m, "fro"))


def backward_err(m, recon):
    return frob(m - recon) / (EPS * frob(m))


def schatten(m, p):
    s = np.linalg.svd(m, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0.0
    if math.isinf(p):
        return float(s[0])
    return float(s[0]) * float(np.sum((s / s[0]) ** p)) ** (1.0 / p)


def block_matrix(values, n, sign=1.0):
    """Direct sum of sign * v [[0, 1], [-1, 0]] blocks padded with zeros."""
    b = np.zeros((n, n), dtype=complex)
    for j, v in enumerate(values):
        b[2 * j, 2 * j + 1] = sign * v
        b[2 * j + 1, 2 * j] = -sign * v
    return b


def digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str((a.dtype.str, a.shape)).encode())
        h.update(a.tobytes())
    return h.hexdigest()


class Problems(list):
    def bound(self, name, residual, limit):
        if not residual <= limit:  # also catches nan
            self.append(f"{name} residual={residual!r} bound={limit!r}")


def _unit(n):
    return max(1.0, math.sqrt(n))


def check_youla(m, u, r):
    """M = U B U^tr, U unitary, B the block form of descending r >= 0."""
    n = m.shape[0]
    p = Problems()
    r = np.asarray(r, dtype=float)
    if u.shape != (n, n) or 2 * r.size > n:
        p.append(f"shape: U {u.shape}, {r.size} pairs for n={n}")
        return p, math.inf
    if np.any(r < 0) or np.any(np.diff(r) > 0):
        p.append("r is not descending and nonnegative")
    recon = u @ block_matrix(r, n) @ u.T
    scale = 1.0 + frob(m)
    p.bound("youla_roundtrip", frob(m - recon), TOL * scale)
    p.bound("youla_unitary", frob(u.conj().T @ u - np.eye(n)), TOL * _unit(n))
    return p, backward_err(m, recon)


def check_polar(m, kappa, s):
    """A = kappa |A| = |A| kappa with kappa unitary, kappa^2 = -I, skew."""
    n = m.shape[0]
    p = Problems()
    scale = TOL * (1.0 + frob(m))
    recon = kappa @ np.conj(s)
    p.bound("polar_factor", frob(m - recon), scale)
    p.bound("polar_commute", frob(recon - s @ kappa), scale)
    p.bound("modulus_hermitian", frob(s - s.conj().T), scale)
    unit = TOL * _unit(n)
    p.bound("kappa_unitary", frob(kappa.conj().T @ kappa - np.eye(n)), unit)
    p.bound("kappa_square", frob(kappa @ np.conj(kappa) + np.eye(n)), unit)
    p.bound("kappa_skew", frob(kappa + kappa.T), unit)
    return p, backward_err(m, recon)


def check_wvn(m, k, d, u, d_values, epsilon, p_exp=2.0):
    """A = K + D, ||K||_p < epsilon, D = sum d_j (f_j e_j^tr - e_j f_j^tr).

    ``u`` holds the paired basis as columns e_1, f_1, e_2, f_2, ...;
    ``d_values`` is aligned with the pairs.
    """
    n = m.shape[0]
    p = Problems()
    if u.shape != (n, n) or 2 * len(d_values) != n:
        p.append(f"shape: U {u.shape}, {len(d_values)} values for n={n}")
        return p, math.inf
    scale = 1.0 + frob(m)
    p.bound("wvn_reconstruction", frob(m - k - d), TIGHT * scale)
    knorm = schatten(k, p_exp)
    if not knorm < epsilon:
        p.append(f"wvn_norm_budget residual={knorm!r} bound={epsilon!r}")
    e, f = u[:, 0::2], u[:, 1::2]
    model = (f * d_values) @ e.T - (e * d_values) @ f.T
    p.bound("wvn_block_residual", frob(d - model), TOL * scale)
    p.bound("wvn_basis_unitary", frob(u.conj().T @ u - np.eye(n)), TOL * _unit(n))
    s_m = np.linalg.svd(m, compute_uv=False)
    s_d = np.linalg.svd(d, compute_uv=False)
    p.bound(
        "wvn_weyl_stability", float(np.max(np.abs(s_m - s_d))), schatten(k, math.inf) + TOL
    )
    return p, backward_err(m, k + d)


def check_skew_wvn(m, k, d, u, d_values, epsilon, p_exp=2.0):
    """T = K + U D U^tr with D the literal block matrix of d_values."""
    n = m.shape[0]
    p = Problems()
    if u.shape != (n, n) or d.shape != (n, n) or 2 * len(d_values) > n:
        p.append(f"shape: U {u.shape}, D {d.shape}, {len(d_values)} values for n={n}")
        return p, math.inf
    recon = k + u @ d @ u.T
    scale = 1.0 + frob(m)
    p.bound("skew_wvn_reconstruction", frob(m - recon), TOL * scale)
    knorm = schatten(k, p_exp)
    if not knorm < epsilon:
        p.append(f"skew_wvn_k_norm residual={knorm!r} bound={epsilon!r}")
    p.bound("skew_wvn_k_skew", frob(k + k.T), TOL * (1.0 + frob(k)))
    p.bound("decomp_block_structure", frob(d - block_matrix(d_values, n)), TOL)
    p.bound("decomp_unitary", frob(u.conj().T @ u - np.eye(n)), TIGHT * _unit(n))
    return p, backward_err(m, recon)


def block_values(d):
    """The d_j read off the (2j, 2j+1) entries of a block matrix."""
    return [d[2 * j, 2 * j + 1].real for j in range(d.shape[0] // 2)]


def pair_values(d, u):
    """d_j = Re f_j^* D conj(e_j) for the pairs (e_j, f_j) in the columns of U."""
    e, f = u[:, 0::2], u[:, 1::2]
    return np.einsum("ij,ij->j", np.conj(f), d @ np.conj(e)).real


def report_bound_limit(name, fro, smax, n, epsilon):
    """The loosest bound the CLI may print for a report line, or None."""
    unit = _unit(n)
    scale = 1.0 + fro
    if name.startswith(("g_square_cell", "g_sharp_cell")) or name in (
        "g_full_is_kappa",
        "g_additive",
    ):
        return TIGHT * (1.0 + smax) ** 2
    table = {
        "skew_symmetry": TIGHT * scale,
        "youla_roundtrip": TOL * scale,
        "youla_unitary": TOL * unit,
        "polar_factor": TOL * scale,
        "polar_commute": TOL * scale,
        "kappa_unitary": TOL * unit,
        "kappa_square": TOL * unit,
        "kappa_skew": TOL * unit,
        "wvn_reconstruction": TIGHT * scale,
        "wvn_block_residual": TOL * scale,
        "skew_wvn_reconstruction": TOL * scale,
        "decomp_unitary": TIGHT * unit,
        "decomp_block_structure": TOL,
        "decomp_reconstruction": TOL * scale,
    }
    if name in table:
        return table[name]
    if epsilon is None:
        return None
    eps_table = {
        "wvn_norm_budget": epsilon,
        "wvn_weyl_stability": epsilon + TOL,
        "skew_wvn_k_norm": epsilon,
        "skew_wvn_k_skew": TOL * (1.0 + epsilon),
        "decomp_k_norm": epsilon,
        "decomp_k_skew": TOL * (1.0 + epsilon),
    }
    return eps_table.get(name)


def parse_report(text):
    """[(name, status, residual, bound)] from ``<name> <PASS|FAIL> residual=.. bound=..``."""
    out = []
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if (
            len(parts) != 4
            or parts[1] not in ("PASS", "FAIL")
            or not parts[2].startswith("residual=")
            or not parts[3].startswith("bound=")
        ):
            raise ValueError(f"malformed report line {line!r}")
        out.append((parts[0], parts[1], float(parts[2][9:]), float(parts[3][6:])))
    return out


def check_report(text, m, epsilon, required=()):
    """Every line PASSes, agrees with its numbers, and has a bound no looser
    than the CLI's own; ``required`` names must be present.

    Returns (problems, {name: residual}).
    """
    p = Problems()
    try:
        lines = parse_report(text)
    except ValueError as exc:
        p.append(str(exc))
        return p, {}
    fro = frob(m)
    smax = float(np.linalg.norm(m, 2))
    n = m.shape[0]
    residuals = {}
    for name, status, residual, bound in lines:
        residuals[name] = residual
        if status != "PASS":
            p.append(f"{name} FAIL residual={residual!r} bound={bound!r}")
        elif not residual <= bound:
            p.append(f"{name} PASS with residual {residual!r} above bound {bound!r}")
        limit = report_bound_limit(name, fro, smax, n, epsilon)
        if limit is not None and bound > limit * (1.0 + 1e-9):
            p.append(f"{name} bound {bound!r} looser than {limit!r}")
    for name in required:
        if name not in residuals:
            p.append(f"report has no {name} line")
    return p, residuals


def read_cmat(path):
    """CMAT v1 reader kept apart from skewvn.cmatio, so that outputs are
    checked with code the program under test does not supply."""
    with open(path, "r", encoding="ascii") as fh:
        text = fh.read()
    head, _, body = text.partition("\n")
    tag, version, rows, cols = head.split()
    if tag != "CMAT" or version != "v1":
        raise ValueError(f"{path}: bad CMAT header {head!r}")
    rows, cols = int(rows), int(cols)
    values = np.array(body.replace(",", " ").split(), dtype=float)
    if values.size != 2 * rows * cols:
        raise ValueError(f"{path}: expected {rows}x{cols} entries")
    pairs = values.reshape(rows, cols, 2)
    return pairs[..., 0] + 1j * pairs[..., 1]
