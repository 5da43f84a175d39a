import cmath
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from skewvn import canonical, checks, cli, cmatio, generate, wvn
from skewvn.cli import VerificationReport, main, run_verify
from skewvn.errors import InvalidRank, ParseError


def random_complex(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def test_parse_cmat_basic():
    text = "CMAT v1 2 2\n0,0 1,0\n-1,0 0,0\n"
    m = cmatio.parse_cmat(text)
    assert np.array_equal(m, np.array([[0, 1], [-1, 0]], dtype=complex))


def test_cmat_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(60)
    m = random_complex(rng, 7, 5)
    path = tmp_path / "m.cmat"
    cmatio.write_cmat(path, m)
    back = cmatio.read_cmat(path)
    assert np.array_equal(back, m)


def per_entry_cmat(m):
    """The entry-by-entry CMAT formatter: the reference for ``format_cmat``."""
    rows, cols = m.shape
    lines = [f"CMAT v1 {rows} {cols}"]
    for i in range(rows):
        lines.append(
            " ".join(
                f"{float(m[i, j].real)!r},{float(m[i, j].imag)!r}" for j in range(cols)
            )
        )
    return "\n".join(lines) + "\n"


def test_format_cmat_matches_the_per_entry_formatter():
    rng = np.random.default_rng(61)
    m = random_complex(rng, 9, 6) * 10.0 ** rng.integers(-300, 300, (9, 6))
    m[0, :4] = [-0.0, complex(0.0, -0.0), 5e-324 - 2.2e-308j, 1e308 + -1e308j]
    m[1, 0] = complex(-0.0, -0.0)
    text = cmatio.format_cmat(m)
    assert text == per_entry_cmat(m)
    back = cmatio.parse_cmat(text)
    assert np.array_equal(back.view(np.int64), m.view(np.int64))


def per_entry_parse_cmat(text):
    """The whole-file entry-by-entry CMAT parser: the reference for
    ``parse_cmat``, which must accept the same texts with the same bits and
    refuse the others at the same line and column."""
    lines = text.split("\n")
    header = lines[0].split()
    if len(header) != 4 or header[0] != "CMAT":
        raise ParseError("malformed CMAT header", line=1)
    if header[1] != "v1":
        raise ParseError(f"unknown CMAT version {header[1]!r}", line=1)
    try:
        rows, cols = int(header[2]), int(header[3])
    except ValueError:
        raise ParseError("non-integer dimensions in header", line=1)
    if rows <= 0 or cols <= 0:
        raise ParseError("dimensions must be positive", line=1)
    if len(lines) < rows + 1:
        raise ParseError(f"expected {rows} data lines", line=len(lines))
    out = np.zeros((rows, cols), dtype=complex)
    for i, line in enumerate(lines[1 : rows + 1], start=2):
        tokens = line.split()
        if len(tokens) != cols:
            raise ParseError(f"expected {cols} entries, found {len(tokens)}", line=i)
        for j, tok in enumerate(tokens, start=1):
            parts = tok.split(",")
            if len(parts) != 2:
                raise ParseError(f"entry {tok!r} is not of the form re,im", line=i, column=j)
            try:
                value = complex(float(parts[0]), float(parts[1]))
            except ValueError:
                raise ParseError(f"could not parse {tok!r}", line=i, column=j)
            if not cmath.isfinite(value):
                raise ParseError(f"non-finite entry {tok!r}", line=i, column=j)
            out[i - 2, j - 1] = value
    for i, line in enumerate(lines[rows + 1 :], start=rows + 2):
        if line:
            raise ParseError(f"data line past the {rows} rows of the header", line=i)
    return out


def parse_outcome(parse, text):
    """The bits parse(text) returns, or the error, line and column it raises."""
    try:
        return parse(text).view(np.int64).tolist()
    except ParseError as exc:
        return str(exc), exc.line, exc.column


def test_parse_cmat_matches_the_per_entry_parser_on_its_last_line():
    text = cmatio.format_cmat(generate.gen("skew-symmetric", 64, None, 5))
    assert parse_outcome(cmatio.parse_cmat, text) == parse_outcome(per_entry_parse_cmat, text)
    head, last = text.rstrip("\n").rsplit("\n", 1)
    for tok in ("nan,0", "0,1e400", "1,", "1,2,3", "0x1p3,0", "1_0,infinity"):
        bad = f"{head}\n{last.rsplit(' ', 1)[0]} {tok}\n"
        expected = parse_outcome(per_entry_parse_cmat, bad)
        assert parse_outcome(cmatio.parse_cmat, bad) == expected
        assert tok == "1_0,infinity" or expected[1:] == (65, 64)


def test_cmat_parse_errors_on_irregular_tokens_carry_location():
    # rows with two commas or four numbers that are not two tokens re,im
    cases = (("1,2,3 4", 1), ("1 ,5", 1), ("0,0 1,", 2), (",0 1,1", 1), ("1 ,5 3,4", None))
    for row, column in cases:
        with pytest.raises(ParseError) as excinfo:
            cmatio.parse_cmat(f"CMAT v1 2 2\n0,0 0,0\n{row}\n")
        assert (excinfo.value.line, excinfo.value.column) == (3, column)


def test_cmat_refuses_data_lines_past_the_header_rows(tmp_path, capsys):
    path = tmp_path / "long.cmat"
    path.write_text("CMAT v1 2 2\n0,0 1,0\n-1,0 0,0\n5,5 6,6\n")
    assert main(["verify", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "line 4" in err and "Traceback" not in err
    with pytest.raises(ParseError) as excinfo:
        cmatio.parse_cmat("CMAT v1 1 1\n0,0\n\n \n")
    assert excinfo.value.line == 4
    # the empty string after the final newline, or none at all
    for text in ("CMAT v1 1 1\n0,0\n", "CMAT v1 1 1\n0,0"):
        assert cmatio.parse_cmat(text).shape == (1, 1)


def test_cmat_rejects_unknown_version():
    with pytest.raises(ParseError):
        cmatio.parse_cmat("CMAT v2 1 1\n0,0\n")


def test_cmat_parse_errors_carry_location():
    with pytest.raises(ParseError) as excinfo:
        cmatio.parse_cmat("CMAT v1 1 2\n0,0 nope\n")
    assert excinfo.value.line == 2
    assert excinfo.value.column == 2
    with pytest.raises(ParseError):
        cmatio.parse_cmat("CMAT v1 2 2\n0,0 0,0\n")  # truncated
    with pytest.raises(ParseError):
        cmatio.parse_cmat("not a matrix\n")


def test_cmat_files_are_ascii_lf(tmp_path):
    path = tmp_path / "m.cmat"
    cmatio.write_cmat(path, np.eye(2))
    raw = path.read_bytes()
    raw.decode("ascii")
    assert b"\r" not in raw
    assert raw.endswith(b"\n")


def test_gen_skew_exact():
    m = generate.gen("skew-symmetric", 4, None, 7)
    assert np.array_equal(m, -m.T)
    assert np.array_equal(m, generate.gen("skew-symmetric", 4, None, 7))


def test_gen_rank_constrained():
    m = generate.gen("skew-symmetric-rank", 6, 4, 3)
    s = np.linalg.svd(m, compute_uv=False)
    assert int(np.count_nonzero(s > 1e-12)) == 4


def test_gen_rejects_odd_rank():
    with pytest.raises(InvalidRank):
        generate.gen("skew-symmetric-rank", 6, 3, 0)
    with pytest.raises(InvalidRank):
        generate.gen("skew-symmetric-rank", 4, 6, 0)


def test_gen_with_kernel():
    m = generate.gen("tau-skew-symmetric-with-kernel", 7, 4, 1)
    assert np.array_equal(m, -m.T)
    assert np.allclose(m[4:, :], 0.0)
    s = np.linalg.svd(m, compute_uv=False)
    assert int(np.count_nonzero(s > 1e-12 * s[0])) == 4


def test_report_format():
    report = VerificationReport()
    report.add("alpha", 0.5, 1.0)
    report.add("beta", 2.0, 1.0)
    assert report.checks[0][1] == "PASS"
    assert report.checks[1][1] == "FAIL"
    assert not report.all_pass
    lines = report.render().splitlines()
    assert lines[0] == "alpha PASS residual=0.5 bound=1.0"
    assert lines[1] == "beta FAIL residual=2.0 bound=1.0"


def test_run_verify_pass():
    m = generate.gen("skew-symmetric", 8, None, 5)
    report, code = run_verify(m, 1e-10, 1e-10, epsilon=1e-2, p=2.0)
    assert code == 0
    assert report.all_pass


def test_run_verify_odd_kernel():
    m = generate.gen("tau-skew-symmetric-with-kernel", 3, 2, 5)
    report, code = run_verify(m, 1e-10, 1e-10)
    assert code == 2
    assert any("OddKernel" in note for note in report.notes)


def test_run_verify_non_skew():
    report, code = run_verify(np.eye(3), 1e-10, 1e-10)
    assert code == 1
    assert not report.all_pass


def test_run_verify_factorizes_once(monkeypatch):
    # the youla, polar and spectral-measure lines share one Youla form
    calls = []
    real = canonical.youla_decompose

    def counting(mat, *args, **kwargs):
        calls.append(mat.shape)
        return real(mat, *args, **kwargs)

    reductions, eigensolves = [], []
    real_reduce, real_eigh = canonical._tridiagonalize, np.linalg.eigh

    def counting_reduce(c):
        reductions.append(c.shape)
        return real_reduce(c)

    def counting_eigh(mat):
        eigensolves.append(mat.shape)
        return real_eigh(mat)

    monkeypatch.setattr(canonical, "youla_decompose", counting)
    monkeypatch.setattr(wvn, "youla_decompose", counting)
    monkeypatch.setattr(canonical, "_tridiagonalize", counting_reduce)
    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    m = generate.gen("skew-symmetric", 8, None, 5)
    # plain verify makes no eigensolve at all; with epsilon the WvN loop
    # refines that form in place: its cell complements add eigensolves of
    # blocks of half a cell, no n x n one
    cases = (
        (None, "g_additive", lambda solves: solves == []),
        (1e-2, "wvn_norm_budget", lambda solves: (8, 8) not in solves),
    )
    for epsilon, line, eigensolves_ok in cases:
        calls.clear()
        reductions.clear()
        eigensolves.clear()
        report, code = run_verify(m, 1e-10, 1e-10, epsilon)
        assert code == 0
        assert calls == [(8, 8)]
        assert reductions == [(8, 8)]
        assert eigensolves_ok(eigensolves), eigensolves
        assert line in {name for name, *_ in report.checks}


def test_cli_youla_rank_cut_follows_rank_tol(tmp_path):
    # r = 2, 1, 1e-9: the default rank_tol 1e-10 keeps the last pair, 1e-6
    # makes it kernel, within the youla_roundtrip bound
    u = generate.random_unitary(np.random.default_rng(9), 6)
    m = u @ canonical.block_skew_matrix([2.0, 1.0, 1e-9], 6) @ u.T
    mpath = str(tmp_path / "m.cmat")
    cmatio.write_cmat(mpath, (m - m.T) / 2.0)
    values = {}
    for rank_tol in ("1e-10", "1e-6"):
        prefix = tmp_path / f"y{rank_tol}"
        assert main(["youla", mpath, "--rank-tol", rank_tol, "--out-prefix", str(prefix)]) == 0
        text = (tmp_path / f"y{rank_tol}.values.txt").read_text()
        values[rank_tol] = [float(x) for x in text.split()]
    assert len(values["1e-10"]) == 3
    assert values["1e-6"] == values["1e-10"][:2]


def test_cli_pipeline(tmp_path, capsys):
    mpath = str(tmp_path / "m.cmat")
    prefix = str(tmp_path / "out")
    assert main(["gen", "--kind", "skew-symmetric", "--dim", "8",
                 "--seed", "11", "--out", mpath]) == 0
    assert main(["wvn", mpath, "--epsilon", "1e-2",
                 "--out-prefix", prefix]) == 0
    for suffix in (".K.cmat", ".D.cmat", ".U.cmat", ".report.txt", ".values.txt"):
        assert (tmp_path / f"out{suffix}").exists()
    assert main(["verify", mpath, "--epsilon", "1e-2"]) == 0
    out = capsys.readouterr().out
    for line in out.strip().splitlines():
        if line.startswith("#"):
            continue
        name, status, residual, bound = line.split()
        assert status in ("PASS", "FAIL")
        assert residual.startswith("residual=")
        assert bound.startswith("bound=")


def test_cli_values_descending(tmp_path):
    mpath = str(tmp_path / "m.cmat")
    prefix = str(tmp_path / "y")
    main(["gen", "--kind", "skew-symmetric", "--dim", "10",
          "--seed", "4", "--out", mpath])
    assert main(["youla", mpath, "--out-prefix", prefix]) == 0
    values = [
        float(tok)
        for tok in (tmp_path / "y.values.txt").read_text().split()
    ]
    assert values == sorted(values, reverse=True)


def test_cli_determinism(tmp_path):
    blobs = []
    for run in ("a", "b"):
        mpath = str(tmp_path / f"{run}.cmat")
        prefix = str(tmp_path / run)
        main(["gen", "--kind", "skew-symmetric", "--dim", "6",
              "--seed", "9", "--out", mpath])
        main(["wvn", mpath, "--epsilon", "1e-2", "--out-prefix", prefix])
        blob = b"".join(
            (tmp_path / f"{run}{suffix}").read_bytes()
            for suffix in (".cmat", ".K.cmat", ".D.cmat", ".U.cmat",
                           ".report.txt", ".values.txt")
        )
        blobs.append(blob)
    assert blobs[0] == blobs[1]


def test_cli_verify_decomposition(tmp_path):
    mpath = str(tmp_path / "m.cmat")
    prefix = str(tmp_path / "sw")
    main(["gen", "--kind", "skew-symmetric", "--dim", "8",
          "--seed", "2", "--out", mpath])
    assert main(["skew-wvn", mpath, "--epsilon", "1e-2",
                 "--out-prefix", prefix]) == 0
    assert main(["verify", mpath, "--decomp-prefix", prefix,
                 "--epsilon", "1e-2"]) == 0
    # corrupt the unitary: verification must fail with exit 1
    u = cmatio.read_cmat(f"{prefix}.U.cmat")
    u[0, 0] += 0.3
    cmatio.write_cmat(f"{prefix}.U.cmat", u)
    assert main(["verify", mpath, "--decomp-prefix", prefix,
                 "--epsilon", "1e-2"]) == 1


def test_cli_verify_refuses_a_decomposition_of_another_shape(tmp_path, capsys):
    mpath, prefix = str(tmp_path / "m.cmat"), str(tmp_path / "sw")
    main(["gen", "--kind", "skew-symmetric", "--dim", "6", "--seed", "2", "--out", mpath])
    assert main(["skew-wvn", mpath, "--epsilon", "1e-2", "--out-prefix", prefix]) == 0
    small = str(tmp_path / "small.cmat")
    main(["gen", "--kind", "skew-symmetric", "--dim", "4", "--seed", "2", "--out", small])
    capsys.readouterr()
    assert main(["verify", small, "--decomp-prefix", prefix, "--epsilon", "1e-2"]) == 2
    err = capsys.readouterr().err
    assert f"{prefix}.K.cmat has shape (6, 6)" in err and "(4, 4)" in err
    assert "Traceback" not in err
    # one file of another shape is enough
    cmatio.write_cmat(f"{prefix}.U.cmat", np.eye(4))
    assert main(["verify", mpath, "--decomp-prefix", prefix, "--epsilon", "1e-2"]) == 2
    err = capsys.readouterr().err
    assert f"{prefix}.U.cmat has shape (4, 4)" in err and "(6, 6)" in err


@pytest.mark.parametrize("epsilon", ["0", "-1e-2", "nan"])
def test_cli_verify_decomposition_refuses_an_epsilon_that_is_not_positive(
        tmp_path, capsys, epsilon):
    mpath, prefix = str(tmp_path / "m.cmat"), str(tmp_path / "sw")
    main(["gen", "--kind", "skew-symmetric", "--dim", "6", "--seed", "2", "--out", mpath])
    assert main(["skew-wvn", mpath, "--epsilon", "1e-2", "--out-prefix", prefix]) == 0
    capsys.readouterr()
    assert main(["verify", mpath, "--decomp-prefix", prefix, f"--epsilon={epsilon}"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert f"error: epsilon must be positive, got {float(epsilon)}" in err
    # the norm of a given K admits p = inf
    assert main(["verify", mpath, "--decomp-prefix", prefix, "--epsilon", "1e-2",
                 "--p", "inf"]) == 0


def test_cli_verify_refuses_a_bad_budget_before_the_skew_line(tmp_path, capsys):
    # a usage error is exit 2 even on an input the skew line would fail
    spath, prefix = str(tmp_path / "s.cmat"), str(tmp_path / "z")
    cmatio.write_cmat(spath, np.array([[0.0, 1.0], [1.0, 0.0]]))
    for x in "KDU":
        cmatio.write_cmat(f"{prefix}.{x}.cmat", np.zeros((2, 2)))
    for given in ([], ["--decomp-prefix", prefix]):
        for budget in (["--epsilon", "0"], ["--epsilon", "1e-2", "--p", "1"]):
            assert main(["verify", spath, *given, *budget]) == 2
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("error: ")
    # --p inf stays valid for a given decomposition: the skew line runs
    assert main(["verify", spath, "--decomp-prefix", prefix, "--epsilon", "1e-2",
                 "--p", "inf"]) == 1
    assert capsys.readouterr().out.startswith("skew_symmetry FAIL")


@pytest.mark.parametrize("shift", [-600, 0, 600])
def test_cli_refuses_a_symmetric_input_at_every_scale(tmp_path, capsys, shift):
    mpath = str(tmp_path / "s.cmat")
    cmatio.write_cmat(mpath, np.array([[1.0, 2.0], [2.0, 3.0]]) * 2.0**shift)
    budget = ["--epsilon", repr(1e-2 * 2.0**shift)]
    for command, extra in (("youla", []), ("polar", []), ("wvn", budget),
                           ("skew-wvn", budget)):
        assert main([command, mpath, *extra, "--out-prefix", str(tmp_path / "o")]) == 2
        assert "skew-symmetric within tolerance" in capsys.readouterr().err
    assert not list(tmp_path.glob("o.*"))


def test_cli_maps_a_failed_allocation_to_exit_2(tmp_path, capsys):
    # both arrays lie beyond the 128 TiB user address space, so numpy fails
    # at once, whatever the overcommit setting, and no memory is touched
    out = tmp_path / "x.cmat"
    assert main(["gen", "--kind", "skew-symmetric", "--dim", str(10**9),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not out.exists()
    wide = tmp_path / "wide.cmat"
    wide.write_text(f"CMAT v1 1 {10**13}\n0,0\n")
    assert main(["verify", str(wide)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_cli_input_errors(tmp_path):
    bad = tmp_path / "bad.cmat"
    bad.write_text("CMAT v2 2 2\n0,0 0,0\n0,0 0,0\n")
    assert main(["verify", str(bad)]) == 2
    assert main(["verify", str(tmp_path / "missing.cmat")]) == 2
    assert main(["gen", "--kind", "skew-symmetric-rank", "--dim", "6",
                 "--rank", "3", "--out", str(tmp_path / "x.cmat")]) == 2


def test_cli_refuses_non_ascii_input(tmp_path, capsys):
    bad = tmp_path / "latin1.cmat"
    bad.write_bytes(b"CMAT v1 2 2\n0,0 1,0\n-1,0 0,\xe9\n")
    assert main(["verify", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "non-ASCII byte 0xe9 (line 3)" in err and "Traceback" not in err


@pytest.mark.parametrize("args", [
    ["--kind", "skew-symmetric", "--dim", "-3"],
    ["--kind", "skew-symmetric", "--dim", "0"],
    ["--kind", "skew-symmetric-rank", "--dim", "6", "--rank", "-2"],
    ["--kind", "skew-symmetric", "--dim", "6", "--seed", "-1"],
])
def test_cli_gen_refuses_out_of_range_arguments(tmp_path, capsys, args):
    out = tmp_path / "x.cmat"
    assert main(["gen", *args, "--out", str(out)]) == 2
    assert not out.exists() and "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("command, flag, value", [
    ("youla", "--tol", "nan"),
    ("youla", "--tol", "-1"),
    ("youla", "--tol", "inf"),
    ("youla", "--rank-tol", "nan"),
    ("youla", "--rank-tol", "-0.5"),
    ("skew-wvn", "--rank-tol", "2"),
    ("wvn", "--rank-tol", "1"),
    ("verify", "--tol", "nan"),
])
def test_cli_refuses_nonsense_tolerances(tmp_path, capsys, command, flag, value):
    mpath = str(tmp_path / "m.cmat")
    assert main(["gen", "--kind", "skew-symmetric", "--dim", "8", "--out", mpath]) == 0
    args = [command, mpath, flag, value]
    if command != "verify":
        args += ["--out-prefix", str(tmp_path / "o")]
    if command in ("wvn", "skew-wvn"):
        args += ["--epsilon", "1e-2"]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert f"{flag} must be" in err and "Traceback" not in err
    assert not (tmp_path / "o.report.txt").exists()


def test_cli_wvn_refuses_epsilon_at_the_roundoff_floor(tmp_path, capsys):
    path = tmp_path / "huge.cmat"
    cmatio.write_cmat(path, generate.gen("skew-symmetric", 16, None, 5) * 1e150)
    code = main(["wvn", str(path), "--epsilon", "1e-3", "--out-prefix", str(tmp_path / "o")])
    assert code == 2
    assert "roundoff floor" in capsys.readouterr().err


def test_cli_verify_refuses_epsilon_at_the_roundoff_floor_before_any_check(
        tmp_path, capsys, monkeypatch):
    # the floor needs only ||r||_p, so verify --epsilon tests it right after
    # the Youla form, ahead of the youla, polar and g lines
    ran = []
    for name in ("youla", "polar", "spectral_measure", "wvn"):
        monkeypatch.setattr(checks, name, lambda *args, name=name: ran.append(name))
    path = tmp_path / "huge.cmat"
    cmatio.write_cmat(path, generate.gen("skew-symmetric", 16, None, 1) * 1e150)
    assert main(["verify", str(path), "--epsilon", "1e-3"]) == 2
    out, err = capsys.readouterr()
    assert ran == [] and out == ""
    assert "error: epsilon 1.000e-03 is at or below the roundoff floor" in err


def test_cli_odd_kernel_exit(tmp_path):
    mpath = str(tmp_path / "odd.cmat")
    main(["gen", "--kind", "tau-skew-symmetric-with-kernel", "--dim", "5",
          "--rank", "4", "--out", mpath])
    assert main(["wvn", mpath, "--epsilon", "1e-2",
                 "--out-prefix", str(tmp_path / "o")]) == 2
    assert main(["verify", mpath]) == 2


def test_cli_usage_error_exit_code():
    with pytest.raises(SystemExit) as excinfo:
        cli.build_parser().parse_args(["wvn"])  # missing required args
    assert excinfo.value.code == 2


def test_cmat_rejects_non_finite_entries():
    for tok in ("nan,0", "0,inf", "-inf,1", "1e400,0"):
        with pytest.raises(ParseError) as excinfo:
            cmatio.parse_cmat(f"CMAT v1 2 2\n0,0 1,0\n{tok} 0,0\n")
        assert (excinfo.value.line, excinfo.value.column) == (3, 1)


def test_cli_non_finite_input_exit(tmp_path, capsys):
    bad = tmp_path / "nan.cmat"
    bad.write_text("CMAT v1 2 2\n0,0 nan,0\n-1,0 0,0\n")
    assert main(["verify", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "non-finite" in err and "(line 2, column 2)" in err
    assert "Traceback" not in err


def test_cli_wvn_near_degenerate_pair(tmp_path):
    # singular values 1 and 1 + 1e-6 leave a step perturbation of ~1e-6,
    # so A = K + D must hold with the returned sign of K, not A = D - K
    u = generate.random_unitary(np.random.default_rng(3), 8)
    m = u @ wvn.block_skew_matrix([2.0, 1.5, 1.0, 1.0 + 1e-6], 8) @ u.T
    mpath = str(tmp_path / "m.cmat")
    cmatio.write_cmat(mpath, m)
    prefix = str(tmp_path / "w")
    assert main(["wvn", mpath, "--epsilon", "1e-3", "--out-prefix", prefix]) == 0
    report = (tmp_path / "w.report.txt").read_text()
    assert "wvn_reconstruction PASS residual=0.0 " in report
    assert main(["verify", mpath, "--epsilon", "1e-3"]) == 0


def test_cli_power_of_two_scaled_input(tmp_path):
    # a generic input times 2^+-600 used to end in a ValueError traceback,
    # from a Gram matrix that overflowed or underflowed
    m = generate.gen("skew-symmetric", 32, None, 4)
    for shift in (600, -600):
        mpath = str(tmp_path / f"m{shift}.cmat")
        cmatio.write_cmat(mpath, m * 2.0**shift)
        eps = repr(1e-2 * 2.0**shift)
        prefix = str(tmp_path / f"sw{shift}")
        assert main(["youla", mpath, "--out-prefix", str(tmp_path / "y")]) == 0
        assert main(["polar", mpath, "--out-prefix", str(tmp_path / "p")]) == 0
        assert main(["skew-wvn", mpath, "--epsilon", eps, "--out-prefix", prefix]) == 0
        assert main(["verify", mpath, "--decomp-prefix", prefix, "--epsilon", eps]) == 0
        assert main(["verify", mpath]) == 0
    # at 2^-600 the WvN checks hold as well; at 2^+600 the absolute 1e-9
    # slack of wvn_weyl_stability is below the SVD's roundoff
    mpath = str(tmp_path / "m-600.cmat")
    eps = repr(1e-2 * 2.0**-600)
    assert main(["wvn", mpath, "--epsilon", eps, "--out-prefix", str(tmp_path / "w")]) == 0
    assert main(["verify", mpath, "--epsilon", eps]) == 0


def test_cli_kernel_heavy_input(tmp_path):
    # rank n/2 with a numerical kernel of dimension n/2: wvn used to raise
    # ConvergenceFailure on the roundoff spectrum of the leftover kernel
    mpath = str(tmp_path / "m.cmat")
    assert main(["gen", "--kind", "skew-symmetric-rank", "--dim", "64", "--rank", "32",
                 "--seed", "2", "--out", mpath]) == 0
    prefix = str(tmp_path / "w")
    assert main(["wvn", mpath, "--epsilon", "1e-2", "--out-prefix", prefix]) == 0
    assert main(["verify", mpath, "--epsilon", "1e-2"]) == 0
    sw = str(tmp_path / "sw")
    assert main(["skew-wvn", mpath, "--epsilon", "1e-2", "--out-prefix", sw]) == 0
    assert main(["verify", mpath, "--decomp-prefix", sw, "--epsilon", "1e-2"]) == 0


TOKENS = st.sampled_from(["0", "1", "-2.5", "1e-300", "3e200", "nan", "inf", "-inf", "1e400", ""])


@st.composite
def cmat_texts(draw):
    """CMAT bytes around an n x n matrix, n = 1 ... 6: skew or not, with
    nan/inf/overflowing tokens, a token or a line too many or too few, a
    header that disagrees, and non-ASCII bytes."""
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = random_complex(rng, n, n)
    if draw(st.booleans()):
        m = m - m.T
    rows = [[f"{float(z.real)!r},{float(z.imag)!r}" for z in row] for row in m]
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        rows[i][j] = f"{draw(TOKENS)},{draw(TOKENS)}"
    if draw(st.booleans()):
        i = draw(st.integers(0, n - 1))
        rows[i] = rows[i][1:] if draw(st.booleans()) else rows[i] + ["0,0"]
    head = f"CMAT v1 {n + draw(st.sampled_from([0, 0, 0, -1, 1]))} {n}"
    lines = [head] + [" ".join(r) for r in rows][: n - draw(st.sampled_from([0, 0, 1]))]
    data = bytearray(("\n".join(lines) + "\n").encode("ascii"))
    for _ in range(draw(st.integers(0, 2)) if draw(st.booleans()) else 0):
        data.insert(draw(st.integers(0, len(data))), draw(st.integers(0x80, 0xFF)))
    return bytes(data)


COMMANDS = [["verify"], ["verify", "--epsilon", "0.1"], ["youla"], ["polar"],
            ["wvn", "--epsilon", "0.1"], ["skew-wvn", "--epsilon", "0.1"]]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(cmat_texts(), st.sampled_from(COMMANDS))
def test_cli_exits_0_1_or_2_on_any_cmat_text(data, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.cmat"
        path.write_bytes(data)
        args = [command[0], str(path), *command[1:]]
        if command[0] != "verify":
            args += ["--out-prefix", str(Path(tmp) / "o")]
        assert main(args) in (0, 1, 2)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(cmat_texts())
def test_parse_cmat_matches_the_per_entry_parser(data):
    text = data.decode("latin-1")
    assert parse_outcome(cmatio.parse_cmat, text) == parse_outcome(per_entry_parse_cmat, text)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(generate.KINDS), st.integers(-3, 9),
       st.none() | st.integers(-3, 10), st.integers(-2, 2) | st.integers(0, 2**40))
def test_cli_gen_exits_0_or_2_on_any_arguments(kind, dim, rank, seed):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "g.cmat"
        args = ["gen", "--kind", kind, "--dim", str(dim), "--seed", str(seed), "--out", str(out)]
        code = main(args + ([] if rank is None else ["--rank", str(rank)]))
        assert code in (0, 2)
        if code == 0:
            assert cmatio.read_cmat(out).shape == (dim, dim)
