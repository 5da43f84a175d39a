import numpy as np
import pytest

from skewvn import cli, cmatio, generate, wvn
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


def test_cli_input_errors(tmp_path):
    bad = tmp_path / "bad.cmat"
    bad.write_text("CMAT v2 2 2\n0,0 0,0\n0,0 0,0\n")
    assert main(["verify", str(bad)]) == 2
    assert main(["verify", str(tmp_path / "missing.cmat")]) == 2
    assert main(["gen", "--kind", "skew-symmetric-rank", "--dim", "6",
                 "--rank", "3", "--out", str(tmp_path / "x.cmat")]) == 2


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
