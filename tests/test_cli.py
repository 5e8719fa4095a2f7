"""Command-line interface: formats, exit codes, determinism, round trips."""

import json
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

from fockmin import cli, fock, minimize, spectra, sturm

import rt2_spectra as oracle
from rt2 import mat_vec

SRC = Path(__file__).resolve().parents[1] / "src"


def run_capture(capsys, argv):
    code = cli.run(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestBlockCommand:
    def test_printed_matrix(self, capsys):
        code, out, _ = run_capture(capsys, ["block", "--j", "5", "--format", "json"])
        assert code == 0
        data = json.loads(out)
        # entry (0,0) equals (3/8)*45 as printed
        assert Fraction(data["entries"][0][0]) == Fraction(135, 8)
        assert Fraction(data["entries"][0][1]) == Fraction(-105, 8)

    def test_reduced_block_marks_border(self, capsys):
        code, out, _ = run_capture(
            capsys, ["block", "--j", "4", "--reduced", "--format", "json"]
        )
        assert code == 0
        data = json.loads(out)
        assert data["entries"][0][2].endswith("·√2")

    def test_pretty_output(self, capsys):
        code, out, _ = run_capture(capsys, ["block", "--j", "1"])
        assert code == 0
        assert "-1/8" in out


class TestCertifyCommand:
    def test_pass_lines_and_exit_code(self, capsys):
        code, out, _ = run_capture(capsys, ["certify", "--max-j", "40"])
        assert code == 0
        lines = [l for l in out.strip().split("\n")]
        assert len(lines) == 35  # j = 6..40
        assert all(" pass " in l for l in lines)


def oracle_transition(j):
    """The first n >= 2 where the closed form (j-2)!/(j-n)!·((j-2n)^2 - j)
    of the minor sequence is negative."""
    return next(n for n in range(2, j) if (j - 2 * n) ** 2 < j)


def test_oracle_transition_is_the_certificate_transition():
    for j in range(6, 401):
        cert = sturm.positivity_certificate(j)
        assert oracle_transition(j) == cert.transition_index, j


def oracle_certify(max_j, exact_max_j=200, eigs=True):
    """`certify` stdout assembled from the closed-form transition and the
    oracle's Rt2 build, reduction, matvec and float view."""
    lines = []
    for j in range(6, max_j + 1):
        checks = [f"sturm transition={oracle_transition(j)}"]
        if j <= exact_max_j:
            reduced = oracle.centro_decompose(oracle.build_B_block(j)).S
            v, w = oracle.null_vectors(j)
            assert not any(mat_vec(reduced.entries, v))
            assert not any(mat_vec(reduced.entries, w))
            checks.append("kernel=exact")
            if eigs:
                values = spectra.symmetric_eigenvalues(oracle.scaled_block(reduced))
                checks.append(f"min_eig={values[0]:.3e}")
        lines.append(f"j={j} pass " + " ".join(checks))
    return "\n".join(lines) + "\n"


class TestCertifyMatchesOracle:
    @pytest.mark.parametrize(
        "flags, kwargs",
        [
            ([], {}),
            (["--no-eigs"], {"eigs": False}),
            (["--exact-max-j", "20"], {"exact_max_j": 20}),
        ],
    )
    def test_stdout_byte_identical(self, capsys, flags, kwargs):
        code, out, _ = run_capture(capsys, ["certify", "--max-j", "40", *flags])
        assert code == 0
        assert out == oracle_certify(40, **kwargs)


class TestBlockMatchesOracle:
    @pytest.mark.parametrize("j", [*range(41), 97])
    def test_stdout_byte_identical(self, capsys, j):
        for decoupled in (False, True):
            for reduced in (False, True):
                for fmt in ("pretty", "json"):
                    argv = ["block", "--j", str(j), "--format", fmt]
                    argv += ["--E"] * decoupled + ["--reduced"] * reduced
                    code, out, _ = run_capture(capsys, argv)
                    assert code == 0
                    assert out == oracle.block_stdout(j, decoupled, reduced, fmt), argv


class TestUnwritableOut:
    """An --out path in a missing directory is a usage error, not a traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["block", "--j", "4"],
            ["certify", "--max-j", "8"],
            ["catalog", "--wave", "psi_b"],
            ["minimize", "--mu", "0.6", "--trunc", "12", "--restarts", "1"],
        ],
        ids=["block", "certify", "catalog", "minimize"],
    )
    def test_exit_one_with_error(self, tmp_path, argv):
        out = tmp_path / "missing" / "x.json"
        done = subprocess.run(
            [sys.executable, "-m", "fockmin.cli", *argv, "--out", str(out)],
            capture_output=True,
            text=True,
            timeout=120,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
        assert done.returncode == 1
        assert done.stderr.startswith("error: cannot write ")
        assert "Traceback" not in done.stderr
        assert not out.parent.exists()


class TestCatalogRoundTrip:
    def test_catalog_then_functionals(self, capsys, tmp_path):
        path = str(tmp_path / "psi.json")
        code, _, _ = run_capture(
            capsys,
            ["catalog", "--wave", "psi_b", "--b", "1.0", "--trunc", "64", "--out", path],
        )
        assert code == 0
        code, out, _ = run_capture(
            capsys, ["functionals", "--in", path, "--mu", "0.3", "--format", "json"]
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["M"] == pytest.approx(1.0, abs=1e-12)
        assert abs(complex(*rep["Q"])) <= 1e-12
        assert rep["G"] == pytest.approx(0.95, abs=1e-12)

    def test_zeros_subcommand(self, capsys, tmp_path):
        path = str(tmp_path / "psi.json")
        run_capture(
            capsys,
            ["catalog", "--wave", "psi_b", "--b", "1.0", "--trunc", "64", "--out", path],
        )
        code, out, _ = run_capture(
            capsys, ["zeros", "--in", path, "--R", "2.0", "--format", "json"]
        )
        assert code == 0
        data = json.loads(out)
        assert data["count"] == 1
        assert data["roots"][0][0] == pytest.approx(1.5, abs=1e-9)


class TestMinimizeCommand:
    def test_minimize_json(self, capsys):
        code, out, _ = run_capture(
            capsys,
            [
                "minimize",
                "--mu",
                "0.8",
                "--trunc",
                "16",
                "--restarts",
                "2",
                "--format",
                "json",
            ],
        )
        assert code == 0
        data = json.loads(out)
        assert data["class"] == "phi0"
        assert data["G"] == pytest.approx(1.0, abs=1e-8)

    def test_scan_csv_deterministic(self, capsys, tmp_path):
        argv = [
            "scan",
            "--from",
            "0.6",
            "--to",
            "0.8",
            "--step",
            "0.1",
            "--trunc",
            "16",
            "--restarts",
            "2",
        ]
        code, out1, _ = run_capture(capsys, argv)
        assert code == 0
        code, out2, _ = run_capture(capsys, argv)
        assert out1 == out2
        lines = out1.strip().split("\n")
        assert lines[0].startswith("mu,G_min")
        assert len(lines) == 4

    def test_scan_past_truncation_300(self, capsys):
        # sqrt(n!) overflows at n = 301: the catalog starts and the zero
        # count once failed there, and this scan exited 1
        argv = ["scan", "--from", "0.1", "--to", "0.7", "--step", "0.3"]
        code, small, _ = run_capture(capsys, argv)
        assert code == 0
        header, *rows = small.strip().split("\n")
        for trunc in ("384", "768"):
            code, large, err = run_capture(capsys, argv + ["--trunc", trunc])
            assert (code, err) == (0, "")
            assert large.strip().split("\n")[0] == header
            for row, ref in zip(large.strip().split("\n")[1:], rows, strict=True):
                got, want = row.split(","), ref.split(",")
                assert float(got[1]) == pytest.approx(float(want[1]), abs=1e-12)
                assert got[5] == want[5]  # class
                assert got[7] == want[7]  # n_zeros

    def test_semiclassical_pretty(self, capsys):
        code, out, _ = run_capture(
            capsys, ["semiclassical", "--Na", "12.5", "--h", "0.4"]
        )
        assert code == 0
        assert "regime" in out


class TestErrorPaths:
    def test_usage_error_exits_one(self, capsys):
        assert cli.run(["block"]) == 1
        assert cli.run(["no-such-command"]) == 1
        assert cli.run([]) == 1

    def test_unknown_flag_rejected(self, capsys):
        assert cli.run(["block", "--j", "3", "--bogus"]) == 1

    def test_bad_mu_is_usage_error(self, capsys):
        assert cli.run(["minimize", "--mu", "-1.0", "--trunc", "16"]) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["minimize", "--mu", "nan", "--trunc", "16"], id="mu-nan"),
            pytest.param(["semiclassical", "--Na", "nan", "--h", "0.5"], id="Na-nan"),
            pytest.param(["semiclassical", "--Na", "inf", "--h", "0.5"], id="Na-inf"),
        ],
    )
    def test_non_finite_parameter_is_usage_error(self, capsys, argv):
        code, out, err = run_capture(capsys, argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("width", ["0", "-0.001", "nan"])
    def test_mu0_bad_width_is_usage_error(self, capsys, monkeypatch, width):
        def no_solve(*args, **kwargs):
            raise AssertionError("minimization reached with an invalid width")

        # a regression fails here instead of bisecting forever
        monkeypatch.setattr(minimize, "_phi1_is_global", no_solve)
        code, out, err = run_capture(capsys, ["mu0", "--width", width])
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "argv, message",
        [
            pytest.param(
                ["minimize", "--mu", "-1e-3", "--trunc", "16"],
                "error: the coupling mu must be strictly positive",
                id="mu-exponent",
            ),
            pytest.param(
                ["minimize", "--mu", "-inf", "--trunc", "16"],
                "error: the coupling mu must be finite, got -inf",
                id="mu-minus-inf",
            ),
            pytest.param(
                ["mu0", "--width", "-1e-3"],
                "error: the bracket width must be positive and finite, got -0.001",
                id="width-exponent",
            ),
            pytest.param(
                ["mu0", "--width", "-Infinity"],
                "error: the bracket width must be positive and finite, got -inf",
                id="width-minus-infinity",
            ),
        ],
    )
    def test_negative_number_reaches_parameter_check(
        self, capsys, monkeypatch, argv, message
    ):
        def no_solve(*args, **kwargs):
            raise AssertionError("minimization reached with an invalid parameter")

        monkeypatch.setattr(minimize, "_descend", no_solve)
        code, out, err = run_capture(capsys, argv)
        assert code == 1
        assert out == ""
        assert err.strip() == message

    @pytest.mark.parametrize(
        "token", ["-1e-3", "-2.5E+2", "-.5e1", "-5.", "-1_000", "-inf", "-nan"]
    )
    def test_negative_number_tokens_are_values(self, token):
        args = cli.build_parser().parse_args(["minimize", "--mu", token])
        assert math.isnan(args.mu) if "nan" in token else args.mu == float(token)

    def test_negative_iteration_budget_is_usage_error(self, capsys):
        argv = ["minimize", "--mu", "0.5", "--trunc", "16", "--max-iters", "-5"]
        code, out, err = run_capture(capsys, argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error:")
        assert "iteration budget" in err

    def test_minimize_builds_only_the_starts_it_runs(self, capsys):
        argv = ["minimize", "--mu", "0.7", "--trunc", "8", "--restarts", "1"]
        code, out, err = run_capture(capsys, argv)
        assert code == 0
        assert "class = phi0\n" in out
        assert err == ""

    def test_out_of_memory_is_usage_error(self, capsys, monkeypatch):
        # the kernel build is made to fail as numpy does at this truncation,
        # without allocating
        message = (
            "Unable to allocate 7.28 TiB for an array with shape "
            "(1000001, 1000001) and data type float64"
        )

        def no_room(self, truncation):
            raise MemoryError(message)

        monkeypatch.setattr(fock.EnergyKernel, "__init__", no_room)
        code, out, err = run_capture(
            capsys, ["minimize", "--mu", "0.3", "--trunc", "1000000", "--restarts", "1"]
        )
        assert code == 1
        assert out == ""
        assert err == f"error: out of memory: {message}\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            pytest.param(
                ["--wave", "equality", "--c-re", "1e200"],
                "coefficients must be finite",
                id="equality",
            ),
            pytest.param(
                ["--wave", "phi_n_alpha", "--alpha-re", "1e10"],
                "coefficients must be finite",
                id="phi_n_alpha",
            ),
            # a_0 = 1e160 is finite, its square is not
            pytest.param(
                ["--wave", "equality", "--a0-re", "1e160", "--trunc", "8"],
                "mass sum |a_k|^2 overflows double precision",
                id="equality-mass",
            ),
        ],
    )
    def test_catalog_overflow_is_one_error_line(self, capsys, tmp_path, argv, message):
        # numpy's overflow warnings would come first; under "error" they
        # escape as exceptions instead
        out_path = tmp_path / "state.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_capture(
                capsys, ["catalog", *argv, "--out", str(out_path)]
            )
        assert code == 1
        assert out == ""
        assert err == f"error: {message}\n"
        assert not out_path.exists()

    def test_bad_coefficient_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"truncation": 2, "coeffs": [[1, 0]]}')
        assert cli.run(["functionals", "--in", str(path), "--mu", "0.5"]) == 1

    @pytest.mark.parametrize("max_j", ["5", "-3"])
    def test_certify_without_blocks_is_usage_error(self, capsys, max_j):
        code, out, err = run_capture(capsys, ["certify", "--max-j", max_j])
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("step", ["0", "-0.1"])
    def test_scan_nonpositive_step_is_usage_error(self, capsys, monkeypatch, step):
        def no_solve(*args, **kwargs):
            raise AssertionError("scan_mu reached with an invalid step")

        monkeypatch.setattr(minimize, "scan_mu", no_solve)
        # --from above --to keeps the grid loop from running even if the
        # step went unchecked, so a regression fails instead of hanging
        argv = ["scan", "--from", "0.7", "--to", "0.1", "--step", step]
        code, out, err = run_capture(capsys, argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "bounds",
        [
            pytest.param(("0.5", "0.1"), id="from-above-to"),
            pytest.param(("nan", "1"), id="from-nan"),
            pytest.param(("0.1", "nan"), id="to-nan"),
        ],
    )
    def test_scan_without_grid_is_usage_error(self, capsys, monkeypatch, bounds):
        def no_solve(*args, **kwargs):
            raise AssertionError("scan_mu reached without a grid")

        monkeypatch.setattr(minimize, "scan_mu", no_solve)
        argv = ["scan", "--from", bounds[0], "--to", bounds[1], "--step", "0.1"]
        code, out, err = run_capture(capsys, argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["--step", "1e-20"], id="step-below-float-spacing"),
            pytest.param(["--from", "0.7", "--step", "1e-20"], id="single-point-stuck"),
            pytest.param(["--step", "2e-16"], id="step-too-many-points"),
            pytest.param(["--from", "-1e300", "--step", "0.3"], id="negative-from"),
            pytest.param(["--from", "0", "--step", "0.3"], id="zero-from"),
        ],
    )
    def test_scan_unusable_grid_is_usage_error(self, argv):
        # The parent's grid loop never ended on these inputs, so the child
        # caps its own address space and the run is timed out: a regression
        # fails with a MemoryError traceback or a timeout instead of hanging.
        argv = ["scan", "--from", "0.1", "--to", "0.7"] + argv
        code = (
            "import resource, sys\n"
            "from fockmin import cli, minimize\n"
            "def no_solve(*args, **kwargs):\n"
            "    raise AssertionError('scan_mu reached with an unusable grid')\n"
            "minimize.scan_mu = no_solve\n"
            "limit = 512 * 2**20\n"
            "resource.setrlimit(resource.RLIMIT_AS, (limit, limit))\n"
            f"sys.exit(cli.run({argv!r}))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("error:")

    @pytest.mark.parametrize(
        "bounds, step",
        [
            (("0.1", "0.7"), "0.3"),
            (("0.1", "0.2"), "0.01"),
            (("0.05", "0.95"), "0.1"),
            (("0.7", "0.7"), "1"),
            (("1e-6", "1e-5"), "1e-6"),
        ],
    )
    def test_scan_grid_unchanged(self, capsys, monkeypatch, bounds, step):
        start, stop, inc = float(bounds[0]), float(bounds[1]), float(step)
        expected, mu = [], start
        while mu <= stop + 1e-12:
            expected.append(round(mu, 12))
            mu += inc
        seen = []

        def record(grid, config):
            seen.append(grid)
            return []

        monkeypatch.setattr(minimize, "scan_mu", record)
        argv = ["scan", "--from", bounds[0], "--to", bounds[1], "--step", step]
        code, _, _ = run_capture(capsys, argv)
        assert code == 0
        assert seen == [expected]

    @pytest.mark.parametrize("radius", ["nan", "inf", "-1", "-1e-3"])
    def test_zeros_bad_radius_is_usage_error(self, capsys, tmp_path, radius):
        path = str(tmp_path / "phi1.json")
        fock.save_coefficients(fock.catalog_coefficients(fock.PhiN(1), 8), path)
        code, out, err = run_capture(capsys, ["zeros", "--in", path, "--R", radius])
        assert code == 1
        assert out == ""
        assert err.startswith("error:")
        assert "radius" in err

    @pytest.mark.parametrize("mu", ["nan", "inf", "-inf"])
    def test_functionals_non_finite_mu_is_usage_error(self, capsys, tmp_path, mu):
        path = str(tmp_path / "phi1.json")
        fock.save_coefficients(fock.catalog_coefficients(fock.PhiN(1), 8), path)
        argv = ["functionals", "--in", path, "--mu", mu]
        code, out, err = run_capture(capsys, argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: the coupling mu must be finite")

    @pytest.mark.parametrize(
        "content",
        [
            pytest.param('{"truncation": 1, "coeffs": [[1, 0], [0]]}', id="short-pair"),
            pytest.param('{"truncation": 1, "coeffs": [[1, 0], [0, 0]', id="bad-json"),
            pytest.param(None, id="missing-file"),
            pytest.param(
                '{"truncation": 1, "coeffs": [[1e160, 0], [0, 0]]}', id="mass-overflow"
            ),
        ],
    )
    def test_malformed_coefficient_file(self, capsys, tmp_path, content):
        path = tmp_path / "state.json"
        if content is not None:
            path.write_text(content)
        for argv in (["functionals", "--mu", "0.5"], ["zeros"]):
            code, out, err = run_capture(capsys, argv + ["--in", str(path)])
            assert code == 1
            assert out == ""
            assert err.startswith("error:")

    @pytest.mark.parametrize(
        "content",
        [
            pytest.param('{"truncation": -1, "coeffs": []}', id="negative-empty"),
            pytest.param(
                '{"truncation": 2.7, "coeffs": [[1, 0], [0, 0], [0, 0]]}',
                id="float",
            ),
            pytest.param('{"truncation": true, "coeffs": [[1, 0], [0, 0]]}', id="bool"),
            pytest.param(
                '{"truncation": "1", "coeffs": [[1, 0], [0, 0]]}', id="string"
            ),
        ],
    )
    def test_truncation_must_be_a_non_negative_integer(self, tmp_path, content):
        # in a child process, so an uncaught exception shows as a traceback
        path = tmp_path / "state.json"
        path.write_text(content)
        env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
        argv = ["functionals", "--in", str(path), "--mu", "0.3"]
        proc = subprocess.run(
            [sys.executable, "-m", "fockmin.cli", *argv],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("error:")
        assert "truncation" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestModuleEntryPoint:
    def test_python_m_runs_main(self):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, "-m", "fockmin.cli", "block", "--j", "1"],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("B^(1), order 2\n")
        assert "-1/8" in proc.stdout
