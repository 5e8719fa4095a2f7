"""Command-line interface: formats, exit codes, determinism, round trips."""

import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

from fockmin import cli, fock, minimize, spectra, sturm
from fockmin.errors import TruncationTooSmall

import rt2_spectra as oracle
from rt2 import mat_vec

SRC = Path(__file__).resolve().parents[1] / "src"

# the most restarts of 49 modes (N = 48) that one descent stack takes
AT_CAP = minimize.MAX_DESCENT_ENTRIES // 49


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


class TestStdoutGoldens:
    """sha256 of the UTF-8 stdout, captured before the blocks were kept as
    their bands: the band arithmetic must print the same bytes."""

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                ["certify", "--max-j", "300", "--exact-max-j", "300"],
                "9951b93f5d5f33c5ec70e38d0578ff79ef32eb9d653b69cd9683e129541cf433",
            ),
            (
                ["block", "--j", "60", "--reduced"],
                "fca5e791fb87ea4702479631029db7a73a4bcabbaba21c65692ea44e51cab46e",
            ),
            (
                ["block", "--j", "61", "--E", "--reduced"],
                "82a27db25ea09c39e89ab26a743a1d5423b0d17dd142a28bf16a46a072ec8319",
            ),
            (
                ["block", "--j", "60"],
                "4cf2548417dca6f7ad0668576d4b12f23070706576c30a2944495de42d689aa9",
            ),
        ],
        ids=["certify-300-exact", "block-60-reduced", "block-61-E-reduced", "block-60"],
    )
    def test_stdout_digest(self, capsys, argv, digest):
        code, out, err = run_capture(capsys, argv)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


class TestCertifyBandMutation:
    """One band entry changed at one block fails that block's certificate:
    a palindromic change through the kernel check, any other through the
    fold's centrosymmetry check."""

    KERNEL = "kernel vectors not annihilated at j={}"
    MIRROR = "{} entry {} of block {} differs from its mirror {}"

    @pytest.mark.parametrize(
        "j, field, k, mirrored, reason",
        [
            # odd j: the diagonal has no centre, the off-diagonal's is entry 4
            (9, "diagonal", 2, False, MIRROR.format("diagonal", 2, 9, 7)),
            (9, "diagonal", 2, True, KERNEL.format(9)),
            (9, "off_diagonal", 4, False, KERNEL.format(9)),
            (9, "off_diagonal", 1, False, MIRROR.format("off-diagonal", 1, 9, 7)),
            # even j: the diagonal's centre is entry 5, the off-diagonal has none
            (10, "diagonal", 5, False, KERNEL.format(10)),
            (10, "diagonal", 0, False, MIRROR.format("diagonal", 0, 10, 10)),
            (10, "off_diagonal", 3, False, MIRROR.format("off-diagonal", 3, 10, 6)),
            (10, "off_diagonal", 3, True, KERNEL.format(10)),
        ],
    )
    def test_one_changed_entry_fails(
        self, capsys, monkeypatch, j, field, k, mirrored, reason
    ):
        build = spectra.build_B_block

        def mutated_block(index, **kwargs):
            block = build(index, **kwargs)
            if index != j:
                return block
            entries = list(getattr(block, field))
            entries[k] += 1
            if mirrored:
                entries[len(entries) - 1 - k] += 1
            return dataclasses.replace(block, **{field: tuple(entries)})

        monkeypatch.setattr(spectra, "build_B_block", mutated_block)
        code, out, err = run_capture(capsys, ["certify", "--max-j", "12"])
        assert (code, err) == (2, "")
        lines = out.splitlines()
        assert len(lines) == 7  # j = 6 .. 12
        for line in lines:
            if line.startswith(f"j={j} "):
                assert line == f"j={j} FAIL ({reason}) "
            else:
                assert " pass " in line and "kernel=exact" in line


class TestCertifyEigenvalueTolerance:
    """A scaled block whose smallest eigenvalue is -1e-6 times its norm, far
    above rounding, fails the 1e-10 tolerance; a looser tolerance, such as
    1e-3, would pass it."""

    @pytest.mark.parametrize("j", [9, 12])
    def test_slightly_indefinite_block_fails(self, capsys, monkeypatch, j):
        # the blocks reach the eigenvalue call in order from j = 6
        eigenvalues = spectra.symmetric_eigenvalues
        calls = []

        def planted(matrix):
            eigs = eigenvalues(matrix)
            calls.append(None)
            if len(calls) == j - 5:
                eigs = eigs.copy()
                eigs[0] = -1e-6 * max(abs(eigs[0]), abs(eigs[-1]))
            return eigs

        monkeypatch.setattr(cli.spectra, "symmetric_eigenvalues", planted)
        code, out, err = run_capture(capsys, ["certify", "--max-j", "12"])
        assert (code, err) == (2, "")
        lines = out.splitlines()
        assert len(calls) == len(lines) == 7  # j = 6 .. 12
        for line in lines:
            if line.startswith(f"j={j} "):
                assert line == f"j={j} FAIL (scaled reduced block indefinite at j={j}) "
            else:
                assert " pass " in line and "min_eig=" in line


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

    def test_translated_catalog_past_truncation_1030(self, capsys, tmp_path):
        # the Laguerre matrix turned NaN past size ~1030; the generator does not
        path = str(tmp_path / "t.json")
        argv = ["catalog", "--wave", "phi_n_alpha", "--alpha-re", "0.5"]
        code, _, err = run_capture(capsys, argv + ["--trunc", "1100", "--out", path])
        assert (code, err) == (0, "")
        u = fock.load_coefficients(path)
        assert fock.mass(u) == pytest.approx(1.0, abs=1e-13)
        assert fock.magnetic_momentum(u) == pytest.approx(0.5, abs=1e-13)

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
        # count once failed there, and this scan exited 1; past N ~ 1030
        # the Laguerre translation matrix did
        argv = ["scan", "--from", "0.1", "--to", "0.7", "--step", "0.3"]
        code, small, _ = run_capture(capsys, argv)
        assert code == 0
        header, *rows = small.strip().split("\n")
        for trunc in ("384", "768", "1536"):
            try:
                code, large, err = run_capture(capsys, argv + ["--trunc", trunc])
            finally:
                fock.energy_kernel.cache_clear()  # N = 1536 holds ~250 MiB
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


MINIMIZE_RECORD = {
    "mu": "0.8", "G": "1.0", "P": "0.0", "Qabs": "0.0", "H": "0.039788735772973836",
    "lagrange_residual": "0.0", "converged": ("true", "True"), "iterations": "0",
    "restart_index": "0", "class": ('"phi0"', "phi0"), "overlap": "1.0",
    "b_fit": ("null", "None"), "n_zeros": "0", "zero_radius": "6.0",
}
FUNCTIONALS_RECORD = {
    "mu": "0.3", "M": "1.0", "P": "3.0", "Q": "[0.0, 0.0]",
    "H": "0.012433979929054326", "B": "0.40625", "E": "0.40625", "G": "1.2125",
    "F": "0.21249999999999997",
}
SEMICLASSICAL_RECORD = {
    "h": "0.4", "Na": "12.5", "mu_eff": "0.19148755221880645",
    "h_at_half": "0.5763311315694174", "h_at_5_32": "0.3667661568615707",
    "E_phi0": "2.488908628081126", "E_phi1": "1.8444543140405631",
    "regime": ('"first-excited-window"', "first-excited-window"),
}


def _golden(record, fmt):
    """The stdout of a record: a (json, pretty) pair spells a value that
    the two formats print differently."""
    def spell(value):
        return value if isinstance(value, str) else value[fmt == "pretty"]

    if fmt == "json":
        return "{" + ", ".join(f'"{k}": {spell(v)}' for k, v in record.items()) + "}\n"
    return "".join(f"{k} = {spell(v)}\n" for k, v in record.items())


class TestRecordOutput:
    """`functionals`, `minimize` and `semiclassical` print one record, as a
    JSON line or as `key = value` lines, byte for byte."""

    @pytest.mark.parametrize("fmt", ["json", "pretty"])
    def test_functionals(self, capsys, tmp_path, fmt):
        path = str(tmp_path / "phi3.json")
        fock.save_coefficients(fock.catalog_coefficients(fock.PhiN(3), 8), path)
        argv = ["functionals", "--in", path, "--mu", "0.3", "--format", fmt]
        assert run_capture(capsys, argv) == (0, _golden(FUNCTIONALS_RECORD, fmt), "")

    @pytest.mark.parametrize("fmt", ["json", "pretty"])
    def test_minimize(self, capsys, fmt):
        argv = ["minimize", "--mu", "0.8", "--trunc", "24", "--restarts", "3"]
        golden = _golden(MINIMIZE_RECORD, fmt)
        assert run_capture(capsys, [*argv, "--format", fmt]) == (0, golden, "")

    @pytest.mark.parametrize("fmt", ["json", "pretty"])
    def test_minimize_out_file(self, capsys, tmp_path, fmt):
        out = tmp_path / "min.txt"
        argv = ["minimize", "--mu", "0.8", "--trunc", "24", "--restarts", "3"]
        assert run_capture(capsys, [*argv, "--format", fmt, "--out", str(out)]) == (
            0, "", "",
        )
        assert out.read_text() == _golden(MINIMIZE_RECORD, fmt)

    @pytest.mark.parametrize("fmt", ["json", "pretty"])
    def test_semiclassical(self, capsys, fmt):
        argv = ["semiclassical", "--Na", "12.5", "--h", "0.4", "--format", fmt]
        assert run_capture(capsys, argv) == (0, _golden(SEMICLASSICAL_RECORD, fmt), "")


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

    @pytest.mark.parametrize(
        "argv",
        [
            ["minimize", "--mu", "0.1"],
            ["minimize", "--mu", "0.1", "--restarts", "5"],  # draws no random start
            ["scan", "--from", "0.1", "--to", "0.7", "--step", "0.3"],
            ["mu0"],
        ],
        ids=["minimize", "minimize-named-starts", "scan", "mu0"],
    )
    def test_negative_seed_is_usage_error(self, capsys, monkeypatch, argv):
        def no_solve(*args, **kwargs):
            raise AssertionError("descent reached with a negative seed")

        monkeypatch.setattr(minimize, "_descend", no_solve)
        code, out, err = run_capture(capsys, ["--seed", "-1", *argv])
        assert (code, out) == (1, "")
        assert err == "error: the seed must be non-negative, got -1\n"

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

    @pytest.mark.parametrize(
        "argv",
        [
            ["minimize", "--mu", "0.3", "--trunc", "8"],
            ["minimize", "--mu", "0.3", "--trunc", "11", "--restarts", "3"],
            ["scan", "--from", "0.1", "--to", "0.4", "--step", "0.3", "--trunc", "10"],
            ["mu0", "--trunc", "8"],
        ],
        ids=["minimize-8", "minimize-11-3-restarts", "scan-10", "mu0-8"],
    )
    def test_named_start_past_the_truncation_is_usage_error(
        self, capsys, monkeypatch, argv
    ):
        # restart 2, psi_b at b = 1, needs N >= 12: the run stops before any
        # descent with one line that names it and the restarts that fit
        def no_descent(*args, **kwargs):
            raise AssertionError("descent reached with a start that does not fit")

        monkeypatch.setattr(minimize, "_descend", no_descent)
        code, out, err = run_capture(capsys, argv)
        assert code == 1
        assert out == ""
        trunc = argv[argv.index("--trunc") + 1]
        assert err == (
            f"error: restart 2 starts from PsiB(b=1.0), which needs truncation "
            f">= 12, got {trunc}; --restarts 2 fits\n"
        )

    def test_named_start_floors_are_the_catalog_floors(self):
        # the smallest truncation of each named start, as the --trunc help
        # states them for restart 2, and the first truncation that holds it
        floors = [minimize._truncation_floor(spec) for spec in minimize._NAMED_STARTS]
        assert floors == [0, 1, 12, 11, 10]
        for spec, floor in zip(minimize._NAMED_STARTS[2:], floors[2:]):
            fock.catalog_coefficients(spec, floor)
            with pytest.raises(TruncationTooSmall):
                fock.catalog_coefficients(spec, floor - 1)
        assert "(12 with more than 2 restarts" in cli._TRUNC_HELP

    def test_twelve_modes_hold_every_named_start(self, capsys):
        argv = ["minimize", "--mu", "0.7", "--trunc", "12", "--restarts", "5"]
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
                "translation by |alpha| = 1.000e+10 exceeds 2 sqrt(128) = "
                "2.263e+01: truncation 64 plus 64 padding modes cannot hold it",
                id="phi_n_alpha",
            ),
            pytest.param(
                ["--wave", "phi_n_alpha", "--alpha-re", "1e300"],
                "translation by |alpha| = 1.000e+300 exceeds 2 sqrt(128) = "
                "2.263e+01: truncation 64 plus 64 padding modes cannot hold it",
                id="phi_n_alpha-1e300",
            ),
            pytest.param(
                ["--wave", "phi_n_alpha", "--alpha-re", "nan"],
                "the translation must be finite, got (nan+0j)",
                id="phi_n_alpha-nan",
            ),
            # a_0 = 1e160 is finite, its square is not
            pytest.param(
                ["--wave", "equality", "--a0-re", "1e160", "--trunc", "8"],
                "mass sum |a_k|^2 overflows double precision",
                id="equality-mass",
            ),
            # the mass 1e300 is finite, its square is not
            pytest.param(
                ["--wave", "equality", "--a0-re", "1e150", "--trunc", "8"],
                "mass 1.000e+300 is too large: (N + 1) M^2 overflows double precision",
                id="equality-square",
            ),
        ],
    )
    def test_catalog_overflow_is_one_error_line(self, capsys, tmp_path, argv, message):
        # numpy's overflow warnings would come first; under "error" they
        # escape as exceptions instead.  A translation's step count grows
        # with |alpha|, so its bound must be checked before the first step.
        out_path = tmp_path / "state.json"
        start = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_capture(
                capsys, ["catalog", *argv, "--out", str(out_path)]
            )
        assert time.perf_counter() - start < 1.0
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

    @pytest.mark.parametrize(
        "bounds, step",
        [
            pytest.param(("0.1", "0.1000000000003"), "1e-13", id="repeated-couplings"),
            pytest.param(("1e-13", "3e-13"), "1e-13", id="rounds-to-zero"),
            pytest.param(("0.1", "0.1000000000011"), "5e-13", id="merged-pair"),
        ],
    )
    def test_scan_finer_than_the_grid_resolution_is_usage_error(
        self, capsys, monkeypatch, bounds, step
    ):
        # the grid rounds each coupling to 12 decimals: a step or a --from
        # finer than that would repeat couplings or round one to 0, and is
        # refused before any descent
        def no_solve(*args, **kwargs):
            raise AssertionError("scan_mu reached with a grid finer than 1e-12")

        monkeypatch.setattr(minimize, "scan_mu", no_solve)
        argv = ["scan", "--from", bounds[0], "--to", bounds[1], "--step", step]
        code, out, err = run_capture(capsys, argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "1e-12 resolution" in err

    @pytest.mark.parametrize("radius", ["nan", "inf", "-1", "-1e-3"])
    def test_zeros_bad_radius_is_usage_error(self, capsys, tmp_path, radius):
        path = str(tmp_path / "phi1.json")
        fock.save_coefficients(fock.catalog_coefficients(fock.PhiN(1), 8), path)
        code, out, err = run_capture(capsys, ["zeros", "--in", path, "--R", radius])
        assert code == 1
        assert out == ""
        assert err.startswith("error:")
        assert "radius" in err

    def test_functionals_overflowing_coupling_is_usage_error(self, capsys, tmp_path):
        # mu P overflows: G and F would print as inf
        path = str(tmp_path / "phi3.json")
        fock.save_coefficients(fock.catalog_coefficients(fock.PhiN(3), 8), path)
        argv = ["functionals", "--in", path, "--mu", "1e308"]
        code, out, err = run_capture(capsys, argv)
        assert code == 1
        assert out == ""
        assert err == (
            "error: the coupling mu 1.000e+308 is too large in magnitude for this "
            "state: G and F would not be finite in double precision\n"
        )

    def test_functionals_underflowing_mass_is_usage_error(self, capsys, tmp_path):
        # every coefficient is 1e-320, so each |a_k|^2 underflows and the
        # report would read M = 0.0 ... G = 0.0; both commands refuse it
        path = str(tmp_path / "tiny.json")
        argv = ["catalog", "--wave", "equality", "--a0-re", "1e-320"]
        argv += ["--a1-re", "1e-320", "--c-re", "1e-320", "--out", path]
        assert cli.run(argv) == 0
        assert any(c != 0 for c in fock.load_coefficients(path).coeffs)
        argv = ["functionals", "--in", path, "--mu", "0.3"]
        code, out, err = run_capture(capsys, argv)
        assert (code, out) == (1, "")
        assert err == (
            "error: the state's mass 0.000e+00 is below the smallest normal "
            "double (2.225e-308): its functionals would print as zero\n"
        )
        code, out, err = run_capture(capsys, ["zeros", "--in", path])
        assert (code, out) == (1, "")
        assert err == "error: all coefficients are numerically zero\n"

    @pytest.mark.parametrize(
        "argv, mu_eff",
        [
            # h^2 = 1e-320 is subnormal, with about ten significant bits
            (["--Na", "1e-20", "--h", "1e-160"], "1.2566370614359174e-299"),
            # Na is subnormal and mu_eff is near the top of the range
            (["--Na", "1e-320", "--h", "1e-10"], "1.256651051502505e+301"),
        ],
    )
    def test_semiclassical_mu_eff_at_the_ends_of_the_range(self, capsys, argv, mu_eff):
        code, out, err = run_capture(capsys, ["semiclassical", *argv])
        assert (code, err) == (0, "")
        assert f"\nmu_eff = {mu_eff}\n" in out

    @pytest.mark.parametrize(
        "argv, problem",
        [
            pytest.param(
                ["--Na", "1", "--h", "1e-320"],
                "E_phi0 and E_phi1 would not be finite in double precision",
                id="h",
            ),
            pytest.param(
                ["--Na", "1e-320", "--h", "0.5"],
                "mu_eff would not be finite in double precision",
                id="Na",
            ),
            # h^2 underflows: mu_eff, about 1.3e-339, would print as 0.0
            pytest.param(
                ["--Na", "1", "--h", "1e-170"],
                "mu_eff would be below the smallest normal double (2.225e-308)",
                id="h-underflow",
            ),
        ],
    )
    def test_semiclassical_non_finite_report_is_usage_error(self, capsys, argv, problem):
        code, out, err = run_capture(capsys, ["semiclassical", *argv])
        assert code == 1
        assert out == ""
        assert err.startswith("error: Na = ")
        assert err.endswith(f" are out of range: {problem}\n")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("j", [201, 100000])
    def test_block_index_above_the_cap_is_usage_error(self, capsys, monkeypatch, j):
        def no_build(*args, **kwargs):
            raise AssertionError("block built past the cap")

        monkeypatch.setattr(spectra, "build_B_block", no_build)
        code, out, err = run_capture(capsys, ["block", "--j", str(j)])
        assert (code, out) == (1, "")
        assert err == (
            f"error: --j must be at most 200, got {j}: the dump grows as about "
            "2 j^3 bytes\n"
        )

    @pytest.mark.parametrize("trunc", [250001, 100000000])
    def test_catalog_truncation_above_the_cap_is_usage_error(
        self, capsys, monkeypatch, tmp_path, trunc
    ):
        def no_expand(*args, **kwargs):
            raise AssertionError("catalog expanded past the cap")

        monkeypatch.setattr(fock, "catalog_coefficients", no_expand)
        out_path = tmp_path / "x.json"
        argv = ["catalog", "--wave", "phi_n", "--n", "0", "--trunc", str(trunc)]
        start = time.perf_counter()
        code, out, err = run_capture(capsys, [*argv, "--out", str(out_path)])
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (1, "")
        assert err == (
            f"error: --trunc must be at most 250000, got {trunc}: the file "
            "holds up to 54 bytes per coefficient\n"
        )
        assert not out_path.exists()

    def test_catalog_truncation_at_the_cap_is_expanded(self, monkeypatch, tmp_path):
        expanded = []

        def no_expand(spec, truncation):
            expanded.append(truncation)
            raise AssertionError("stop before the expansion")

        monkeypatch.setattr(fock, "catalog_coefficients", no_expand)
        argv = ["catalog", "--wave", "phi_n", "--trunc", "250000"]
        with pytest.raises(AssertionError, match="stop before the expansion"):
            cli.run([*argv, "--out", str(tmp_path / "x.json")])
        assert expanded == [250000]

    @pytest.mark.parametrize(
        "argv, rows, restarts",
        [
            # the summed step puts coupling 400,001 at 0.499999999993, so
            # 400,001 couplings stack 8 rows and the 200,000 from 0.5 one
            (
                ["scan", "--from", "0.1", "--to", "0.7", "--step", "1e-6"],
                400001 * 8 + 200000,
                8,
            ),
            (["minimize", "--mu", "0.1", "--restarts", "100000000"], 10**8, 10**8),
            (["mu0", "--restarts", "100000000"], 10**8, 10**8),
            (
                ["minimize", "--mu", "0.1", "--restarts", str(AT_CAP + 1)],
                AT_CAP + 1,
                AT_CAP + 1,
            ),
        ],
        ids=["scan-grid", "minimize-restarts", "mu0-restarts", "one-past-the-cap"],
    )
    def test_descent_above_the_cap_is_usage_error(
        self, capsys, monkeypatch, argv, rows, restarts
    ):
        def no_expand(*args, **kwargs):
            raise AssertionError("starts expanded past the cap")

        monkeypatch.setattr(minimize, "_starting_points", no_expand)
        start = time.perf_counter()
        code, out, err = run_capture(capsys, argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (1, "")
        assert err == (
            f"error: {rows} descent row(s) ({restarts} per coupling below mu = 0.5, "
            f"1 at or above it) x 49 modes is {rows * 49} descent entries, above "
            f"the cap of {minimize.MAX_DESCENT_ENTRIES} (about 640 bytes each)\n"
        )

    def test_grid_above_one_half_stacks_one_row_per_coupling(self, capsys):
        # 5,001 couplings x 8 restarts x 49 modes would be 1,960,392 entries,
        # above the cap; phi_0's rows alone hold 245,049, and each wins at
        # its start
        argv = ["scan", "--from", "0.5", "--to", "2.0", "--step", "0.0003"]
        code, out, err = run_capture(capsys, argv)
        assert (code, err) == (0, "")
        lines = out.splitlines()[1:]
        assert len(lines) == 5001
        assert all(line.split(",")[1:2] == ["1"] for line in lines)
        assert all(line.split(",")[5] == "phi0" for line in lines)

    def test_restarts_past_the_cap_run_phi0_alone_at_one_half_and_above(
        self, capsys, monkeypatch
    ):
        # one row is stacked at mu = 0.7, whatever --restarts says: phi_0
        # is built, and no random start is drawn
        built = []
        starting_points = minimize._starting_points

        def recorded(config, rng):
            state = rng.bit_generator.state
            points = starting_points(config, rng)
            built.append((config.restarts, len(points), rng.bit_generator.state == state))
            return points

        monkeypatch.setattr(minimize, "_starting_points", recorded)
        argv = ["minimize", "--mu", "0.7", "--restarts", "100000000", "--format", "json"]
        code, out, err = run_capture(capsys, argv)
        assert (code, err) == (0, "")
        record = json.loads(out)
        assert (record["restart_index"], record["iterations"]) == (0, 0)
        assert built == [(1, 1, True)]

    @pytest.mark.parametrize(
        "argv",
        [
            ["minimize", "--mu", "0.1", "--restarts", str(AT_CAP)],
            # the benchmark's scan, and the README's
            ["scan", "--from", "0.1", "--to", "0.7", "--step", "0.3"],
            ["scan", "--from", "0.05", "--to", "1.0", "--step", "0.05"],
            # the three-coupling scan at N = 3072
            ["scan", "--from", "0.1", "--to", "0.7", "--step", "0.3", "--trunc", "3072"],
        ],
        ids=["at-the-cap", "bench-scan", "readme-scan", "scan-3072"],
    )
    def test_descent_within_the_cap_is_expanded(self, monkeypatch, argv):
        def no_expand(*args, **kwargs):
            raise AssertionError("stop before the expansion")

        monkeypatch.setattr(minimize, "_starting_points", no_expand)
        with pytest.raises(AssertionError, match="stop before the expansion"):
            cli.run(argv)

    @pytest.mark.parametrize(
        "argv",
        [
            ["minimize", "--mu", "0.1", "--trunc", "20000", "--restarts", "1"],
            ["scan", "--from", "0.1", "--to", "0.7", "--step", "0.3", "--trunc", "20000"],
            ["mu0", "--trunc", "20000"],
            ["functionals", "--mu", "1", "--in"],
        ],
        ids=["minimize", "scan", "mu0", "functionals"],
    )
    def test_truncation_above_the_kernel_cap_is_usage_error(self, capsys, tmp_path, argv):
        if argv[0] == "functionals":
            # a catalog file within its own cap, but past the kernel's
            path = str(tmp_path / "wide.json")
            catalog = ["catalog", "--wave", "phi_n", "--trunc", "20000", "--out", path]
            assert cli.run(catalog) == 0
            argv = [*argv, path]
        start = time.perf_counter()
        code, out, err = run_capture(capsys, argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (1, "")
        assert err == (
            "error: truncation 20000 would need 33.5 GiB of energy kernel tables "
            "(90 bytes per (N + 1)^2 entry); the largest truncation within 4 GiB "
            f"is {fock.MAX_KERNEL_TRUNCATION}\n"
        )

    def test_zeros_above_the_degree_cap_is_usage_error(self, capsys, tmp_path):
        # degree 3859 is the first with a subnormal scaled weight
        for degree in (3859, 4001):
            path = tmp_path / "ones.json"
            data = {"truncation": degree, "coeffs": [[1.0, 0.0]] * (degree + 1)}
            path.write_text(json.dumps(data))
            start = time.perf_counter()
            code, out, err = run_capture(capsys, ["zeros", "--in", str(path)])
            assert time.perf_counter() - start < 1.0
            assert (code, out) == (1, "")
            assert err == (
                f"error: the polynomial part has degree {degree} after trimming, "
                "above 3858, the largest whose scaled weights are all normal\n"
            )

    @pytest.mark.parametrize("max_j", [601, 100000])
    def test_certify_range_above_the_cap_is_usage_error(
        self, capsys, monkeypatch, max_j
    ):
        def no_certificate(*args, **kwargs):
            raise AssertionError("block certified past the cap")

        monkeypatch.setattr(sturm, "positivity_certificate", no_certificate)
        monkeypatch.setattr(spectra, "build_B_block", no_certificate)
        start = time.perf_counter()
        code, out, err = run_capture(capsys, ["certify", "--max-j", str(max_j)])
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (1, "")
        assert err == (
            f"error: --max-j must be at most 600, got {max_j}: one Sturm "
            "certificate takes about a second at j = 600, and more above\n"
        )

    @pytest.mark.parametrize("exact_max_j", [-1, -5])
    def test_negative_exact_range_is_usage_error(self, capsys, monkeypatch, exact_max_j):
        def no_certificate(*args, **kwargs):
            raise AssertionError("block certified with a negative exact range")

        monkeypatch.setattr(sturm, "positivity_certificate", no_certificate)
        monkeypatch.setattr(spectra, "build_B_block", no_certificate)
        argv = ["certify", "--max-j", "8", "--exact-max-j", str(exact_max_j)]
        code, out, err = run_capture(capsys, argv)
        assert (code, out) == (1, "")
        assert err == (
            f"error: --exact-max-j must be at least 0, got {exact_max_j}: 0 runs "
            "the Sturm certificate alone\n"
        )

    def test_certify_range_at_the_cap_is_swept(self, capsys, monkeypatch):
        def stop(j):
            raise AssertionError(f"stop at j = {j}")

        monkeypatch.setattr(sturm, "positivity_certificate", stop)
        with pytest.raises(AssertionError, match="stop at j = 6"):
            cli.run(["certify", "--max-j", "600"])

    def test_block_index_at_the_cap_is_built(self, capsys, monkeypatch):
        built = []

        def no_build(j, decoupled=False):
            built.append(j)
            raise AssertionError("stop before the dump")

        monkeypatch.setattr(spectra, "build_B_block", no_build)
        with pytest.raises(AssertionError, match="stop before the dump"):
            cli.run(["block", "--j", "200"])
        assert built == [200]

    def test_mu0_single_restart_is_usage_error(self, capsys, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("minimization reached with one restart")

        monkeypatch.setattr(minimize, "_phi1_is_global", no_solve)
        code, out, err = run_capture(capsys, ["mu0", "--restarts", "1"])
        assert code == 1
        assert out == ""
        assert err == (
            "error: the bracket needs at least 2 restarts, got 1: "
            "restart 1 is the phi_1 start whose minimality it tests\n"
        )

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
            pytest.param(
                '{"truncation": 1, "coeffs": [[1e150, 0], [0, 0]]}', id="square-overflow"
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


def largest_coupling(truncation):
    """The largest mu whose (2 mu N)^2 is finite at truncation N."""
    mu = math.sqrt(sys.float_info.max) / (2.0 * truncation)
    while math.isfinite((2.0 * mu * truncation) * (2.0 * mu * truncation)):
        mu = math.nextafter(mu, math.inf)
    while not math.isfinite((2.0 * mu * truncation) * (2.0 * mu * truncation)):
        mu = math.nextafter(mu, 0.0)
    return mu


class TestCouplingBound:
    """A coupling whose (2 mu N)^2 overflows is one usage error before any
    descent; the largest coupling below it runs without a numpy warning.
    Every test turns every warning into an error."""

    @staticmethod
    def bound_message(mu, truncation):
        return (
            f"error: the coupling mu {mu:.3e} is too large for truncation "
            f"{truncation}: (2 mu N)^2 overflows double precision\n"
        )

    @pytest.mark.parametrize("truncation", [48, 1536])
    @pytest.mark.parametrize("command", ["minimize", "scan"])
    def test_first_overflowing_coupling_is_one_error_line(
        self, capsys, monkeypatch, truncation, command
    ):
        def no_solve(*args, **kwargs):
            raise AssertionError("descent reached with an overflowing coupling")

        monkeypatch.setattr(minimize, "_descend", no_solve)
        mu = math.nextafter(largest_coupling(truncation), math.inf)
        if command == "minimize":
            argv = ["minimize", "--mu", repr(mu)]
        else:
            argv = ["scan", "--from", repr(mu), "--to", repr(mu), "--step", repr(mu)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_capture(capsys, [*argv, "--trunc", str(truncation)])
        assert (code, out, err) == (1, "", self.bound_message(mu, truncation))

    @pytest.mark.parametrize(
        "argv, mu",
        [
            # these printed overflow warnings and exited 0, or, from 1e307,
            # printed invalid-value warnings and exited 3
            (["minimize", "--mu", "1e153"], 1e153),
            (["minimize", "--mu", "1e306"], 1e306),
            (["minimize", "--mu", "1e307"], 1e307),
            (["scan", "--from", "1e200", "--to", "1e200", "--step", "1e200"], 1e200),
            # the whole grid is checked before the first descent
            (["scan", "--from", "0.1", "--to", "1e200", "--step", "5e199"], 5e199),
        ],
    )
    def test_reported_overflows_are_usage_errors(self, capsys, argv, mu):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_capture(capsys, argv)
        assert (code, out, err) == (1, "", self.bound_message(mu, 48))

    @pytest.mark.parametrize(
        "truncation, restarts", [(48, 8), (1536, 2)], ids=["48", "1536"]
    )
    def test_largest_coupling_runs_without_warnings(self, capsys, truncation, restarts):
        mu = largest_coupling(truncation)
        argv = ["minimize", "--mu", repr(mu), "--trunc", str(truncation)]
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, out, err = run_capture(
                    capsys, [*argv, "--restarts", str(restarts), "--format", "json"]
                )
        finally:
            fock.energy_kernel.cache_clear()  # N = 1536 holds ~250 MiB
        assert (code, err) == (0, "")
        data = json.loads(out)
        assert (data["mu"], data["class"], data["G"]) == (mu, "phi0", 1.0)


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


class TestParserReuse:
    """One parser serves every `cli.run` of a process: each run, after
    successes and errors of the parser or of a command, prints what the
    same argv prints in a fresh process."""

    SEQUENCE = (
        ["scan", "--from", "0.1", "--to", "0.7", "--step", "0.3"],
        ["certify", "--max-j", "5"],  # rejected by the command
        ["certify", "--max-j"],  # rejected by the parser
        ["certify", "--max-j", "12"],
        ["scan", "--from", "0.1", "--to", "0.7", "--step", "0.3"],
    )

    def test_runs_in_one_process_match_fresh_processes(self, capsys, monkeypatch):
        # the usage line wraps at the terminal width: fix it on both sides
        monkeypatch.setenv("COLUMNS", "80")
        env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
        assert cli.build_parser() is cli.build_parser()
        for argv in self.SEQUENCE:
            in_process = run_capture(capsys, argv)
            fresh = subprocess.run(
                [sys.executable, "-m", "fockmin.cli", *argv],
                capture_output=True,
                text=True,
                env=env,
                timeout=120,
            )
            assert in_process == (fresh.returncode, fresh.stdout, fresh.stderr)
        assert cli.build_parser() is cli.build_parser()
