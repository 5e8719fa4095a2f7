"""The benchmark's own tests: the checker must catch doctored output, and the
tracer must account for time, report missing names and restore originals.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import contextlib
import io
import json
import math
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import tracer as spans  # noqa: E402
from fockmin import cli  # noqa: E402

REFERENCE = json.loads((HERE / "reference.json").read_text())
TRANSITIONS = {int(j): t for j, t in REFERENCE["transitions"].items()}

# `scan --from 0.1 --to 0.7 --step 0.3` at seed 0, as the CLI prints it
SCAN_OUTPUT = (
    "mu,G_min,P,H,Qabs,class,b_fit,n_zeros,G_phi0,G_phi1,G_psi1\n"
    "0.1,0.544724439227,2.31340157055,0.0124691643987,8.72203635256e-08,"
    "unclassified,,6,1,0.6,0.9\n"
    "0.4,0.9,1,0.0198943678865,0,phi1,,1,1,0.9,0.975\n"
    "0.7,1,3.26639423569e-18,0.039788735773,1.31554056165e-13,phi0,,0,1,1.2,1.05\n"
)


def cli_output(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.run(argv)
    return rc, buf.getvalue()


@pytest.fixture(scope="module")
def exact_output():
    rc, out = cli_output(["certify", "--max-j", "24"])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def sturm_output():
    rc, out = cli_output(["certify", "--max-j", "40", "--exact-max-j", "0"])
    assert rc == 0
    return out


def failed_certify(stdout, *, max_j=24, exact_max_j=200, rc=0):
    verdicts = check.check_certify(
        stdout,
        rc,
        max_j=max_j,
        exact_max_j=exact_max_j,
        eigs=True,
        transitions=TRANSITIONS,
    )
    assert len(verdicts) == max_j - check.FIRST_BLOCK + 1
    return [v.op for v in verdicts if not v.ok]


def failed_scan(stdout, rc=0):
    verdicts = check.check_scan(stdout, rc, expected=REFERENCE["scan"])
    assert len(verdicts) == 3
    return [v.op for v in verdicts if not v.ok]


def edit_line(stdout, prefix, edit):
    lines = stdout.splitlines(keepends=True)
    hits = [i for i, line in enumerate(lines) if line.startswith(prefix)]
    assert len(hits) == 1
    lines[hits[0]] = edit(lines[hits[0]])
    return "".join(lines)


class TestCertifyChecker:
    def test_real_output_passes(self, exact_output, sturm_output):
        assert failed_certify(exact_output) == []
        assert failed_certify(sturm_output, max_j=40, exact_max_j=0) == []

    def test_fail_line(self, exact_output):
        out = edit_line(
            exact_output,
            "j=10 ",
            lambda _: "j=10 FAIL (kernel vectors not annihilated at j=10) \n",
        )
        assert failed_certify(out) == ["j=10"]

    def test_missing_block(self, exact_output):
        out = edit_line(exact_output, "j=13 ", lambda _: "")
        assert failed_certify(out) == ["j=13"]

    def test_wrong_transition(self, exact_output):
        t = TRANSITIONS[20]
        out = edit_line(
            exact_output,
            "j=20 ",
            lambda line: line.replace(f"transition={t} ", f"transition={t + 1} "),
        )
        assert failed_certify(out) == ["j=20"]

    def test_flags_decide_the_checks_present(self, exact_output, sturm_output):
        # exact checks missing where the flags ask for them
        assert len(failed_certify(sturm_output, max_j=40)) == 35
        no_eig = edit_line(exact_output, "j=7 ", lambda line: line.split(" min_eig")[0] + "\n")
        assert failed_certify(no_eig) == ["j=7"]
        # exact checks present where the flags do not ask for them
        extra = edit_line(
            sturm_output, "j=9 ", lambda line: line.rstrip("\n") + " kernel=exact\n"
        )
        assert failed_certify(extra, max_j=40, exact_max_j=0) == ["j=9"]

    def test_exit_code_or_stray_line_fails_every_block(self, exact_output):
        assert len(failed_certify(exact_output, rc=2)) == 19
        assert len(failed_certify(exact_output + "j=99 pass sturm transition=1\n")) == 19

    def test_min_eig_digits_are_not_compared(self, exact_output):
        out = edit_line(
            exact_output,
            "j=8 ",
            lambda line: line.split("min_eig=")[0] + "min_eig=5.5e-16\n",
        )
        assert failed_certify(out) == []


class TestScanChecker:
    def test_real_output_passes(self):
        assert failed_scan(SCAN_OUTPUT) == []

    def test_wrong_label(self):
        assert failed_scan(SCAN_OUTPUT.replace(",phi1,", ",phi0,")) == ["mu=0.4"]

    def test_g_min_off_by_1e_6(self):
        out = SCAN_OUTPUT.replace("0.1,0.544724439227,", "0.1,0.544725439227,")
        assert failed_scan(out) == ["mu=0.1"]

    def test_missing_coupling(self):
        out = "".join(
            line for line in SCAN_OUTPUT.splitlines(True) if not line.startswith("0.7,")
        )
        assert failed_scan(out) == ["mu=0.7"]

    def test_exit_code_fails_every_coupling(self):
        assert failed_scan(SCAN_OUTPUT, rc=3) == ["mu=0.1", "mu=0.4", "mu=0.7"]

    def test_qabs_and_zero_count_are_not_compared(self):
        out = SCAN_OUTPUT.replace("8.72203635256e-08,unclassified,,6,", "1e-3,unclassified,,37,")
        assert failed_scan(out) == []


def test_reference_transitions_sit_in_their_root_window():
    """The recorded index is the one integer in (root_minus, root_minus + 1],
    root_minus = (s - sqrt(s))/2, where s = 2p - 1 = j for odd j and
    s = 2q = j for even j."""
    assert sorted(TRANSITIONS) == list(range(check.FIRST_BLOCK, 251))
    for j, t in TRANSITIONS.items():
        assert t == math.floor((j - math.sqrt(j)) / 2) + 1, j


class TestTracer:
    @pytest.fixture
    def layers(self, monkeypatch):
        mod = types.ModuleType("fake_layers")

        def inner(x):
            return sum(range(x))

        def outer(x):
            return mod.inner(x) + mod.inner(x)

        mod.inner, mod.outer = inner, outer
        monkeypatch.setitem(sys.modules, "fake_layers", mod)
        return mod

    def test_self_times_add_up_and_originals_return(self, layers):
        originals = (layers.outer, layers.inner)
        tracer = spans.Tracer(
            [
                ("outer", "fake_layers", "outer"),
                ("inner", "fake_layers", "inner"),
                ("gone", "fake_layers", "no_such_name"),
            ]
        )
        assert tracer.missing == ["gone"]
        tracer.install()
        tracer.sweep = 0
        assert layers.outer(1000) == 2 * sum(range(1000))
        assert tracer.uninstall()
        assert (layers.outer, layers.inner) == originals
        table = tracer.by_sweep()[0]
        self_outer, calls_outer, total_outer = table["outer"]
        self_inner, calls_inner, _ = table["inner"]
        assert (calls_outer, calls_inner) == (1, 2)
        assert self_outer + self_inner == pytest.approx(total_outer, abs=1e-12)

    def test_missing_layer_is_reported_as_missing_not_zero(self):
        targets = [t for t in spans.TARGETS if t[0] != "rt2.mat_vec"]
        targets.append(("rt2.mat_vec", "fockmin.spectra", "no_such_name"))
        tracer = spans.Tracer(targets)
        tracer.sweep = 0
        tracer.install()
        try:
            assert cli_output(["certify", "--max-j", "8"])[0] == 0
        finally:
            assert tracer.uninstall()
        metrics = tracer.layer_metrics([0])
        assert metrics["rt2.mat_vec_s"] == (None, "s")
        assert metrics["spectra.kernel_check_s"][0] > 0.0
        assert metrics["spectra.build_calls"] == (6, "count")


def test_benchmark_json_lists_the_traced_metrics():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]
    produced = set(spans.Tracer([]).layer_metrics([0])) | {
        "trace.sweep_s",
        "trace.overhead_s",
        "trace.accounted_share",
    }
    assert {m["name"] for m in declared} == produced
