"""fockmin benchmark: medians over repeated in-process CLI sweeps.

Run from the repository root:

    python3 perfbench/run.py --workload certify_exact --seed 0 --seconds 35 --trace 0

A sweep is one `fockmin.cli.run(argv)` call with stdout captured.  Every
sweep of a run does identical work, and every op of every sweep is checked
by `check.py`.  With `--trace 0` the run reports end-to-end metrics, each
time scaled by the host-speed probe of `hostspeed.py`; with
`--trace 1` it alternates untraced and traced sweeps and reports the
per-layer metrics of `tracer.py`.  The last line of stdout is the result
object; the line before it holds the sampling conditions.  Why each
workload exists is written down in WORKLOADS.md.
"""

import os

# Pinned before numpy can be imported, here and in the set-up children.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from functools import partial  # noqa: E402
from typing import Callable  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import tracer as spans  # noqa: E402
from hostspeed import PROBE_REF_S, probe_seconds  # noqa: E402

SETUP_REPEATS = 7
MIN_SWEEPS = 12  # the tail percentile needs ten sweeps above it
TAIL_BEYOND = 10
TRACE_MIN_SWEEPS = 3
OUT_DIR = Path(".bench_out")

_REFERENCE = json.loads((HERE / "reference.json").read_text())
TRANSITIONS = {int(j): t for j, t in _REFERENCE["transitions"].items()}


@dataclass(frozen=True)
class Workload:
    args: tuple  # the CLI command after the global --seed
    ops: int  # ops per sweep
    check: Callable  # (stdout, rc) -> list of check.Verdict
    tables: tuple = ()  # energy-kernel truncations set-up fills
    timed_seed: int | None = None  # CLI seed of the timed sweeps, if pinned


CLI_EXACT_MAX_J = 200  # the CLI's default --exact-max-j


def _certify(max_j, exact_max_j=CLI_EXACT_MAX_J):
    args = ["certify", "--max-j", str(max_j)]
    if exact_max_j != CLI_EXACT_MAX_J:
        args += ["--exact-max-j", str(exact_max_j)]
    verify = partial(
        check.check_certify,
        max_j=max_j,
        exact_max_j=exact_max_j,
        eigs=True,
        transitions=TRANSITIONS,
    )
    return Workload(tuple(args), max_j - check.FIRST_BLOCK + 1, verify)


WORKLOADS = {
    "certify_exact": _certify(60),
    "certify_sturm": _certify(250, exact_max_j=0),
    # The random restarts make one CLI seed's work differ from another's by
    # up to 2.7x at identical answers, so timed sweeps pin the CLI seed and
    # the benchmark seed drives the checked warm-up sweep (WORKLOADS.md).
    "scan": Workload(
        ("scan", "--from", "0.1", "--to", "0.7", "--step", "0.3"),
        3,
        partial(check.check_scan, expected=_REFERENCE["scan"]),
        tables=(48,),
        timed_seed=0,
    ),
}


def _sweep(cli, argv):
    """One captured CLI call: (seconds, exit code, stdout)."""
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        rc = cli.run(argv)
        seconds = time.perf_counter() - start
    return seconds, rc, out.getvalue()


class Sampler:
    """Runs and checks sweeps, keeping every verdict."""

    def __init__(self, cli, workload):
        self.cli = cli
        self.workload = workload
        self.verdicts = []

    def once(self, argv):
        """(seconds, the sweep's op verdict details)."""
        seconds, rc, stdout = _sweep(self.cli, argv)
        verdicts = self.workload.check(stdout, rc)
        self.verdicts.extend(verdicts)
        return seconds, tuple(v.detail for v in verdicts)


def _repeat(step, seconds, min_steps):
    """Call `step` (which returns its duration) until `seconds` are used,
    starting a step only when the median so far says it ends in time, and
    at least `min_steps` times."""
    durations = []
    start = time.perf_counter()
    while len(durations) < min_steps or (
        time.perf_counter() - start + statistics.median(durations) <= seconds
    ):
        durations.append(step())
    return durations


def _tail(times):
    """(value, percentile): the highest percentile with TAIL_BEYOND sweeps
    above it."""
    ordered = sorted(times)
    n = len(ordered)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def _adjust(seconds, probes):
    """Scale each sample by the host speed the probes on either side of it
    saw (see hostspeed.py)."""
    return [
        t * PROBE_REF_S * 2.0 / (before + after)
        for t, before, after in zip(seconds, probes, probes[1:])
    ]


def _setup_seconds(workload):
    """Raw set-up times of fresh interpreters, and the probe times around them."""
    env = dict(os.environ, PYTHONPATH="src")
    cmd = [sys.executable, str(HERE / "time_setup.py")]
    cmd += [str(n) for n in workload.tables]
    samples, probes = [], [probe_seconds()]
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            cmd, env=env, capture_output=True, text=True, timeout=120, check=True
        )
        samples.append(float(done.stdout))
        probes.append(probe_seconds())
    return samples, probes


def _git_rev():
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(Path.cwd().parent)),
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _os_threads():
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return None


def _conditions(argv, fockmin_path):
    import numpy
    import scipy

    return {
        "git_rev": _git_rev(),
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads_env": {var: os.environ[var] for var in THREAD_VARS},
        "os_threads": _os_threads(),
        "fockmin": fockmin_path,
        "argv": argv,
    }


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _timed_run(sampler, workload, argv, seconds):
    setup, setup_probes = _setup_seconds(workload)
    times, probes = [], [probe_seconds()]

    def step():
        times.append(sampler.once(argv)[0])
        probes.append(probe_seconds())
        return times[-1] + probes[-1]

    _repeat(step, seconds, MIN_SWEEPS)
    adjusted = _adjust(times, probes)
    sweep_s = statistics.median(adjusted)
    tail, pct = _tail(adjusted)
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": _metric(statistics.median(_adjust(setup, setup_probes)), "s"),
        "sweep_s": _metric(sweep_s, "s"),
        "sweep_tail_s": _metric(tail, "s"),
        "ops_per_s": _metric(workload.ops / sweep_s, "1/s"),
        "peak_rss_mib": _metric(rss_mib, "MiB"),
    }
    info = {
        "sweeps": len(times),
        "sweep_tail_percentile": pct,
        "raw": {
            "sweep_s": statistics.median(times),
            "sweep_tail_s": _tail(times)[0],
            "setup_s": statistics.median(setup),
            "probe_s": statistics.median(probes),
            "probe_ref_s": PROBE_REF_S,
            "sweep_times": times,
            "setup_times": setup,
            "probe_times": probes,
        },
    }
    return metrics, info, True


def _traced_run(sampler, tracer, argv, seconds, out_path):
    """Alternate untraced and traced sweeps, so that both see the same host."""
    plain, traced, restored = [], [], []
    details = {"plain": set(), "traced": set()}

    def pair():
        elapsed, detail = sampler.once(argv)
        plain.append(elapsed)
        details["plain"].add(detail)
        tracer.sweep = len(traced)
        tracer.install()
        try:
            elapsed, detail = sampler.once(argv)
        finally:
            restored.append(tracer.uninstall())
        traced.append(elapsed)
        details["traced"].add(detail)
        return plain[-1] + elapsed

    _repeat(pair, seconds, TRACE_MIN_SWEEPS)
    layers = tracer.layer_metrics(range(len(traced)))
    metrics = {name: _metric(value, unit) for name, (value, unit) in layers.items()}
    table = tracer.by_sweep()
    accounted = [
        sum(table[i][span][0] for span in spans.SELF_TIME_METRICS.values()) / wall
        for i, wall in enumerate(traced)
    ]
    traced_s = statistics.median(traced)
    plain_s = statistics.median(plain)
    metrics["trace.sweep_s"] = _metric(traced_s, "s")
    metrics["trace.overhead_s"] = _metric(traced_s - plain_s, "s")
    metrics["trace.accounted_share"] = _metric(statistics.median(accounted), "ratio")
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(out_path)
    verdicts_match = details["plain"] == details["traced"] and len(details["plain"]) == 1
    info = {
        "sweeps": len(plain),
        "traced_sweeps": len(traced),
        "untraced_sweep_s": plain_s,
        "missing_layers": tracer.missing,
        "originals_restored": all(restored),
        "traced_verdicts_match_untraced": verdicts_match,
        "spans_file": str(out_path),
    }
    return metrics, info, all(restored) and verdicts_match


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = Path.cwd() / "src"
    if not (src / "fockmin" / "__init__.py").is_file():
        print("error: run from a fockmin checkout (no src/fockmin here)", file=sys.stderr)
        return 2
    os.environ["PYTHONPATH"] = "src"
    sys.path.insert(0, str(src))
    import fockmin
    from fockmin import cli, fock

    fockmin_path = str(Path(fockmin.__file__).resolve().parent)
    if Path(fockmin_path) != (src / "fockmin").resolve():
        print(f"error: fockmin imported from {fockmin_path}, not ./src", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    tracer = spans.Tracer() if args.trace else None
    if tracer:
        tracer.sweep = spans.SETUP_SWEEP
        tracer.install()
    cli.build_parser()
    for truncation in workload.tables:
        fock.energy_kernel(truncation)
    if tracer and not tracer.uninstall():
        print("error: tracer could not restore fockmin", file=sys.stderr)
        return 2

    seeded = ["--seed", str(args.seed), *workload.args]
    timed = seeded
    if workload.timed_seed is not None:
        timed = ["--seed", str(workload.timed_seed), *workload.args]
    sampler = Sampler(cli, workload)
    sampler.once(seeded)  # warm-up, checked like every other sweep

    if tracer:
        out_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl.gz"
        metrics, info, consistent = _traced_run(
            sampler, tracer, timed, args.seconds, out_path
        )
    else:
        metrics, info, consistent = _timed_run(sampler, workload, timed, args.seconds)

    attempted = len(sampler.verdicts)
    failures = [v for v in sampler.verdicts if not v.ok]
    info.update(
        workload=args.workload,
        ops_per_sweep=workload.ops,
        fail_rate=_metric(len(failures) / attempted, "ratio"),
        first_failures=[f"{v.op}: {v.detail}" for v in failures[:5]],
        conditions=_conditions(timed, fockmin_path),
    )
    print(json.dumps({"info": info}))
    result = {
        "correct": consistent and not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
