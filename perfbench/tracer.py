"""Spans around fockmin's public functions, recorded from outside the package.

Each target is patched where its callers look it up: `minimize` binds
`energy_kernel` and `catalog_coefficients` by name, `spectra` binds
`mat_vec` from `rt2`, and the `EnergyKernel` methods are patched on the
class.  A target that no longer exists is reported as missing, and every
patched name is restored by `uninstall`.

A span is (id, name, start, end, parent id, sweep id); spans stay in memory
until `write`.  Self time is a span's duration minus the durations of its
direct children, which in one thread never overlap.
"""

from __future__ import annotations

import gzip
import importlib
import itertools
import json
import statistics
import time
from collections import defaultdict

# (span name, module, attribute path as the callers look it up)
TARGETS = (
    ("cli.run", "fockmin.cli", "run"),
    ("spectra.build_B_block", "fockmin.spectra", "build_B_block"),
    ("spectra.centro_decompose", "fockmin.spectra", "centro_decompose"),
    ("spectra.kernel_annihilated", "fockmin.spectra", "kernel_annihilated"),
    ("rt2.mat_vec", "fockmin.spectra", "mat_vec"),
    ("spectra.scaled_block", "fockmin.spectra", "scaled_block"),
    ("spectra.symmetric_eigenvalues", "fockmin.spectra", "symmetric_eigenvalues"),
    ("sturm.positivity_certificate", "fockmin.sturm", "positivity_certificate"),
    ("sturm.sturm_sequence", "fockmin.sturm", "sturm_sequence"),
    ("sturm.recurrence_values", "fockmin.sturm", "recurrence_values"),
    ("fock.value", "fockmin.fock", "EnergyKernel.value"),
    ("fock.value_and_gradient", "fockmin.fock", "EnergyKernel.value_and_gradient"),
    ("fock.energy_kernel", "fockmin.fock", "energy_kernel"),
    ("fock.energy_kernel", "fockmin.minimize", "energy_kernel"),
    ("fock.apply_translation", "fockmin.fock", "apply_translation"),
    ("fock.functionals", "fockmin.fock", "functionals"),
    ("fock.catalog_coefficients", "fockmin.minimize", "catalog_coefficients"),
    ("minimize.minimize_G", "fockmin.minimize", "minimize_G"),
    ("minimize.classify", "fockmin.minimize", "classify"),
    ("minimize.count_zeros", "fockmin.minimize", "count_zeros"),
)

# per-layer metric -> the span whose per-sweep self time or call count it is
SELF_TIME_METRICS = {
    "spectra.build_s": "spectra.build_B_block",
    "spectra.decompose_s": "spectra.centro_decompose",
    "spectra.kernel_check_s": "spectra.kernel_annihilated",
    "rt2.mat_vec_s": "rt2.mat_vec",
    "spectra.scale_s": "spectra.scaled_block",
    "spectra.eig_s": "spectra.symmetric_eigenvalues",
    "sturm.certificate_s": "sturm.positivity_certificate",
    "sturm.sequence_s": "sturm.sturm_sequence",
    "sturm.recurrence_s": "sturm.recurrence_values",
    "fock.value_s": "fock.value",
    "fock.grad_s": "fock.value_and_gradient",
    "fock.translation_s": "fock.apply_translation",
    "fock.functionals_s": "fock.functionals",
    "fock.catalog_s": "fock.catalog_coefficients",
    "minimize.solve_self_s": "minimize.minimize_G",
    "minimize.classify_s": "minimize.classify",
    "minimize.zeros_s": "minimize.count_zeros",
    "cli.self_s": "cli.run",
}
CALL_METRICS = {
    "spectra.build_calls": "spectra.build_B_block",
    "spectra.decompose_calls": "spectra.centro_decompose",
    "fock.value_calls": "fock.value",
    "fock.grad_calls": "fock.value_and_gradient",
}
KERNEL_BUILD = "fock.energy_kernel"
SETUP_SWEEP = "setup"


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr, getattr(owner, attr)


class Tracer:
    """Records spans around `targets` while installed."""

    def __init__(self, targets=TARGETS):
        self.spans = []
        self.sweep = None
        self.missing = []
        self._stack = []
        self._next_id = itertools.count(1).__next__
        self._patches = []
        for span, module_name, path in targets:
            try:
                owner, attr, original = _resolve(module_name, path)
            except (ImportError, AttributeError):
                self.missing.append(span)
                continue
            self._patches.append((owner, attr, original, self._wrap(original, span)))

    def _wrap(self, fn, name):
        spans, stack, next_id = self.spans, self._stack, self._next_id
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            sid = next_id()
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, parent, tracer.sweep))

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> bool:
        """Restore every original; True when each one is back in place."""
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)
        return all(getattr(o, a) is orig for o, a, orig, _ in self._patches)

    def by_sweep(self) -> dict:
        """{sweep: {span name: [self seconds, calls, total seconds]}}."""
        covered = defaultdict(float)
        for sid, _, start, end, parent, _ in self.spans:
            covered[parent] += end - start
        out = defaultdict(lambda: defaultdict(lambda: [0.0, 0, 0.0]))
        for sid, name, start, end, _, sweep in self.spans:
            cell = out[sweep][name]
            cell[0] += end - start - covered[sid]
            cell[1] += 1
            cell[2] += end - start
        return out

    def layer_metrics(self, sweeps) -> dict:
        """Per-layer metrics: medians over `sweeps` of the per-sweep self
        times and call counts; None for a layer whose name is missing."""
        table = self.by_sweep()

        def median(span, index, of=statistics.median):
            if span in self.missing:
                return None
            return of(table[s][span][index] for s in sweeps)

        out = {}
        for metric, span in SELF_TIME_METRICS.items():
            out[metric] = (median(span, 0), "s")
        for metric, span in CALL_METRICS.items():
            out[metric] = (median(span, 1, statistics.median_low), "count")
        build = None
        if KERNEL_BUILD not in self.missing:
            build = table[SETUP_SWEEP][KERNEL_BUILD][2]
        out["fock.kernel_build_s"] = (build, "s")
        values, grads = out["fock.value_calls"][0], out["fock.grad_calls"][0]
        ratio = None
        if values is not None and grads is not None:
            ratio = grads / values if values else 0.0
        out["minimize.accept_ratio"] = (ratio, "ratio")
        return out

    def write(self, path) -> None:
        """Write the spans as gzipped JSON lines, times relative to the first."""
        t0 = min((s[2] for s in self.spans), default=0.0)
        with gzip.open(path, "wt") as fh:
            for sid, name, start, end, parent, sweep in self.spans:
                row = [sid, name, round(start - t0, 9), round(end - t0, 9), parent, sweep]
                fh.write(json.dumps(row) + "\n")
