"""Check what each op of a sweep means, not the bytes of its output.

An op is one certified block `j` for `certify` and one solved coupling for
`scan`.  Every checker returns one `Verdict` per expected op; an op that is
missing, malformed or wrong is a failed op.  A non-zero exit code or a line
that belongs to no expected op fails every op of the sweep.

Deliberately not compared: the digits of `min_eig=` (rounding noise around
zero on a block with a two-dimensional kernel), `Qabs` and `n_zeros`.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass

G_TOLERANCE = 1e-9
FIRST_BLOCK = 6  # `certify` starts at j = 6

_CERTIFY_LINE = re.compile(r"j=(\d+) (\S+)(.*)")
_MIN_EIG = re.compile(r"min_eig=\S+")


@dataclass(frozen=True)
class Verdict:
    op: str
    ok: bool
    detail: str  # what the op says; equal details mean equal verdicts


def _fail_all(ops, reason: str) -> list:
    return [Verdict(op, False, reason) for op in ops]


def check_certify(
    stdout: str,
    rc: int,
    *,
    max_j: int,
    exact_max_j: int,
    eigs: bool,
    transitions: dict,
) -> list:
    """Verdicts of `certify --max-j max_j --exact-max-j exact_max_j`.

    Each block must read `pass` with the reference Sturm transition index,
    and carry `kernel=exact` and `min_eig=` exactly where the flags ask for
    them.
    """
    expected = range(FIRST_BLOCK, max_j + 1)
    ops = [f"j={j}" for j in expected]
    if rc != 0:
        return _fail_all(ops, f"exit code {rc}")
    lines = {}
    for line in stdout.splitlines():
        m = _CERTIFY_LINE.fullmatch(line)
        j = int(m[1]) if m else None
        if j not in expected or j in lines:
            return _fail_all(ops, f"unexpected line {line!r}")
        lines[j] = m
    out = []
    for j, op in zip(expected, ops):
        m = lines.get(j)
        if m is None:
            out.append(Verdict(op, False, "missing"))
            continue
        problem = _block_problem(
            j, m[2], m[3].split(), exact_max_j, eigs, transitions[j]
        )
        if problem:
            out.append(Verdict(op, False, problem))
        else:
            out.append(Verdict(op, True, "pass" + _MIN_EIG.sub("min_eig=", m[3])))
    return out


def _block_problem(j, verdict, tokens, exact_max_j, eigs, transition):
    if verdict != "pass":
        return f"verdict {verdict!r}"
    if not tokens or tokens[0] != "sturm":
        return "no sturm check"
    kv = {}
    for token in tokens[1:]:
        key, sep, value = token.partition("=")
        if not sep or key in kv:
            return f"malformed token {token!r}"
        kv[key] = value
    if kv.pop("transition", None) != str(transition):
        return f"transition differs from reference {transition}"
    exact = j <= exact_max_j
    if kv.pop("kernel", None) != ("exact" if exact else None):
        return "kernel check where not asked for" if not exact else "no exact kernel"
    min_eig = kv.pop("min_eig", None)
    if (min_eig is not None) != (exact and eigs):
        return "min_eig presence does not match the flags"
    if min_eig is not None:
        try:
            float(min_eig)
        except ValueError:
            return f"min_eig {min_eig!r} is not a number"
    if kv:
        return f"unexpected fields {sorted(kv)}"
    return None


def check_scan(stdout: str, rc: int, *, expected: list) -> list:
    """Verdicts of a `scan` run: one row per expected coupling, with the
    reference class label and `G_min` within `G_TOLERANCE`.

    `expected` holds dicts with keys `mu`, `class` and `G_min`.
    """
    ops = [f"mu={ref['mu']}" for ref in expected]
    if rc != 0:
        return _fail_all(ops, f"exit code {rc}")
    rows = list(csv.DictReader(io.StringIO(stdout)))
    found = {}
    for row in rows:
        try:
            mu = float(row["mu"])
        except (KeyError, TypeError, ValueError):
            return _fail_all(ops, f"unreadable row {row!r}")
        match = [ref["mu"] for ref in expected if abs(ref["mu"] - mu) < 1e-9]
        if not match or match[0] in found:
            return _fail_all(ops, f"unexpected row for mu={row['mu']}")
        found[match[0]] = row
    out = []
    for ref, op in zip(expected, ops):
        row = found.get(ref["mu"])
        if row is None:
            out.append(Verdict(op, False, "missing"))
            continue
        label = row.get("class")
        try:
            g = float(row.get("G_min"))
        except (TypeError, ValueError):
            out.append(Verdict(op, False, f"G_min {row.get('G_min')!r}"))
            continue
        if label != ref["class"]:
            out.append(Verdict(op, False, f"class {label!r}, expected {ref['class']!r}"))
        elif abs(g - ref["G_min"]) > G_TOLERANCE:
            out.append(Verdict(op, False, f"G_min {g!r}, expected {ref['G_min']!r}"))
        else:
            out.append(Verdict(op, True, f"{label} G_min={row['G_min']}"))
    return out
