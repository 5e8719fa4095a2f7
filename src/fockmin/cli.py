"""Command-line front end.

Exit codes: 0 success, 1 usage error, 2 certificate failure (the headline
positivity claim would be falsified), 3 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from functools import lru_cache

from . import fock, minimize as mz, spectra, sturm
from .errors import (
    CertificateFailed,
    FockminError,
    InvalidParameter,
    NoConvergence,
    NotCentrosymmetric,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CERTIFICATE = 2
EXIT_NUMERICAL = 3

_MAX_SCAN_POINTS = 10**6  # far beyond any scan that can finish

# The top of `block --j`: the dump holds about 2 j^3 bytes (see --j's help),
# near 15 MB at the cap, which keeps the process below 100 MiB.
_MAX_BLOCK_J = 200

# The top of `certify --max-j`: one Sturm certificate took 0.84 s at j = 600
# and 1.9 s at j = 800 (2-core x86-64 host, Python 3.11), and the sweep to
# the cap 81 s; a sweep to j = 1000 would take about a quarter of an hour.
_MAX_CERTIFY_J = 600

# The top of `catalog --trunc`: the file holds N+1 pairs of floats, at most
# 54 bytes each as JSON, and the pairs pass through Python lists on the way,
# about 200 bytes per coefficient; at the cap that is 13.5 MB of file and
# about 70 MiB of process, the same scale as `block --j`'s cap.
_MAX_CATALOG_TRUNC = 250_000

_RESTARTS_HELP = (
    "restarts per coupling (default %(default)s); couplings x restarts x "
    f"(trunc + 1) may be at most {mz.MAX_DESCENT_ENTRIES}"
)

_TRUNC_HELP = (
    "truncation N (default %(default)s), at least 8 (12 with more than 2 "
    "restarts: restart 2 starts from psi_b at b = 1) and at most "
    f"{fock.MAX_KERNEL_TRUNCATION}: the energy kernel holds about "
    f"{fock.KERNEL_BYTES_PER_ENTRY} bytes per (N + 1)^2 entry, 4 GiB at the cap"
)

# Every token that float() reads with a leading minus sign: argparse's own
# matcher misses exponents and the special values, so "--mu -1e-3" would
# reach the parser as a missing argument instead of a bad coupling.
_DIGITS = r"\d(?:_?\d)*"
_NEGATIVE_NUMBER = re.compile(
    rf"^-(?:(?:{_DIGITS}(?:\.(?:{_DIGITS})?)?|\.{_DIGITS})(?:e[+-]?{_DIGITS})?"
    r"|inf(?:inity)?|nan)$",
    re.IGNORECASE,
)


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process: parsing leaves no state on
    it, so every `run` shares it."""
    parser = _Parser(prog="fockmin")
    parser.add_argument("--seed", type=int, default=0, help="RNG seed, >= 0 (default 0)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("block", help="dump an exact coefficient block")
    p.add_argument(
        "--j",
        type=int,
        required=True,
        help=f"block index, at most {_MAX_BLOCK_J}: the dump holds (j+1)^2 "
        "fractions, each padded to the widest, of about 2j characters, about "
        "2 j^3 bytes (15 MB at j = 200, 141 MB at j = 400, 1.3 GB at j = 800)",
    )
    p.add_argument("--E", action="store_true", help="dump the decoupled block")
    p.add_argument("--reduced", action="store_true", help="dump the reduced block")
    p.add_argument("--out")
    p.add_argument("--format", choices=["json", "pretty"], default="pretty")

    p = sub.add_parser("certify", help="positivity certificates over a j-range")
    p.add_argument(
        "--max-j",
        type=int,
        required=True,
        help=f"last block index, at most {_MAX_CERTIFY_J}: 'certify --max-j 600 "
        "--exact-max-j 0' took 81 s on a 2-core x86-64 host (Python 3.11)",
    )
    p.add_argument(
        "--exact-max-j",
        type=int,
        default=200,
        help="last block index given the exact kernel and eigenvalue checks, "
        "at least 0; 0 runs the Sturm certificate alone (default 200)",
    )
    p.add_argument("--no-eigs", action="store_true", help="skip float eigenvalue checks")
    p.add_argument("--out")

    p = sub.add_parser("functionals", help="evaluate all functionals of a state")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--format", choices=["json", "pretty"], default="pretty")

    p = sub.add_parser("catalog", help="write catalog coefficients to a file")
    p.add_argument(
        "--wave",
        required=True,
        choices=["phi_n", "phi_n_alpha", "psi_b", "equality", "semiclassical_phi"],
    )
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--b", type=float, default=1.0)
    p.add_argument("--alpha-re", type=float, default=0.0)
    p.add_argument("--alpha-im", type=float, default=0.0)
    p.add_argument("--a0-re", type=float, default=1.0)
    p.add_argument("--a0-im", type=float, default=0.0)
    p.add_argument("--a1-re", type=float, default=0.0)
    p.add_argument("--a1-im", type=float, default=0.0)
    p.add_argument("--c-re", type=float, default=0.0)
    p.add_argument("--c-im", type=float, default=0.0)
    p.add_argument("--h", type=float, default=0.5)
    p.add_argument(
        "--trunc",
        type=int,
        default=64,
        help=f"truncation N, at most {_MAX_CATALOG_TRUNC}: the file holds N+1 "
        "pairs of floats, at most 54 bytes each (13.5 MB at the cap), and "
        "writing them takes about 200 bytes of memory per coefficient "
        "(default 64)",
    )
    p.add_argument("--out", required=True)

    p = sub.add_parser("minimize", help="minimize the energy at one coupling")
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--trunc", type=int, default=48, help=_TRUNC_HELP)
    p.add_argument("--restarts", type=int, default=8, help=_RESTARTS_HELP)
    p.add_argument("--max-iters", type=int, default=20000)
    p.add_argument("--grad-tol", type=float, default=1e-8)
    p.add_argument("--format", choices=["json", "pretty"], default="pretty")
    p.add_argument("--out")

    p = sub.add_parser("scan", help="minimize across a coupling grid, emit CSV")
    p.add_argument("--from", dest="start", type=float, required=True)
    p.add_argument("--to", dest="stop", type=float, required=True)
    p.add_argument("--step", type=float, required=True)
    p.add_argument("--trunc", type=int, default=48, help=_TRUNC_HELP)
    p.add_argument("--restarts", type=int, default=8, help=_RESTARTS_HELP)
    p.add_argument("--out")

    p = sub.add_parser("mu0", help="bracket the lower transition coupling")
    p.add_argument("--trunc", type=int, default=48, help=_TRUNC_HELP)
    p.add_argument("--restarts", type=int, default=6, help=_RESTARTS_HELP)
    p.add_argument("--width", type=float, default=1e-3)

    p = sub.add_parser("semiclassical", help="regime report in trap coordinates")
    p.add_argument("--Na", type=float, required=True, help="interaction product N*a")
    p.add_argument("--h", type=float, required=True)
    p.add_argument("--format", choices=["json", "pretty"], default="pretty")

    p = sub.add_parser("zeros", help="zeros of the polynomial part in a disk")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--R", type=float, default=6.0)
    p.add_argument("--format", choices=["json", "pretty"], default="pretty")

    return parser


def _emit(text: str, out_path) -> None:
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise InvalidParameter(f"cannot write output file: {exc}") from exc
    else:
        sys.stdout.write(text)


def _record(data: dict, fmt: str) -> str:
    """`data` as one JSON line, or as one `key = value` line per entry."""
    if fmt == "json":
        return json.dumps(data) + "\n"
    return "".join(f"{k} = {v}\n" for k, v in data.items())


def _cmd_block(args) -> int:
    if args.j > _MAX_BLOCK_J:
        raise InvalidParameter(
            f"--j must be at most {_MAX_BLOCK_J}, got {args.j}: the dump "
            "grows as about 2 j^3 bytes"
        )
    block = spectra.build_B_block(args.j, decoupled=args.E)
    if args.reduced:
        block = spectra.centro_decompose(block)
    entries = spectra.dump_entries(block)
    if args.format == "json":
        text = json.dumps({"j": args.j, "kind": block.kind.value, "entries": entries})
        text += "\n"
    else:
        width = max(len(e) for row in entries for e in row)
        lines = [f"{block.kind.value}^({args.j}), order {block.order}"]
        for row in entries:
            lines.append("  ".join(e.rjust(width) for e in row))
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return EXIT_OK


def _cmd_certify(args) -> int:
    if args.max_j < sturm.FIRST_J:
        raise InvalidParameter(
            f"--max-j must be at least {sturm.FIRST_J}, the first "
            f"certified block, got {args.max_j}"
        )
    if args.max_j > _MAX_CERTIFY_J:
        raise InvalidParameter(
            f"--max-j must be at most {_MAX_CERTIFY_J}, got {args.max_j}: one "
            "Sturm certificate takes about a second at j = 600, and more above"
        )
    if args.exact_max_j < 0:
        raise InvalidParameter(
            f"--exact-max-j must be at least 0, got {args.exact_max_j}: 0 runs "
            "the Sturm certificate alone"
        )
    lines = []
    failures = 0
    for j in range(sturm.FIRST_J, args.max_j + 1):
        try:
            cert = sturm.positivity_certificate(j)
            checks = [f"sturm transition={cert.transition_index}"]
            if j <= args.exact_max_j:
                reduced = spectra.centro_decompose(spectra.build_B_block(j))
                if not spectra.kernel_annihilated(reduced):
                    raise CertificateFailed(f"kernel vectors not annihilated at j={j}")
                checks.append("kernel=exact")
                if not args.no_eigs:
                    eigs = spectra.symmetric_eigenvalues(spectra.scaled_block(reduced))
                    norm = max(abs(eigs[0]), abs(eigs[-1]))
                    if eigs[0] < -1e-10 * norm:
                        raise CertificateFailed(
                            f"scaled reduced block indefinite at j={j}"
                        )
                    checks.append(f"min_eig={eigs[0]:.3e}")
            verdict = "pass"
        except (CertificateFailed, NotCentrosymmetric) as exc:
            verdict = f"FAIL ({exc})"
            failures += 1
            checks = []
        lines.append(f"j={j} {verdict} " + " ".join(checks))
    text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return EXIT_CERTIFICATE if failures else EXIT_OK


def _report_dict(rep: fock.FunctionalReport) -> dict:
    return {
        "mu": rep.mu,
        "M": rep.M,
        "P": rep.P,
        "Q": [rep.Q.real, rep.Q.imag],
        "H": rep.H,
        "B": rep.B,
        "E": rep.E,
        "G": rep.G,
        "F": rep.F,
    }


def _cmd_functionals(args) -> int:
    u = fock.load_coefficients(args.infile)
    rep = fock.functionals(u, args.mu)
    sys.stdout.write(_record(_report_dict(rep), args.format))
    return EXIT_OK


def _cmd_catalog(args) -> int:
    if args.trunc > _MAX_CATALOG_TRUNC:
        raise InvalidParameter(
            f"--trunc must be at most {_MAX_CATALOG_TRUNC}, got {args.trunc}: "
            "the file holds up to 54 bytes per coefficient"
        )
    if args.wave == "phi_n":
        spec = fock.PhiN(args.n)
    elif args.wave == "phi_n_alpha":
        spec = fock.PhiNAlpha(args.n, complex(args.alpha_re, args.alpha_im))
    elif args.wave == "psi_b":
        spec = fock.PsiB(args.b)
    elif args.wave == "equality":
        spec = fock.EqualityFamily(
            complex(args.a0_re, args.a0_im),
            complex(args.a1_re, args.a1_im),
            complex(args.c_re, args.c_im),
        )
    else:
        spec = fock.SemiclassicalPhi(args.n, args.h)
    u = fock.catalog_coefficients(spec, args.trunc)
    fock.save_coefficients(u, args.out)
    return EXIT_OK


def _result_dict(res: mz.MinimizationResult) -> dict:
    return {
        "mu": res.mu,
        "G": res.G_value,
        "P": res.P_value,
        "Qabs": abs(res.Q_value),
        "H": res.H_value,
        "lagrange_residual": res.lagrange_residual,
        "converged": res.converged,
        "iterations": res.iterations,
        "restart_index": res.restart_index,
        "class": res.label.value,
        "overlap": res.overlap,
        "b_fit": res.b_fit,
        "n_zeros": res.n_zeros,
        "zero_radius": mz.DEFAULT_ZERO_RADIUS,
    }


def _cmd_minimize(args) -> int:
    config = mz.OptimizerConfig(
        truncation=args.trunc,
        restarts=args.restarts,
        max_iters=args.max_iters,
        grad_tol=args.grad_tol,
        seed=args.seed,
    )
    res = mz.minimize_G(args.mu, config)
    _emit(_record(_result_dict(res), args.format), args.out)
    if args.out:
        fock.save_coefficients(res.u, args.out + ".coeffs.json")
    return EXIT_OK if res.converged else EXIT_NUMERICAL


def _cmd_scan(args) -> int:
    if not args.step > 0:
        raise InvalidParameter(f"--step must be positive, got {args.step}")
    if not (math.isfinite(args.start) and math.isfinite(args.stop)):
        raise InvalidParameter(
            f"--from and --to must be finite, got {args.start} and {args.stop}"
        )
    limit = args.stop + 1e-12
    if not args.start <= limit:
        raise InvalidParameter(
            f"empty scan grid: --from {args.start} lies above --to {args.stop}"
        )
    if not args.start > 0:
        raise InvalidParameter(f"--from must be positive, got {args.start}")
    # Every point must move mu: a step below the float spacing near --to
    # would append the same coupling forever.  The size cap stops a step
    # that does move mu from building a list that could never be scanned.
    points = (limit - args.start) / args.step
    if args.step < math.ulp(limit) or points >= _MAX_SCAN_POINTS:
        raise InvalidParameter(
            f"--step {args.step} is too small for the range "
            f"[{args.start}, {args.stop}]: the grid would not end within "
            f"{_MAX_SCAN_POINTS} points"
        )
    grid = []
    mu = args.start
    while mu <= limit:
        grid.append(round(mu, 12))
        mu += args.step
    if not (grid[0] > 0 and all(lo < hi for lo, hi in zip(grid, grid[1:]))):
        raise InvalidParameter(
            f"--from {args.start} or --step {args.step} is finer than the scan "
            "grid's 1e-12 resolution: its couplings would repeat or round to 0"
        )
    config = mz.OptimizerConfig(
        truncation=args.trunc, restarts=args.restarts, seed=args.seed
    )
    _emit(mz.scan_to_csv(mz.scan_mu(grid, config)), args.out)
    return EXIT_OK


def _cmd_mu0(args) -> int:
    config = mz.OptimizerConfig(
        truncation=args.trunc, restarts=args.restarts, seed=args.seed
    )
    interval = mz.estimate_mu0(config, width=args.width)
    print(
        f"mu0 in [{interval.low:.6f}, {interval.high:.6f}] "
        f"(width {interval.width:.2e}; {mz.MU0_CAVEAT})"
    )
    return EXIT_OK


def _cmd_semiclassical(args) -> int:
    rep = mz.semiclassical(args.Na, args.h)
    data = {
        "h": rep.h,
        "Na": rep.Na,
        "mu_eff": rep.mu_eff,
        "h_at_half": rep.h_at_half,
        "h_at_5_32": rep.h_at_532,
        "E_phi0": rep.energy_phi0,
        "E_phi1": rep.energy_phi1,
        "regime": rep.regime,
    }
    sys.stdout.write(_record(data, args.format))
    return EXIT_OK


def _cmd_zeros(args) -> int:
    u = fock.load_coefficients(args.infile)
    zc = mz.count_zeros(u, args.R)
    data = {
        "radius": zc.radius,
        "count": zc.count,
        "roots": [[r.real, r.imag] for r in zc.roots],
        "residuals": list(zc.residuals),
    }
    if args.format == "json":
        print(json.dumps(data))
    else:
        print(f"{zc.count} zero(s) in |z| <= {zc.radius}")
        for r, res in zip(zc.roots, zc.residuals):
            print(f"  z = {r.real:+.12g}{r.imag:+.12g}i  residual {res:.2e}")
    return EXIT_OK


_DISPATCH = {
    "block": _cmd_block,
    "certify": _cmd_certify,
    "functionals": _cmd_functionals,
    "catalog": _cmd_catalog,
    "minimize": _cmd_minimize,
    "scan": _cmd_scan,
    "mu0": _cmd_mu0,
    "semiclassical": _cmd_semiclassical,
    "zeros": _cmd_zeros,
}


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _DISPATCH[args.command](args)
    except CertificateFailed as exc:
        print(f"certificate failure: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATE
    except NoConvergence as exc:
        print(f"no convergence: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except FockminError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        # e.g. a --trunc whose tables do not fit: numpy names the size
        detail = str(exc) or "allocation failed"
        print(f"error: out of memory: {detail}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
