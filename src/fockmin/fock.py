"""Coefficient-space core: states, conserved quantities, quartic energy,
magnetic translations and the catalog of closed-form stationary waves.

A state is a finite expansion u = sum_n a_n phi_n over the orthonormal
basis phi_n(z) = z^n e^{-|z|^2/2} / sqrt(pi n!).  All functionals below
are evaluated directly on the coefficient sequence (a_0 .. a_N).
"""

from __future__ import annotations

import cmath
import itertools
import json
import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    DegenerateInput,
    InvalidParameter,
    NonFiniteParameter,
    TruncationTooSmall,
)

__all__ = [
    "FockCoefficients",
    "FunctionalReport",
    "PhiN",
    "PhiNAlpha",
    "PsiB",
    "EqualityFamily",
    "SemiclassicalPhi",
    "catalog_coefficients",
    "mass",
    "angular_momentum",
    "magnetic_momentum",
    "hamiltonian",
    "functionals",
    "apply_translation",
    "save_coefficients",
    "load_coefficients",
]

# Tail-mass thresholds: catalog expansions must be essentially exact, while
# translation output only has to keep functional errors below test tolerances.
CATALOG_TAIL_TOL = 1e-14
TRANSLATION_TAIL_TOL = 1e-10
# Zero modes appended to a state before it is translated, and the relative
# size of the Taylor term at which each step of a translation stops (`_displace`).
TRANSLATION_PAD = 64
TAYLOR_TOL = 1e-17
# The energy kernel holds about this many bytes per entry of its (N + 1)^2
# tables (tracemalloc read 88.1-90.0, steady and peak alike, at N = 48 to
# 384: 88 for the tables and the O(N) rows on top); 4 GiB of them is the cap.
KERNEL_BYTES_PER_ENTRY = 90
MAX_KERNEL_TRUNCATION = math.isqrt(2**32 // KERNEL_BYTES_PER_ENTRY) - 1


@dataclass(frozen=True)
class FockCoefficients:
    """Finite complex coefficient sequence (a_0 .. a_N) at truncation N."""

    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.array(self.coeffs, dtype=complex)
        if arr.ndim != 1 or not len(arr):
            raise InvalidParameter(
                f"a state is a non-empty 1-D coefficient vector, got shape {arr.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise InvalidParameter("coefficients must be finite")
        # every functional sums |a_k|^2 or more; a mass past float range
        # would turn them all into inf and nan
        with np.errstate(over="ignore"):
            total = np.sum(arr.real**2 + arr.imag**2)
        if not np.isfinite(total):
            raise InvalidParameter("mass sum |a_k|^2 overflows double precision")
        # P <= N M, |Q|^2 <= (P + M) M and 8 pi H <= M^2, so every term of
        # B and E stays finite while (N + 1) M^2 does
        m = float(total)
        if not math.isfinite(len(arr) * m * m):
            raise InvalidParameter(
                f"mass {m:.3e} is too large: (N + 1) M^2 overflows double precision"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    @property
    def truncation(self) -> int:
        return len(self.coeffs) - 1


# ---------------------------------------------------------------------------
# Quartic energy kernel
# ---------------------------------------------------------------------------


class EnergyKernel:
    """Weight table and scratch arrays for the quartic sum at truncation N.

    The interaction energy is (1/8pi) * sum_j |ct_j|^2 with
    ct_j = sum_k w_{jk} a_k a_{j-k} and w_{jk} = sqrt(C(j,k)/2^j) <= 1,
    so no factorial is ever formed: only binomial ratios appear, which keeps
    every intermediate in floating range for any practical truncation.

    The weights are stored densely as W[k, l] = w_{k+l, k}, which is
    symmetric, next to their read-only square
    `weights_sq[k, l] = C(k+l, k)/2^(k+l)`, which the descent's metric
    reads.  The square is built once, along each anti-diagonal s = k + l,
    with one `math.comb` per diagonal and the exact integer step
    C(s, k+1) = C(s, k)(s-k)/(k+1); each entry is one int true division,
    which is correctly rounded at any size, and W is its IEEE square root.
    The convolution writes the products W[k, l] a_k a_l into
    the first n = N + 1 columns of a zeroed (n, 2n) buffer; the first
    n(2n-1) entries of that buffer, read as an (n, 2n-1) array, hold row k
    shifted right by k places, so column j of this sheared view carries
    exactly the terms of ct_j and zeros elsewhere.  Summing the sheared
    rows over axis 0 adds the terms of each ct_j in the order k = 0..N,
    and the padding zeros add exactly.  The gradient term
    4 w_{jk} ct_j conj(a_{j-k}) is formed on the Hankel view
    H[l, k] = ct_{k+l} and summed over l ascending.  Both orders, and the
    operand order of every product, are those of the index-table
    (`np.bincount`) evaluation `BincountKernel` in
    `tests/test_energy_kernel.py`, so every result matches it to the last
    bit.  Each sum starts from 0.0, as a bincount bin does, so no
    component is ever -0.0.  Never replace these sums with `dot`/`vdot`:
    they add in a different order.

    The kernel takes stacks only: `value(a, mu)` and
    `value_and_gradient(a, mu)` take `a` of shape (R, N + 1) with `mu` of
    shape (R,), and return an (R,) array of energies, the second with a
    fresh (R, N + 1) array of gradients; one state is the one-row stack
    `a[None]`.  Both run one convolution loop, `_convolve`, row by row on
    the (n, 2n) and (n, n) scratch into row r of an (R, 2N + 1) ct array,
    and the gradient's Hankel product fills its row r the same way.  The
    O(N) tails, sum_j |ct_j|^2, P = sum_k k |a_k|^2, the energy and the
    mode term 2 mu k a_k, run once per call on the whole stack.  A stacked
    reduction along a contiguous last axis runs each row's pairwise sum,
    so every row has the bits of a one-row call, whatever its stack mates.
    There is no (R, n, n) scratch: it would multiply the largest arrays by
    R for no fewer operations, so memory grows only by the ct rows and
    their Hankel views, to the widest stack seen.

    Memory: `weights_sq` (8 bytes per (N + 1)^2 entry), W and 4W as complex
    tables (16 each, so no product casts them per call; both are exact),
    the (n, 2n) shear buffer (32) and one (n, n) complex square (16): 88
    bytes per entry (`tracemalloc`: 88.1 at N = 384), and the build peaks
    no higher.  The square serves the convolution, as the outer product,
    and then the gradient, as its terms.  Reductions call `np.add.reduce`,
    `sum` without its Python wrapper.  Every call overwrites the scratch,
    so one kernel (and thus the `energy_kernel` cache) must not be shared
    across threads.  Only the returned energies and gradients are fresh.
    """

    def __init__(self, truncation: int):
        if truncation > MAX_KERNEL_TRUNCATION:
            size = (truncation + 1) ** 2 * KERNEL_BYTES_PER_ENTRY / 2**30
            raise InvalidParameter(
                f"truncation {truncation} would need {size:.1f} GiB of energy "
                f"kernel tables ({KERNEL_BYTES_PER_ENTRY} bytes per (N + 1)^2 "
                f"entry); the largest truncation within 4 GiB is "
                f"{MAX_KERNEL_TRUNCATION}"
            )
        self.truncation = truncation
        n = truncation + 1
        weights_sq = np.empty((n, n))
        for s in range(2 * n - 1):
            lo = max(0, s - truncation)
            binom, scale = math.comb(s, lo), 1 << s
            for k in range(lo, s // 2 + 1):
                weights_sq[k, s - k] = weights_sq[s - k, k] = binom / scale
                binom = binom * (s - k) // (k + 1)
        weights_sq.setflags(write=False)
        self.weights_sq = weights_sq
        self.mode_index = np.arange(n, dtype=float)
        self._weights_c = np.sqrt(weights_sq).astype(complex)
        self._weights4_c = 4.0 * self._weights_c
        self._rows = np.zeros((n, 2 * n), dtype=complex)
        self._products = self._rows[:, :n]
        self._sheared = self._rows.reshape(-1)[: n * (2 * n - 1)].reshape(n, 2 * n - 1)
        self._square = np.empty((n, n), dtype=complex)
        self._ct = np.empty((0, 2 * n - 1), dtype=complex)

    def _convolve(self, a: np.ndarray) -> np.ndarray:
        """The weighted self-convolutions ct_j of the rows of a, one row of
        the ct scratch each, grown to len(a) rows if it holds fewer;
        `_hankel[r]` reads row r as the Hankel matrix H[l, k] = ct_{k+l}."""
        if len(a) > len(self._ct):
            self._ct = np.empty((len(a), self._ct.shape[1]), dtype=complex)
            row, step = self._ct.strides
            self._hankel = np.lib.stride_tricks.as_strided(
                self._ct, shape=(len(a), *self._square.shape), strides=(row, step, step),
                writeable=False,
            )
        cts = self._ct[: len(a)]
        for r, row in enumerate(a):
            outer = np.multiply.outer(row, row, out=self._square)
            np.multiply(self._weights_c, outer, out=self._products)
            np.add.reduce(self._sheared, axis=0, initial=0.0, out=cts[r])
        return cts

    def _energies(self, ct: np.ndarray, a: np.ndarray, mu) -> np.ndarray:
        """G_mu = sum_j |ct_j|^2 + mu sum_k k |a_k|^2 along the last axis."""
        quartic = ct.real * ct.real
        quartic += ct.imag * ct.imag
        sq = a.real * a.real
        sq += a.imag * a.imag
        sq *= self.mode_index
        return np.add.reduce(quartic, axis=-1) + mu * np.add.reduce(sq, axis=-1)

    def value(self, a: np.ndarray, mu) -> np.ndarray:
        """Energies G_mu, shape (R,), at a stack of states a, shape
        (R, N + 1), with couplings mu, shape (R,) or one for every row."""
        return self._energies(self._convolve(a), a, mu)

    def value_and_gradient(self, a: np.ndarray, mu):
        """`value`'s energies and the Wirtinger gradients d/dRe + i d/dIm."""
        cts = self._convolve(a)
        conj = np.conjugate(a)[:, :, None]
        grad = np.empty(a.shape, dtype=complex)
        for r in range(len(a)):
            terms = np.multiply(self._weights4_c, self._hankel[r], out=self._square)
            terms *= conj[r]
            np.add.reduce(terms, axis=0, initial=0.0, out=grad[r])
        grad += np.multiply.outer(2.0 * mu, self.mode_index) * a
        return self._energies(cts, a, mu), grad


@lru_cache(maxsize=1)
def energy_kernel(truncation: int) -> EnergyKernel:
    """The kernel at `truncation`, cached for the next call.  One kernel is
    alive per process: a call at another truncation drops the last one, so
    the tables never sum over truncations (every command and the scan
    driver use one truncation per process)."""
    return EnergyKernel(truncation)


# ---------------------------------------------------------------------------
# Conserved and derived functionals
# ---------------------------------------------------------------------------


def mass(u: FockCoefficients) -> float:
    a = u.coeffs
    return float(np.sum(a.real**2 + a.imag**2))


def angular_momentum(u: FockCoefficients) -> float:
    a = u.coeffs
    n = np.arange(a.shape[0], dtype=float)
    return float(np.sum(n * (a.real**2 + a.imag**2)))


def magnetic_momentum(u: FockCoefficients) -> complex:
    a = u.coeffs
    n = np.arange(a.shape[0] - 1, dtype=float)
    return complex(np.sum(np.sqrt(n + 1.0) * a[:-1] * np.conj(a[1:])))


def hamiltonian(u: FockCoefficients) -> float:
    """Quartic interaction energy H = (1/4) integral |u|^4."""
    # mu = 0 adds 0.0 * P = +0.0 to a sum of squares, which leaves it exact
    [energy] = energy_kernel(u.truncation).value(u.coeffs[None], 0.0)
    return float(energy) / (8.0 * math.pi)


@dataclass(frozen=True)
class FunctionalReport:
    """All conserved and derived functionals of one state at one mu."""

    mu: float
    M: float
    P: float
    Q: complex
    H: float
    B: float
    E: float
    G: float
    F: float


def functionals(u: FockCoefficients, mu: float) -> FunctionalReport:
    if not math.isfinite(mu):
        raise NonFiniteParameter(f"the coupling mu must be finite, got {mu}")
    m = mass(u)
    if m < sys.float_info.min:
        raise DegenerateInput(
            f"the state's mass {m:.3e} is below the smallest normal double "
            f"({sys.float_info.min:.3e}): its functionals would print as zero"
        )
    p = angular_momentum(u)
    q = magnetic_momentum(u)
    h = hamiltonian(u)
    q2 = abs(q) ** 2
    b = 4.0 * math.pi * h + 0.25 * (m * p - q2) - 0.5 * m * m
    e = b + 0.25 * q2
    g = 8.0 * math.pi * h + mu * p
    f = 8.0 * math.pi * h + m * (mu * p - m)
    # the state's own checks keep M through E finite; mu P can still overflow
    overflowed = [
        name for name, value in (("G", g), ("F", f)) if not math.isfinite(value)
    ]
    if overflowed:
        raise InvalidParameter(
            f"the coupling mu {mu:.3e} is too large in magnitude for this state: "
            f"{' and '.join(overflowed)} would not be finite in double precision"
        )
    return FunctionalReport(mu=mu, M=m, P=p, Q=q, H=h, B=b, E=e, G=g, F=f)


# ---------------------------------------------------------------------------
# Magnetic translations
# ---------------------------------------------------------------------------


def _displace(coeffs: np.ndarray, beta: complex) -> tuple[np.ndarray, float]:
    """The displacement exp(beta a^+ - conj(beta) a) applied to (a_0 .. a_N).

    Returns the first N + 1 coefficients of the image and the mass that
    lands past mode N, which is the truncation defect.

    The generator G is tridiagonal,
    (G v)_k = beta sqrt(k) v_{k-1} - conj(beta) sqrt(k+1) v_{k+1}.  It acts
    on the coefficients padded by TRANSLATION_PAD zero modes, n = N + 65
    modes in all, where its norm is below 2|beta| sqrt(n).  exp(G) is taken
    as s = max(1, ceil(2|beta| sqrt(n))) steps exp(G/s), so G/s has norm
    at most 1, and each step is a Taylor sum that stops at the first term
    below TAYLOR_TOL of the sum (compared by largest modulus).  The padded
    generator acts as the true one while the image keeps its mass off the
    last padded modes; the defect is what shows that it did.

    Bound: the image's magnetic momentum is Q + conj(beta) M, and a state on
    modes 0..K has |Q| <= sqrt(K) M.  For |beta| > 2 sqrt(n - 1) the image
    therefore cannot lie in the padded space, and `TruncationTooSmall` is
    raised before any step is taken; below that bound s is at most 4n.
    """
    beta = complex(beta)  # an int beta would take numpy's wrapping int64 path
    if not cmath.isfinite(beta):
        raise NonFiniteParameter(f"the translation must be finite, got {beta}")
    size = coeffs.shape[0]
    n = size + TRANSLATION_PAD
    bound = 2.0 * math.sqrt(n - 1)
    if abs(beta) > bound:
        raise TruncationTooSmall(
            f"translation by |alpha| = {abs(beta):.3e} exceeds 2 sqrt({n - 1}) = "
            f"{bound:.3e}: truncation {size - 1} plus {TRANSLATION_PAD} padding "
            "modes cannot hold it"
        )
    steps = max(1, math.ceil(2.0 * abs(beta) * math.sqrt(n)))
    root = np.sqrt(np.arange(1.0, n))
    up = (beta / steps) * root
    down = (-beta.conjugate() / steps) * root
    v = np.zeros(n, dtype=complex)
    v[:size] = coeffs
    for _ in range(steps):
        term = v
        for k in itertools.count(1):
            nxt = np.zeros(n, dtype=complex)
            nxt[1:] = up * term[:-1]
            nxt[:-1] += down * term[1:]
            term = nxt / k
            v = v + term
            if np.max(np.abs(term)) <= TAYLOR_TOL * np.max(np.abs(v)):
                break
    tail = v[size:]
    return v[:size], float(np.sum(tail.real**2 + tail.imag**2))


def apply_translation(
    u: FockCoefficients, alpha: complex, *, tail_tol: float = TRANSLATION_TAIL_TOL
) -> FockCoefficients:
    """Magnetic translation u(z) -> u(z+alpha) e^{(zbar*alpha - z*alphabar)/2},
    the displacement with beta = -conj(alpha); errors out when more than
    `tail_tol` of the mass would leave the truncation.

    The catalog's `PhiNAlpha(n, alpha)` takes alpha as the displacement
    itself, so it equals this translation of phi_n by -conj(alpha): the
    magnetic momentum of `PhiNAlpha(0, 0.5)` is +0.5, that of phi_0
    translated here by 0.5 is -0.5."""
    out, escaped = _displace(u.coeffs, -complex(alpha).conjugate())
    m_in = mass(u)
    if escaped > tail_tol * m_in:
        raise TruncationTooSmall(
            f"translation by {alpha} loses mass {escaped:.3e} "
            f"(tolerance {tail_tol:.1e}); pad the input first"
        )
    return FockCoefficients(out)


# ---------------------------------------------------------------------------
# Stationary-wave catalog
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PhiN:
    """Basis element phi_n."""

    n: int


@dataclass(frozen=True)
class PhiNAlpha:
    """Magnetically translated basis element: phi_n displaced by
    beta = alpha, exp(alpha a^+ - conj(alpha) a) phi_n.

    This is `apply_translation(phi_n, -conj(alpha))`, whose alpha is the
    shift of the argument z, not the displacement.  Its magnetic momentum
    is conj(alpha), since phi_n has none."""

    n: int
    alpha: complex


@dataclass(frozen=True)
class PsiB:
    """One-parameter family with a single off-center zero, b >= 0."""

    b: float


@dataclass(frozen=True)
class EqualityFamily:
    """(a0 phi_0 + a1 phi_1) e^{c z}: the exact null family of the quartic form."""

    a0: complex
    a1: complex
    c: complex


@dataclass(frozen=True)
class SemiclassicalPhi:
    """phi_k in semiclassical coordinates, k in {0, 1}, 0 < h < 1."""

    k: int
    h: float


WaveSpec = PhiN | PhiNAlpha | PsiB | EqualityFamily | SemiclassicalPhi


def _psi_b_coefficients(b: float, truncation: int) -> np.ndarray:
    gam = b / (1.0 + b * b)
    bet = b * (2.0 + b * b) / (1.0 + b * b)
    pref = math.exp(-0.5 * gam * gam) / math.sqrt(math.pi * (1.0 + b * b))
    out = np.zeros(truncation + 1, dtype=complex)
    out[0] = -math.sqrt(math.pi) * pref * bet
    # sqrt(pi n!) * (gam^{n-1}/(n-1)! - bet*gam^n/n!), with the one ratio
    # sqrt(n!) gam^{n-1}/(n-1)! carried: sqrt(n!) alone overflows at n = 301
    ratio = 1.0
    for n in range(1, truncation + 1):
        out[n] = math.sqrt(math.pi) * pref * ratio * (1.0 - bet * gam / n)
        ratio *= math.sqrt(n + 1) * gam / n
    return out


def _equality_family_coefficients(
    a0: complex, a1: complex, c: complex, truncation: int
) -> np.ndarray:
    out = np.zeros(truncation + 1, dtype=complex)
    out[0] = a0
    ratio = 1.0 + 0j  # sqrt(n!) c^{n-1}/(n-1)!
    for n in range(1, truncation + 1):
        out[n] = ratio * (a0 * c / n + a1)
        ratio *= math.sqrt(n + 1) * c / n
    return out


def catalog_coefficients(spec: WaveSpec, truncation: int) -> FockCoefficients:
    """Expand a catalog wave in the basis, verifying the tail is negligible."""
    if truncation < 0:
        raise InvalidParameter("truncation must be non-negative")
    if isinstance(spec, PhiN):
        if spec.n < 0:
            raise InvalidParameter("basis index must be non-negative")
        if spec.n > truncation:
            raise TruncationTooSmall(f"phi_{spec.n} needs truncation >= {spec.n}")
        out = np.zeros(truncation + 1, dtype=complex)
        out[spec.n] = 1.0
        return FockCoefficients(out)
    if isinstance(spec, SemiclassicalPhi):
        if spec.k not in (0, 1):
            raise InvalidParameter("semiclassical index must be 0 or 1")
        if not 0.0 < spec.h < 1.0:
            raise InvalidParameter("semiclassical parameter must lie in (0, 1)")
        return catalog_coefficients(PhiN(spec.k), truncation)
    if isinstance(spec, PhiNAlpha):
        base = catalog_coefficients(PhiN(spec.n), truncation)
        out, defect = _displace(base.coeffs, spec.alpha)
        if defect > CATALOG_TAIL_TOL:
            raise TruncationTooSmall(
                f"translated phi_{spec.n} tail mass {defect:.3e} exceeds "
                f"{CATALOG_TAIL_TOL:.1e} at truncation {truncation}"
            )
        return FockCoefficients(out)
    if isinstance(spec, PsiB):
        if spec.b < 0:
            raise InvalidParameter("the zero-offset parameter b must be >= 0")
        out = _psi_b_coefficients(spec.b, truncation)
        defect = abs(1.0 - float(np.sum(out.real**2 + out.imag**2)))
        if defect > CATALOG_TAIL_TOL:
            raise TruncationTooSmall(
                f"psi_b tail mass {defect:.3e} exceeds {CATALOG_TAIL_TOL:.1e} "
                f"at truncation {truncation}"
            )
        return FockCoefficients(out)
    if isinstance(spec, EqualityFamily):
        probe = _equality_family_coefficients(
            spec.a0, spec.a1, spec.c, truncation + 16
        )
        rest = probe[truncation + 1 :]
        # an overflow is reported by FockCoefficients' finiteness check
        with np.errstate(over="ignore", invalid="ignore"):
            total = float(np.sum(probe.real**2 + probe.imag**2))
            tail = float(np.sum(rest.real**2 + rest.imag**2))
        if total > 0 and tail > CATALOG_TAIL_TOL * total:
            raise TruncationTooSmall(
                f"equality-family tail mass {tail / total:.3e} exceeds "
                f"{CATALOG_TAIL_TOL:.1e} at truncation {truncation}"
            )
        return FockCoefficients(probe[: truncation + 1])
    raise InvalidParameter(f"unknown wave spec {spec!r}")


# ---------------------------------------------------------------------------
# Coefficient file format
# ---------------------------------------------------------------------------


def save_coefficients(u: FockCoefficients, path) -> None:
    payload = {
        "truncation": u.truncation,
        "coeffs": [[float(c.real), float(c.imag)] for c in u.coeffs],
    }
    try:
        with open(path, "w") as fh:
            json.dump(payload, fh)
            fh.write("\n")
    except OSError as exc:
        raise InvalidParameter(f"cannot write coefficient file: {exc}") from exc


def load_coefficients(path) -> FockCoefficients:
    """Read a coefficient file; any unreadable or malformed file raises
    `InvalidParameter`."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise InvalidParameter(f"cannot read coefficient file: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise InvalidParameter(f"coefficient file is not JSON: {exc}") from exc
    try:
        truncation = payload["truncation"]
        # bool is an int subclass, and int() would floor a float silently
        if type(truncation) is not int or truncation < 0:
            raise InvalidParameter(
                f"truncation must be a non-negative integer, got {truncation!r}"
            )
        pairs = payload["coeffs"]
        if len(pairs) != truncation + 1:
            raise InvalidParameter(
                f"coefficient file declares truncation {truncation} but holds "
                f"{len(pairs)} entries"
            )
        coeffs = np.array([complex(re, im) for re, im in pairs])
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidParameter(f"malformed coefficient file: {exc}") from exc
    return FockCoefficients(coeffs)
