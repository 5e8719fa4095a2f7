"""Coefficient-space core: states, conserved quantities, quartic energy,
symmetry actions and the catalog of closed-form stationary waves.

A state is a finite expansion u = sum_n a_n phi_n over the orthonormal
basis phi_n(z) = z^n e^{-|z|^2/2} / sqrt(pi n!).  All functionals below
are evaluated directly on the coefficient sequence (a_0 .. a_N).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidParameter, NonFiniteParameter, TruncationTooSmall

__all__ = [
    "FockCoefficients",
    "FunctionalReport",
    "PhiN",
    "PhiNAlpha",
    "PsiB",
    "EqualityFamily",
    "SemiclassicalPhi",
    "catalog_coefficients",
    "stationary_frequency",
    "mass",
    "angular_momentum",
    "magnetic_momentum",
    "hamiltonian",
    "functionals",
    "apply_phase",
    "apply_rotation",
    "apply_translation",
    "displacement_matrix",
    "carlen_gap",
    "save_coefficients",
    "load_coefficients",
]

# Tail-mass thresholds: catalog expansions must be essentially exact, while
# translation output only has to keep functional errors below test tolerances.
CATALOG_TAIL_TOL = 1e-14
TRANSLATION_TAIL_TOL = 1e-10


@dataclass(frozen=True)
class FockCoefficients:
    """Finite complex coefficient sequence (a_0 .. a_N)."""

    truncation: int
    coeffs: np.ndarray

    def __post_init__(self):
        if self.truncation < 0:
            raise InvalidParameter(
                f"truncation must be non-negative, got {self.truncation}"
            )
        arr = np.asarray(self.coeffs, dtype=complex)
        if arr.ndim != 1 or arr.shape[0] != self.truncation + 1:
            raise InvalidParameter(
                f"expected {self.truncation + 1} coefficients, got shape {arr.shape}"
            )
        if not np.all(np.isfinite(arr.view(float))):
            raise InvalidParameter("coefficients must be finite")
        # every functional sums |a_k|^2 or more; a mass past float range
        # would turn them all into inf and nan
        with np.errstate(over="ignore"):
            total = np.sum(arr.real**2 + arr.imag**2)
        if not np.isfinite(total):
            raise InvalidParameter("mass sum |a_k|^2 overflows double precision")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    def padded(self, truncation: int) -> "FockCoefficients":
        """Re-embed into a larger truncation (headroom for translations)."""
        if truncation < self.truncation:
            raise InvalidParameter("padding cannot shrink the truncation")
        out = np.zeros(truncation + 1, dtype=complex)
        out[: self.truncation + 1] = self.coeffs
        return FockCoefficients(truncation, out)


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
    `np.bincount` formulation this class replaced, so every result is the
    same to the last bit.  Each sum starts from 0.0, as a bincount bin
    does, so no component is ever -0.0 and the old recombination
    `re + 1j * im` would be the identity.  Never replace these sums with
    `dot`/`vdot`: they add in a different order.

    One convolution per trial point: `value(a, mu, ct)` leaves ct of `a`
    in the caller's array `ct` (length 2N + 1), and
    `value_and_gradient(a, mu, ct)` at the same `a` copies it from there
    instead of convolving again.  Without `ct` both methods convolve.  The
    energy and gradient are the same bits either way.

    Every intermediate lives in scratch arrays built once here: the outer
    product, the sheared rows, ct and its Hankel view, the (n, n) gradient
    terms, conj(a) and the squared moduli.  The weight tables are also
    kept as complex copies, so no product casts them per call (the cast
    is exact).  Reductions call `np.add.reduce`, which is what `sum` runs
    without its Python wrapper.  Every call overwrites the scratch, so one
    kernel (and thus the `energy_kernel` cache) must not be shared across
    threads.  Only the returned gradient is a fresh array.
    """

    def __init__(self, truncation: int):
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
        self.weights = weights = np.sqrt(weights_sq)
        self.mode_index = np.arange(n, dtype=float)
        self._weights_c = weights.astype(complex)
        self._weights4_c = (4.0 * weights).astype(complex)
        self._rows = np.zeros((n, 2 * n), dtype=complex)
        self._products = self._rows[:, :n]
        self._sheared = self._rows.reshape(-1)[: n * (2 * n - 1)].reshape(n, 2 * n - 1)
        self._outer = np.empty((n, n), dtype=complex)
        self._ct = np.empty(2 * n - 1, dtype=complex)
        step = self._ct.strides[0]
        self._hankel = np.lib.stride_tricks.as_strided(
            self._ct, shape=(n, n), strides=(step, step), writeable=False
        )
        self._terms = np.empty((n, n), dtype=complex)
        self._conj_a = np.empty((n, 1), dtype=complex)
        self._mode_scale = np.empty(n)
        self._mode_term = np.empty(n, dtype=complex)
        self._ct_sq = np.empty(2 * n - 1)
        self._ct_sq_im = np.empty(2 * n - 1)
        self._a_sq = np.empty(n)
        self._a_sq_im = np.empty(n)

    def convolution(self, a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The weighted self-convolution ct_j for all j, written to `out`
        when given."""
        outer = np.multiply.outer(a, a, out=self._outer)
        np.multiply(self._weights_c, outer, out=self._products)
        return np.add.reduce(self._sheared, axis=0, initial=0.0, out=out)

    def _squared_sum(self, ct: np.ndarray) -> float:
        """sum_j |ct_j|^2, that is 8*pi*H for this ct."""
        sq = np.multiply(ct.real, ct.real, out=self._ct_sq)
        sq += np.multiply(ct.imag, ct.imag, out=self._ct_sq_im)
        return float(np.add.reduce(sq))

    def _angular_momentum(self, a: np.ndarray) -> float:
        """sum_k k |a_k|^2."""
        sq = np.multiply(a.real, a.real, out=self._a_sq)
        sq += np.multiply(a.imag, a.imag, out=self._a_sq_im)
        sq *= self.mode_index
        return float(np.add.reduce(sq))

    def interaction(self, a: np.ndarray) -> float:
        """8*pi*H: the quartic part of the energy."""
        return self._squared_sum(self.convolution(a, self._ct))

    def value(self, a: np.ndarray, mu: float, ct: np.ndarray | None = None) -> float:
        """G_mu at a; ct of a is left in `ct` when it is given."""
        ct = self.convolution(a, self._ct if ct is None else ct)
        return self._squared_sum(ct) + mu * self._angular_momentum(a)

    def value_and_gradient(
        self, a: np.ndarray, mu: float, ct: np.ndarray | None = None
    ):
        """Energy and Wirtinger gradient d/dRe + i d/dIm at a.

        `ct`, when given, must be the convolution of this `a` (as `value`
        leaves it); it is read, not recomputed.
        """
        if ct is None:
            self.convolution(a, self._ct)
        else:
            np.copyto(self._ct, ct)
        energy = self._squared_sum(self._ct) + mu * self._angular_momentum(a)
        terms = np.multiply(self._weights4_c, self._hankel, out=self._terms)
        terms *= np.conjugate(a[:, None], out=self._conj_a)
        grad = np.add.reduce(terms, axis=0, initial=0.0)
        scale = np.multiply(2.0 * mu, self.mode_index, out=self._mode_scale)
        grad += np.multiply(scale, a, out=self._mode_term)
        return energy, grad


@lru_cache(maxsize=16)
def energy_kernel(truncation: int) -> EnergyKernel:
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
    if a.shape[0] < 2:
        return 0j
    n = np.arange(a.shape[0] - 1, dtype=float)
    return complex(np.sum(np.sqrt(n + 1.0) * a[:-1] * np.conj(a[1:])))


def hamiltonian(u: FockCoefficients) -> float:
    """Quartic interaction energy H = (1/4) integral |u|^4."""
    return energy_kernel(u.truncation).interaction(u.coeffs) / (8.0 * math.pi)


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
    p = angular_momentum(u)
    q = magnetic_momentum(u)
    h = hamiltonian(u)
    q2 = abs(q) ** 2
    b = 4.0 * math.pi * h + 0.25 * (m * p - q2) - 0.5 * m * m
    e = b + 0.25 * q2
    g = 8.0 * math.pi * h + mu * p
    f = 8.0 * math.pi * h + m * (mu * p - m)
    return FunctionalReport(mu=mu, M=m, P=p, Q=q, H=h, B=b, E=e, G=g, F=f)


# ---------------------------------------------------------------------------
# Symmetry actions
# ---------------------------------------------------------------------------


def apply_phase(u: FockCoefficients, gamma: float) -> FockCoefficients:
    return FockCoefficients(u.truncation, np.exp(1j * gamma) * u.coeffs)


def apply_rotation(u: FockCoefficients, theta: float) -> FockCoefficients:
    n = np.arange(u.truncation + 1, dtype=float)
    return FockCoefficients(u.truncation, np.exp(1j * theta * n) * u.coeffs)


def displacement_matrix(alpha: complex, size: int) -> np.ndarray:
    """Matrix of the magnetic translation by alpha on the first `size` modes.

    The translation u(z) -> u(z+alpha) e^{(zbar*alpha - z*alphabar)/2} acts on
    basis coefficients as the unitary displacement with parameter -conj(alpha);
    entries involve generalized Laguerre polynomials.  Entries are exact matrix
    elements of the infinite operator, so truncation loss shows up only as a
    mass defect of the output.
    """
    # Imported here, not at module level: scipy.special adds about 24 MiB
    # and 0.1 s to start-up, and only translations need it.
    from scipy.special import eval_genlaguerre

    beta = -np.conj(alpha)
    x = abs(beta) ** 2
    log_fact = np.zeros(size)
    log_fact[1:] = np.cumsum(np.log(np.arange(1, size)))
    # an entry depends on lo = min(m, n) and d = |m - n| only, up to the
    # phase factor beta^d below the diagonal and (-conj(beta))^d above it
    m, lo = np.tril_indices(size)
    d = m - lo
    magnitude = (
        np.exp(0.5 * (log_fact[lo] - log_fact[m]))
        * math.exp(-0.5 * x)
        * eval_genlaguerre(lo, d, x)
    )
    powers = np.arange(size)
    out = np.zeros((size, size), dtype=complex)
    out[m, lo] = magnitude * (beta**powers)[d]
    out[lo, m] = magnitude * ((-np.conj(beta)) ** powers)[d]
    return out


def apply_translation(
    u: FockCoefficients, alpha: complex, *, tail_tol: float = TRANSLATION_TAIL_TOL
) -> FockCoefficients:
    """Magnetic translation by alpha; errors out without truncation headroom."""
    d = displacement_matrix(alpha, u.truncation + 1)
    out = d @ u.coeffs
    m_in = mass(u)
    m_out = float(np.sum(out.real**2 + out.imag**2))
    if m_in > 0 and (m_in - m_out) > tail_tol * m_in:
        raise TruncationTooSmall(
            f"translation by {alpha} loses mass {m_in - m_out:.3e} "
            f"(tolerance {tail_tol:.1e}); pad the input first"
        )
    return FockCoefficients(u.truncation, out)


# ---------------------------------------------------------------------------
# Embedding constants (Carlen)
# ---------------------------------------------------------------------------


def _log_norm_p(n: int, p: float) -> float:
    """log of the L^p norm of phi_n, from the closed radial integral:
    ||phi_n||_p^p = (pi n!)^{-p/2} * pi * (2/p)^{n p/2 + 1} * Gamma(n p/2 + 1).
    """
    log_pp = (
        -0.5 * p * (math.log(math.pi) + math.lgamma(n + 1))
        + math.log(math.pi)
        + (0.5 * n * p + 1.0) * math.log(2.0 / p)
        + math.lgamma(0.5 * n * p + 1.0)
    )
    return log_pp / p


def carlen_gap(n: int, p: float, q: float) -> float:
    """Slack in the sharp holomorphic L^p -> L^q embedding for phi_n.

    Returns (p/2pi)^{1/p} ||phi_n||_p - (q/2pi)^{1/q} ||phi_n||_q, which is
    non-negative whenever 1 <= p <= q.
    """
    if n < 0:
        raise InvalidParameter("n must be a non-negative integer")
    if p < 1.0 or q < p:
        raise InvalidParameter("need 1 <= p <= q")
    left = math.exp(math.log(p / (2.0 * math.pi)) / p + _log_norm_p(n, p))
    right = math.exp(math.log(q / (2.0 * math.pi)) / q + _log_norm_p(n, q))
    return left - right


# ---------------------------------------------------------------------------
# Stationary-wave catalog
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PhiN:
    """Basis element phi_n."""

    n: int


@dataclass(frozen=True)
class PhiNAlpha:
    """Magnetically translated basis element."""

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


def stationary_frequency(spec: PhiN) -> float:
    """Rotation frequency of the stationary wave phi_n."""
    n = spec.n
    return math.comb(2 * n, n) / (math.pi * 2.0 ** (2 * n + 1))


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
        return FockCoefficients(truncation, out)
    if isinstance(spec, SemiclassicalPhi):
        if spec.k not in (0, 1):
            raise InvalidParameter("semiclassical index must be 0 or 1")
        if not 0.0 < spec.h < 1.0:
            raise InvalidParameter("semiclassical parameter must lie in (0, 1)")
        return catalog_coefficients(PhiN(spec.k), truncation)
    if isinstance(spec, PhiNAlpha):
        if spec.n < 0:
            raise InvalidParameter("basis index must be non-negative")
        base = catalog_coefficients(PhiN(spec.n), truncation)
        # an alpha past float range overflows here; FockCoefficients'
        # finiteness check below reports it, so numpy stays quiet
        with np.errstate(over="ignore", invalid="ignore"):
            d = displacement_matrix(-np.conj(spec.alpha), truncation + 1)
            out = d @ base.coeffs
            defect = 1.0 - float(np.sum(out.real**2 + out.imag**2))
        if defect > CATALOG_TAIL_TOL:
            raise TruncationTooSmall(
                f"translated phi_{spec.n} tail mass {defect:.3e} exceeds "
                f"{CATALOG_TAIL_TOL:.1e} at truncation {truncation}"
            )
        return FockCoefficients(truncation, out)
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
        return FockCoefficients(truncation, out)
    if isinstance(spec, EqualityFamily):
        probe = _equality_family_coefficients(
            spec.a0, spec.a1, spec.c, truncation + 16
        )
        rest = probe[truncation + 1 :]
        # as for PhiNAlpha: overflow is reported by the finiteness check
        with np.errstate(over="ignore", invalid="ignore"):
            total = float(np.sum(probe.real**2 + probe.imag**2))
            tail = float(np.sum(rest.real**2 + rest.imag**2))
        if total > 0 and tail > CATALOG_TAIL_TOL * total:
            raise TruncationTooSmall(
                f"equality-family tail mass {tail / total:.3e} exceeds "
                f"{CATALOG_TAIL_TOL:.1e} at truncation {truncation}"
            )
        return FockCoefficients(truncation, probe[: truncation + 1])
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
        if isinstance(truncation, bool) or not isinstance(truncation, int):
            raise InvalidParameter(
                f"truncation must be an integer, got {truncation!r}"
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
    return FockCoefficients(truncation, coeffs)
