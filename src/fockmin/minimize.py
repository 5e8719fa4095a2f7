"""Constrained minimization of the rotating-trap energy on the mass sphere.

The energy G_mu = 8*pi*H + mu*P is minimized over unit-mass coefficient
vectors by projected gradient descent with renormalization as the
retraction, restarted from the closed-form stationary waves and from
seeded random states.  Converged minimizers are classified against the
catalog after quotienting out phase, rotation and translation.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from . import fock
from .errors import (
    DegenerateInput,
    InconsistentBracket,
    InvalidParameter,
    MuNonPositive,
    NonFiniteParameter,
    TruncationTooSmall,
)
from .fock import FockCoefficients, PhiN, PsiB, catalog_coefficients, energy_kernel

__all__ = [
    "OptimizerConfig",
    "MinimizationResult",
    "MinimizerClass",
    "Classification",
    "wirtinger_gradient",
    "minimize_G",
    "classify",
    "count_zeros",
    "ZeroCount",
    "scan_mu",
    "ScanRow",
    "scan_to_csv",
    "estimate_mu0",
    "Mu0Interval",
    "semiclassical",
    "SemiclassicalReport",
    "KAPPA_INF",
    "KAPPA_ZERO",
]

KAPPA_INF = 5.0 / 32.0
KAPPA_ZERO = 0.5

DEFAULT_ZERO_RADIUS = 6.0
CLASSIFY_OVERLAP_THRESHOLD = 1.0 - 1e-4

# The line search compares each trial against the largest of the last
# NONMONOTONE_MEMORY accepted values (Grippo, Lampariello and Lucidi, SIAM J.
# Numer. Anal. 23 (1986)), as Raydan (SIAM J. Optim. 7 (1997)) does for
# Barzilai-Borwein steps.  Near a minimizer the monotone test asks for a
# decrease below one ulp of G, so it rejects good steps by rounding alone.
NONMONOTONE_MEMORY = 10

# The descent's diagonal metric is floored at this fraction of the Lagrange
# multiplier, which keeps it positive along the flat phase, rotation and
# translation modes, where the Riemannian Hessian vanishes.
METRIC_FLOOR = 0.25


@dataclass(frozen=True)
class OptimizerConfig:
    truncation: int = 48
    restarts: int = 8
    max_iters: int = 20000
    grad_tol: float = 1e-8
    step_init: float = 0.2
    backtrack: float = 0.5
    armijo: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        if self.truncation < 8:
            raise InvalidParameter("truncation must be at least 8")
        if self.restarts < 1:
            raise InvalidParameter("need at least one restart")
        if self.max_iters < 0:
            raise InvalidParameter(
                f"the iteration budget must be non-negative, got {self.max_iters}"
            )
        if not (math.isfinite(self.grad_tol) and self.grad_tol > 0):
            raise InvalidParameter("gradient tolerance must be positive and finite")


class MinimizerClass(Enum):
    PHI0 = "phi0"
    PHI1 = "phi1"
    PSI_B = "psi_b"
    UNCLASSIFIED = "unclassified"


@dataclass(frozen=True)
class Classification:
    label: MinimizerClass
    overlap: float
    b_fit: float | None


@dataclass(frozen=True)
class MinimizationResult:
    mu: float
    u: FockCoefficients
    G_value: float
    P_value: float
    Q_value: complex
    H_value: float
    lagrange_residual: float
    converged: bool
    iterations: int
    restart_index: int
    label: MinimizerClass
    overlap: float
    b_fit: float | None
    n_zeros: int
    zero_radius: float = DEFAULT_ZERO_RADIUS

    def zero_count_in_disk(self, radius: float) -> int:
        return count_zeros(self.u, radius).count


# ---------------------------------------------------------------------------
# Gradient
# ---------------------------------------------------------------------------


def wirtinger_gradient(u: FockCoefficients, mu: float) -> np.ndarray:
    """Gradient of G_mu in the convention dG/dRe(a_k) + i dG/dIm(a_k)
    (twice the derivative in conj(a_k))."""
    _, grad = energy_kernel(u.truncation).value_and_gradient(u.coeffs, mu)
    return grad


def _norm(x: np.ndarray) -> float:
    """Euclidean norm of a 1-D complex vector: the sum `np.linalg.norm`
    forms, to the same bits, without its Python wrapper."""
    re, im = x.real, x.imag
    return math.sqrt(re.dot(re) + im.dot(im))


@lru_cache(maxsize=16)
def _squared_weights(truncation: int) -> np.ndarray:
    """c[k, l] = C(k+l, k) / 2^(k+l), the square of the kernel weight
    w_{k+l,k}."""
    n = truncation + 1
    table = np.empty((n, n))
    for k in range(n):
        for l in range(k, n):
            table[k, l] = table[l, k] = math.comb(k + l, k) / (1 << (k + l))
    table.setflags(write=False)
    return table


def _search_direction(
    a: np.ndarray, grad: np.ndarray, weights_sq: np.ndarray, mode_curvature: np.ndarray
):
    """(tangent, metric, direction) at the unit vector a.

    tangent = grad - lam a is the Riemannian gradient, with the Lagrange
    multiplier lam = Re<a, grad>.  The metric is the diagonal of the
    Riemannian Hessian on the unit sphere (Absil, Mahony and Sepulchre,
    2008), m_k = 2 mu k + 8 sum_l c_kl |a_l|^2 - lam: the real Hessian of
    G_mu averaged over the Re and Im directions of mode k, less lam,
    floored at METRIC_FLOOR * lam (lam > 0 for every nonzero a, since G_mu
    is a positive quartic plus a non-negative quadratic).
    `mode_curvature` holds 2 mu k.  The direction is tangent / m projected
    back onto the tangent space at a.
    """
    lam = float(np.real(np.vdot(a, grad)))
    tangent = grad - lam * a
    metric = weights_sq @ (a.real * a.real + a.imag * a.imag)
    metric *= 8.0
    metric += mode_curvature
    metric -= lam
    np.maximum(metric, METRIC_FLOOR * lam, out=metric)
    direction = tangent / metric
    direction -= np.real(np.vdot(a, direction)) * a
    return tangent, metric, direction


def _descend(a0: np.ndarray, mu: float, config: OptimizerConfig):
    """Preconditioned Riemannian Barzilai-Borwein descent from a0.

    Each iteration searches along `_search_direction`, with the
    Barzilai-Borwein step measured in its diagonal metric and a
    nonmonotone Armijo test on the slope Re<tangent, direction>.
    Convergence is the Euclidean test |tangent| <= grad_tol.
    """
    kern = energy_kernel(config.truncation)
    weights_sq = _squared_weights(config.truncation)
    mode_curvature = 2.0 * mu * np.arange(config.truncation + 1, dtype=float)
    a = a0 / _norm(a0)
    value, grad = kern.value_and_gradient(a, mu)
    # each trial's convolution, reused for the gradient once it is accepted
    cand_ct = np.empty(2 * config.truncation + 1, dtype=complex)
    step = config.step_init
    recent = deque([value], maxlen=NONMONOTONE_MEMORY)
    prev_a = prev_tangent = None
    landmark = value
    since_progress = 0
    iters = 0
    for iters in range(1, config.max_iters + 1):
        tangent, metric, direction = _search_direction(
            a, grad, weights_sq, mode_curvature
        )
        residual = _norm(tangent)
        if residual <= config.grad_tol:
            return a, value, residual, iters - 1, True
        slope = float(np.real(np.vdot(tangent, direction)))
        # Barzilai-Borwein trial step in the metric, safeguarded by
        # nonmonotone Armijo backtracking
        if prev_a is not None:
            da = a - prev_a
            dt = tangent - prev_tangent
            denom = float(np.real(np.vdot(da, dt)))
            if denom > 0:
                step = float(np.real(np.vdot(da, metric * da))) / denom
            step = min(max(step, 1e-12), 1e3)
        accepted = False
        trial = step
        reference = max(recent)
        while trial > 1e-18:
            cand = a - trial * direction
            cand = cand / _norm(cand)
            cand_value = kern.value(cand, mu, cand_ct)
            if cand_value <= reference - config.armijo * trial * slope:
                accepted = True
                break
            trial *= config.backtrack
        if not accepted:
            break  # stalled at floating-point resolution
        prev_a, prev_tangent = a, tangent
        a, value = cand, cand_value
        recent.append(value)
        _, grad = kern.value_and_gradient(a, mu, cand_ct)
        # give up once the value sits at floating-point resolution for a while
        if landmark - value > 1e-14 * max(abs(value), 1.0):
            landmark = value
            since_progress = 0
        else:
            since_progress += 1
            if since_progress >= 200:
                break
    lam = float(np.real(np.vdot(a, grad)))
    residual = _norm(grad - lam * a)
    return a, value, residual, iters, residual <= config.grad_tol


# Catalog starts, in restart order; random states fill the remaining restarts.
_NAMED_STARTS = (PhiN(0), PhiN(1), PsiB(1.0), PsiB(0.5), PsiB(2.0))


def _starting_points(config: OptimizerConfig, rng: np.random.Generator):
    n = config.truncation
    # only the starts that run are expanded: a wide psi_b start that does
    # not fit a small truncation must not fail a run that never uses it
    points = [
        catalog_coefficients(spec, n).coeffs
        for spec in _NAMED_STARTS[: config.restarts]
    ]
    while len(points) < config.restarts:
        vec = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
        points.append(vec)
    return points


def _check_coupling(mu: float) -> None:
    if not math.isfinite(mu):
        raise NonFiniteParameter(f"the coupling mu must be finite, got {mu}")
    if mu <= 0:
        raise MuNonPositive("the coupling mu must be strictly positive")


def minimize_G(mu: float, config: OptimizerConfig | None = None) -> MinimizationResult:
    """Best sphere-constrained minimizer of G_mu across restarts.

    Raises MuNonPositive for mu <= 0, where no global minimizer exists,
    and NonFiniteParameter for a NaN or infinite mu.  A result that
    exhausted its budget is returned with converged=False.
    """
    _check_coupling(mu)
    config = config or OptimizerConfig()
    rng = np.random.default_rng(config.seed)
    best = None
    for idx, start in enumerate(_starting_points(config, rng)):
        a, value, residual, iters, converged = _descend(start, mu, config)
        key = (value, idx)
        if best is None or key < best[0]:
            best = (key, a, residual, iters, converged, idx)
    _, a, residual, iters, converged, idx = best
    u = FockCoefficients(config.truncation, a)
    rep = fock.functionals(u, mu)
    cls = classify(u)
    zeros = count_zeros(u, DEFAULT_ZERO_RADIUS)
    return MinimizationResult(
        mu=mu,
        u=u,
        G_value=rep.G,
        P_value=rep.P,
        Q_value=rep.Q,
        H_value=rep.H,
        lagrange_residual=residual,
        converged=converged,
        iterations=iters,
        restart_index=idx,
        label=cls.label,
        overlap=cls.overlap,
        b_fit=cls.b_fit,
        n_zeros=zeros.count,
    )


# ---------------------------------------------------------------------------
# Classification against the catalog
# ---------------------------------------------------------------------------


def _max_overlap_over_rotation(target: np.ndarray, a: np.ndarray) -> float:
    """max over theta of |<target, rotated a>|, phases quotiented by modulus."""
    g = np.conj(target) * a
    if np.linalg.norm(g) == 0.0:
        return 0.0
    grid = 4096
    vals = np.fft.fft(g, grid)  # sum_n g_n e^{-2pi i n m / grid}
    m0 = int(np.argmax(np.abs(vals)))

    def overlap(theta):
        n = np.arange(a.shape[0])
        return abs(np.sum(g * np.exp(1j * theta * n)))

    lo = -2.0 * math.pi * (m0 + 1) / grid
    hi = -2.0 * math.pi * (m0 - 1) / grid
    # golden-section refinement of the single smooth peak
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = hi - phi * (hi - lo)
    d = lo + phi * (hi - lo)
    fc, fd = overlap(c), overlap(d)
    for _ in range(64):
        if fc > fd:
            hi, d, fd = d, c, fc
            c = hi - phi * (hi - lo)
            fc = overlap(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + phi * (hi - lo)
            fd = overlap(d)
    return max(fc, fd)


def classify(
    u: FockCoefficients, *, threshold: float = CLASSIFY_OVERLAP_THRESHOLD
) -> Classification:
    """Label a unit-mass state against the stationary catalog.

    Symmetries are quotiented before comparing: the state is displaced so
    its magnetic momentum vanishes, rotation is optimized over a fine grid
    with golden-section refinement, and phase is absorbed by the modulus.
    """
    m = fock.mass(u)
    if abs(m - 1.0) > 1e-8:
        raise InvalidParameter("classification expects a unit-mass state")
    a = u.coeffs
    q = fock.magnetic_momentum(u)
    if abs(q) > 1e-12:
        try:
            centered = fock.apply_translation(u, q / m, tail_tol=1e-6)
        except TruncationTooSmall:
            # far-off-center state without headroom: no catalog member is
            # anywhere near it, so compare uncentered
            pass
        else:
            a = centered.coeffs / np.linalg.norm(centered.coeffs)
            u = FockCoefficients(u.truncation, a)
    overlap0 = abs(a[0])
    overlap1 = abs(a[1]) if a.shape[0] > 1 else 0.0
    if overlap0 >= threshold:
        return Classification(MinimizerClass.PHI0, overlap0, None)
    if overlap1 >= threshold:
        return Classification(MinimizerClass.PHI1, overlap1, None)
    p = fock.angular_momentum(u)
    if 0.0 < p <= 1.0 + 1e-9:
        b_fit = math.sqrt(max(1.0 / math.sqrt(min(p, 1.0)) - 1.0, 0.0))
        target = catalog_coefficients(PsiB(b_fit), u.truncation).coeffs
        overlap_b = _max_overlap_over_rotation(target, a)
        if overlap_b >= threshold:
            return Classification(MinimizerClass.PSI_B, overlap_b, b_fit)
        best = max(overlap0, overlap1, overlap_b)
    else:
        best = max(overlap0, overlap1)
    return Classification(MinimizerClass.UNCLASSIFIED, best, None)


# ---------------------------------------------------------------------------
# Zero counting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ZeroCount:
    count: int
    radius: float
    roots: tuple
    residuals: tuple


def count_zeros(u: FockCoefficients, radius: float = DEFAULT_ZERO_RADIUS) -> ZeroCount:
    """Zeros of the polynomial part inside |z| <= radius.

    Roots come from the companion matrix of sum_n a_n z^n / sqrt(n!) after
    trimming trailing coefficients below 1e-13.  The radius must be finite
    and non-negative.
    """
    if not math.isfinite(radius):
        raise NonFiniteParameter(f"the radius must be finite, got {radius}")
    if radius < 0:
        raise InvalidParameter(f"the radius must be non-negative, got {radius}")
    a = np.asarray(u.coeffs)
    top = a.shape[0] - 1
    while top >= 0 and abs(a[top]) <= 1e-13:
        top -= 1
    if top < 0:
        raise DegenerateInput("all coefficients are numerically zero")
    sqrt_fact = np.ones(top + 1)
    for n in range(1, top + 1):
        sqrt_fact[n] = sqrt_fact[n - 1] * math.sqrt(n)
    poly = a[: top + 1] / sqrt_fact
    if top == 0:
        return ZeroCount(0, radius, (), ())
    roots = np.roots(poly[::-1])
    residuals = []
    for r in roots:
        powers = r ** np.arange(top + 1)
        val = abs(np.sum(poly * powers))
        scale = float(np.sum(np.abs(poly) * np.abs(powers)))
        residuals.append(val / scale if scale > 0 else val)
    inside = [i for i, r in enumerate(roots) if abs(r) <= radius]
    order = sorted(inside, key=lambda i: (abs(roots[i]), roots[i].real, roots[i].imag))
    return ZeroCount(
        count=len(order),
        radius=radius,
        roots=tuple(complex(roots[i]) for i in order),
        residuals=tuple(float(residuals[i]) for i in order),
    )


# ---------------------------------------------------------------------------
# Parameter scans
# ---------------------------------------------------------------------------


SCAN_HEADER = "mu,G_min,P,H,Qabs,class,b_fit,n_zeros,G_phi0,G_phi1,G_psi1"


@dataclass(frozen=True)
class ScanRow:
    mu: float
    G_min: float
    P: float
    H: float
    Qabs: float
    label: MinimizerClass
    b_fit: float | None
    n_zeros: int
    G_phi0: float
    G_phi1: float
    G_psi1: float


def closed_form_lines(mu: float):
    """The three catalog energy lines (psi line drawn at b = 1)."""
    return 1.0, 0.5 + mu, 1.0 + (mu - 0.5) / 4.0


def scan_mu(grid, config: OptimizerConfig | None = None) -> list:
    """Minimize across a grid of couplings; rows sorted by mu.

    The whole grid is validated before the first minimization.
    """
    config = config or OptimizerConfig()
    mus = [float(m) for m in grid]
    for mu in mus:
        _check_coupling(mu)
    rows = []
    for mu in sorted(mus):
        res = minimize_G(mu, config)
        g0, g1, gb = closed_form_lines(mu)
        rows.append(
            ScanRow(
                mu=mu,
                G_min=res.G_value,
                P=res.P_value,
                H=res.H_value,
                Qabs=abs(res.Q_value),
                label=res.label,
                b_fit=res.b_fit,
                n_zeros=res.n_zeros,
                G_phi0=g0,
                G_phi1=g1,
                G_psi1=gb,
            )
        )
    return rows


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def scan_to_csv(rows) -> str:
    lines = [SCAN_HEADER]
    for r in rows:
        lines.append(
            ",".join(
                [
                    _fmt(r.mu),
                    _fmt(r.G_min),
                    _fmt(r.P),
                    _fmt(r.H),
                    _fmt(r.Qabs),
                    r.label.value,
                    _fmt(r.b_fit) if r.b_fit is not None else "",
                    str(r.n_zeros),
                    _fmt(r.G_phi0),
                    _fmt(r.G_phi1),
                    _fmt(r.G_psi1),
                ]
            )
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Transition bracketing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Mu0Interval:
    low: float
    high: float
    caveat: str = "empirical, truncation-dependent"

    @property
    def width(self) -> float:
        return self.high - self.low


def _phi1_is_global(mu: float, config: OptimizerConfig) -> bool:
    res = minimize_G(mu, config)
    return res.label is MinimizerClass.PHI1


def estimate_mu0(
    config: OptimizerConfig | None = None, *, width: float = 1e-3
) -> Mu0Interval:
    """Bracket the coupling below which the first excited state stops being
    the global minimizer.  Bisection between 5/32 and 1/2; the endpoints are
    sanity-checked first and a non-monotone bracket is reported, not hidden.
    """
    if not (math.isfinite(width) and width > 0):
        raise InvalidParameter(
            f"the bracket width must be positive and finite, got {width}"
        )
    config = config or OptimizerConfig()
    low, high = KAPPA_INF, 0.49
    if _phi1_is_global(low + 1e-4, config):
        raise InconsistentBracket(
            "phi_1 already minimizes at the lower endpoint 5/32"
        )
    if not _phi1_is_global(high, config):
        raise InconsistentBracket("phi_1 does not minimize at mu = 0.49")
    while high - low > width:
        mid = 0.5 * (low + high)
        if not low < mid < high:
            break  # adjacent floats: the bracket cannot shrink further
        if _phi1_is_global(mid, config):
            high = mid
        else:
            low = mid
    return Mu0Interval(low, high)


# ---------------------------------------------------------------------------
# Semiclassical coordinates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SemiclassicalReport:
    h: float
    Na: float
    omega_sq: float
    mu_eff: float
    h_at_half: float
    h_at_532: float
    energy_phi0: float
    energy_phi1: float
    regime: str


def _threshold_h(kappa: float, Na: float) -> float:
    # h^2 = kappa * Na * (1 - h^2) / (4 pi), solved in closed form.
    c = kappa * Na / (4.0 * math.pi)
    return math.sqrt(c / (1.0 + c))


def semiclassical(N_param: float, a_param: float, h: float) -> SemiclassicalReport:
    """Semiclassical regime report for trap strength h and interaction Na.

    The effective coupling is mu_eff = 4 pi h^2 / (Na * Omega_h^2) with
    Omega_h^2 = 1 - h^2; the regime labels flip exactly at mu_eff = 1/2 and
    5/32, and the two closed-form energies are
    E(phi_0,h) = Na*Omega^2/(4 pi h) + h,  E(phi_1,h) = Na*Omega^2/(8 pi h) + 2h.
    """
    for name, value in (("N", N_param), ("a", a_param), ("h", h)):
        if not math.isfinite(value):
            raise NonFiniteParameter(f"{name} must be finite, got {value}")
    if not 0.0 < h < 1.0:
        raise InvalidParameter("h must lie in (0, 1)")
    if N_param <= 0 or a_param <= 0:
        raise InvalidParameter("N and a must be positive")
    na = N_param * a_param
    omega_sq = 1.0 - h * h
    mu_eff = 4.0 * math.pi * h * h / (na * omega_sq)
    e0 = na * omega_sq / (4.0 * math.pi * h) + h
    e1 = na * omega_sq / (8.0 * math.pi * h) + 2.0 * h
    if mu_eff > KAPPA_ZERO:
        regime = "gaussian-unique"
    elif mu_eff > KAPPA_INF:
        regime = "first-excited-window"
    else:
        regime = "infinitely-many-zeros"
    return SemiclassicalReport(
        h=h,
        Na=na,
        omega_sq=omega_sq,
        mu_eff=mu_eff,
        h_at_half=_threshold_h(KAPPA_ZERO, na),
        h_at_532=_threshold_h(KAPPA_INF, na),
        energy_phi0=e0,
        energy_phi1=e1,
        regime=regime,
    )
