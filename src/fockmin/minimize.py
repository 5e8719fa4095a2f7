"""Constrained minimization of the rotating-trap energy on the mass sphere.

The energy G_mu = 8*pi*H + mu*P is minimized over unit-mass coefficient
vectors by a Riemannian L-BFGS descent, seeded with the diagonal of the
Riemannian Hessian and with renormalization as the retraction, restarted
from the closed-form stationary waves and from seeded random states.
The restarts at one coupling, and every restart at every coupling of a
scan, are descended in lock step as the rows of one stack, and each row
ends with the bits of a descent run on its own; at mu >= 1/2, where the
Gaussian phi_0 is the global minimizer, the stack holds phi_0 alone.
Converged minimizers are classified against the catalog after quotienting
out phase, rotation and translation.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import sys
from collections import deque
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction

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
    "minimize_G",
    "classify",
    "count_zeros",
    "ZeroCount",
    "scan_mu",
    "scan_to_csv",
    "estimate_mu0",
    "Mu0Interval",
    "semiclassical",
    "SemiclassicalReport",
    "KAPPA_INF",
    "KAPPA_ZERO",
]

# The linear-stability thresholds of phi_1 and phi_0: the largest mu at which
# the eps^2 coefficient of G_mu(normalize(e_b + eps e_n)) vanishes for some n.
# phi_0's linear threshold is also its global one: at every mu >= KAPPA_ZERO
# phi_0 minimizes G_mu on the whole unit sphere (the paper's first theorem;
# `certify` proves it exactly up to N = 300), and below it phi_0 is unstable.
KAPPA_INF = 5.0 / 32.0  # b = 1: mu (n - 1) - 1 + (n + 1) 2^(1-n), at n = 5 and 6
KAPPA_ZERO = 0.5  # b = 0: mu n - 2 + 2^(2-n), at n = 2 and 3

DEFAULT_ZERO_RADIUS = 6.0
MU0_CAVEAT = "empirical, truncation-dependent"  # what estimate_mu0 rests on
# The largest trimmed degree `count_zeros` takes: every one of its scaled
# weights is a normal double up to it (degree 3859 has the first subnormal
# one), and the companion matrix's roots cost O(degree^3).
MAX_ZERO_DEGREE = 3858
CLASSIFY_OVERLAP_THRESHOLD = 1.0 - 1e-4

# The line search compares each trial against the largest of the last
# NONMONOTONE_MEMORY accepted values (Grippo, Lampariello and Lucidi, SIAM J.
# Numer. Anal. 23 (1986)).  Near a minimizer the monotone test asks for a
# decrease below one ulp of G, so it rejects good steps by rounding alone.
NONMONOTONE_MEMORY = 10

# The first trial step before any L-BFGS pair is stored, the factor each
# rejected trial is shrunk by, and the Armijo sufficient-decrease fraction.
STEP_INIT = 0.2
BACKTRACK = 0.5
ARMIJO = 1e-4

# The descent direction is the L-BFGS two-loop recursion over the last
# LBFGS_MEMORY curvature pairs (Huang, Gallivan and Absil, SIAM J. Optim. 25
# (2015), for the Riemannian form), seeded with the diagonal metric below.
LBFGS_MEMORY = 6

# The lock-step descent holds about this many bytes per entry of its
# rows x (N + 1) stack (tracemalloc read 600-612 at N = 48, 96 and 192:
# states, gradients, directions and stored pairs); 1 GiB of them is the cap.
DESCENT_BYTES_PER_ENTRY = 640
MAX_DESCENT_ENTRIES = 2**30 // DESCENT_BYTES_PER_ENTRY

# A later restart replaces the best one so far only when its G is lower by
# more than TIE_MARGIN * max(1, |G|), so ties go to the lower restart index
# and an exact catalog critical point is not displaced by a random restart
# that reaches the same G up to rounding.
TIE_MARGIN = 1e-14

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
        if self.seed < 0:  # numpy's generators take non-negative seeds only
            raise InvalidParameter(f"the seed must be non-negative, got {self.seed}")


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


# ---------------------------------------------------------------------------
# Descent
# ---------------------------------------------------------------------------


def _dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise dots x_r . y_r of two (rows, k) float arrays, as a column:
    `np.vecdot` calls per row the BLAS dot that `x[r].dot(y[r])` calls."""
    return np.vecdot(x, y, keepdims=True)


def _inners(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise Re<x_r, y_r> of two complex arrays with contiguous rows: the
    dots of their interleaved (re, im) float views."""
    return _dots(x.view(float), y.view(float))


def _norms(x: np.ndarray) -> np.ndarray:
    """Row-wise Euclidean norms of a complex array, as a column: the sums
    `np.linalg.norm` forms, to the same bits."""
    re, im = x.real, x.imag
    return np.sqrt(_dots(re, re) + _dots(im, im))


# The (s, y, rho) a row holds at an age it has no curvature pair for: both
# loops of `_lbfgs_direction` leave every row unchanged, bit for bit, over it.
_PAD = (-0.0, 0.0, 0.0)


def _remember_pairs(pairs: deque, s: np.ndarray, y: np.ndarray):
    """Store each row's curvature pair (s, y, 1 / s^T y), as float views of
    its complex rows, as its newest entry of `pairs` (one (s, y, rho) stack
    per age, oldest first), unless s^T y <= 0, which would make the
    inverse-Hessian estimate indefinite, or 1 / s^T y overflows, as it does
    for a subnormal s^T y, which would turn the two-loop's inf * 0 into
    nan; such a row keeps its pairs at their ages and holds `_PAD` at an
    age it has no pair for.  Returns (pairs, the rows that stored one)."""
    sy = _inners(s, y)
    with np.errstate(divide="ignore", over="ignore"):
        rho = 1.0 / sy
    kept = (sy > 0) & np.isfinite(rho)
    if kept.all():
        pairs.append((s.view(float), y.view(float), rho))
    elif kept.any():
        by_age = [(s.view(float), y.view(float), rho), *reversed(pairs), _PAD]
        aged = [
            tuple(map(np.where, (kept,) * 3, newer, older))
            for newer, older in zip(by_age, by_age[1:])
        ]
        pairs = deque(reversed(aged[:LBFGS_MEMORY]), maxlen=LBFGS_MEMORY)
    return pairs, kept[:, 0]


def _lbfgs_direction(a, tangent, metric, pairs) -> np.ndarray:
    """L-BFGS two-loop recursion (Liu and Nocedal, Math. Prog. 45 (1989))
    applied to each row's tangent, seeded with gamma / metric, where
    gamma = s^T y / y^T M^-1 y for the newest pair, and projected onto the
    tangent space at a.  `pairs` holds every row's pairs as (s, y, rho)
    stacks, oldest first, and must not be empty; a row's newest entry must
    be a pair, and `_PAD` at its older entries stands for no pair.  The
    stored pairs are used as they are, without vector transport."""
    q = tangent.copy()
    qf = q.view(float)
    alphas = []
    for s, y, rho in reversed(pairs):
        alpha = rho * _dots(s, qf)
        qf -= alpha * y
        alphas.append(alpha)
    inv_metric = 1.0 / metric
    _, y, rho = pairs[-1]
    newest = y.view(complex)
    gamma = 1.0 / (rho * _inners(newest, newest * inv_metric))
    inv_metric *= gamma
    r = q * inv_metric
    rf = r.view(float)
    for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
        rf += (alpha - rho * _dots(y, rf)) * s
    r -= _inners(a, r) * a
    return r


_STOPS = ("tolerance", "stall", "plateau")  # by precedence; "budget" otherwise


def _descend(starts, mus, config: OptimizerConfig) -> list:
    """Riemannian L-BFGS descents in the diagonal metric from each start at
    its coupling, advanced in lock step.

    Returns one (a, value, residual, iterations, stop) per start, in order,
    where stop says why that descent ended: "tolerance" (|tangent| <=
    grad_tol, the Euclidean test), "stall" (the Armijo backtracking reached
    float resolution), "plateau" (no decrease above rounding for 200 steps)
    or "budget" (max_iters steps taken).  A plateau or budget stop whose
    last point meets the tolerance is reported as "tolerance".

    Each iteration forms the tangent = grad - lam a, with the Lagrange
    multiplier lam = Re<a, grad>, and the metric, the diagonal of the
    Riemannian Hessian on the unit sphere (Absil, Mahony and Sepulchre,
    2008), m_k = 2 mu k + 8 sum_l c_kl |a_l|^2 - lam, with c_kl the energy
    kernel's `weights_sq`: the real Hessian of G_mu averaged over the Re
    and Im directions of mode k, less lam, floored at METRIC_FLOOR * lam
    (lam > 0 for every nonzero a, since G_mu is a positive quartic plus a
    non-negative quadratic).  It searches along `_lbfgs_direction` over the
    last LBFGS_MEMORY pairs (s = a+ - a, y = tangent+ - tangent), or along
    tangent / metric, projected, while no pair is stored or when the
    L-BFGS slope Re<tangent, direction> is not positive.  The first trial
    step is 1 once a pair is stored (STEP_INIT before), and a nonmonotone
    Armijo test on the slope accepts it or halves it.

    Each round advances every live row by one iteration with stacked numpy
    calls; a row leaves the stack at the top of the round after its last
    step.  Every product, dot and norm of a row is the elementwise
    operation or BLAS call its descent alone would make, so each row ends
    with the bits of a descent run on its own, whatever its stack mates.
    A row that skips a pair keeps its own pairs at their ages, with `_PAD`
    at the ages it has none for, so one two-loop covers every row that
    holds a pair: those whose newest rho is positive, not `_PAD`'s +0.
    Each trial point, first or halved, is evaluated once, with its
    gradient, in one stacked `value_and_gradient` call on the rows still
    searching, which gives each row the bits of a one-row call; a row whose
    step falls to 1e-18 stalls and keeps its point.
    """
    if not len(starts):
        return []
    kern = energy_kernel(config.truncation)
    mus = np.array(mus, dtype=float)
    a = np.array(starts, dtype=complex)
    a /= _norms(a)
    value, grad = kern.value_and_gradient(a, mus)
    ids = np.arange(len(a))
    recent = np.full((len(a), NONMONOTONE_MEMORY), -np.inf)
    recent[:, 0] = value
    pairs = deque(maxlen=LBFGS_MEMORY)
    prev_a = prev_tangent = a  # not read before the first step
    landmark = value.copy()
    last_progress = np.zeros(len(a), dtype=int)
    stalled = np.zeros(len(a), dtype=bool)
    results = [None] * len(a)
    for step in itertools.count(1):
        lam = _inners(a, grad)
        tangent = grad - lam * a
        residual = _norms(tangent)[:, 0]
        converged = residual <= config.grad_tol
        # give up once the value sits at floating-point resolution for a while
        plateau = last_progress <= step - 201
        stops = converged | stalled | plateau | (step > config.max_iters)
        if stops.any():
            why = np.select([converged, stalled, plateau], _STOPS, "budget")
            for r in np.flatnonzero(stops):
                last = (a[r].copy(), float(value[r]), float(residual[r]), step - 1)
                results[ids[r]] = (*last, str(why[r]))
            live = ~stops
            if not live.any():
                return results
            (ids, mus, a, grad, value, lam, tangent, prev_a, prev_tangent, recent,
             landmark, last_progress, stalled) = (
                x[live]
                for x in (ids, mus, a, grad, value, lam, tangent, prev_a, prev_tangent,
                          recent, landmark, last_progress, stalled)
            )
            pairs = deque(
                ((s[live], y[live], rho[live]) for s, y, rho in pairs),
                maxlen=LBFGS_MEMORY,
            )
        sq = a.real * a.real + a.imag * a.imag
        metric = np.matmul(kern.weights_sq, sq[:, :, None])[:, :, 0]
        metric *= 8.0
        metric += (2.0 * mus)[:, None] * kern.mode_index
        metric -= lam
        np.maximum(metric, METRIC_FLOOR * lam, out=metric)
        if step > 1:
            pairs, _ = _remember_pairs(pairs, a - prev_a, tangent - prev_tangent)
        has_pair = pairs[-1][2][:, 0] > 0 if pairs else np.zeros(len(a), dtype=bool)
        trial = np.where(has_pair, 1.0, STEP_INIT)[:, None]
        direction = np.empty_like(a)
        slope = np.zeros((len(a), 1))  # a row without pairs falls back
        if pairs:
            own = slice(None) if has_pair.all() else np.flatnonzero(has_pair)
            mem = [(s[own], y[own], rho[own]) for s, y, rho in pairs]
            direction[own] = _lbfgs_direction(a[own], tangent[own], metric[own], mem)
            slope[own] = _inners(tangent[own], direction[own])
        fallback = np.flatnonzero(~(slope > 0))
        if len(fallback):
            d = tangent[fallback] / metric[fallback]
            d -= _inners(a[fallback], d) * a[fallback]
            direction[fallback] = d
            slope[fallback] = _inners(tangent[fallback], d)
        cand = a - trial * direction
        cand /= _norms(cand)
        cand_value, cand_grad = kern.value_and_gradient(cand, mus)
        reference = recent.max(axis=1)[:, None]
        search = np.flatnonzero(~(cand_value[:, None] <= reference - ARMIJO * trial * slope))
        while len(search):  # the rows whose last trial failed
            trial[search] *= BACKTRACK
            stalled[search] = ~(trial[search, 0] > 1e-18)  # Armijo at float resolution
            keep = search[stalled[search]]  # a stalled row keeps its point
            cand[keep], cand_value[keep], cand_grad[keep] = a[keep], value[keep], grad[keep]
            search = search[~stalled[search]]
            if len(search):
                c = a[search] - trial[search] * direction[search]
                cand[search] = c = c / _norms(c)
                cand_value[search], cand_grad[search] = kern.value_and_gradient(c, mus[search])
                bound = reference[search] - ARMIJO * trial[search] * slope[search]
                search = search[~(cand_value[search] <= bound[:, 0])]
        prev_a, prev_tangent = a, tangent
        a, value, grad = cand, cand_value, cand_grad
        recent[:, step % NONMONOTONE_MEMORY] = value
        progress = landmark - value > 1e-14 * np.maximum(np.abs(value), 1.0)
        np.copyto(landmark, value, where=progress)
        last_progress[progress] = step


# Catalog starts, in restart order; random states fill the remaining restarts.
_NAMED_STARTS = (PhiN(0), PhiN(1), PsiB(1.0), PsiB(0.5), PsiB(2.0))


def _truncation_floor(spec) -> int:
    """The smallest truncation that holds the catalog wave `spec`."""
    for truncation in itertools.count():
        with contextlib.suppress(TruncationTooSmall):
            catalog_coefficients(spec, truncation)
            return truncation


def _starting_points(config: OptimizerConfig, rng: np.random.Generator):
    """The starts of restarts 0 .. restarts - 1: the catalog starts in
    restart order, then random states drawn from `rng`.  A catalog start
    that the truncation cannot hold raises InvalidParameter naming its
    restart; one past `restarts` is not built and cannot fail a run."""
    n = config.truncation
    points = []
    for index, spec in enumerate(_NAMED_STARTS[: config.restarts]):
        try:
            points.append(catalog_coefficients(spec, n).coeffs)
        except TruncationTooSmall:
            raise InvalidParameter(
                f"restart {index} starts from {spec}, which needs truncation >= "
                f"{_truncation_floor(spec)}, got {n}; --restarts {index} fits"
            ) from None
    while len(points) < config.restarts:
        points.append(rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1))
    return points


def _check_coupling(mu: float, truncation: int) -> None:
    if not math.isfinite(mu):
        raise NonFiniteParameter(f"the coupling mu must be finite, got {mu}")
    if mu <= 0:
        raise MuNonPositive("the coupling mu must be strictly positive")
    # the descent squares gradient terms up to 2 mu N in its norms and dots
    top = 2.0 * mu * truncation
    if not math.isfinite(top * top):
        raise InvalidParameter(
            f"the coupling mu {mu:.3e} is too large for truncation {truncation}: "
            "(2 mu N)^2 overflows double precision"
        )


def scan_mu(grid, config: OptimizerConfig | None = None) -> list:
    """Best sphere-constrained minimizer of G_mu across restarts at each
    coupling of the grid, one `MinimizationResult` per coupling, sorted by
    mu.

    The whole grid is validated, with the errors `minimize_G` documents,
    before the first descent.  Each coupling stacks one row per restart
    below KAPPA_ZERO and restart 0's (phi_0) alone from it on.  The cap
    MAX_DESCENT_ENTRIES reads those counts before any coupling is checked.
    The starts are built and drawn once, as many as the largest count, so
    a coupling below KAPPA_ZERO descends the same starts whatever else the
    grid holds.  All rows are descended as one stack, and each coupling
    keeps its best row, ties going to the lower restart index.

    At mu >= KAPPA_ZERO every block of the energy's quadratic form is
    positive semi-definite, so G_mu >= 1 = G_mu(phi_0) on the unit sphere
    and phi_0 is a global minimizer: `certify` proves it in exact
    arithmetic for every N <= 300 (`certify --max-j 600 --exact-max-j
    600`), and the paper for all N.  A random restart could only tie it.
    """
    config = config or OptimizerConfig()
    mus = sorted(float(m) for m in grid)
    counts = [1 if mu >= KAPPA_ZERO else config.restarts for mu in mus]
    entries = sum(counts) * (config.truncation + 1)
    if entries > MAX_DESCENT_ENTRIES:
        raise InvalidParameter(
            f"{sum(counts)} descent row(s) ({config.restarts} per coupling below "
            f"mu = {KAPPA_ZERO}, 1 at or above it) x {config.truncation + 1} modes "
            f"is {entries} descent entries, above the cap of {MAX_DESCENT_ENTRIES} "
            f"(about {DESCENT_BYTES_PER_ENTRY} bytes each)"
        )
    for mu in mus:
        _check_coupling(mu, config.truncation)
    widest = replace(config, restarts=max(counts, default=1))
    starts = _starting_points(widest, np.random.default_rng(config.seed))
    stack = [start for count in counts for start in starts[:count]]
    rows = iter(_descend(stack, np.repeat(mus, counts), config))
    results = []
    for mu, count in zip(mus, counts):
        mine = list(itertools.islice(rows, count))
        idx = 0
        for j, (_, value, *_) in enumerate(mine):
            best = mine[idx][1]
            if value < best - TIE_MARGIN * max(1.0, abs(best)):
                idx = j
        a, _, residual, iters, stop = mine[idx]
        u = FockCoefficients(a)
        rep = fock.functionals(u, mu)
        cls = classify(u)
        zeros = count_zeros(u, DEFAULT_ZERO_RADIUS)
        results.append(
            MinimizationResult(
                mu=mu,
                u=u,
                G_value=rep.G,
                P_value=rep.P,
                Q_value=rep.Q,
                H_value=rep.H,
                lagrange_residual=residual,
                converged=stop == "tolerance",
                iterations=iters,
                restart_index=idx,
                label=cls.label,
                overlap=cls.overlap,
                b_fit=cls.b_fit,
                n_zeros=zeros.count,
            )
        )
    return results


def minimize_G(mu: float, config: OptimizerConfig | None = None) -> MinimizationResult:
    """Best sphere-constrained minimizer of G_mu across restarts, which are
    descended as one stack, `scan_mu` at one coupling.

    At mu >= KAPPA_ZERO only restart 0 (phi_0) is descended: phi_0 is a
    global minimizer there, proved exactly by `certify` for N <= 300 and
    by the paper for all N, and it stops at its start with iterations 0.

    Raises MuNonPositive for mu <= 0, where no global minimizer exists,
    NonFiniteParameter for a NaN or infinite mu, and InvalidParameter for
    a mu whose (2 mu N)^2 overflows, for rows x (N + 1) above
    MAX_DESCENT_ENTRIES, where mu >= KAPPA_ZERO stacks one row and a mu
    below it one per restart, or for a catalog start of those rows that N
    cannot hold.  A result whose descent stopped short of the tolerance
    (Armijo stall, plateau or budget) is returned with converged=False.
    """
    return scan_mu([mu], config)[0]


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


def classify(u: FockCoefficients) -> Classification:
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
            u = FockCoefficients(a)
    overlap0 = abs(a[0])
    overlap1 = abs(a[1]) if a.shape[0] > 1 else 0.0
    if overlap0 >= CLASSIFY_OVERLAP_THRESHOLD:
        return Classification(MinimizerClass.PHI0, overlap0, None)
    if overlap1 >= CLASSIFY_OVERLAP_THRESHOLD:
        return Classification(MinimizerClass.PHI1, overlap1, None)
    p = fock.angular_momentum(u)
    if 0.0 < p <= 1.0 + 1e-9:
        b_fit = math.sqrt(max(1.0 / math.sqrt(min(p, 1.0)) - 1.0, 0.0))
        target = catalog_coefficients(PsiB(b_fit), u.truncation).coeffs
        overlap_b = _max_overlap_over_rotation(target, a)
        if overlap_b >= CLASSIFY_OVERLAP_THRESHOLD:
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

    The polynomial is sum_n a_n z^n / sqrt(n!), with trailing coefficients
    below 1e-13 trimmed to degree `top`.  Its roots come from the companion
    matrix in the scaled variable w = z / r, r = (top!)^(1/(2 top)), about
    sqrt(top / e), which gives the weights r^n / sqrt(n!) the same value 1
    at n = 0 and n = top.  Those weights are formed in logarithms relative
    to the largest, about e^(top/(2e)) near n = top/e, so every weight is
    a normal double up to top = MAX_ZERO_DEGREE = 3858 (sqrt(n!) alone
    overflows at n = 301).  At top = 3859 an end weight turns subnormal,
    and 62 do at top = 4000, so a top above the cap raises
    `InvalidParameter` before the matrix is built.
    The scale sqrt(top) would also stay in range, but it leaves the roots
    of (phi_0 + phi_350)/sqrt(2) wrong by up to 11 in |z|.  Each residual
    is |p(w)| / sum_n |c_n w^n|, evaluated in w, on the reversed
    polynomial when |w| > 1.  The radius must be finite and non-negative.
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
    if top == 0:
        return ZeroCount(0, radius, (), ())
    if top > MAX_ZERO_DEGREE:
        raise InvalidParameter(
            f"the polynomial part has degree {top} after trimming, above "
            f"{MAX_ZERO_DEGREE}, the largest whose scaled weights are all normal"
        )
    degrees = np.arange(top + 1)
    log_fact = np.zeros(top + 1)
    log_fact[1:] = np.cumsum(np.log(degrees[1:]))
    log_scale = 0.5 * (degrees * (log_fact[top] / top) - log_fact)
    poly = a[: top + 1] * np.exp(log_scale - log_scale.max())
    unit = math.exp(log_fact[top] / (2 * top))
    roots = np.roots(poly[::-1])
    inside = [w for w in roots if abs(w) * unit <= radius]
    inside.sort(key=lambda w: (abs(w), w.real, w.imag))
    residuals = []
    for w in inside:
        powers = w ** (degrees if abs(w) <= 1.0 else degrees - top)
        val = abs(np.sum(poly * powers))
        scale = float(np.sum(np.abs(poly) * np.abs(powers)))
        residuals.append(val / scale if scale > 0 else val)
    return ZeroCount(
        count=len(inside),
        radius=radius,
        roots=tuple(complex(w * unit) for w in inside),
        residuals=tuple(float(r) for r in residuals),
    )


# ---------------------------------------------------------------------------
# Parameter scans
# ---------------------------------------------------------------------------


SCAN_HEADER = "mu,G_min,P,H,Qabs,class,b_fit,n_zeros,G_phi0,G_phi1,G_psi1"


def closed_form_lines(mu: float):
    """The three catalog energy lines (psi line drawn at b = 1)."""
    return 1.0, 0.5 + mu, 1.0 + (mu - 0.5) / 4.0


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def scan_to_csv(results) -> str:
    lines = [SCAN_HEADER]
    for r in results:
        lines.append(
            ",".join(
                [
                    _fmt(r.mu),
                    _fmt(r.G_value),
                    _fmt(r.P_value),
                    _fmt(r.H_value),
                    _fmt(abs(r.Q_value)),
                    r.label.value,
                    _fmt(r.b_fit) if r.b_fit is not None else "",
                    str(r.n_zeros),
                    *map(_fmt, closed_form_lines(r.mu)),
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
    if config.restarts < 2:
        raise InvalidParameter(
            f"the bracket needs at least 2 restarts, got {config.restarts}: "
            "restart 1 is the phi_1 start whose minimality it tests"
        )
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


def semiclassical(Na: float, h: float) -> SemiclassicalReport:
    """Semiclassical regime report for trap strength h and interaction Na.

    The effective coupling is mu_eff = 4 pi h^2 / (Na * Omega_h^2) with
    Omega_h^2 = 1 - h^2; the regime labels flip exactly at mu_eff = 1/2 and
    5/32, and the two closed-form energies are
    E(phi_0,h) = Na*Omega^2/(4 pi h) + h,  E(phi_1,h) = Na*Omega^2/(8 pi h) + 2h.
    Omega_h^2 is rounded once from its exact value, and mu_eff is formed
    on the mantissas of h and Na, so neither a subnormal h^2 nor a
    subnormal Na * Omega_h^2 costs digits.  A report with a number that
    would not be finite, or with a mu_eff below the smallest normal
    double, raises InvalidParameter.
    """
    for name, value in (("Na", Na), ("h", h)):
        if not math.isfinite(value):
            raise NonFiniteParameter(f"{name} must be finite, got {value}")
    if not 0.0 < h < 1.0:
        raise InvalidParameter("h must lie in (0, 1)")
    if Na <= 0:
        raise InvalidParameter("Na must be positive")
    # rounded once from its exact value: 1 - h * h cancels as h nears 1
    # (a relative 1e-11 at h = 0.999999)
    omega_sq = float(1 - Fraction(h) ** 2)
    # mu_eff from the mantissas of h and Na, scaled back by one power of
    # two: h * h is subnormal below h = 1.5e-154 and Na * omega_sq below
    # Na = 2.2e-308, and either would cost digits.  Scaling by a power of
    # two is exact, so where nothing is subnormal or overflows midway this
    # is the plain quotient to the bit.
    h_frac, h_exp = math.frexp(h)
    na_frac, na_exp = math.frexp(Na)
    quotient = 4.0 * math.pi * h_frac * h_frac / (na_frac * omega_sq)
    try:
        mu_eff = math.ldexp(quotient, 2 * h_exp - na_exp)
    except OverflowError:
        mu_eff = math.inf
    e0 = Na * omega_sq / (4.0 * math.pi * h) + h
    e1 = Na * omega_sq / (8.0 * math.pi * h) + 2.0 * h
    values = (("mu_eff", mu_eff), ("E_phi0", e0), ("E_phi1", e1))
    overflowed = [name for name, value in values if not math.isfinite(value)]
    out_of_range = f"Na = {Na:.3e} and h = {h:.3e} are out of range: "
    if overflowed:
        raise InvalidParameter(
            out_of_range
            + f"{' and '.join(overflowed)} would not be finite in double precision"
        )
    if mu_eff < sys.float_info.min:  # h^2 underflowed
        raise InvalidParameter(
            out_of_range + "mu_eff would be below the smallest normal double "
            f"({sys.float_info.min:.3e})"
        )
    if mu_eff > KAPPA_ZERO:
        regime = "gaussian-unique"
    elif mu_eff > KAPPA_INF:
        regime = "first-excited-window"
    else:
        regime = "infinitely-many-zeros"
    return SemiclassicalReport(
        h=h,
        Na=Na,
        mu_eff=mu_eff,
        h_at_half=_threshold_h(KAPPA_ZERO, Na),
        h_at_532=_threshold_h(KAPPA_INF, Na),
        energy_phi0=e0,
        energy_phi1=e1,
        regime=regime,
    )
