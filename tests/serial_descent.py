"""The serial Riemannian L-BFGS descent, kept as an oracle.

`fockmin.minimize._descend` once descended from one start at a time; it
now advances a stack of (start, coupling) rows in lock step.  `_descend`
and its helpers below are that earlier code, verbatim but for what both
forms share: a curvature pair whose 1 / s^T y overflows is skipped, and
an accepted backtracked trial convolves again for its gradient, to the
bits its `value` call had.  The tests check that every row of a stack ends
with exactly the bits of a descent run on its own.  Its kernel calls take
its one state as a one-row stack, through `kernel_rows.one_row`.
`_descend(a0, mu, config)` returns (a, value, residual, iterations, stop).
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from fockmin.fock import energy_kernel
from kernel_rows import one_row
from fockmin.minimize import (
    ARMIJO,
    BACKTRACK,
    LBFGS_MEMORY,
    METRIC_FLOOR,
    NONMONOTONE_MEMORY,
    STEP_INIT,
    OptimizerConfig,
)


def _norm(x: np.ndarray) -> float:
    """Euclidean norm of a 1-D complex vector: the sum `np.linalg.norm`
    forms, to the same bits, without its Python wrapper."""
    re, im = x.real, x.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def _inner(x: np.ndarray, y: np.ndarray) -> float:
    """Real inner product Re<x, y> of two contiguous complex vectors: the
    dot product of their interleaved (re, im) float views."""
    return float(x.view(float).dot(y.view(float)))


def _tangent_and_metric(
    a: np.ndarray, grad: np.ndarray, weights_sq: np.ndarray, mode_curvature: np.ndarray
):
    """(tangent, metric) at the unit vector a.

    tangent = grad - lam a is the Riemannian gradient, with the Lagrange
    multiplier lam = Re<a, grad>.  The metric is the diagonal of the
    Riemannian Hessian on the unit sphere (Absil, Mahony and Sepulchre,
    2008), m_k = 2 mu k + 8 sum_l c_kl |a_l|^2 - lam: the real Hessian of
    G_mu averaged over the Re and Im directions of mode k, less lam,
    floored at METRIC_FLOOR * lam (lam > 0 for every nonzero a, since G_mu
    is a positive quartic plus a non-negative quadratic).
    `weights_sq` holds c_kl = C(k+l, k)/2^(k+l), the energy kernel's
    `weights_sq`, and `mode_curvature` holds 2 mu k.
    """
    lam = _inner(a, grad)
    tangent = grad - lam * a
    metric = weights_sq @ (a.real * a.real + a.imag * a.imag)
    metric *= 8.0
    metric += mode_curvature
    metric -= lam
    np.maximum(metric, METRIC_FLOOR * lam, out=metric)
    return tangent, metric


def _metric_direction(
    a: np.ndarray, tangent: np.ndarray, metric: np.ndarray
) -> np.ndarray:
    """tangent / metric projected back onto the tangent space at a."""
    direction = tangent / metric
    direction -= _inner(a, direction) * a
    return direction


def _remember_pair(pairs: deque, s: np.ndarray, y: np.ndarray) -> None:
    """Append the curvature pair (s, y, 1 / s^T y), as float views of the
    complex vectors, unless s^T y <= 0, which would make the
    inverse-Hessian estimate indefinite, or 1 / s^T y overflows."""
    sy = _inner(s, y)
    if sy > 0 and math.isfinite(1.0 / sy):
        pairs.append((s.view(float), y.view(float), 1.0 / sy))


def _lbfgs_direction(
    a: np.ndarray, tangent: np.ndarray, metric: np.ndarray, pairs: deque
) -> np.ndarray:
    """L-BFGS two-loop recursion (Liu and Nocedal, Math. Prog. 45 (1989))
    applied to the tangent, seeded with gamma / metric, where
    gamma = s^T y / y^T M^-1 y for the newest pair, and projected onto the
    tangent space at a.  The stored pairs are used as they are, without
    vector transport.  `pairs` must not be empty."""
    q = tangent.copy()
    qf = q.view(float)
    alphas = []
    for s, y, rho in reversed(pairs):
        alpha = rho * s.dot(qf)
        qf -= alpha * y
        alphas.append(alpha)
    inv_metric = 1.0 / metric
    _, y, rho = pairs[-1]
    newest = y.view(complex)
    gamma = 1.0 / (rho * _inner(newest, newest * inv_metric))
    inv_metric *= gamma
    r = q * inv_metric
    rf = r.view(float)
    for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
        rf += (alpha - rho * y.dot(rf)) * s
    r -= _inner(a, r) * a
    return r


def _descend(a0: np.ndarray, mu: float, config: OptimizerConfig):
    """Riemannian L-BFGS descent from a0, in the diagonal metric.

    Returns (a, value, residual, iterations, stop), where stop says why
    the descent ended: "tolerance" (|tangent| <= grad_tol, the Euclidean
    test), "stall" (the Armijo backtracking reached float resolution),
    "plateau" (no decrease above rounding for 200 steps) or "budget"
    (max_iters steps taken).  A plateau or budget stop whose last point
    meets the tolerance is reported as "tolerance".

    Each iteration searches along `_lbfgs_direction` over the last
    LBFGS_MEMORY pairs (s = a+ - a, y = tangent+ - tangent), or along
    `_metric_direction` while no pair is stored or when the L-BFGS slope
    Re<tangent, direction> is not positive.  The first trial step is 1
    once a pair is stored (STEP_INIT before), and a nonmonotone Armijo
    test on the slope accepts it or backtracks.

    The first trial is accepted in nearly every iteration, so it is
    evaluated with its gradient in one `value_and_gradient` call; a
    backtracked trial calls `value`, and only the accepted one then calls
    `value_and_gradient`.
    """
    kern = energy_kernel(config.truncation)
    weights_sq = kern.weights_sq
    mode_curvature = 2.0 * mu * np.arange(config.truncation + 1, dtype=float)
    a = a0 / _norm(a0)
    value, grad = one_row(kern.value_and_gradient, a, mu)
    recent = deque([value], maxlen=NONMONOTONE_MEMORY)
    pairs = deque(maxlen=LBFGS_MEMORY)
    prev_a = prev_tangent = None
    landmark = value
    since_progress = 0
    iters = 0
    stop = "budget"
    for iters in range(1, config.max_iters + 1):
        tangent, metric = _tangent_and_metric(a, grad, weights_sq, mode_curvature)
        residual = _norm(tangent)
        if residual <= config.grad_tol:
            return a, value, residual, iters - 1, "tolerance"
        if prev_a is not None:
            _remember_pair(pairs, a - prev_a, tangent - prev_tangent)
        trial = STEP_INIT
        slope = 0.0
        if pairs:
            trial = 1.0
            direction = _lbfgs_direction(a, tangent, metric, pairs)
            slope = _inner(tangent, direction)
        if not slope > 0:
            direction = _metric_direction(a, tangent, metric)
            slope = _inner(tangent, direction)
        accepted = False
        first = True
        reference = max(recent)
        while trial > 1e-18:
            cand = a - trial * direction
            cand /= _norm(cand)
            if first:
                cand_value, cand_grad = one_row(kern.value_and_gradient, cand, mu)
            else:
                cand_value = one_row(kern.value, cand, mu)
            if cand_value <= reference - ARMIJO * trial * slope:
                accepted = True
                break
            first = False
            trial *= BACKTRACK
        if not accepted:
            stop = "stall"  # Armijo backtracking at floating-point resolution
            break
        prev_a, prev_tangent = a, tangent
        a, value = cand, cand_value
        recent.append(value)
        if first:
            grad = cand_grad
        else:
            _, grad = one_row(kern.value_and_gradient, a, mu)
        # give up once the value sits at floating-point resolution for a while
        if landmark - value > 1e-14 * max(abs(value), 1.0):
            landmark = value
            since_progress = 0
        else:
            since_progress += 1
            if since_progress >= 200:
                stop = "plateau"
                break
    residual = _norm(grad - _inner(a, grad) * a)
    if residual <= config.grad_tol:
        stop = "tolerance"
    return a, value, residual, iters, stop
