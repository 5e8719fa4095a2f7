"""The preconditioned Riemannian Barzilai-Borwein descent, kept as an oracle.

`fockmin.minimize._descend` once took Barzilai-Borwein steps along the
diagonal-metric direction; it now takes L-BFGS steps.  `_search_direction`
and `_descend` below are that earlier code, verbatim except that the
squared weights come from the energy kernel and the line-search
constants from the module, where the current descent reads them, that
the accepted trial's gradient convolves again, to the bits its `value`
call had, and that its kernel calls take its one state as a one-row
stack (`kernel_rows.one_row`), so the tests can check that both descents
reach the same minima.  `_descend` returns
(a, value, residual, iterations, converged).
"""

from __future__ import annotations

from collections import deque

import numpy as np

from fockmin.fock import energy_kernel
from kernel_rows import one_row
from fockmin.minimize import (
    ARMIJO,
    BACKTRACK,
    METRIC_FLOOR,
    NONMONOTONE_MEMORY,
    STEP_INIT,
    OptimizerConfig,
)
from serial_descent import _norm


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
    weights_sq = kern.weights_sq
    mode_curvature = 2.0 * mu * np.arange(config.truncation + 1, dtype=float)
    a = a0 / _norm(a0)
    value, grad = one_row(kern.value_and_gradient, a, mu)
    step = STEP_INIT
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
            cand_value = one_row(kern.value, cand, mu)
            if cand_value <= reference - ARMIJO * trial * slope:
                accepted = True
                break
            trial *= BACKTRACK
        if not accepted:
            break  # stalled at floating-point resolution
        prev_a, prev_tangent = a, tangent
        a, value = cand, cand_value
        recent.append(value)
        _, grad = one_row(kern.value_and_gradient, a, mu)
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
