"""Gradient checks, sphere-constrained descent, classification, scans."""

import math
import sys
import warnings
from collections import deque
from fractions import Fraction

import numpy as np
import pytest

import bb_descent
import serial_descent as sd
from fock_oracles import apply_phase, apply_rotation, wirtinger_gradient
from kernel_rows import one_row
from fockmin import fock, minimize as mz
from fockmin.errors import (
    DegenerateInput,
    InvalidParameter,
    MuNonPositive,
    NonFiniteParameter,
    TruncationTooSmall,
)

FAST = mz.OptimizerConfig(truncation=24, restarts=4, seed=0)


def stack_pairs(row_pairs):
    """The serial descents' pair deques of several rows, each of the same
    length, as the stacked descent's (s, y, rho) stacks by age."""
    return [
        tuple(np.stack(parts) for parts in zip(*entries))
        for entries in zip(*[[(s, y, [rho]) for s, y, rho in p] for p in row_pairs])
    ]


def random_unit(rng, truncation):
    a = rng.standard_normal(truncation + 1) + 1j * rng.standard_normal(truncation + 1)
    return a / np.linalg.norm(a)


class TestGradient:
    def test_finite_difference_agreement(self):
        rng = np.random.default_rng(2)
        eps = 1e-6
        for _ in range(25):
            n = 12
            a = random_unit(rng, n)
            mu = rng.uniform(0.05, 1.0)
            u = fock.FockCoefficients(a)
            grad = wirtinger_gradient(u, mu)
            kern = fock.energy_kernel(n)
            fd = np.zeros(n + 1, dtype=complex)
            for k in range(n + 1):
                for part, unit in ((0, 1.0), (1, 1j)):
                    dp = a.copy()
                    dm = a.copy()
                    dp[k] += eps * unit
                    dm[k] -= eps * unit
                    diff = (one_row(kern.value, dp, mu) - one_row(kern.value, dm, mu)) / (2 * eps)
                    fd[k] += diff * (1.0 if part == 0 else 1j)
            assert np.linalg.norm(grad - fd) <= 1e-6 * np.linalg.norm(grad)

    def test_stationary_at_basis_elements(self):
        for n, mu in ((0, 0.8), (1, 0.3)):
            u = fock.catalog_coefficients(fock.PhiN(n), 16)
            grad = wirtinger_gradient(u, mu)
            lam = np.real(np.vdot(u.coeffs, grad))
            assert np.linalg.norm(grad - lam * u.coeffs) <= 1e-12


class TestMinimize:
    def test_rejects_non_positive_mu(self):
        with pytest.raises(MuNonPositive):
            mz.minimize_G(0.0, FAST)
        with pytest.raises(MuNonPositive):
            mz.minimize_G(-0.3, FAST)

    @pytest.mark.parametrize("mu", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_mu(self, mu):
        with pytest.raises(NonFiniteParameter):
            mz.minimize_G(mu, FAST)

    def test_unused_named_starts_are_not_built(self):
        # psi_1 does not fit truncation 8, but one restart only uses phi_0
        with pytest.raises(TruncationTooSmall):
            fock.catalog_coefficients(fock.PsiB(1.0), 8)
        config = mz.OptimizerConfig(truncation=8, restarts=1, seed=0)
        res = mz.minimize_G(0.7, config)
        assert res.label is mz.MinimizerClass.PHI0
        assert res.restart_index == 0
        # a start that runs and does not fit is a usage error before any
        # descent, which names the restart and the floor it needs
        with pytest.raises(InvalidParameter, match="restart 2 .* >= 12, got 8"):
            mz.minimize_G(0.7, mz.OptimizerConfig(truncation=8, restarts=3))

    def test_gaussian_regime(self):
        res = mz.minimize_G(0.8, FAST)
        assert res.label is mz.MinimizerClass.PHI0
        assert res.G_value == pytest.approx(1.0, abs=1e-8)
        assert res.overlap >= 1.0 - 1e-6
        assert abs(res.Q_value) <= 1e-6
        assert res.converged

    def test_first_excited_regime(self):
        res = mz.minimize_G(0.49, FAST)
        assert res.label is mz.MinimizerClass.PHI1
        assert res.G_value == pytest.approx(0.99, abs=1e-6)

    def test_degenerate_coupling(self):
        res = mz.minimize_G(0.5, FAST)
        assert res.G_value == pytest.approx(1.0, abs=1e-8)
        assert res.label in (
            mz.MinimizerClass.PHI0,
            mz.MinimizerClass.PHI1,
            mz.MinimizerClass.PSI_B,
        )

    def test_vortex_regime(self):
        res = mz.minimize_G(0.10, mz.OptimizerConfig(truncation=32, restarts=6, seed=0))
        assert res.label is mz.MinimizerClass.UNCLASSIFIED
        assert res.n_zeros >= 4
        assert res.G_value < 0.6
        assert abs(res.Q_value) <= 1e-6

    def test_mass_constraint_and_residual(self):
        res = mz.minimize_G(0.35, FAST)
        assert fock.mass(res.u) == pytest.approx(1.0, abs=1e-12)
        assert res.lagrange_residual <= FAST.grad_tol

    def test_config_validation(self):
        with pytest.raises(InvalidParameter):
            mz.OptimizerConfig(truncation=4)
        with pytest.raises(InvalidParameter):
            mz.OptimizerConfig(restarts=0)
        with pytest.raises(InvalidParameter):
            mz.OptimizerConfig(grad_tol=0.0)
        with pytest.raises(InvalidParameter):
            mz.OptimizerConfig(grad_tol=math.nan)
        with pytest.raises(InvalidParameter, match="seed"):
            mz.OptimizerConfig(seed=-1)
        assert mz.OptimizerConfig(seed=2**70).seed == 2**70

    def test_rejects_negative_iteration_budget(self):
        with pytest.raises(InvalidParameter, match="iteration budget"):
            mz.OptimizerConfig(max_iters=-5)
        assert mz.OptimizerConfig(max_iters=0).max_iters == 0

    def test_determinism(self):
        r1 = mz.minimize_G(0.2, FAST)
        r2 = mz.minimize_G(0.2, FAST)
        assert r1.G_value == r2.G_value
        assert np.array_equal(r1.u.coeffs, r2.u.coeffs)

    def test_descent_decreases_energy_and_keeps_mass(self):
        rng = np.random.default_rng(4)
        kern = fock.energy_kernel(FAST.truncation)
        starts = [random_unit(rng, FAST.truncation) for _ in range(5)]
        rows = mz._descend(starts, [0.3] * len(starts), FAST)
        for start, (a, value, _, _, _) in zip(starts, rows):
            assert value <= one_row(kern.value, start, 0.3) + 1e-15
            assert np.linalg.norm(a) == pytest.approx(1.0, abs=1e-12)


class TestNonmonotoneLineSearch:
    """The L-BFGS descent accepts steps against the largest of the last few
    accepted values, on the slope of its search direction, so it stops
    backtracking at float resolution."""

    SCAN = mz.OptimizerConfig(truncation=48, seed=0)

    def test_few_value_calls_per_gradient(self, monkeypatch):
        # a value or a gradient is one row of a stacked kernel call
        counts = {"value": 0, "value_and_gradient": 0}
        for name in counts:
            original = getattr(fock.EnergyKernel, name)

            def counted(self, a, *args, _name=name, _original=original):
                counts[_name] += len(a)
                return _original(self, a, *args)

            monkeypatch.setattr(fock.EnergyKernel, name, counted)
        mz.scan_mu([0.1, 0.4, 0.7], self.SCAN)
        # the monotone test spent 4.4 trial values per gradient here
        assert counts["value"] < 2 * counts["value_and_gradient"]

    def test_same_minima_as_the_monotone_search(self):
        # seed-0 minima of the monotone Armijo search
        expected = {
            0.1: 0.5447244392267991,
            0.4: 0.9000000000000001,
            0.7: 0.9999999999999999,
        }
        for res in mz.scan_mu(sorted(expected), self.SCAN):
            assert res.G_value == pytest.approx(expected[res.mu], abs=1e-12)

    def test_large_truncation_converges(self):
        res = mz.minimize_G(0.1, mz.OptimizerConfig(truncation=128, seed=0))
        assert res.converged
        assert res.lagrange_residual <= 1e-8


class TestPreconditionedDescent:
    """The diagonal Riemannian-Hessian metric of the descent and the call
    counts it buys."""

    N = 48

    def _states(self):
        rng = np.random.default_rng(11)
        states = [fock.catalog_coefficients(s, self.N).coeffs for s in mz._NAMED_STARTS]
        states += [random_unit(rng, self.N) for _ in range(8)]
        return states

    @pytest.mark.parametrize("mu", [0.02, 0.1, 0.4, 0.7])
    def test_direction_is_a_tangent_descent_direction(self, mu):
        kern = fock.energy_kernel(self.N)
        weights_sq = kern.weights_sq
        mode_curvature = 2.0 * mu * np.arange(self.N + 1, dtype=float)
        for a in self._states():
            _, grad = one_row(kern.value_and_gradient, a, mu)
            tangent, metric = sd._tangent_and_metric(
                a, grad, weights_sq, mode_curvature
            )
            direction = sd._metric_direction(a, tangent, metric)
            assert np.all(metric > 0)
            assert abs(np.real(np.vdot(a, direction))) <= 1e-14
            slope = np.real(np.vdot(tangent, direction))
            if np.any(tangent != 0):
                assert slope > 0
            else:  # phi_0 and phi_1 are exactly stationary
                assert slope == 0

    def test_metric_is_the_hessian_diagonal(self):
        # the finite-difference real Hessian of G_mu, averaged over the Re
        # and Im directions of each mode, less lam, floored
        n, mu, eps = 12, 0.3, 1e-5
        rng = np.random.default_rng(4)
        a = random_unit(rng, n)
        kern = fock.energy_kernel(n)
        _, grad = one_row(kern.value_and_gradient, a, mu)
        lam = np.real(np.vdot(a, grad))
        mode_curvature = 2.0 * mu * np.arange(n + 1, dtype=float)
        _, metric = sd._tangent_and_metric(
            a, grad, kern.weights_sq, mode_curvature
        )
        averaged = np.zeros(n + 1)
        for k in range(n + 1):
            for unit, part in ((1.0, np.real), (1j, np.imag)):
                e = np.zeros(n + 1, dtype=complex)
                e[k] = unit * eps
                _, gp = one_row(kern.value_and_gradient, a + e, mu)
                _, gm = one_row(kern.value_and_gradient, a - e, mu)
                averaged[k] += part(gp[k] - gm[k]) / (4 * eps)
        floor = mz.METRIC_FLOOR * lam
        assert metric == pytest.approx(np.maximum(averaged - lam, floor), rel=1e-6)
        assert np.any(metric > floor) and np.any(metric == floor)

    def test_norm_has_the_bits_of_linalg_norm(self):
        rng = np.random.default_rng(9)
        for size in (1, 25, 49, 193, 1537):
            rows = rng.standard_normal((5, size)) + 1j * rng.standard_normal((5, size))
            rows *= 10.0 ** rng.uniform(-8, 8, (5, 1))
            norms = mz._norms(rows)
            assert norms.shape == (5, 1)
            for x, norm in zip(rows, norms[:, 0]):
                assert sd._norm(x) == np.linalg.norm(x) == norm

    def test_scan_kernel_calls(self, monkeypatch):
        calls = {"n": 0}
        for name in ("value", "value_and_gradient"):
            original = getattr(fock.EnergyKernel, name)

            def counted(self, *args, _original=original):
                calls["n"] += 1
                return _original(self, *args)

            monkeypatch.setattr(fock.EnergyKernel, name, counted)
        mz.scan_mu([0.1, 0.4, 0.7], mz.OptimizerConfig(truncation=48, seed=0))
        # the Barzilai-Borwein descent made 5,151 calls here, and the
        # unpreconditioned one 15,565; L-BFGS made 1,742 with a `value` and
        # a gradient call per accepted step, and 918 once a first trial took
        # its gradient with its value; it makes 191 now that each round's
        # first trials are one stacked call
        assert calls["n"] <= 200

    def test_large_truncation_iterations(self):
        res = mz.minimize_G(0.1, mz.OptimizerConfig(truncation=192, seed=0))
        assert res.converged
        # the Barzilai-Borwein descent took 286 iterations here, and the
        # unpreconditioned one 1,705; L-BFGS takes 50
        assert res.iterations < 80


class TestLbfgsDescent:
    """The L-BFGS direction and its pair memory, the stop reasons of the
    descent, the tie rule between restarts, and agreement with the
    Barzilai-Borwein descent it replaced."""

    N = 48
    BENCH_GRID = (0.1, 0.4, 0.7)

    def _pairs(self, rng, a, count):
        """Curvature pairs with s tangent at a and y = D s + noise."""
        pairs = deque(maxlen=mz.LBFGS_MEMORY)
        for _ in range(count):
            s = 0.1 * random_unit(rng, self.N)
            s -= np.real(np.vdot(a, s)) * a
            y = s * rng.uniform(0.2, 3.0, self.N + 1) + 0.01 * random_unit(rng, self.N)
            sd._remember_pair(pairs, s, y)
        return pairs

    @pytest.mark.parametrize("mu", [0.02, 0.1, 0.4, 0.7])
    def test_direction_is_a_tangent_descent_direction(self, mu):
        rng = np.random.default_rng(12)
        kern = fock.energy_kernel(self.N)
        weights_sq = kern.weights_sq
        mode_curvature = 2.0 * mu * np.arange(self.N + 1, dtype=float)
        states = [fock.catalog_coefficients(s, self.N).coeffs for s in mz._NAMED_STARTS]
        states += [random_unit(rng, self.N) for _ in range(8)]
        for a in states:
            _, grad = one_row(kern.value_and_gradient, a, mu)
            tangent, metric = sd._tangent_and_metric(
                a, grad, weights_sq, mode_curvature
            )
            for count in (1, 3, mz.LBFGS_MEMORY + 2):
                pairs = self._pairs(rng, a, count)
                assert 0 < len(pairs) <= mz.LBFGS_MEMORY
                direction = sd._lbfgs_direction(a, tangent, metric, pairs)
                stacked = mz._lbfgs_direction(
                    a[None], tangent[None], metric[None], stack_pairs([pairs])
                )
                assert stacked[0].tobytes() == direction.tobytes()
                scale = np.linalg.norm(direction)
                assert abs(np.real(np.vdot(a, direction))) <= 1e-14 * max(scale, 1.0)
                slope = np.real(np.vdot(tangent, direction))
                if np.any(tangent != 0):
                    assert slope > 0
                else:  # phi_0 and phi_1 are exactly stationary
                    assert slope == 0

    def test_direction_matches_the_dense_bfgs_update(self):
        # H_0 = gamma M^-1 on the real (re, im) coordinates, updated pair by
        # pair, oldest first, as H <- V^T H V + rho s s^T, V = I - rho y s^T
        rng = np.random.default_rng(5)
        a = random_unit(rng, self.N)
        tangent = random_unit(rng, self.N)
        tangent -= np.real(np.vdot(a, tangent)) * a
        metric = rng.uniform(0.1, 5.0, self.N + 1)
        pairs = self._pairs(rng, a, mz.LBFGS_MEMORY + 2)
        _, y_new, rho_new = pairs[-1]
        inv_metric = np.repeat(1.0 / metric, 2)
        gamma = 1.0 / (rho_new * y_new.dot(inv_metric * y_new))
        h = np.diag(gamma * inv_metric)
        eye = np.eye(h.shape[0])
        for s, y, rho in pairs:
            v = eye - rho * np.outer(y, s)
            h = v.T @ h @ v + rho * np.outer(s, s)
        expected = (h @ tangent.view(float)).view(complex)
        expected -= np.real(np.vdot(a, expected)) * a
        direction = sd._lbfgs_direction(a, tangent, metric, pairs)
        assert direction == pytest.approx(expected, rel=1e-12, abs=1e-14)
        # and the secant equation H y = s holds for the newest pair
        s_new = pairs[-1][0]
        assert h @ y_new == pytest.approx(s_new, rel=1e-12, abs=1e-14)

    def test_pair_without_positive_curvature_is_dropped(self):
        n = self.N + 1
        s = np.zeros(n, dtype=complex)
        s[1] = 1.0
        pairs = deque(maxlen=mz.LBFGS_MEMORY)
        sd._remember_pair(pairs, s, -s)  # s^T y < 0
        orthogonal = np.zeros(n, dtype=complex)
        orthogonal[2] = 1j
        sd._remember_pair(pairs, s, orthogonal)  # s^T y == 0
        assert len(pairs) == 0
        sd._remember_pair(pairs, s, 2.0 * s)
        assert len(pairs) == 1
        kept_s, kept_y, rho = pairs[0]
        assert np.array_equal(kept_s.view(complex), s)
        assert np.array_equal(kept_y.view(complex), 2.0 * s)
        assert rho == 0.5
        for _ in range(mz.LBFGS_MEMORY + 3):
            sd._remember_pair(pairs, s, s)
        assert len(pairs) == mz.LBFGS_MEMORY

    @pytest.mark.parametrize("seed", range(10))
    def test_every_bench_restart_stops_on_tolerance(self, seed):
        config = mz.OptimizerConfig(truncation=self.N, seed=seed)
        starts = mz._starting_points(config, np.random.default_rng(config.seed))
        rows = mz._descend(
            starts * len(self.BENCH_GRID),
            [mu for mu in self.BENCH_GRID for _ in starts],
            config,
        )
        for *_, residual, _, stop in rows:
            assert stop == "tolerance"
            assert residual <= config.grad_tol

    def test_budget_stop(self):
        rng = np.random.default_rng(3)
        start = random_unit(rng, self.N)
        for budget in (0, 3):
            config = mz.OptimizerConfig(truncation=self.N, max_iters=budget)
            [(*_, residual, iters, stop)] = mz._descend([start], [0.3], config)
            assert (stop, iters) == ("budget", budget)
            assert residual > config.grad_tol
        # an exact critical point meets the tolerance without a step
        phi1 = fock.catalog_coefficients(fock.PhiN(1), self.N).coeffs
        config = mz.OptimizerConfig(truncation=self.N, max_iters=0)
        [(*_, iters, stop)] = mz._descend([phi1], [0.3], config)
        assert (stop, iters) == ("tolerance", 0)

    def test_ties_go_to_the_lower_restart_index(self, monkeypatch):
        config = mz.OptimizerConfig(truncation=self.N, restarts=6, seed=0)

        def run(values):
            queue = iter(values)

            def fixed(starts, mus, cfg):
                return [
                    (a0 / np.linalg.norm(a0), next(queue), 0.0, 0, "tolerance")
                    for a0 in starts
                ]

            monkeypatch.setattr(mz, "_descend", fixed)
            return mz.minimize_G(0.7, config).restart_index

        one_ulp_below = math.nextafter(1.0, 0.0)
        assert run([1.0, 1.2, 1.1, 1.3, 1.4, one_ulp_below]) == 0
        assert run([1.0, 1.2, 1.1, 1.3, 1.4, 1.0 - 3e-14]) == 5
        assert run([2.0, 1.0, 1.0 - 1e-15, 1.0, 1.5, 1.2]) == 1

    @pytest.mark.parametrize("seed", range(10, 20))
    def test_same_minima_as_barzilai_borwein(self, monkeypatch, seed):
        config = mz.OptimizerConfig(truncation=self.N, seed=seed)
        results = mz.scan_mu(self.BENCH_GRID, config)

        def oracle(starts, mus, cfg):
            rows = []
            for a0, mu in zip(starts, mus):
                a, value, residual, iters, converged = bb_descent._descend(a0, mu, cfg)
                stop = "tolerance" if converged else "budget"
                rows.append((a, value, residual, iters, stop))
            return rows

        monkeypatch.setattr(mz, "_descend", oracle)
        expected = mz.scan_mu(self.BENCH_GRID, config)
        for res, ref in zip(results, expected):
            assert res.label is ref.label
            assert res.G_value == pytest.approx(ref.G_value, abs=1e-12)


class TestClassify:
    def test_phase_of_gaussian(self):
        u = apply_phase(fock.catalog_coefficients(fock.PhiN(0), 24), 1.1)
        c = mz.classify(u)
        assert c.label is mz.MinimizerClass.PHI0
        assert c.overlap == pytest.approx(1.0, abs=1e-12)

    def test_psi_family_fit(self):
        u = fock.catalog_coefficients(fock.PsiB(1.0), 48)
        c = mz.classify(u)
        assert c.label is mz.MinimizerClass.PSI_B
        assert c.b_fit == pytest.approx(1.0, abs=1e-6)
        assert fock.angular_momentum(u) == pytest.approx(0.25, abs=1e-12)

    def test_psi_family_fit_up_to_symmetry(self):
        u = fock.catalog_coefficients(fock.PsiB(0.6), 48)
        u = apply_rotation(apply_phase(u, 0.9), 1.3)
        c = mz.classify(u)
        assert c.label is mz.MinimizerClass.PSI_B
        assert c.b_fit == pytest.approx(0.6, abs=1e-6)
        assert c.overlap >= 1.0 - 1e-9

    def test_random_state_unclassified(self):
        rng = np.random.default_rng(0)
        u = fock.FockCoefficients(random_unit(rng, 48))
        assert mz.classify(u).label is mz.MinimizerClass.UNCLASSIFIED

    def test_requires_unit_mass(self):
        u = fock.FockCoefficients(2.0 * np.eye(9)[0])
        with pytest.raises(InvalidParameter):
            mz.classify(u)


class TestZeroCounting:
    def test_phi1_single_root_at_origin(self):
        u = fock.catalog_coefficients(fock.PhiN(1), 16)
        zc = mz.count_zeros(u, 1.0)
        assert zc.count == 1
        assert abs(zc.roots[0]) <= 1e-14

    def test_gaussian_has_no_zero(self):
        u = fock.catalog_coefficients(fock.PhiN(0), 16)
        assert mz.count_zeros(u, 10.0).count == 0

    def test_psi_b_single_zero(self):
        u = fock.catalog_coefficients(fock.PsiB(1.0), 64)
        zc = mz.count_zeros(u, 2.0)
        assert zc.count == 1
        assert zc.roots[0] == pytest.approx(1.5, abs=1e-10)
        assert all(r <= 1e-10 for r in zc.residuals)

    def test_high_degree_zeros_are_counted(self):
        # (phi_0 + phi_350)/sqrt(2): all 350 zeros lie on |z| = (350!)^(1/700)
        a = np.zeros(401, dtype=complex)
        a[0] = a[350] = 1.0 / math.sqrt(2.0)
        u = fock.FockCoefficients(a)
        ring = math.exp(math.lgamma(351) / 700)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            zc = mz.count_zeros(u, 30.0)
            assert mz.count_zeros(u, ring - 0.01).count == 0
        assert zc.count == 350
        assert max(abs(abs(z) - ring) for z in zc.roots) <= 1e-9 * ring
        assert max(zc.residuals) <= 1e-10

    def test_degree_above_the_cap_is_rejected_before_the_roots(self, monkeypatch):
        def no_roots(*args, **kwargs):
            raise AssertionError("stop before the roots")

        monkeypatch.setattr(np, "roots", no_roots)
        ones = np.ones(mz.MAX_ZERO_DEGREE + 2)
        above = f"degree {mz.MAX_ZERO_DEGREE + 1} after trimming"
        with pytest.raises(InvalidParameter, match=above):
            mz.count_zeros(fock.FockCoefficients(ones))
        # the cap reads the trimmed degree: a tail below 1e-13 does not count
        for trimmed in (ones[:-1], np.append(ones[:-1], 1e-14)):
            u = fock.FockCoefficients(trimmed)
            with pytest.raises(AssertionError, match="stop before the roots"):
                mz.count_zeros(u)

    def test_scaled_weights_at_the_cap_are_normal(self, monkeypatch):
        # unit coefficients hand the scaled weights themselves to the roots
        weights = []

        def captured(poly):
            weights.append(np.abs(poly))
            raise AssertionError("stop before the roots")

        monkeypatch.setattr(np, "roots", captured)
        ones = np.ones(mz.MAX_ZERO_DEGREE + 1)
        u = fock.FockCoefficients(ones)
        with pytest.raises(AssertionError, match="stop before the roots"):
            mz.count_zeros(u)
        assert len(weights[0]) == mz.MAX_ZERO_DEGREE + 1
        assert weights[0].min() >= sys.float_info.min

    def test_degenerate_input(self):
        u = fock.FockCoefficients(np.zeros(9))
        with pytest.raises(DegenerateInput):
            mz.count_zeros(u, 1.0)

    @pytest.mark.parametrize(
        "radius, error",
        [
            (math.nan, NonFiniteParameter),
            (math.inf, NonFiniteParameter),
            (-1.0, InvalidParameter),
        ],
    )
    def test_rejects_bad_radius(self, radius, error):
        u = fock.catalog_coefficients(fock.PhiN(1), 8)
        with pytest.raises(error):
            mz.count_zeros(u, radius)
        assert mz.count_zeros(u, 0.0).count == 1  # the root at the origin


class TestScan:
    def test_rows_and_closed_form_columns(self):
        results = mz.scan_mu([0.3, 0.7], FAST)
        assert [r.mu for r in results] == [0.3, 0.7]
        g_phi0, g_phi1, g_psi1 = mz.closed_form_lines(results[0].mu)
        assert g_phi1 == pytest.approx(0.8, abs=1e-15)
        assert g_psi1 == pytest.approx(0.95, abs=1e-15)
        assert g_phi0 == 1.0
        r07 = results[1]
        assert r07.G_value == pytest.approx(1.0, abs=1e-6)
        assert r07.label is mz.MinimizerClass.PHI0

    def test_minimizer_beating_phi1_has_larger_momentum(self):
        for r in mz.scan_mu([0.08, 0.12, 0.3, 0.45], FAST):
            if r.mu < 0.5 and r.G_value < mz.closed_form_lines(r.mu)[1] - 1e-9:
                assert r.P_value > 1.0

    def test_csv_format(self):
        text = mz.scan_to_csv(mz.scan_mu([0.4], FAST))
        lines = text.strip().split("\n")
        assert lines[0] == mz.SCAN_HEADER
        assert len(lines) == 2
        assert lines[1].split(",")[0] == "0.4"

    def test_rejects_bad_grid(self):
        with pytest.raises(MuNonPositive):
            mz.scan_mu([0.0, 0.1], FAST)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_grid_before_solving(self, monkeypatch, bad):
        def no_solve(*args, **kwargs):
            raise AssertionError("descent reached with an invalid grid")

        monkeypatch.setattr(mz, "_descend", no_solve)
        with pytest.raises(NonFiniteParameter):
            mz.scan_mu([0.3, bad], FAST)

    def test_rejects_overflowing_grid_before_solving(self, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("descent reached with an invalid grid")

        monkeypatch.setattr(mz, "_descend", no_solve)
        with pytest.raises(InvalidParameter, match=r"\(2 mu N\)\^2 overflows"):
            mz.scan_mu([0.3, 1e200], FAST)


class TestTransitionBracket:
    @pytest.mark.parametrize("width", [0.0, -1e-3, math.nan, math.inf])
    def test_rejects_bad_width_before_solving(self, monkeypatch, width):
        def no_solve(*args, **kwargs):
            raise AssertionError("minimization reached with an invalid width")

        # a regression fails here instead of bisecting forever
        monkeypatch.setattr(mz, "_phi1_is_global", no_solve)
        with pytest.raises(InvalidParameter):
            mz.estimate_mu0(FAST, width=width)

    def test_rejects_single_restart_before_solving(self, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("minimization reached without the phi_1 start")

        monkeypatch.setattr(mz, "_phi1_is_global", no_solve)
        config = mz.OptimizerConfig(truncation=24, restarts=1, seed=0)
        with pytest.raises(InvalidParameter, match="at least 2 restarts"):
            mz.estimate_mu0(config)

    def test_width_below_float_resolution_terminates(self, monkeypatch):
        calls = []

        def step_at(mu, config):
            calls.append(mu)
            assert len(calls) < 200, "bisection no longer shrinks"
            return mu > 0.3

        monkeypatch.setattr(mz, "_phi1_is_global", step_at)
        interval = mz.estimate_mu0(FAST, width=1e-300)
        assert interval.low <= 0.3 < interval.high
        assert math.nextafter(interval.low, 1.0) == interval.high

    def test_bracket_inside_admissible_interval(self):
        config = mz.OptimizerConfig(truncation=48, restarts=6, seed=0)
        interval = mz.estimate_mu0(config)
        assert interval.width <= 1e-3
        assert 5.0 / 32.0 <= interval.low < interval.high < 0.5
        assert "empirical" in mz.MU0_CAVEAT

    def test_vortex_probe_below_admissible_interval(self):
        # just below 5/32 every minimizer carries several vortices
        res = mz.minimize_G(
            5.0 / 32.0 - 0.01, mz.OptimizerConfig(truncation=48, restarts=6, seed=0)
        )
        assert mz.count_zeros(res.u, 6.0).count > 3
        assert res.label is mz.MinimizerClass.UNCLASSIFIED


class TestStabilityThresholds:
    """KAPPA_INF and KAPPA_ZERO are the linear-stability thresholds of phi_1
    and phi_0 along the modes e_n: the second-order coefficients of G_mu
    along normalize(e_1 + eps e_n) and normalize(e_0 + eps e_n)."""

    @staticmethod
    def phi1_bracket(mu, n):
        return mu * (n - 1) - 1 + Fraction(n + 1, 2 ** (n - 1))

    @staticmethod
    def phi0_bracket(mu, n):
        return mu * n - 2 + Fraction(4, 2**n)

    @pytest.mark.parametrize("eps", [1e-3, 5e-4])
    @pytest.mark.parametrize("mu", [0.1, 5.0 / 32.0, 0.3, 0.5, 0.8])
    def test_second_order_coefficients_of_the_energy(self, eps, mu):
        truncation = 24
        for base, first, bracket, g0 in (
            (1, 3, self.phi1_bracket, 0.5 + mu),
            (0, 2, self.phi0_bracket, 1.0),
        ):
            for n in range(first, 10):
                a = np.zeros(truncation + 1, dtype=complex)
                a[base], a[n] = 1.0, eps
                u = fock.FockCoefficients(a / np.linalg.norm(a))
                curvature = (fock.functionals(u, mu).G - g0) / eps**2
                # G is even in eps (a rotation maps eps e_n to -eps e_n), so
                # the remainder is O(eps^2): at most 4.8 eps^2 on this grid
                assert curvature == pytest.approx(
                    float(bracket(mu, n)), abs=6 * eps**2
                ), (base, n)

    def test_thresholds_peak_at_the_constants(self):
        # the coupling at which each bracket vanishes, exactly, for n < 200
        phi1 = {n: Fraction(1 - Fraction(n + 1, 2 ** (n - 1)), n - 1) for n in range(3, 200)}
        phi0 = {n: Fraction(2 - Fraction(4, 2**n), n) for n in range(2, 200)}
        for thresholds, bracket, constant, peaks in (
            (phi1, self.phi1_bracket, mz.KAPPA_INF, {5, 6}),
            (phi0, self.phi0_bracket, mz.KAPPA_ZERO, {2, 3}),
        ):
            top = max(thresholds.values())
            assert top == Fraction(constant)
            assert {n for n, mu in thresholds.items() if mu == top} == peaks
            assert all(bracket(mu, n) == 0 for n, mu in thresholds.items())


class TestEnergyLowerBound:
    def test_decoupled_form_bounds_shifted_energy(self):
        # consequence of E >= 0: F_mu >= (mu - 1/2) P M above the threshold
        rng = np.random.default_rng(8)
        for _ in range(30):
            a = random_unit(rng, 20)
            u = fock.FockCoefficients(a)
            mu = rng.uniform(0.5, 1.2)
            rep = fock.functionals(u, mu)
            assert rep.F >= (mu - 0.5) * rep.P * rep.M - 1e-10


class TestSemiclassical:
    def test_closed_form_energies(self):
        # hold Na*Omega^2 = 4 pi fixed at h = 1/2: Na = 4 pi / (1 - 1/4)
        na = 4.0 * math.pi / 0.75
        rep = mz.semiclassical(na, 0.5)
        assert rep.energy_phi0 == pytest.approx(2.5, abs=1e-12)
        assert rep.energy_phi1 == pytest.approx(2.0, abs=1e-12)

    def test_energy_formula_oracle(self):
        # independent evaluation of Na*Omega^2/(4 pi h) + h and the
        # first-excited analog Na*Omega^2/(8 pi h) + 2h
        for na, h in ((7.0, 0.3), (20.0, 0.8), (1.0, 0.05)):
            rep = mz.semiclassical(na, h)
            om2 = 1.0 - h * h
            assert rep.energy_phi0 == pytest.approx(
                na * om2 / (4 * math.pi * h) + h, rel=1e-14
            )
            assert rep.energy_phi1 == pytest.approx(
                na * om2 / (8 * math.pi * h) + 2 * h, rel=1e-14
            )

    @staticmethod
    def exact_mu_eff(na, h):
        """4 pi h^2 / (Na (1 - h^2)) in exact rationals, with the float pi."""
        h = Fraction(h)
        return 4 * Fraction(math.pi) * h * h / (Fraction(na) * (1 - h * h))

    @pytest.mark.parametrize("na, h", [(1e-20, 1e-160), (1e-320, 1e-10)])
    def test_mu_eff_without_subnormal_intermediates(self, na, h):
        # h^2, or Na itself, is subnormal; mu_eff is not
        expect = self.exact_mu_eff(na, h)
        got = mz.semiclassical(na, h).mu_eff
        assert abs(Fraction(got) / expect - 1) < Fraction(1, 10**15)

    def test_mu_eff_on_a_grid(self):
        checked = 0
        for na in (1e-320, 1e-310, 1e-250, 1e-20, 1.0, 12.5, 1e100):
            for h in (1e-160, 1e-155, 1e-100, 1e-3, 0.4, 0.9, 0.999999):
                expect = self.exact_mu_eff(na, h)
                if not sys.float_info.min <= expect <= sys.float_info.max:
                    with pytest.raises(InvalidParameter, match="mu_eff"):
                        mz.semiclassical(na, h)
                    continue
                got = mz.semiclassical(na, h).mu_eff
                assert abs(Fraction(got) / expect - 1) < Fraction(1, 10**15), (na, h)
                checked += 1
        assert checked >= 35

    def test_threshold_self_consistency(self):
        rep = mz.semiclassical(10.0, 0.4)
        for kappa, h_star in ((0.5, rep.h_at_half), (5.0 / 32.0, rep.h_at_532)):
            probe = mz.semiclassical(10.0, h_star)
            assert probe.mu_eff == pytest.approx(kappa, rel=1e-12)

    def test_regime_flips(self):
        na = 4.0 * math.pi
        h_half = mz.semiclassical(na, 0.5).h_at_half
        h_532 = mz.semiclassical(na, 0.5).h_at_532
        eps = 1e-9
        assert mz.semiclassical(na, h_half + eps).regime == "gaussian-unique"
        assert (
            mz.semiclassical(na, h_half - eps).regime == "first-excited-window"
        )
        assert (
            mz.semiclassical(na, h_532 + eps).regime == "first-excited-window"
        )
        assert (
            mz.semiclassical(na, h_532 - eps).regime == "infinitely-many-zeros"
        )

    def test_parameter_validation(self):
        with pytest.raises(InvalidParameter):
            mz.semiclassical(1.0, 0.0)
        with pytest.raises(InvalidParameter):
            mz.semiclassical(-1.0, 0.5)

    @pytest.mark.parametrize(
        "args",
        [(math.nan, 0.5), (math.inf, 0.5), (1.0, math.nan), (1.0, math.inf)],
    )
    def test_rejects_non_finite_parameters(self, args):
        with pytest.raises(NonFiniteParameter):
            mz.semiclassical(*args)
