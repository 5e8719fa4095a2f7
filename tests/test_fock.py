"""Coefficient-space functionals, catalog identities and symmetry actions."""

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from fock_oracles import (
    apply_phase,
    apply_rotation,
    displacement_matrix,
    generator_columns,
    loop_displacement_matrix,
    zero_padded,
)
from fockmin import fock
from fockmin.errors import InvalidParameter, NonFiniteParameter, TruncationTooSmall


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


def stationary_frequency(spec):
    """Rotation frequency of the stationary wave phi_n."""
    n = spec.n
    return math.comb(2 * n, n) / (math.pi * 2.0 ** (2 * n + 1))


def log_space_psi_b(b, truncation):
    """psi_b coefficients with every factorial and power in logarithms."""
    gam = b / (1.0 + b * b)
    bet = b * (2.0 + b * b) / (1.0 + b * b)
    pref = math.exp(-0.5 * gam * gam) / math.sqrt(math.pi * (1.0 + b * b))
    out = np.zeros(truncation + 1)
    out[0] = -math.sqrt(math.pi) * pref * bet
    for n in range(1, truncation + 1):
        log_ratio = 0.5 * math.lgamma(n + 1) + (n - 1) * math.log(gam) - math.lgamma(n)
        out[n] = math.sqrt(math.pi) * pref * math.exp(log_ratio) * (1.0 - bet * gam / n)
    return out


def random_state(rng, truncation, support=None):
    support = truncation if support is None else support
    a = np.zeros(truncation + 1, dtype=complex)
    a[: support + 1] = rng.standard_normal(support + 1) + 1j * rng.standard_normal(
        support + 1
    )
    a /= np.linalg.norm(a)
    return fock.FockCoefficients(a)


class TestConservedQuantities:
    def test_mass_basis_element(self):
        u = fock.FockCoefficients(np.array([1.0, 0.0, 0.0]))
        assert fock.mass(u) == 1.0

    def test_mass_zero_vector(self):
        u = fock.FockCoefficients(np.zeros(3))
        assert fock.mass(u) == 0.0

    def test_momentum_of_phi1(self):
        u = fock.catalog_coefficients(fock.PhiN(1), 8)
        assert fock.angular_momentum(u) == pytest.approx(1.0, abs=1e-15)

    def test_magnetic_momentum_single_mode(self):
        u = fock.catalog_coefficients(fock.PhiN(0), 8)
        assert fock.magnetic_momentum(u) == 0.0

    def test_magnetic_momentum_two_mode_mix(self):
        # direct evaluation of the momentum sum: sqrt(1) * (1/sqrt2)^2 = 1/2
        a = np.zeros(9, dtype=complex)
        a[0] = a[1] = 1.0 / math.sqrt(2.0)
        u = fock.FockCoefficients(a)
        assert fock.magnetic_momentum(u) == pytest.approx(0.5, abs=1e-14)


class TestHamiltonian:
    def test_gaussian(self):
        u = fock.catalog_coefficients(fock.PhiN(0), 8)
        assert fock.hamiltonian(u) == pytest.approx(1.0 / (8.0 * math.pi), rel=1e-14)

    def test_phi2_stirling_sequence(self):
        # 8 pi H(phi_n) = (2n)!/(2^{2n} n!^2); n = 2 gives 3/8
        u = fock.catalog_coefficients(fock.PhiN(2), 8)
        assert 8.0 * math.pi * fock.hamiltonian(u) == pytest.approx(0.375, rel=1e-13)

    def test_psi_b_interaction(self):
        # matching mu-coefficients in the closed-form energy gives
        # 8 pi H(psi_b) = 1 - (1/2)/(1+b^2)^2, so 7/8 at b = 1
        u = fock.catalog_coefficients(fock.PsiB(1.0), 64)
        assert 8.0 * math.pi * fock.hamiltonian(u) == pytest.approx(0.875, abs=1e-13)


class TestFunctionalReport:
    def test_gaussian_flat_line(self):
        u = fock.catalog_coefficients(fock.PhiN(0), 8)
        for mu in (0.0, 0.3, 1.0):
            rep = fock.functionals(u, mu)
            assert rep.G == pytest.approx(1.0, abs=1e-14)
            assert rep.B == pytest.approx(0.0, abs=1e-14)

    def test_phi1_line(self):
        u = fock.catalog_coefficients(fock.PhiN(1), 8)
        rep = fock.functionals(u, 0.3)
        assert rep.G == pytest.approx(0.8, abs=1e-14)
        assert rep.B == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("mu", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_mu(self, mu):
        u = fock.catalog_coefficients(fock.PhiN(1), 8)
        with pytest.raises(NonFiniteParameter):
            fock.functionals(u, mu)

    def test_phi2_quartic_value(self):
        # brute force: H = 3/(64 pi), M = 1, P = 2, Q = 0 gives
        # B = 3/16 + (1*2)/4 - 1/2 = 3/16
        u = fock.catalog_coefficients(fock.PhiN(2), 8)
        rep = fock.functionals(u, 0.0)
        assert rep.B == pytest.approx(3.0 / 16.0, rel=1e-13)

    def test_identities_random(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            u = random_state(rng, 24)
            mu = rng.uniform(0.0, 1.0)
            rep = fock.functionals(u, mu)
            assert rep.E == pytest.approx(rep.B + 0.25 * abs(rep.Q) ** 2, rel=1e-12)
            assert rep.F == pytest.approx(
                2.0 * rep.E + (mu - 0.5) * rep.P * rep.M, rel=1e-11, abs=1e-13
            )
            assert rep.G == pytest.approx(8.0 * math.pi * rep.H + mu * rep.P, rel=1e-12)
            assert rep.M >= 0.0 and rep.H >= 0.0 and rep.P >= 0.0

    def test_quartic_form_nonnegative_random(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            u = random_state(rng, 20)
            rep = fock.functionals(u, 0.0)
            assert rep.B >= -1e-12
            assert rep.E >= -1e-12

    def test_half_coupling_doubles_decoupled_form(self):
        rng = np.random.default_rng(3)
        u = random_state(rng, 16)
        rep = fock.functionals(u, 0.5)
        assert rep.F == pytest.approx(2.0 * rep.E, rel=1e-12)


class TestCatalog:
    def test_phi0_is_first_basis_vector(self):
        u = fock.catalog_coefficients(fock.PhiN(0), 8)
        expected = np.zeros(9)
        expected[0] = 1.0
        assert np.array_equal(u.coeffs, expected)

    def test_psi_b_mass_and_momentum(self):
        for b in (0.0, 0.7, 1.0, 2.5, 4.0):
            u = fock.catalog_coefficients(fock.PsiB(b), 64)
            assert fock.mass(u) == pytest.approx(1.0, abs=1e-12)
            assert abs(fock.magnetic_momentum(u)) <= 1e-12

    def test_psi_b_zero_location(self):
        # the polynomial factor is z - b(2+b^2)/(1+b^2): a single root at 3/2
        from fockmin.minimize import count_zeros

        u = fock.catalog_coefficients(fock.PsiB(1.0), 64)
        zc = count_zeros(u, 2.0)
        assert zc.count == 1
        assert zc.roots[0] == pytest.approx(1.5, abs=1e-10)

    def test_psi_b_energy_line_on_grid(self):
        mus = [0.05 * k for k in range(21)]
        bs = [0.25 * k for k in range(17)]
        for b in bs:
            u = fock.catalog_coefficients(fock.PsiB(b), 64)
            rep0 = fock.functionals(u, 0.0)
            for mu in mus:
                expected = 1.0 + (mu - 0.5) / (1.0 + b * b) ** 2
                got = 8.0 * math.pi * rep0.H + mu * rep0.P
                assert got == pytest.approx(expected, abs=1e-12)

    def test_psi_b_limits(self):
        u0 = fock.catalog_coefficients(fock.PsiB(0.0), 32)
        phi1 = fock.catalog_coefficients(fock.PhiN(1), 32)
        assert np.allclose(u0.coeffs, phi1.coeffs, atol=1e-15)

    def test_equality_family_reduces_to_modes(self):
        u = fock.catalog_coefficients(fock.EqualityFamily(1.0, 2.0, 0.0), 16)
        assert u.coeffs[0] == 1.0
        assert u.coeffs[1] == 2.0
        assert np.all(u.coeffs[2:] == 0.0)

    @pytest.mark.parametrize("b", [0.3, 0.5, 1.0, 2.0, 5.0])
    def test_psi_b_finite_to_large_truncation(self, b):
        # sqrt(n!) alone overflows at n = 301; the carried ratio does not
        u = fock.catalog_coefficients(fock.PsiB(b), 2000)
        assert np.all(np.isfinite(u.coeffs.view(float)))
        assert fock.mass(u) == pytest.approx(1.0, abs=1e-14)
        oracle = log_space_psi_b(b, 2000)
        normal = np.abs(oracle) > 1e-250
        assert np.all(np.abs(u.coeffs.imag) == 0)
        assert np.allclose(u.coeffs.real[normal], oracle[normal], rtol=1e-12, atol=0)

    def test_equality_family_finite_to_large_truncation(self):
        spec = fock.EqualityFamily(0.6, 0.3 - 0.2j, 0.8 + 0.5j)
        u = fock.catalog_coefficients(spec, 2000)
        assert np.all(np.isfinite(u.coeffs.view(float)))
        small = fock.catalog_coefficients(spec, 64)
        assert np.array_equal(u.coeffs[:65], small.coeffs)

    def test_translated_basis_element_stays_normalized(self):
        u = fock.catalog_coefficients(fock.PhiNAlpha(2, 0.5 + 0.25j), 48)
        assert fock.mass(u) == pytest.approx(1.0, abs=1e-13)

    @pytest.mark.parametrize(
        "n, alpha", [(0, 0.5), (1, 0.3 - 0.4j), (3, -1.2 + 0.7j), (5, 2j)]
    )
    def test_catalog_alpha_is_the_displacement(self, n, alpha):
        # PhiNAlpha(n, alpha) displaces phi_n by beta = alpha, while
        # apply_translation(u, alpha) displaces by beta = -conj(alpha); the
        # image's magnetic momentum is conj(beta) since phi_n has none
        phi = fock.catalog_coefficients(fock.PhiN(n), 64)
        u = fock.catalog_coefficients(fock.PhiNAlpha(n, alpha), 64)
        moved = fock.apply_translation(phi, -np.conj(alpha))
        assert np.max(np.abs(u.coeffs - moved.coeffs)) <= 1e-13
        assert abs(fock.magnetic_momentum(u) - np.conj(alpha)) <= 1e-13
        shifted = fock.apply_translation(phi, alpha)
        assert abs(fock.magnetic_momentum(shifted) + alpha) <= 1e-13

    def test_parameter_validation(self):
        with pytest.raises(InvalidParameter):
            fock.catalog_coefficients(fock.PsiB(-0.5), 32)
        with pytest.raises(InvalidParameter):
            fock.catalog_coefficients(fock.SemiclassicalPhi(0, 1.5), 32)
        with pytest.raises(TruncationTooSmall):
            fock.catalog_coefficients(fock.PhiN(9), 8)
        with pytest.raises(TruncationTooSmall):
            fock.catalog_coefficients(fock.PhiNAlpha(0, 4.0 + 0j), 12)

    def test_stationary_frequency(self):
        assert stationary_frequency(fock.PhiN(0)) == pytest.approx(
            1.0 / (2.0 * math.pi)
        )
        assert stationary_frequency(fock.PhiN(1)) == pytest.approx(
            2.0 / (8.0 * math.pi)
        )


class TestSymmetries:
    def test_phase_and_rotation_leave_report_invariant(self):
        rng = np.random.default_rng(5)
        u = random_state(rng, 20)
        rep = fock.functionals(u, 0.4)
        for gamma in (0.3, 1.2):
            rep_p = fock.functionals(apply_phase(u, gamma), 0.4)
            assert rep_p.M == pytest.approx(rep.M, rel=1e-13)
            assert rep_p.H == pytest.approx(rep.H, rel=1e-12)
            assert rep_p.Q == pytest.approx(rep.Q, abs=1e-13)
        for theta in (0.3, 2.0):
            rep_r = fock.functionals(apply_rotation(u, theta), 0.4)
            assert rep_r.M == pytest.approx(rep.M, rel=1e-13)
            assert rep_r.P == pytest.approx(rep.P, rel=1e-13)
            assert rep_r.H == pytest.approx(rep.H, rel=1e-12)
            assert rep_r.B == pytest.approx(rep.B, rel=1e-11, abs=1e-13)
            assert rep_r.Q == pytest.approx(np.exp(-1j * theta) * rep.Q, abs=1e-13)

    def test_translation_momentum_laws(self):
        rng = np.random.default_rng(9)
        u = random_state(rng, 48, support=12)
        rep = fock.functionals(u, 0.4)
        for alpha in (0.4, -0.3 + 0.5j, 0.8j):
            rep_t = fock.functionals(fock.apply_translation(u, alpha), 0.4)
            expected_p = rep.P - 2.0 * np.real(np.conj(alpha) * rep.Q) + abs(alpha) ** 2 * rep.M
            assert rep_t.P == pytest.approx(expected_p, abs=1e-10)
            assert rep_t.Q == pytest.approx(rep.Q - alpha * rep.M, abs=1e-10)
            assert rep_t.B == pytest.approx(rep.B, rel=1e-9)

    def test_translation_round_trip(self):
        rng = np.random.default_rng(13)
        u = random_state(rng, 48, support=10)
        back = fock.apply_translation(fock.apply_translation(u, 0.6 - 0.2j), -0.6 + 0.2j)
        assert np.max(np.abs(back.coeffs - u.coeffs)) <= 1e-10

    def test_displacement_unitary_on_retained_block(self):
        d = generator_columns(0.7 - 0.3j, 128, 65)
        defect = np.max(np.abs(d.conj().T @ d - np.eye(65)))
        assert defect <= 1e-10

    @pytest.mark.parametrize("alpha", [0.0, 0.3 + 0.1j, 0.7 - 0.3j, -1.2 + 0.7j, 2.5j])
    @pytest.mark.parametrize("size", [1, 2, 9, 49, 97])
    def test_displacement_matches_loop_oracle(self, alpha, size):
        d = displacement_matrix(alpha, size)
        oracle = loop_displacement_matrix(alpha, size)
        assert np.array_equal(d == 0, oracle == 0)
        nonzero = oracle != 0
        rel = np.abs(d - oracle)[nonzero] / np.abs(oracle[nonzero])
        assert np.all(rel <= 1e-14)

    @pytest.mark.parametrize(
        "truncation, alpha",
        [(48, 0.3 + 0.2j), (200, 1.5 - 0.5j), (768, 1e-9), (768, 2.0), (1000, 1.0 - 1.5j)],
    )
    def test_generator_matches_matrix_oracle(self, truncation, alpha):
        rng = np.random.default_rng(truncation)
        u = random_state(rng, truncation, support=truncation // 2)
        moved = fock.apply_translation(u, alpha)
        expected = displacement_matrix(alpha, truncation + 1) @ u.coeffs
        assert np.max(np.abs(moved.coeffs - expected)) <= 1e-13

    def test_integer_alpha_equals_float(self):
        # an int alpha once took numpy's int64 power path, which wraps
        rng = np.random.default_rng(17)
        u = random_state(rng, 768, support=384)
        by_int = fock.apply_translation(u, 2)
        assert np.array_equal(by_int.coeffs, fock.apply_translation(u, 2.0).coeffs)
        phi = fock.catalog_coefficients(fock.PhiNAlpha(3, 3), 96)
        phi_float = fock.catalog_coefficients(fock.PhiNAlpha(3, 3.0), 96)
        assert np.array_equal(phi.coeffs, phi_float.coeffs)
        e_3 = np.zeros(49)
        e_3[3] = 1.0
        assert np.array_equal(
            displacement_matrix(3, 49) @ e_3, displacement_matrix(3.0, 49) @ e_3
        )

    def test_translation_laws_at_truncation_2000(self):
        # past size ~1030 the Laguerre matrix was NaN; the generator is not
        rng = np.random.default_rng(29)
        u = random_state(rng, 2000, support=1000)
        alpha = 1.5 - 0.8j
        try:
            rep = fock.functionals(u, 0.4)
            moved = fock.apply_translation(u, alpha)
            rep_t = fock.functionals(moved, 0.4)
        finally:
            fock.energy_kernel.cache_clear()  # the N = 2000 tables hold ~450 MiB
        expected_p = rep.P - 2.0 * np.real(np.conj(alpha) * rep.Q) + abs(alpha) ** 2 * rep.M
        assert rep_t.M == pytest.approx(rep.M, rel=1e-13)
        assert rep_t.P == pytest.approx(expected_p, rel=1e-12)
        assert rep_t.Q == pytest.approx(rep.Q - alpha * rep.M, abs=1e-10)
        assert rep_t.B == pytest.approx(rep.B, rel=1e-9)
        back = fock.apply_translation(moved, -alpha)
        assert np.max(np.abs(back.coeffs - u.coeffs)) <= 1e-10

    def test_translation_without_headroom_fails(self):
        u = fock.catalog_coefficients(fock.PhiN(10), 12)
        with pytest.raises(TruncationTooSmall):
            fock.apply_translation(u, 2.5)

    def test_padding_restores_headroom(self):
        u = fock.catalog_coefficients(fock.PhiN(10), 12)
        moved = fock.apply_translation(zero_padded(u, 64), 2.5)
        assert fock.mass(moved) == pytest.approx(1.0, abs=1e-10)


class TestCarlen:
    def test_gap_nonnegative_and_zero_cases(self):
        assert carlen_gap(0, 2.0, 4.0) >= -1e-12
        assert carlen_gap(0, 2.0, 2.0) == pytest.approx(0.0, abs=1e-15)
        for n in range(5):
            for p, q in [(1.0, 2.0), (2.0, 6.0), (3.0, 7.5)]:
                assert carlen_gap(n, p, q) >= -1e-12

    def test_closed_form_against_quadrature(self):
        # independent oracle: radial quadrature of |phi_n|^p
        def norm_p(n, p):
            integrand = lambda r: r ** (n * p + 1) * math.exp(-p * r * r / 2.0)
            val, _ = quad(integrand, 0.0, 50.0, limit=200)
            return (2.0 * math.pi * val / (math.pi * math.factorial(n)) ** (p / 2.0)) ** (
                1.0 / p
            )

        n, p, q = 3, 2.0, 6.0
        oracle = (p / (2 * math.pi)) ** (1 / p) * norm_p(n, p) - (
            q / (2 * math.pi)
        ) ** (1 / q) * norm_p(n, q)
        assert carlen_gap(n, p, q) == pytest.approx(oracle, abs=1e-10)

    def test_domain_errors(self):
        with pytest.raises(InvalidParameter):
            carlen_gap(0, 0.5, 2.0)
        with pytest.raises(InvalidParameter):
            carlen_gap(0, 3.0, 2.0)


class TestCoefficientFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(21)
        u = random_state(rng, 16)
        path = tmp_path / "state.json"
        fock.save_coefficients(u, path)
        v = fock.load_coefficients(path)
        assert v.truncation == u.truncation
        assert np.allclose(v.coeffs, u.coeffs, atol=1e-16)

    def test_length_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"truncation": 3, "coeffs": [[1.0, 0.0]]}')
        with pytest.raises(InvalidParameter):
            fock.load_coefficients(path)

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidParameter):
            fock.FockCoefficients(np.array([1.0, np.nan]))

    @pytest.mark.parametrize(
        "coeffs",
        [np.zeros(0), np.zeros((2, 3)), np.array(1.0)],
        ids=["empty", "2-D", "scalar"],
    )
    def test_empty_or_not_1d_vector_rejected(self, coeffs):
        with pytest.raises(InvalidParameter, match="non-empty 1-D"):
            fock.FockCoefficients(coeffs)

    def test_truncation_is_the_vector_length(self):
        # the vector is the state: its one field fixes the truncation
        assert [f.name for f in dataclasses.fields(fock.FockCoefficients)] == ["coeffs"]
        for size in (1, 2, 49):
            u = fock.FockCoefficients(np.ones(size))
            assert u.truncation == len(u.coeffs) - 1 == size - 1

    def test_strided_coefficients_accepted(self):
        # a column of a matrix is not contiguous, so it has no float view
        column = np.eye(3, dtype=complex)[:, 1]
        assert fock.FockCoefficients(column).coeffs.tolist() == [0, 1, 0]

    @pytest.mark.parametrize(
        "coeffs",
        [
            [1e160, 0.0],
            [1.3e154 + 1.3e154j, 0.0],
            [1.3e154] * 2,
            [1.3e154, 1e153],
            [1e150, 0.0],
        ],
        ids=["one", "re-im", "sum", "square", "quartic"],
    )
    def test_overflowing_mass_rejected(self, coeffs):
        # every coefficient is finite; the sum of their squares, or
        # (N + 1) times its square, which bounds B and E, is not
        with pytest.raises(InvalidParameter, match="mass"):
            fock.FockCoefficients(np.array(coeffs))

    def test_mass_near_float_limit_accepted(self):
        # (N + 1) M^2 = 1.34e308 is still finite, and so is every functional
        u = fock.FockCoefficients(np.array([9e76, 1e76]))
        assert fock.mass(u) == pytest.approx(8.2e153)
        rep = fock.functionals(u, 0.5)
        assert all(math.isfinite(x) for x in (rep.H, rep.B, rep.E, rep.G, rep.F))


def test_package_runs_without_scipy():
    # scipy is a test dependency only: every module imports, and a
    # translation runs, with it blocked
    script = """
import importlib, pkgutil, sys
sys.modules["scipy"] = None
import fockmin
for module in pkgutil.iter_modules(fockmin.__path__):
    importlib.import_module("fockmin." + module.name)
from fockmin import fock, minimize
u = fock.catalog_coefficients(fock.PhiNAlpha(1, 0.5 - 0.25j), 48)
assert minimize.classify(u).label is minimize.MinimizerClass.PHI1
"""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert (done.returncode, done.stderr) == (0, "")
