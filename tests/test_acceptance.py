"""Acceptance suite: one test per headline criterion, each printing a
pass line with its measured margin.  Run with `pytest -s` to see them.

The heavy exact ranges (kernel vectors to j = 201, certificates to
j = 400, closed forms to 500) are all here; expect a few minutes total.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from fockmin import fock, minimize as mz, spectra, sturm

from certificate_oracles import (
    closed_form,
    exact_values,
    expected_transition,
    generating_polynomial_check,
    interlacing_check,
)
from fock_oracles import apply_rotation, generator_columns, wirtinger_gradient
from kernel_rows import one_row


def report(num, text):
    print(f"PASS criterion {num}: {text}")


def test_criterion_01_exact_block_reproduction():
    t0 = time.time()
    printed_b = {
        1: [[-1, 1], [1, -1]],
        3: [[-3, -3, 3, 3], [-3, 1, -1, 3], [3, -1, 1, -3], [3, 3, -3, -3]],
    }
    for j, rows in printed_b.items():
        block = exact_values(spectra.build_B_block(j))
        for k in range(j + 1):
            for l in range(j + 1):
                assert block[k][l] == (Fraction(rows[k][l], 8), 0)
    block2 = exact_values(spectra.build_B_block(2))
    rows2 = [[-1, 0, 1], [0, 0, 0], [1, 0, -1]]
    for k in range(3):
        for l in range(3):
            assert block2[k][l] == (Fraction(rows2[k][l], 4), 0)
    block4 = exact_values(spectra.build_B_block(4))
    rows4 = [
        [1, -3, 1, 1, 1],
        [-3, 1, -1, 1, 1],
        [1, -1, 1, -1, 1],
        [1, 1, -1, 1, -3],
        [1, 1, 1, -3, 1],
    ]
    for k in range(5):
        for l in range(5):
            assert block4[k][l] == (Fraction(3 * rows4[k][l], 4), 0)
    block5 = exact_values(spectra.build_B_block(5))
    rows5 = [
        [45, -35, 5, 5, 5, 5],
        [-35, 13, -11, 5, 5, 5],
        [5, -11, 9, -7, 5, 5],
        [5, 5, -7, 9, -11, 5],
        [5, 5, 5, -11, 13, -35],
        [5, 5, 5, 5, -35, 45],
    ]
    for k in range(6):
        for l in range(6):
            assert block5[k][l] == (Fraction(3 * rows5[k][l], 8), 0)
    assert exact_values(spectra.build_B_block(0))[0][0] == (0, 0)

    s3 = exact_values(spectra.centro_decompose(spectra.build_B_block(3)))
    assert all(e == (0, 0) for row in s3 for e in row)
    s5 = exact_values(spectra.centro_decompose(spectra.build_B_block(5)))
    rows_s5 = [[25, -15, 5], [-15, 9, -3], [5, -3, 1]]
    for k in range(3):
        for l in range(3):
            assert s5[k][l] == (Fraction(3 * rows_s5[k][l], 4), 0)
    s4 = exact_values(spectra.centro_decompose(spectra.build_B_block(4)))
    c = Fraction(3, 4)
    expect_s4 = [
        [(2 * c, 0), (-2 * c, 0), (0, c)],
        [(-2 * c, 0), (2 * c, 0), (0, -c)],
        [(0, c), (0, -c), (c, 0)],
    ]
    for k in range(3):
        for l in range(3):
            assert s4[k][l] == expect_s4[k][l]
    elapsed = time.time() - t0
    assert elapsed < 1.0
    report(1, f"printed blocks j<=5 and reduced blocks j in {{3,4,5}} exact ({elapsed:.2f}s < 1s)")


def test_criterion_02_null_vector_certificate():
    t0 = time.time()
    checked = 0
    for j in list(range(7, 202, 2)) + list(range(6, 201, 2)):
        reduced = spectra.centro_decompose(spectra.build_B_block(j))
        v, w = spectra.null_vectors(j)
        assert all(not e for e in spectra.mat_vec(reduced, v)), j
        assert all(not e for e in spectra.mat_vec(reduced, w)), j
        checked += 1
    elapsed = time.time() - t0
    assert elapsed < 120.0
    report(2, f"S·v = S·w = 0 exactly for {checked} indices ({elapsed:.1f}s < 2min)")


def test_criterion_03_positivity():
    t0 = time.time()
    worst = 0.0
    for j in range(0, 201):
        reduced = spectra.centro_decompose(spectra.build_B_block(j))
        eigs = spectra.symmetric_eigenvalues(spectra.scaled_block(reduced))
        norm = max(abs(eigs[0]), abs(eigs[-1]))
        if norm > 0:
            worst = min(worst, eigs[0] / norm)
            assert eigs[0] >= -1e-10 * norm, j
    transitions_ok = 0
    for j in range(6, 401):
        cert = sturm.positivity_certificate(j)
        assert cert.transition_index == expected_transition(j), j
        lo, hi = cert.root_window
        assert lo < cert.transition_index <= hi + 1e-12, j
        transitions_ok += 1
    elapsed = time.time() - t0
    assert elapsed < 300.0
    report(
        3,
        f"scaled min eigenvalue >= -1e-10*norm up to j=200 (worst {worst:.1e}); "
        f"{transitions_ok} certificates pass with one transition in window "
        f"({elapsed:.1f}s < 5min)",
    )


def test_criterion_04_sturm_closed_forms():
    t0 = time.time()
    for m in range(4, 501):
        j = 2 * m - 1
        vals = sturm.recurrence_values(j, 2 * m - 2)
        for n in range(2, 2 * m - 2):
            assert closed_form(j, n) == vals[n], (j, n)
    for m in range(3, 501):
        j = 2 * m
        vals = sturm.recurrence_values(j, 2 * m - 1)
        for n in range(2, 2 * m - 1):
            assert closed_form(j, n) == vals[n], (j, n)
    for m in range(4, 201):
        assert generating_polynomial_check(2 * m - 1)
    for m in range(3, 201):
        assert generating_polynomial_check(2 * m)
    elapsed = time.time() - t0
    assert elapsed < 60.0
    report(4, f"recurrence = closed form for p,q <= 500; polynomial identity "
              f"to 200 ({elapsed:.1f}s < 1min)")


def test_criterion_05_interlacing():
    t0 = time.time()
    for j in range(7, 102, 2):
        rep = interlacing_check(j)
        assert rep.interlaces, j
        assert rep.sum_ok, j
        assert rep.trace_identity_exact, j
    elapsed = time.time() - t0
    report(5, f"interlacing plus trace shift identity for odd j in 7..101 "
              f"({elapsed:.1f}s)")


def test_criterion_06_catalog_identities():
    mus = [0.05 * k for k in range(21)]
    bs = [0.25 * k for k in range(17)]
    phi0 = fock.catalog_coefficients(fock.PhiN(0), 64)
    phi1 = fock.catalog_coefficients(fock.PhiN(1), 64)
    h0 = 8.0 * math.pi * fock.hamiltonian(phi0)
    h1 = 8.0 * math.pi * fock.hamiltonian(phi1)
    p0 = fock.angular_momentum(phi0)
    p1 = fock.angular_momentum(phi1)
    worst = 0.0
    for mu in mus:
        worst = max(worst, abs(h0 + mu * p0 - 1.0))
        worst = max(worst, abs(h1 + mu * p1 - (0.5 + mu)))
    for b in bs:
        psi = fock.catalog_coefficients(fock.PsiB(b), 64)
        assert abs(fock.mass(psi) - 1.0) <= 1e-12
        assert abs(fock.magnetic_momentum(psi)) <= 1e-12
        hb = 8.0 * math.pi * fock.hamiltonian(psi)
        pb = fock.angular_momentum(psi)
        for mu in mus:
            expected = 1.0 + (mu - 0.5) / (1.0 + b * b) ** 2
            worst = max(worst, abs(hb + mu * pb - expected))
    assert worst <= 1e-12
    report(6, f"three catalog energy lines on the mu x b grid, worst error "
              f"{worst:.1e} <= 1e-12")


def test_criterion_07_equality_family():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(50):
        raw = rng.standard_normal(4)
        a0 = complex(raw[0], raw[1])
        a1 = complex(raw[2], raw[3])
        scale = math.sqrt(abs(a0) ** 2 + abs(a1) ** 2)
        a0, a1 = a0 / scale, a1 / scale
        r = 2.0 * math.sqrt(rng.uniform())
        phi = rng.uniform(0.0, 2.0 * math.pi)
        c = r * complex(math.cos(phi), math.sin(phi))
        u = fock.catalog_coefficients(fock.EqualityFamily(a0, a1, c), 96)
        b_val = fock.functionals(u, 0.0).B
        worst = max(worst, abs(b_val))
        assert abs(b_val) <= 1e-10
    report(7, f"quartic form vanishes on the equality family, worst |B| "
              f"{worst:.1e} <= 1e-10")


def test_criterion_08_symmetry_laws():
    rng = np.random.default_rng(1)
    a = np.zeros(65, dtype=complex)
    a[:13] = rng.standard_normal(13) + 1j * rng.standard_normal(13)
    a /= np.linalg.norm(a)
    u = fock.FockCoefficients(a)
    rep = fock.functionals(u, 0.4)
    worst_pq = 0.0
    worst_b = 0.0
    for alpha in (0.4, -0.3 + 0.5j, 0.9j, 1.0):
        rep_t = fock.functionals(fock.apply_translation(u, alpha), 0.4)
        expected_p = (
            rep.P - 2.0 * np.real(np.conj(alpha) * rep.Q) + abs(alpha) ** 2 * rep.M
        )
        worst_pq = max(worst_pq, abs(rep_t.P - expected_p))
        worst_pq = max(worst_pq, abs(rep_t.Q - (rep.Q - alpha * rep.M)))
        worst_b = max(worst_b, abs(rep_t.B - rep.B) / abs(rep.B))
    for theta in (0.7, 2.1):
        rep_r = fock.functionals(apply_rotation(u, theta), 0.4)
        worst_pq = max(worst_pq, abs(rep_r.Q - np.exp(-1j * theta) * rep.Q))
        worst_pq = max(worst_pq, abs(rep_r.P - rep.P))
    assert worst_pq <= 1e-10
    assert worst_b <= 1e-9
    d = generator_columns(0.6 - 0.35j, 128, 65)
    defect = np.max(np.abs(d.conj().T @ d - np.eye(65)))
    assert defect <= 1e-10
    round_trip = fock.apply_translation(fock.apply_translation(u, 0.8), -0.8)
    rt_err = float(np.max(np.abs(round_trip.coeffs - u.coeffs)))
    assert rt_err <= 1e-10
    report(
        8,
        f"momentum transformation laws ({worst_pq:.1e} <= 1e-10), quartic-form "
        f"translation invariance ({worst_b:.1e} <= 1e-9), unitarity "
        f"({defect:.1e}), round trip ({rt_err:.1e})",
    )


def test_criterion_09_decoupled_block_not_psd():
    eigs = spectra.symmetric_eigenvalues(
        spectra.scaled_block(spectra.build_B_block(3, decoupled=True))
    )
    assert eigs[0] < -1e-6
    report(9, f"decoupled block at j=3 has negative eigenvalue {eigs[0]:.4f}")


def test_criterion_10_minimization():
    t0 = time.time()
    config = mz.OptimizerConfig(truncation=48, restarts=8, seed=0)
    double = mz.OptimizerConfig(truncation=96, restarts=8, seed=0)

    res08 = mz.minimize_G(0.8, config)
    assert res08.label is mz.MinimizerClass.PHI0
    assert res08.overlap >= 1.0 - 1e-6
    assert abs(res08.G_value - 1.0) <= 1e-8

    res049 = mz.minimize_G(0.49, config)
    assert res049.label is mz.MinimizerClass.PHI1
    assert abs(res049.G_value - 0.99) <= 1e-6

    res05 = mz.minimize_G(0.5, config)
    assert abs(res05.G_value - 1.0) <= 1e-8
    assert res05.label in (
        mz.MinimizerClass.PHI0,
        mz.MinimizerClass.PHI1,
        mz.MinimizerClass.PSI_B,
    )

    res01 = mz.minimize_G(0.10, config)
    assert res01.label is mz.MinimizerClass.UNCLASSIFIED
    assert res01.n_zeros >= 4

    drift = 0.0
    for mu, res in ((0.8, res08), (0.49, res049), (0.5, res05), (0.10, res01)):
        res2 = mz.minimize_G(mu, double)
        drift = max(drift, abs(res2.G_value - res.G_value))
    assert drift <= 1e-7
    elapsed = time.time() - t0
    assert elapsed < 600.0
    report(
        10,
        f"regimes at mu = 0.8/0.49/0.5/0.10 with doubling drift {drift:.1e} "
        f"<= 1e-7 ({elapsed:.1f}s < 10min)",
    )


def test_criterion_11_momentum_monotonicity_on_scan():
    config = mz.OptimizerConfig(truncation=48, restarts=6, seed=0)
    results = mz.scan_mu([0.05 * k for k in range(1, 21)], config)
    better = [
        r
        for r in results
        if r.mu < 0.5 and r.G_value < mz.closed_form_lines(r.mu)[1] - 1e-9
    ]
    violations = [r for r in better if r.P_value <= 1.0]
    better_rows = len(better)
    assert not violations
    report(
        11,
        f"{better_rows} scan rows beat the first excited line below mu=1/2, "
        f"all with P > 1 (0 violations)",
    )


def test_criterion_12_semiclassical():
    worst = 0.0
    for na, h in ((4.0 * math.pi / 0.75, 0.5), (7.0, 0.3), (30.0, 0.8)):
        rep = mz.semiclassical(na, h)
        om2 = 1.0 - h * h
        worst = max(
            worst, abs(rep.energy_phi0 - (na * om2 / (4 * math.pi * h) + h))
        )
        worst = max(
            worst, abs(rep.energy_phi1 - (na * om2 / (8 * math.pi * h) + 2 * h))
        )
    assert worst <= 1e-12
    na = 10.0
    base = mz.semiclassical(na, 0.5)
    eps = 1e-9
    assert mz.semiclassical(na, base.h_at_half + eps).regime == "gaussian-unique"
    assert (
        mz.semiclassical(na, base.h_at_half - eps).regime
        == "first-excited-window"
    )
    assert (
        mz.semiclassical(na, base.h_at_532 + eps).regime
        == "first-excited-window"
    )
    assert (
        mz.semiclassical(na, base.h_at_532 - eps).regime
        == "infinitely-many-zeros"
    )
    assert mz.semiclassical(na, base.h_at_half).mu_eff == pytest.approx(
        0.5, rel=1e-12
    )
    report(12, f"closed-form energies to {worst:.1e} <= 1e-12; labels flip at "
               f"mu_eff = 1/2 and 5/32")


def test_criterion_13_gradient_correctness():
    rng = np.random.default_rng(3)
    eps = 1e-6
    worst = 0.0
    for _ in range(100):
        n = 12
        a = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
        a /= np.linalg.norm(a)
        mu = rng.uniform(0.05, 1.0)
        u = fock.FockCoefficients(a)
        grad = wirtinger_gradient(u, mu)
        kern = fock.energy_kernel(n)
        fd = np.zeros(n + 1, dtype=complex)
        for k in range(n + 1):
            for unit in (1.0, 1j):
                dp = a.copy()
                dm = a.copy()
                dp[k] += eps * unit
                dm[k] -= eps * unit
                diff = (one_row(kern.value, dp, mu) - one_row(kern.value, dm, mu)) / (2 * eps)
                fd[k] += diff * unit
        rel = np.linalg.norm(grad - fd) / np.linalg.norm(grad)
        worst = max(worst, rel)
        assert rel <= 1e-6
    report(13, f"gradient matches central differences on 100 instances, worst "
               f"relative error {worst:.1e} <= 1e-6")
