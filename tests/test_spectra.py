"""Exact block construction, centrosymmetric reduction and eigen checks.

`rt2_spectra`, the Rt2 build these integer blocks replaced, is the oracle;
`certificate_oracles` holds the cross-checks no verdict reads.
"""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from fockmin import fock, spectra
from fockmin.errors import NotCentrosymmetric, OutOfRange
from fockmin.spectra import BlockKind

import rt2_spectra as oracle
from certificate_oracles import block_quadratic_value, interlacing_check, rank_one_split
from rt2 import Rt2, mat_vec


def as_fractions(block):
    assert not block.has_border
    return [[Fraction(e, 2**block.shift) for e in row] for row in block.rows]


def as_rt2(block):
    """The block's exact values as oracle numbers; an even-index reduction
    maps back from M = 2·D S D to S, with sqrt2 on its border."""
    scale = 2**block.shift * (2 if block.has_border else 1)
    rows = [[Rt2(Fraction(e, scale)) for e in row] for row in block.rows]
    if block.has_border:
        # S is M/2 inside, sqrt2·M/2 on the border and M at the corner
        last = block.order - 1
        for k in range(last):
            border = Rt2(0, Fraction(block.rows[k][last], scale))
            rows[k][last] = rows[last][k] = border
        rows[last][last] = Rt2(Fraction(block.rows[last][last], scale // 2))
    return tuple(map(tuple, rows))


# Matrices as printed for small indices, scaled entries written exactly.
PRINTED_B = {
    1: [[Fraction(v, 8) for v in row] for row in [[-1, 1], [1, -1]]],
    2: [[Fraction(v, 4) for v in row] for row in [[-1, 0, 1], [0, 0, 0], [1, 0, -1]]],
    3: [
        [Fraction(v, 8) for v in row]
        for row in [[-3, -3, 3, 3], [-3, 1, -1, 3], [3, -1, 1, -3], [3, 3, -3, -3]]
    ],
    4: [
        [Fraction(3 * v, 4) for v in row]
        for row in [
            [1, -3, 1, 1, 1],
            [-3, 1, -1, 1, 1],
            [1, -1, 1, -1, 1],
            [1, 1, -1, 1, -3],
            [1, 1, 1, -3, 1],
        ]
    ],
    5: [
        [Fraction(3 * v, 8) for v in row]
        for row in [
            [45, -35, 5, 5, 5, 5],
            [-35, 13, -11, 5, 5, 5],
            [5, -11, 9, -7, 5, 5],
            [5, 5, -7, 9, -11, 5],
            [5, 5, 5, -11, 13, -35],
            [5, 5, 5, 5, -35, 45],
        ]
    ],
}


class TestBlockConstruction:
    @pytest.mark.parametrize("j", sorted(PRINTED_B))
    def test_printed_blocks(self, j):
        block = spectra.build_B_block(j)
        assert as_fractions(block) == PRINTED_B[j]

    def test_block_zero(self):
        block = spectra.build_B_block(0)
        assert as_fractions(block) == [[Fraction(0)]]

    def test_symmetric_centrosymmetric_range(self):
        for j in range(0, 26):
            block = spectra.build_B_block(j)
            n = j + 1
            for k in range(n):
                for l in range(n):
                    assert block.rows[k][l] == block.rows[l][k]
                    assert block.rows[k][l] == block.rows[n - 1 - k][n - 1 - l]

    def test_decoupled_block_zero_index(self):
        block = spectra.build_B_block(0, decoupled=True)
        assert as_fractions(block) == [[Fraction(0)]]

    def test_decoupled_difference_is_momentum_tridiagonal(self):
        # E - B keeps only the momentum coupling: zero diagonal, entries
        # (k+1)!(j-k)!/8 on the first off-diagonals
        b = as_fractions(spectra.build_B_block(2))
        e = as_fractions(spectra.build_B_block(2, decoupled=True))
        diff = [[e[k][l] - b[k][l] for l in range(3)] for k in range(3)]
        expect = [
            [Fraction(0), Fraction(1, 4), Fraction(0)],
            [Fraction(1, 4), Fraction(0), Fraction(1, 4)],
            [Fraction(0), Fraction(1, 4), Fraction(0)],
        ]
        assert diff == expect

    def test_decoupled_block_has_negative_eigenvalue(self):
        eigs = spectra.symmetric_eigenvalues(
            spectra.scaled_block(spectra.build_B_block(3, decoupled=True))
        )
        assert eigs[0] < -1e-6


PRINTED_S = {
    3: [[Fraction(0)] * 2 for _ in range(2)],
    5: [
        [Fraction(3 * v, 4) for v in row]
        for row in [[25, -15, 5], [-15, 9, -3], [5, -3, 1]]
    ],
}


class TestCentroDecomposition:
    @pytest.mark.parametrize("j", sorted(PRINTED_S))
    def test_printed_reduced_blocks(self, j):
        reduced = spectra.centro_decompose(spectra.build_B_block(j))
        assert as_fractions(reduced) == PRINTED_S[j]

    def test_printed_reduced_block_even(self):
        reduced = spectra.centro_decompose(spectra.build_B_block(4))
        c = Fraction(3, 4)
        expect = (
            (Rt2(2 * c), Rt2(-2 * c), Rt2(0, c)),
            (Rt2(-2 * c), Rt2(2 * c), Rt2(0, -c)),
            (Rt2(0, c), Rt2(0, -c), Rt2(c)),
        )
        assert as_rt2(reduced) == expect

    def test_reassembly_exact(self):
        # the reduced block is the oracle's S, whose pieces rebuild the block
        for j in range(1, 16):
            block = spectra.build_B_block(j)
            decomp = oracle.centro_decompose(oracle.build_B_block(j))
            assert as_rt2(block) == oracle.reassemble(decomp)
            assert as_rt2(spectra.centro_decompose(block)) == decomp.S.entries

    def test_eigen_multiset_union(self):
        for j in (3, 6, 9, 12):
            block = spectra.build_B_block(j)
            decomp = oracle.centro_decompose(oracle.build_B_block(j))
            full = spectra.symmetric_eigenvalues(spectra.scaled_block(block))
            s_scaled = spectra.scaled_block(spectra.centro_decompose(block))
            # scale the skew sector with the same leading weights
            m = len(decomp.skew)
            w = [
                math.sqrt(math.factorial(k) * math.factorial(j - k)) for k in range(m)
            ]
            skew = np.array(
                [
                    [float(decomp.skew[i][l]) / (w[i] * w[l]) for l in range(m)]
                    for i in range(m)
                ]
            )
            parts = np.sort(
                np.concatenate(
                    [spectra.symmetric_eigenvalues(s_scaled),
                     spectra.symmetric_eigenvalues(skew)]
                )
            )
            norm = max(abs(full[0]), abs(full[-1]), 1e-30)
            assert np.max(np.abs(parts - full)) <= 1e-9 * norm

    def test_rejects_non_centrosymmetric(self):
        rows = (
            (1, 2),
            (2, 3),
        )
        bad = spectra.BlockMatrix(1, BlockKind.FULL_B, 0, rows)
        with pytest.raises(NotCentrosymmetric):
            spectra.centro_decompose(bad)


class TestRankOneSplit:
    def test_even_reassembly_printed(self):
        reduced = spectra.centro_decompose(spectra.build_B_block(4))
        t, kappa, delta = rank_one_split(reduced)
        assert t.rows[0][0] == 0
        assert kappa == Fraction(3, 2)
        assert delta == Fraction(3)

    def test_odd_trace_is_delta(self):
        # remaining eigenvalue of the rank-one part is its trace
        for j in (7, 9, 15, 21):
            reduced = spectra.centro_decompose(spectra.build_B_block(j))
            t, kappa, delta = rank_one_split(reduced)
            p = (j + 1) // 2
            assert t.order == p
            assert p * kappa == delta

    def test_delta_value_j7(self):
        reduced = spectra.centro_decompose(spectra.build_B_block(7))
        _, _, delta = rank_one_split(reduced)
        assert delta == Fraction(315, 2)

    def test_exact_reassembly_range(self):
        # T is banded by a check inside rank_one_split, and it matches the
        # oracle's closed-form T, which the oracle checks against its S
        for j in range(4, 40):
            reduced = spectra.centro_decompose(spectra.build_B_block(j))
            t, kappa, _ = rank_one_split(reduced)
            decomp = oracle.centro_decompose(oracle.build_B_block(j))
            t_oracle, k_oracle, _ = oracle.rank_one_split(decomp)
            assert as_rt2(t) == t_oracle.entries
            assert len(k_oracle.entries) == t.order
            assert all(e == Rt2(kappa) for row in k_oracle.entries for e in row)


class TestNullVectors:
    def test_j5_vectors(self):
        # 5! times (1/120, 1/24, 1/12) and (0, 1/6, 1/2)
        v, w = spectra.null_vectors(5)
        assert v == (1, 5, 10)
        assert w == (0, 20, 60)
        reduced = spectra.centro_decompose(spectra.build_B_block(5))
        assert all(not e for e in spectra.mat_vec(reduced.rows, v))
        assert all(not e for e in spectra.mat_vec(reduced.rows, w))

    def test_j6_vectors_annihilated(self):
        reduced = spectra.centro_decompose(spectra.build_B_block(6))
        assert spectra.kernel_annihilated(reduced)

    def test_sample_range_exact(self):
        for j in (4, 5, 8, 11, 20, 33, 47):
            reduced = spectra.centro_decompose(spectra.build_B_block(j))
            assert spectra.kernel_annihilated(reduced)

    def test_out_of_range(self):
        for j in (0, 1, 2, 3):
            with pytest.raises(OutOfRange):
                spectra.null_vectors(j)


class TestIntegerReduction:
    """The integer blocks against the Rt2 build they replaced."""

    @pytest.mark.parametrize("j", range(81))
    def test_matches_rt2_oracle(self, j):
        reduction = spectra.centro_decompose(spectra.build_B_block(j))
        decomp = oracle.centro_decompose(oracle.build_B_block(j))
        assert as_rt2(reduction) == decomp.S.entries
        if j >= 4:
            v, w = oracle.null_vectors(j)
            expect_kernel = not any(mat_vec(decomp.S.entries, v)) and not any(
                mat_vec(decomp.S.entries, w)
            )
            assert spectra.kernel_annihilated(reduction) == expect_kernel
            # j! times the oracle's vectors, the last mapped by D^-1 for even j
            for new, old in zip(spectra.null_vectors(j), (v, w)):
                last = Rt2(0, 1) if reduction.has_border else Rt2(1)
                scaled = [e * math.factorial(j) for e in old[:-1]]
                scaled.append(old[-1] * math.factorial(j) * last)
                assert [Rt2(e) for e in new] == scaled
        else:
            with pytest.raises(OutOfRange):
                spectra.kernel_annihilated(reduction)
        expect = oracle.scaled_block(decomp.S)
        got = spectra.scaled_block(reduction)
        assert np.array_equal(got, expect)
        assert np.array_equal(
            spectra.symmetric_eigenvalues(got), spectra.symmetric_eigenvalues(expect)
        )
        builds = ((False, oracle.build_B_block), (True, oracle.build_E_block))
        for decoupled, build in builds:
            full = spectra.scaled_block(spectra.build_B_block(j, decoupled=decoupled))
            assert np.array_equal(full, oracle.scaled_block(build(j)))

    @pytest.mark.parametrize("j", [4, 9, 30, 31])
    @pytest.mark.parametrize("keeps_v", [False, True])
    def test_perturbed_row_breaks_kernel(self, j, keeps_v):
        reduction = spectra.centro_decompose(spectra.build_B_block(j))
        rows = [list(row) for row in reduction.rows]
        if keeps_v:
            # (C(j,1), -C(j,0)) on the first two entries of row 0 is
            # orthogonal to v = C(j,i) but not to w = i(j-i)C(j,i)
            rows[0][0] += j
            rows[0][1] -= 1
        else:
            rows[0][0] += 1
        broken = dataclasses.replace(reduction, rows=tuple(map(tuple, rows)))
        assert spectra.kernel_annihilated(reduction)
        assert not spectra.kernel_annihilated(broken)

    def test_even_border_is_rational_after_congruence(self):
        # j = 4: S = (3/4)[[2, -2, r], [-2, 2, -r], [r, -r, 1]], r = sqrt2,
        # so M = 2 D S D = (3/4)[[4, -4, 2], [-4, 4, -2], [2, -2, 1]]
        reduction = spectra.centro_decompose(spectra.build_B_block(4))
        scale = Fraction(1, 2**reduction.shift)
        got = [[Fraction(e) * scale for e in row] for row in reduction.rows]
        c = Fraction(3, 4)
        assert got == [
            [4 * c, -4 * c, 2 * c],
            [-4 * c, 4 * c, -2 * c],
            [2 * c, -2 * c, c],
        ]


class TestScaledBlocks:
    def test_unit_weights_small_index(self):
        scaled = spectra.scaled_block(spectra.build_B_block(1))
        assert np.allclose(scaled, np.array([[-0.125, 0.125], [0.125, -0.125]]))

    def test_entries_stay_small(self):
        scaled = spectra.scaled_block(spectra.build_B_block(60))
        assert np.max(np.abs(scaled)) < 100.0

    def test_signature_preserved_small(self):
        for j in (2, 3, 4, 5):
            block = spectra.build_B_block(j)
            raw = np.array([[e / 2**block.shift for e in row] for row in block.rows])
            scaled = spectra.scaled_block(block)
            raw_signs = np.sign(
                np.round(spectra.symmetric_eigenvalues(raw), 12)
            )
            scaled_signs = np.sign(
                np.round(spectra.symmetric_eigenvalues(scaled), 12)
            )
            assert np.array_equal(np.sort(raw_signs), np.sort(scaled_signs))

    def test_reduced_rank_one_structure_j5(self):
        # rows of the reduced block at j = 5 are proportional to (5, -3, 1),
        # so the scaled spectrum is {0, 0, t} with t > 0
        reduced = spectra.centro_decompose(spectra.build_B_block(5))
        rows = as_fractions(reduced)
        base = rows[2]
        for i, factor in ((0, 5), (1, -3)):
            assert rows[i] == [factor * x for x in base]
        eigs = spectra.symmetric_eigenvalues(spectra.scaled_block(reduced))
        assert abs(eigs[0]) <= 1e-12 and abs(eigs[1]) <= 1e-12 and eigs[2] > 0

    def test_reduced_spectrum_begins_0_0_half(self):
        # the two exact kernel vectors, then the smallest positive
        # eigenvalue, exactly 1/2 for every j >= 4
        for j in range(6, 81):
            reduced = spectra.centro_decompose(spectra.build_B_block(j))
            eigs = spectra.symmetric_eigenvalues(spectra.scaled_block(reduced))
            norm = max(abs(eigs[0]), abs(eigs[-1]))
            assert abs(eigs[0]) <= 1e-12 * norm, j
            assert abs(eigs[1]) <= 1e-12 * norm, j
            assert abs(eigs[2] - 0.5) <= 1e-12, j

    def test_eigenvalues_sorted_diagonal(self):
        eigs = spectra.symmetric_eigenvalues(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(eigs, [1.0, 2.0, 3.0])


class TestInterlacing:
    @pytest.mark.parametrize("j", [7, 9, 11])
    def test_interlacing_small(self, j):
        report = interlacing_check(j)
        assert report.interlaces
        assert report.sum_ok
        assert report.trace_identity_exact
        if j == 7:
            assert report.delta == pytest.approx(157.5)
            assert report.eig_shift_sum == pytest.approx(157.5, rel=1e-9)

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            interlacing_check(8)


class TestQuadraticFormConsistency:
    def test_block_sum_matches_functional(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            a = rng.standard_normal(13) + 1j * rng.standard_normal(13)
            a /= np.linalg.norm(a)
            u = fock.FockCoefficients(12, a)
            rep = fock.functionals(u, 0.0)
            val = block_quadratic_value(a)
            assert val == pytest.approx(rep.B, rel=1e-10, abs=1e-12)

    def test_psd_on_reduced_blocks_sample(self):
        for j in range(2, 40):
            reduced = spectra.centro_decompose(spectra.build_B_block(j))
            eigs = spectra.symmetric_eigenvalues(spectra.scaled_block(reduced))
            norm = max(abs(eigs[0]), abs(eigs[-1]), 1e-30)
            assert eigs[0] >= -1e-10 * norm
