"""Exact block construction, centrosymmetric reduction and eigen checks."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from fockmin import fock, spectra
from fockmin.errors import NotCentrosymmetric, OutOfRange
from fockmin.rt2 import Rt2, mat_vec
from fockmin.spectra import BlockKind


def as_fractions(rows):
    out = []
    for row in rows:
        assert all(e.is_rational for e in row)
        out.append([e.a for e in row])
    return out


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
        assert as_fractions(block.entries) == PRINTED_B[j]

    def test_block_zero(self):
        block = spectra.build_B_block(0)
        assert as_fractions(block.entries) == [[Fraction(0)]]

    def test_symmetric_centrosymmetric_range(self):
        for j in range(0, 26):
            block = spectra.build_B_block(j)
            n = j + 1
            for k in range(n):
                for l in range(n):
                    assert block.entries[k][l] == block.entries[l][k]
                    assert block.entries[k][l] == block.entries[n - 1 - k][n - 1 - l]

    def test_decoupled_block_zero_index(self):
        block = spectra.build_E_block(0)
        assert as_fractions(block.entries) == [[Fraction(0)]]

    def test_decoupled_difference_is_momentum_tridiagonal(self):
        # E - B keeps only the momentum coupling: zero diagonal, entries
        # (k+1)!(j-k)!/8 on the first off-diagonals
        b = spectra.build_B_block(2)
        e = spectra.build_E_block(2)
        diff = [
            [e.entries[k][l] - b.entries[k][l] for l in range(3)] for k in range(3)
        ]
        expect = [
            [Rt2(0), Rt2(Fraction(1, 4)), Rt2(0)],
            [Rt2(Fraction(1, 4)), Rt2(0), Rt2(Fraction(1, 4))],
            [Rt2(0), Rt2(Fraction(1, 4)), Rt2(0)],
        ]
        assert diff == expect

    def test_decoupled_block_has_negative_eigenvalue(self):
        eigs = spectra.symmetric_eigenvalues(
            spectra.scaled_block(spectra.build_E_block(3))
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
        decomp = spectra.centro_decompose(spectra.build_B_block(j))
        assert as_fractions(decomp.S.entries) == PRINTED_S[j]

    def test_printed_reduced_block_even(self):
        decomp = spectra.centro_decompose(spectra.build_B_block(4))
        s = decomp.S.entries
        c = Fraction(3, 4)
        expect = [
            [Rt2(2 * c), Rt2(-2 * c), Rt2(0, c)],
            [Rt2(-2 * c), Rt2(2 * c), Rt2(0, -c)],
            [Rt2(0, c), Rt2(0, -c), Rt2(c)],
        ]
        assert [list(row) for row in s] == expect

    def test_reassembly_exact(self):
        for j in range(1, 16):
            block = spectra.build_B_block(j)
            decomp = spectra.centro_decompose(block)
            assert spectra.reassemble(decomp) == block.entries

    def test_eigen_multiset_union(self):
        for j in (3, 6, 9, 12):
            block = spectra.build_B_block(j)
            decomp = spectra.centro_decompose(block)
            full = spectra.symmetric_eigenvalues(spectra.scaled_block(block))
            s_scaled = spectra.scaled_block(decomp.S)
            # scale the skew sector with the same leading weights
            import math

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
            (Rt2(1), Rt2(2)),
            (Rt2(2), Rt2(3)),
        )
        bad = spectra.BlockMatrix(1, BlockKind.FULL_B, rows)
        with pytest.raises(NotCentrosymmetric):
            spectra.centro_decompose(bad)


class TestRankOneSplit:
    def test_even_reassembly_printed(self):
        decomp = spectra.centro_decompose(spectra.build_B_block(4))
        t, k, delta = spectra.rank_one_split(decomp)
        assert t.entries[0][0] == Rt2(0)
        assert all(e == Rt2(Fraction(3, 2)) for row in k.entries for e in row)
        assert delta == Fraction(3)

    def test_odd_trace_is_delta(self):
        # remaining eigenvalue of the rank-one part is its trace
        for j in (7, 9, 15, 21):
            decomp = spectra.centro_decompose(spectra.build_B_block(j))
            t, k, delta = spectra.rank_one_split(decomp)
            p = (j + 1) // 2
            trace = sum((k.entries[i][i].a for i in range(p)), Fraction(0))
            assert trace == delta

    def test_delta_value_j7(self):
        decomp = spectra.centro_decompose(spectra.build_B_block(7))
        _, _, delta = spectra.rank_one_split(decomp)
        assert delta == Fraction(315, 2)

    def test_exact_reassembly_range(self):
        # T + K = reduced block is asserted inside rank_one_split
        for j in range(4, 40):
            decomp = spectra.centro_decompose(spectra.build_B_block(j))
            spectra.rank_one_split(decomp)


class TestNullVectors:
    def test_j5_vectors(self):
        v, w = spectra.null_vectors(5)
        assert [e.a for e in v] == [
            Fraction(1, 120),
            Fraction(1, 24),
            Fraction(1, 12),
        ]
        assert [e.a for e in w] == [Fraction(0), Fraction(1, 6), Fraction(1, 2)]
        decomp = spectra.centro_decompose(spectra.build_B_block(5))
        assert all(not e for e in mat_vec(decomp.S.entries, v))
        assert all(not e for e in mat_vec(decomp.S.entries, w))

    def test_j6_vectors_annihilated(self):
        assert spectra.kernel_annihilated(6)

    def test_sample_range_exact(self):
        for j in (4, 5, 8, 11, 20, 33, 47):
            assert spectra.kernel_annihilated(j)

    def test_out_of_range(self):
        for j in (0, 1, 2, 3):
            with pytest.raises(OutOfRange):
                spectra.null_vectors(j)


class TestIntegerReduction:
    """The integer pass against the Rt2 path it replaces in `certify`."""

    @pytest.mark.parametrize("j", range(81))
    def test_matches_rt2_oracle(self, j):
        reduction = spectra.integer_reduction(j)
        decomp = spectra.centro_decompose(spectra.build_B_block(j))
        if j >= 4:
            v, w = spectra.null_vectors(j)
            oracle = not any(mat_vec(decomp.S.entries, v)) and not any(
                mat_vec(decomp.S.entries, w)
            )
            assert reduction.kernel_annihilated() == oracle
        else:
            with pytest.raises(OutOfRange):
                reduction.kernel_annihilated()
        expect = spectra.scaled_block(decomp.S)
        got = reduction.scaled()
        assert np.array_equal(got, expect)
        assert np.array_equal(
            spectra.symmetric_eigenvalues(got), spectra.symmetric_eigenvalues(expect)
        )

    @pytest.mark.parametrize("j", [4, 9, 30, 31])
    @pytest.mark.parametrize("keeps_v", [False, True])
    def test_perturbed_row_breaks_kernel(self, j, keeps_v):
        reduction = spectra.integer_reduction(j)
        rows = [list(row) for row in reduction.rows]
        if keeps_v:
            # (C(j,1), -C(j,0)) on the first two entries of row 0 is
            # orthogonal to v = C(j,i) but not to w = i(j-i)C(j,i)
            rows[0][0] += j
            rows[0][1] -= 1
        else:
            rows[0][0] += 1
        broken = dataclasses.replace(reduction, rows=tuple(map(tuple, rows)))
        assert reduction.kernel_annihilated()
        assert not broken.kernel_annihilated()

    def test_even_border_is_rational_after_congruence(self):
        # j = 4: S = (3/4)[[2, -2, r], [-2, 2, -r], [r, -r, 1]], r = sqrt2,
        # so M = 2 D S D = (3/4)[[4, -4, 2], [-4, 4, -2], [2, -2, 1]]
        reduction = spectra.integer_reduction(4)
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
            raw = np.array([[float(e) for e in row] for row in block.entries])
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
        decomp = spectra.centro_decompose(spectra.build_B_block(5))
        rows = as_fractions(decomp.S.entries)
        base = rows[2]
        for i, factor in ((0, 5), (1, -3)):
            assert rows[i] == [factor * x for x in base]
        eigs = spectra.symmetric_eigenvalues(spectra.scaled_block(decomp.S))
        assert abs(eigs[0]) <= 1e-12 and abs(eigs[1]) <= 1e-12 and eigs[2] > 0

    def test_eigenvalues_sorted_diagonal(self):
        eigs = spectra.symmetric_eigenvalues(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(eigs, [1.0, 2.0, 3.0])


class TestInterlacing:
    @pytest.mark.parametrize("j", [7, 9, 11])
    def test_interlacing_small(self, j):
        report = spectra.interlacing_check(j)
        assert report.interlaces
        assert report.sum_ok
        assert report.trace_identity_exact
        if j == 7:
            assert report.delta == pytest.approx(157.5)
            assert report.eig_shift_sum == pytest.approx(157.5, rel=1e-9)

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            spectra.interlacing_check(8)


class TestQuadraticFormConsistency:
    def test_block_sum_matches_functional(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            a = rng.standard_normal(13) + 1j * rng.standard_normal(13)
            a /= np.linalg.norm(a)
            u = fock.FockCoefficients(12, a)
            rep = fock.functionals(u, 0.0)
            val = spectra.block_quadratic_value(a)
            assert val == pytest.approx(rep.B, rel=1e-10, abs=1e-12)

    def test_psd_on_reduced_blocks_sample(self):
        for j in range(2, 40):
            decomp = spectra.centro_decompose(spectra.build_B_block(j))
            eigs = spectra.symmetric_eigenvalues(spectra.scaled_block(decomp.S))
            norm = max(abs(eigs[0]), abs(eigs[-1]), 1e-30)
            assert eigs[0] >= -1e-10 * norm
