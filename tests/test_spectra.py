"""Exact block construction, centrosymmetric reduction and eigen checks.

`rt2_spectra`, the Rt2 build these integer blocks replaced, is the oracle;
`certificate_oracles` holds the cross-checks no verdict reads.
"""

import dataclasses
import math
import operator
from fractions import Fraction

import numpy as np
import pytest

from fockmin import fock, spectra
from fockmin.errors import InvalidParameter, NotCentrosymmetric, OutOfRange
from fockmin.spectra import BlockKind

import rt2_spectra as oracle
from certificate_oracles import (
    block_quadratic_value,
    entrywise_scaled_block,
    exact_values,
    interlacing_check,
    rank_one_split,
)
from rt2 import Rt2, mat_vec


def as_fractions(block):
    """The block's exact values, which must carry no sqrt2."""
    values = exact_values(block)
    assert not any(b for row in values for _, b in row)
    return [[a for a, _ in row] for row in values]


def as_rt2(block):
    """The block's exact values as oracle numbers."""
    return tuple(tuple(Rt2(a, b) for a, b in row) for row in exact_values(block))


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
            reduced = spectra.centro_decompose(spectra.build_B_block(j))
            decomp = oracle.centro_decompose(oracle.build_B_block(j))
            assert as_rt2(block) == oracle.reassemble(decomp)
            assert as_rt2(reduced) == decomp.S.entries

    def test_eigen_multiset_union(self):
        for j in (3, 6, 9, 12):
            block = spectra.build_B_block(j)
            decomp = oracle.centro_decompose(oracle.build_B_block(j))
            full = spectra.symmetric_eigenvalues(spectra.scaled_block(block))
            reduced = spectra.centro_decompose(spectra.build_B_block(j))
            s_scaled = spectra.scaled_block(reduced)
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
        block = spectra.build_B_block(5)
        bad = dataclasses.replace(block, diagonal=(1, *block.diagonal[1:]))
        with pytest.raises(NotCentrosymmetric):
            spectra.centro_decompose(bad)
        # the reduction folds a full block: a reduced block or bare rows
        # are not one, and the error names where a full block comes from
        reduced = spectra.centro_decompose(block)
        for other in (reduced, reduced.rows):
            with pytest.raises(InvalidParameter, match="from build_B_block"):
                spectra.centro_decompose(other)


def expand(block):
    """The dense rows of a band: `base` everywhere, plus the band."""
    n = block.j + 1
    rows = [[block.base] * n for _ in range(n)]
    for k, entry in enumerate(block.diagonal):
        rows[k][k] += entry
    for k, entry in enumerate(block.off_diagonal):
        rows[k][k + 1] += entry
        rows[k + 1][k] += entry
    return rows


class TestSymmetryChecks:
    """The exact layer's symmetry checks on real blocks with one defect: the
    reduction rejects a band exactly when the Rt2 build's entry walk
    rejects its dense expansion, naming the same first failing entry, and
    `symmetric_eigenvalues` keeps its relative 1e-12 tolerance."""

    @staticmethod
    def walk_message(rows):
        try:
            oracle._check_symmetric_centrosymmetric(rows)
        except NotCentrosymmetric as exc:
            return str(exc)
        return None

    @staticmethod
    def reduce_message(block):
        try:
            spectra.centro_decompose(block)
        except NotCentrosymmetric as exc:
            return str(exc)
        return None

    @pytest.mark.parametrize("j", [9, 10, 31])
    @pytest.mark.parametrize("mirrored", [False, True], ids=["entry", "pair"])
    def test_every_changed_entry_named_as_by_the_walk(self, j, mirrored):
        # a diagonal entry changed is one entry of the dense block, an
        # off-diagonal entry changed is an entry with its transpose; either
        # breaks centrosymmetry alone, unless it is its own mirror
        block = spectra.build_B_block(j)
        field, name, step = ("off_diagonal", "off-diagonal", 1) if mirrored else (
            "diagonal", "diagonal", 0
        )
        entries = getattr(block, field)
        last = len(entries) - 1
        for k in range(last + 1):
            changed = list(entries)
            changed[k] += 1
            broken = dataclasses.replace(block, **{field: tuple(changed)})
            walk = self.walk_message(expand(broken))
            got = self.reduce_message(broken)
            if k == last - k:
                assert walk is got is None, k
                continue
            i = min(k, last - k)
            assert walk == f"not centrosymmetric at ({i},{i + step})", k
            assert got == (
                f"{name} entry {i} of block {j} differs from its mirror {last - i}"
            ), k

    @pytest.mark.parametrize("j", [9, 10, 31])
    def test_named_first_failures(self, j):
        block = spectra.build_B_block(j)
        # of two broken mirror pairs, the one nearer the ends is named
        diagonal = list(block.diagonal)
        diagonal[2] += 1
        diagonal[j - 1] -= 1
        broken = dataclasses.replace(block, diagonal=tuple(diagonal))
        assert self.reduce_message(broken) == (
            f"diagonal entry 1 of block {j} differs from its mirror {j - 1}"
        )
        # the diagonal is read before the off-diagonal
        off_diagonal = list(block.off_diagonal)
        off_diagonal[0] += 1
        diagonal = list(block.diagonal)
        diagonal[3] += 1
        broken = dataclasses.replace(
            block, diagonal=tuple(diagonal), off_diagonal=tuple(off_diagonal)
        )
        assert self.reduce_message(broken) == (
            f"diagonal entry 3 of block {j} differs from its mirror {j - 3}"
        )
        broken = dataclasses.replace(block, off_diagonal=tuple(off_diagonal))
        assert self.reduce_message(broken) == (
            f"off-diagonal entry 0 of block {j} differs from its mirror {j - 1}"
        )

    @staticmethod
    def scaled_with_defect(scale):
        arr = spectra.scaled_block(spectra.centro_decompose(spectra.build_B_block(31)))
        off = np.abs(arr - np.diag(np.diag(arr)))
        k, l = np.unravel_index(np.argmax(off), arr.shape)
        arr[k, l] = scale(arr[k, l])
        return arr

    def test_eigenvalues_accept_relative_asymmetry_1e_13(self):
        arr = self.scaled_with_defect(lambda x: x * (1.0 + 1e-13))
        assert not np.array_equal(arr, arr.T)
        exact = 0.5 * (arr + arr.T)
        got = spectra.symmetric_eigenvalues(arr)
        expect = spectra.symmetric_eigenvalues(exact)
        assert np.allclose(got, expect, rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize(
        "scale",
        [lambda x: x * (1.0 + 1e-11), lambda x: math.nan],
        ids=["relative-1e-11", "nan"],
    )
    def test_eigenvalues_reject_asymmetry(self, scale):
        with pytest.raises(InvalidParameter, match="symmetric"):
            spectra.symmetric_eigenvalues(self.scaled_with_defect(scale))

    def test_eigenvalues_reject_nan_on_the_diagonal(self):
        arr = np.eye(3)
        arr[1, 1] = math.nan
        with pytest.raises(InvalidParameter, match="symmetric"):
            spectra.symmetric_eigenvalues(arr)


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
        assert all(not e for e in spectra.mat_vec(reduced, v))
        assert all(not e for e in spectra.mat_vec(reduced, w))

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

    @pytest.mark.parametrize("j", [*range(81), 97, 150, 200])
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
            # j! times the oracle's kernel vectors of S = E^-1/2 M E^-1/2,
            # mapped to M's by E^-1/2 and scaled by sqrt2: sqrt(2/e) each
            root = {2: Rt2(1), 1: Rt2(0, 1)}
            for new, old in zip(spectra.null_vectors(j), (v, w)):
                scaled = [
                    e * math.factorial(j) * root[size]
                    for e, size in zip(old, reduction.orbits)
                ]
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
        diagonal = list(reduction.diagonal)
        off_diagonal = list(reduction.off_diagonal)
        if keeps_v:
            # u u^T on the first two orbits, u = (C(j,1), -C(j,0)): the
            # folded off-diagonal pair (0,1), (1,0) changes by -j with the
            # diagonal, and u is orthogonal to v = C(j,i) but not to
            # w = i(j-i)C(j,i)
            diagonal[0] += j * j
            diagonal[1] += 1
            off_diagonal[0] -= j
        else:
            # a changed folded diagonal entry: w_0 = 0, so only v is lost
            diagonal[0] += 1
        broken = dataclasses.replace(
            reduction, diagonal=tuple(diagonal), off_diagonal=tuple(off_diagonal)
        )
        kept = [not any(spectra.mat_vec(broken, x)) for x in spectra.null_vectors(j)]
        assert kept == [keeps_v, not keeps_v]
        assert spectra.kernel_annihilated(reduction)
        assert not spectra.kernel_annihilated(broken)

    @pytest.mark.parametrize("decoupled", [False, True], ids=["B", "E"])
    def test_mat_vec_is_the_dense_product(self, decoupled):
        # the O(j) product, on full and reduced blocks, against the rows
        rng = np.random.default_rng(31)
        for j in range(201):
            full = spectra.build_B_block(j, decoupled=decoupled)
            for block in (full, spectra.centro_decompose(full)):
                x = [int(v) for v in rng.integers(-(10**9), 10**9, size=block.order)]
                dense = tuple(sum(map(operator.mul, row, x)) for row in block.rows)
                assert spectra.mat_vec(block, x) == dense, (j, block.kind)

    def test_even_border_is_rational_after_congruence(self):
        # j = 4: S = (3/4)[[2, -2, r], [-2, 2, -r], [r, -r, 1]], r = sqrt2,
        # so M = E^1/2 S E^1/2 with e = (2, 2, 1) is
        # (3/4)[[4, -4, 2], [-4, 4, -2], [2, -2, 1]]
        reduction = spectra.centro_decompose(spectra.build_B_block(4))
        scale = Fraction(1, 2**reduction.shift)
        got = [[Fraction(e) * scale for e in row] for row in reduction.rows]
        c = Fraction(3, 4)
        assert got == [
            [4 * c, -4 * c, 2 * c],
            [-4 * c, 4 * c, -2 * c],
            [2 * c, -2 * c, c],
        ]


class TestBandFold:
    """`centro_decompose`, the O(j) fold of a block's band, against the
    dense build and an explicit P^T B P."""

    @staticmethod
    def product(a, b):
        """Exact a @ b over nested lists, skipping the zeros of a."""
        out = []
        for row in a:
            acc = [0] * len(b[0])
            for k, c in enumerate(row):
                if c:
                    acc = [s + c * x for s, x in zip(acc, b[k])]
            out.append(acc)
        return out

    @staticmethod
    def embedding(j):
        """P, which sends x to the symmetric vector v_k = x_{min(k, j-k)}."""
        m = j // 2 + 1
        return [[int(min(k, j - k) == i) for i in range(m)] for k in range(j + 1)]

    @pytest.mark.parametrize("decoupled", [False, True], ids=["B", "E"])
    def test_fold_equals_dense_reduction(self, decoupled):
        # M = P^T B P, multiplied out on the dense block
        nonzero = 0
        for j in range(201):
            p = self.embedding(j)
            pt = [list(col) for col in zip(*p)]
            block = spectra.build_B_block(j, decoupled=decoupled)
            b = block.rows
            bp = [list(col) for col in zip(*self.product(pt, list(zip(*b))))]
            expect = self.product(pt, bp)
            folded = spectra.centro_decompose(block)
            assert folded.rows == tuple(map(tuple, expect)), j
            assert folded.kind is BlockKind.REDUCED_S
            assert folded.order == j // 2 + 1
            nonzero += any(map(any, folded.rows))
        # only the reductions of the smallest blocks vanish
        assert nonzero >= 195

    @pytest.mark.parametrize("decoupled", [False, True], ids=["B", "E"])
    def test_fold_is_the_definition(self, decoupled):
        # the quadratic forms agree: x^T M x = (Px)^T B (Px)
        rng = np.random.default_rng(29)
        for j in range(201):
            p = self.embedding(j)
            block = spectra.build_B_block(j, decoupled=decoupled)
            b = block.rows
            folded = spectra.centro_decompose(block)
            for _ in range(3):
                x = [int(v) for v in rng.integers(-(10**6), 10**6, size=len(p[0]))]
                px = [sum(c * v for c, v in zip(row, x)) for row in p]
                mx = [sum(map(operator.mul, row, x)) for row in folded.rows]
                bpx = [sum(map(operator.mul, row, px)) for row in b]
                quadratic = sum(map(operator.mul, px, bpx))
                assert sum(map(operator.mul, x, mx)) == quadratic, j

    @pytest.mark.parametrize("j", [9, 10, 31])
    @pytest.mark.parametrize("shape", ["short", "long-diagonal", "long-off-diagonal"])
    def test_wrong_shape_named(self, j, shape):
        # each band below is made of palindromes, so only its lengths tell
        # it from a block's; the short one, cut at both ends, used to fold
        # to a block of the wrong order
        block = spectra.build_B_block(j)

        def widened(entries):
            centre = len(entries) // 2
            return entries[:centre] + entries[centre:][:1] + entries[centre:]

        if shape == "short":
            broken = dataclasses.replace(
                block, diagonal=block.diagonal[1:-1], off_diagonal=block.off_diagonal[1:-1]
            )
        elif shape == "long-diagonal":
            broken = dataclasses.replace(block, diagonal=widened(block.diagonal))
        else:
            broken = dataclasses.replace(block, off_diagonal=widened(block.off_diagonal))
        for entries in (broken.diagonal, broken.off_diagonal):
            assert entries == entries[::-1]
        sizes = len(broken.diagonal), len(broken.off_diagonal)
        assert sizes != (j + 1, j)
        with pytest.raises(NotCentrosymmetric) as info:
            spectra.centro_decompose(broken)
        assert str(info.value) == (
            f"the band of block {j} has {sizes[0]} diagonal and {sizes[1]} "
            f"off-diagonal entries, not {j + 1} and {j}"
        )

    @pytest.mark.parametrize("j", [0, 1, 2, 9, 10])
    def test_band_is_the_dense_block(self, j):
        # every entry off the band is base; the band adds to it
        block = spectra.build_B_block(j)
        rows = block.rows
        for k in range(j + 1):
            for l in range(j + 1):
                extra = 0
                if k == l:
                    extra = block.diagonal[k]
                elif abs(k - l) == 1:
                    extra = block.off_diagonal[min(k, l)]
                assert rows[k][l] == block.base + extra, (k, l)
        assert any(block.off_diagonal) == (j > 0)
        assert not any(spectra.build_B_block(j, decoupled=True).off_diagonal)

    @pytest.mark.parametrize("j", [9, 10, 31, 40])
    @pytest.mark.parametrize("field", ["diagonal", "off_diagonal"])
    def test_broken_palindrome_named(self, j, field):
        block = spectra.build_B_block(j)
        entries = getattr(block, field)
        last = len(entries) - 1
        name = "diagonal" if field == "diagonal" else "off-diagonal"
        for k in range(last + 1):
            broken = list(entries)
            broken[k] += 1
            mutated = dataclasses.replace(block, **{field: tuple(broken)})
            if k == last - k:
                # the centre is its own mirror: the fold runs, on a block
                # whose kernel is gone
                reduced = spectra.centro_decompose(mutated)
                assert not spectra.kernel_annihilated(reduced)
                continue
            first = min(k, last - k)
            with pytest.raises(NotCentrosymmetric) as info:
                spectra.centro_decompose(mutated)
            assert str(info.value) == (
                f"{name} entry {first} of block {j} differs from its mirror "
                f"{last - first}"
            )


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

    @staticmethod
    def assert_same_bits(got, expect):
        assert got.dtype == expect.dtype and got.shape == expect.shape
        assert np.array_equal(got, expect)
        assert got.tobytes() == expect.tobytes()

    def test_reduced_entries_are_the_entrywise_ratios(self):
        for j in range(6, 201):
            reduced = spectra.centro_decompose(spectra.build_B_block(j))
            self.assert_same_bits(
                spectra.scaled_block(reduced), entrywise_scaled_block(reduced)
            )

    @pytest.mark.parametrize("j", [509, 510, 511, 512, 516, 600])
    def test_reduced_entries_past_the_normal_range(self, j):
        # from j = 511 on 4^(j+1) passes 2^1022, so the smallest squares
        # can be subnormal, and from j = 516 on the largest products of a
        # reduced block pass 2^1024
        reduced = spectra.centro_decompose(spectra.build_B_block(j))
        self.assert_same_bits(
            spectra.scaled_block(reduced), entrywise_scaled_block(reduced)
        )

    @pytest.mark.parametrize("decoupled", [False, True], ids=["B", "E"])
    def test_full_entries_are_the_entrywise_ratios(self, decoupled):
        for j in range(61):
            block = spectra.build_B_block(j, decoupled=decoupled)
            self.assert_same_bits(spectra.scaled_block(block), entrywise_scaled_block(block))

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
            u = fock.FockCoefficients(a)
            rep = fock.functionals(u, 0.0)
            val = block_quadratic_value(a)
            assert val == pytest.approx(rep.B, rel=1e-10, abs=1e-12)

    def test_psd_on_reduced_blocks_sample(self):
        for j in range(2, 40):
            reduced = spectra.centro_decompose(spectra.build_B_block(j))
            eigs = spectra.symmetric_eigenvalues(spectra.scaled_block(reduced))
            norm = max(abs(eigs[0]), abs(eigs[-1]), 1e-30)
            assert eigs[0] >= -1e-10 * norm
