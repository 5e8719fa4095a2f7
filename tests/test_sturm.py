"""Integer Sturm sequences: recurrences, closed forms, sign certificates."""

from fractions import Fraction

import pytest

from fockmin import spectra, sturm
from fockmin.errors import OutOfRange

from certificate_oracles import (
    closed_form,
    expected_transition,
    generating_polynomial_check,
    rank_one_split,
)


class TestRecurrence:
    def test_hand_iterated_odd(self):
        # p = 4: u = (1, 3, 3*3 - 1*7*1, 3*2 - 2*6*3)
        assert sturm.recurrence_values(7, 4) == (1, 3, 2, -30)

    def test_hand_iterated_even(self):
        # q = 4: v = (1, 4, 4*4 - 1*8*1)
        assert sturm.recurrence_values(8, 3) == (1, 4, 8)

    def test_vanishing_past_degree(self):
        for j in (7, 9, 13):
            p = (j + 1) // 2
            vals = sturm.recurrence_values(j, 2 * p + 4)
            assert all(v == 0 for v in vals[2 * p :])
            assert vals[2 * p - 1] != 0
        for j in (6, 10, 16):
            q = j // 2
            vals = sturm.recurrence_values(j, 2 * q + 5)
            assert all(v == 0 for v in vals[2 * q + 1 :])

    def test_out_of_range(self):
        for j in (0, 2, 3, 4, 5):
            with pytest.raises(OutOfRange):
                sturm.sturm_sequence(j)


class TestClosedForm:
    def test_examples(self):
        assert closed_form(7, 2) == 2
        assert closed_form(7, 3) == -30
        assert closed_form(8, 2) == 8

    def test_matches_recurrence(self):
        for j in (7, 9, 12, 20, 31, 44):
            top = j - 2
            vals = sturm.recurrence_values(j, top + 1)
            for n in range(2, top + 1):
                assert closed_form(j, n) == vals[n]

    def test_range_errors(self):
        with pytest.raises(OutOfRange):
            closed_form(7, 1)
        with pytest.raises(OutOfRange):
            closed_form(7, 6)


class TestGeneratingPolynomial:
    def test_small_cases(self):
        # 2! [x^2](1+x)^5(1-x)^2 = 2(10 - 10 + 1) = 2 and the even analog
        assert generating_polynomial_check(7)
        assert generating_polynomial_check(8)

    def test_boundary_coefficients(self):
        # expansion ends with (2p-5) x^{2p-2} + x^{2p-1}
        import math

        for j in (9, 15, 29):
            p = (j + 1) // 2
            vals = sturm.recurrence_values(j, 2 * p)
            assert vals[2 * p - 2] == (2 * p - 5) * math.factorial(2 * p - 2)
            assert vals[2 * p - 1] == math.factorial(2 * p - 1)

    def test_sample_range(self):
        for j in range(6, 40):
            assert generating_polynomial_check(j)


class TestScalings:
    def test_gamma_start_odd(self):
        import math

        cert = sturm.sturm_sequence(9)
        assert cert.scalings[0] == Fraction(1)
        assert cert.scalings[1] == Fraction(math.factorial(9), 8)

    @pytest.mark.parametrize("j", [7, 8, 9, 10, 15, 16, 33, 40, 59, 60])
    def test_scaled_integers_reproduce_exact_minors(self, j):
        # independent oracle: the exact minor recurrence on the rational
        # tridiagonal entries
        reduced = spectra.centro_decompose(spectra.build_B_block(j))
        t_block, _, _ = rank_one_split(reduced)
        order = t_block.order
        # the extracted tridiagonal's order p-1 minors for odd j, the full
        # tridiagonal's q+1 for even j: j//2 + 1 either way
        count = order if j % 2 == 1 else order + 1
        scale = 2**t_block.shift
        diag = [Fraction(t_block.rows[i][i], scale) for i in range(order)]
        off = [Fraction(t_block.rows[i][i + 1], scale) for i in range(order - 1)]
        minors = [Fraction(1)]
        for r in range(1, count):
            value = diag[r - 1] * minors[r - 1]
            if r >= 2:
                value -= off[r - 2] ** 2 * minors[r - 2]
            minors.append(value)
        cert = sturm.sturm_sequence(j)
        assert len(cert.sequence) == len(cert.scalings) == count == j // 2 + 1
        for k in range(count):
            assert minors[k] == cert.scalings[k] * cert.sequence[k]


class TestCertificate:
    def test_j7_signs(self):
        cert = sturm.positivity_certificate(7)
        assert cert.transition_index == expected_transition(7)
        assert cert.transition_index == 3

    def test_zero_minor_sign_convention(self):
        # p = 5 hits an exact zero: u_3 = 0 takes the opposite sign of u_2,
        # so the single transition is at the zero and the first strictly
        # negative entry stays inside the root window (3, 4]
        cert = sturm.positivity_certificate(9)
        assert cert.sequence[3] == 0
        assert cert.transition_index == expected_transition(9)
        assert cert.transition_index == 4
        assert cert.root_window == (3.0, 4.0)

    def test_even_zero_minor(self):
        cert = sturm.positivity_certificate(16)
        assert cert.sequence[6] == 0
        assert cert.transition_index == 7
        assert cert.transition_index == expected_transition(16)

    def test_effective_sign_counting_matches_convention(self):
        signs = sturm._effective_signs((1, 5, 16, 0, -336))
        assert signs == [1, 1, 1, -1, -1]

    def test_window_membership_sample(self):
        import math

        for j in range(6, 80):
            cert = sturm.positivity_certificate(j)
            lo, hi = cert.root_window
            t = cert.transition_index
            assert lo < t <= hi + 1e-12
            assert lo == pytest.approx(0.5 * (j - math.sqrt(j)), rel=1e-12)

    def test_parity_and_half_order_follow_j(self):
        cases = ((6, "even", 3), (7, "odd", 4), (8, "even", 4), (9, "odd", 5))
        for j, parity, half in cases:
            cert = sturm.positivity_certificate(j)
            assert cert.parity == parity
            assert cert.half_order == half

    def test_certificate_fields(self):
        cert = sturm.positivity_certificate(8)
        assert cert.j == 8
        assert cert.parity == "even"
        assert isinstance(cert.transition_index, int)
        assert cert.transition_index == expected_transition(8)
        assert all(isinstance(v, int) for v in cert.sequence)
