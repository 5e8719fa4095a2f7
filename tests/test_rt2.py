"""Exact quadratic-ring scalar arithmetic of the `rt2` reference module."""

from fractions import Fraction

import pytest

from rt2 import Rt2, mat_vec


class TestRt2:
    def test_ring_operations(self):
        x = Rt2(Fraction(1, 2), Fraction(3))
        y = Rt2(Fraction(2), Fraction(-1, 2))
        assert x + y == Rt2(Fraction(5, 2), Fraction(5, 2))
        assert x - y == Rt2(Fraction(-3, 2), Fraction(7, 2))
        # (1/2 + 3r)(2 - r/2) = 1 - 3 + (6 - 1/4) r with r^2 = 2
        assert x * y == Rt2(Fraction(-2), Fraction(23, 4))
        assert -x == Rt2(Fraction(-1, 2), Fraction(-3))

    def test_rational_fast_paths(self):
        assert Rt2(3) * Rt2(4) == Rt2(12)
        assert Rt2(3) * Rt2(0, 2) == Rt2(0, 6)
        assert (Rt2(5) / 2) == Rt2(Fraction(5, 2))

    def test_sqrt2_squares_to_two(self):
        r = Rt2(0, 1)
        assert r * r == Rt2(2)

    def test_sign(self):
        assert Rt2(0).sign() == 0
        assert Rt2(3, -2).sign() == 1  # 3 > 2*sqrt(2)
        assert Rt2(2, -2).sign() == -1  # 2 < 2*sqrt(2)
        assert Rt2(-1, 1).sign() == 1  # sqrt(2) > 1
        assert Rt2(2, -Fraction(2, 2)).sign() == 1

    def test_truthiness_and_float(self):
        assert not Rt2(0, 0)
        assert Rt2(0, 1)
        assert float(Rt2(1, 1)) == pytest.approx(2.414213562373095)

    def test_string_forms(self):
        assert str(Rt2(Fraction(3, 8))) == "3/8"
        assert str(Rt2(0, Fraction(-3, 4))) == "-3/4·√2"
        assert str(Rt2(1, 1)) == "1 + 1·√2"

    def test_mat_vec(self):
        # [[1, r], [r, 2]] (r = sqrt2) annihilates (r, -1) exactly
        rows = ((Rt2(1), Rt2(0, 1)), (Rt2(0, 1), Rt2(2)))
        assert mat_vec(rows, (Rt2(0, 1), Rt2(-1))) == (Rt2(0), Rt2(0))
        assert mat_vec(rows, (Rt2(1), Rt2(1))) == (Rt2(1, 1), Rt2(2, 1))

    def test_division_by_irrational_unsupported(self):
        with pytest.raises(TypeError):
            Rt2(1) / Rt2(0, 1)
