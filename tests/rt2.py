"""Exact arithmetic in the ring of rationals adjoined sqrt(2).

Reference implementation: `fockmin` once built its blocks over this type,
and `rt2_spectra` keeps that build as the oracle for the integer blocks.
The reduced blocks of even index carry a sqrt(2) factor on their border
row and column, so exact reassembly and null-vector checks need slightly
more than plain rationals.  Every value is stored as a + b*sqrt(2) with
rational a, b; the irrational part is zero except on borders, and the
arithmetic fast-paths that common case.
"""

from __future__ import annotations

import math
from fractions import Fraction

_SQRT2 = math.sqrt(2.0)

class Rt2:
    """Exact number a + b*sqrt(2) with a, b rational."""

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        self.a = a if isinstance(a, Fraction) else Fraction(a)
        self.b = b if isinstance(b, Fraction) else Fraction(b)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        return Rt2(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        return Rt2(self.a - other.a, self.b - other.b)

    def __rsub__(self, other):
        return _coerce(other).__sub__(self)

    def __mul__(self, other):
        other = _coerce(other)
        if not self.b and not other.b:
            return Rt2(self.a * other.a)
        if not self.b:
            return Rt2(self.a * other.a, self.a * other.b)
        if not other.b:
            return Rt2(self.a * other.a, self.b * other.a)
        return Rt2(
            self.a * other.a + 2 * self.b * other.b,
            self.a * other.b + self.b * other.a,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        # Division by a rational scalar only; full field division is unused.
        if isinstance(other, Rt2):
            if other.b:
                raise TypeError("division by an irrational Rt2 is not supported")
            other = other.a
        return Rt2(self.a / other, self.b / other)

    def __neg__(self):
        return Rt2(-self.a, -self.b)

    # -- comparisons and predicates ------------------------------------------

    def __eq__(self, other):
        other = _coerce(other)
        return self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash((self.a, self.b))

    def __bool__(self):
        return bool(self.a) or bool(self.b)

    @property
    def is_rational(self) -> bool:
        return not self.b

    def sign(self) -> int:
        """Exact sign of a + b*sqrt(2)."""
        if not self.b:
            return 0 if not self.a else (1 if self.a > 0 else -1)
        if not self.a:
            return 1 if self.b > 0 else -1
        # compare a and -b*sqrt(2): same sign iff a^2 vs 2 b^2 ordered right
        if (self.a > 0) == (self.b > 0):
            return 1 if self.a > 0 else -1
        lead = self.a * self.a - 2 * self.b * self.b
        if lead == 0:
            return 0
        positive_a = self.a > 0
        return (1 if positive_a else -1) if lead > 0 else (-1 if positive_a else 1)

    # -- conversions ----------------------------------------------------------

    def __float__(self):
        return float(self.a) + float(self.b) * _SQRT2

    def __repr__(self):
        return f"Rt2({self.a!r}, {self.b!r})"

    def __str__(self):
        if not self.b:
            return str(self.a)
        tail = f"{self.b}·√2"
        if not self.a:
            return tail
        return f"{self.a} + {tail}"


def _coerce(value) -> Rt2:
    if isinstance(value, Rt2):
        return value
    if isinstance(value, (int, Fraction)):
        return Rt2(value)
    raise TypeError(f"cannot coerce {type(value).__name__} to Rt2")


ZERO = Rt2(0)
ONE = Rt2(1)


def mat_vec(rows, vec):
    """Exact matrix-vector product over Rt2 entries."""
    out = []
    for row in rows:
        acc = Rt2(0)
        for entry, component in zip(row, vec):
            if entry and component:
                acc = acc + entry * component
        out.append(acc)
    return tuple(out)

