"""Exact integer Sturm sequences certifying positivity of the tridiagonal parts.

The principal minors of the tridiagonal part at shift zero factor as
Delta_k(0) = gamma_k * u_k where the gamma_k are explicit positive rationals
and the u_k are integers obeying a second-order recurrence.  Counting sign
agreements along the integer sequence bounds the number of non-positive
eigenvalues; combined with the two exact kernel vectors of the reduced
block, which `spectra.kernel_annihilated` checks on the block's integer
numerators, this certifies positive semidefiniteness block by block.  The
sequence is taken from the recurrence, not read off the block; the tests
check it against the minors of the tridiagonal part that their oracle
splits off the reduced block, and against the sequence's closed form and
generating polynomial.

Odd and even j share every constant, each a function of j alone: the
recurrence coefficients, the j//2 + 1 minors, the scalings and the root
window.  Only what one transition proves differs (see
`positivity_certificate`).

All sequence arithmetic is arbitrary-precision integer: sign correctness is
the entire point, so there is no floating shortcut anywhere in this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .errors import CertificateFailed, OutOfRange

__all__ = [
    "SturmCertificate",
    "sturm_sequence",
    "positivity_certificate",
    "recurrence_values",
    "FIRST_J",
]

FIRST_J = 6  # the first block index the certificate covers


@dataclass(frozen=True)
class SturmCertificate:
    """Exact minor sequence for one block index and, once
    `positivity_certificate` has passed it, the index of its single sign
    transition."""

    j: int
    sequence: tuple
    scalings: tuple
    transition_index: int | None

    @property
    def root_window(self) -> tuple:
        """The sign flip's window (rm, rm + 1], rm = (j - sqrt(j))/2, as floats
        for messages: the verdict decides in integers (`_window_contains`)."""
        rm = 0.5 * (self.j - math.sqrt(self.j))
        return rm, rm + 1.0


def _check_index(j: int) -> None:
    if j < FIRST_J:
        raise OutOfRange(f"the Sturm certificate needs j >= {FIRST_J}, got {j}")


def recurrence_values(j: int, count: int) -> tuple:
    """First `count` values of the minor integer sequence for block j:
    u_0 = 1, u_1 = j-4, u_{k+2} = (j-4) u_{k+1} - (k+1)(j-k) u_k."""
    _check_index(j)
    a = j - 4
    vals = [1, a]
    for k in range(count - 2):
        vals.append(a * vals[-1] - (k + 1) * (j - k) * vals[-2])
    return tuple(vals[:count])


def _scalings(j: int, count: int) -> tuple:
    """gamma_k with Delta_k(0) = gamma_k * u_k; positive by construction:
    gamma_k = prod_{i<=k} (i-1)!(j+1-i)!/8."""
    out = [Fraction(1)]
    gamma = Fraction(1)
    for k in range(1, count):
        gamma *= Fraction(math.factorial(k - 1) * math.factorial(j + 1 - k), 8)
        out.append(gamma)
    return tuple(out)


def _window_contains(s: int, t: int) -> bool:
    # root_minus < t  <=>  s - 2t < sqrt(s); t <= root_minus + 1 similarly.
    lhs = s - 2 * t
    below = lhs < 0 or lhs * lhs < s
    rhs = s - 2 * (t - 1)
    above = rhs >= 0 and s <= rhs * rhs
    return below and above


def sturm_sequence(j: int) -> SturmCertificate:
    """Exact minor sequence of the tridiagonal part at shift zero.

    Returns the certificate skeleton with the j//2 + 1 minors and their
    scalings populated and no transition located yet.
    """
    count = j // 2 + 1
    return SturmCertificate(j, recurrence_values(j, count), _scalings(j, count), None)


def _effective_signs(seq) -> list:
    # A vanishing minor takes the opposite sign of its predecessor; the
    # leading minor is 1 so the first sign is always defined.
    signs = []
    for val in seq:
        if val > 0:
            signs.append(1)
        elif val < 0:
            signs.append(-1)
        else:
            signs.append(-signs[-1])
    return signs


def positivity_certificate(j: int) -> SturmCertificate:
    """Certify positive semidefiniteness of the reduced block via sign counts.

    Odd path: exactly one sign transition leaves at most one non-positive
    eigenvalue in the extracted tridiagonal of order p-1, so the third
    eigenvalue of the full tridiagonal is positive and the reduced block is
    PSD given its two exact kernel vectors.  Even path: the same count gives
    a positive second eigenvalue of the tridiagonal, so the leading reduced
    block is PSD, hence the bordered reduced block is PSD.
    A sign pattern with more than one transition would falsify the
    positivity claim itself and raises instead of returning.
    """
    base = sturm_sequence(j)
    seq = base.sequence
    signs = _effective_signs(seq)
    transitions = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
    if transitions != 1:
        raise CertificateFailed(
            f"j={j}: sign pattern has {transitions} transitions (expected 1)"
        )
    t = next(i for i, val in enumerate(seq) if val < 0)
    if not _window_contains(j, t):
        lo, hi = base.root_window
        raise CertificateFailed(f"j={j}: transition index {t} outside ({lo}, {hi}]")
    return replace(base, transition_index=t)
