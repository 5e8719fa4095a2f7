"""Exact integer Sturm sequences certifying positivity of the tridiagonal parts.

The principal minors of the tridiagonal part at shift zero factor as
Delta_k(0) = gamma_k * u_k where the gamma_k are explicit positive rationals
and the u_k are integers obeying a second-order recurrence.  Counting sign
agreements along the integer sequence bounds the number of non-positive
eigenvalues; combined with the two exact kernel vectors of the reduced
block, which `spectra.kernel_annihilated` checks on the block's integer
numerators, this certifies positive semidefiniteness block by block.  The
sequence is taken from the recurrence, not read off the block; the tests
check it against the minors of the tridiagonal that
`spectra.rank_one_split` extracts from the block.

Odd and even j share every constant, each a function of j alone: the
recurrence coefficients, the j//2 + 1 minors, the scalings, the root
window and the closed form.  Only the wording of the verdict differs.

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
    "closed_form",
    "generating_polynomial_check",
    "positivity_certificate",
    "certificate_json",
    "recurrence_values",
]

_FIRST_J = 6  # the first block index the certificate covers

_REASONS = {
    "odd": (
        "one transition: at most one non-positive eigenvalue in the "
        "extracted tridiagonal; third eigenvalue positive; reduced block "
        "PSD with its two exact kernel vectors"
    ),
    "even": (
        "one transition: second eigenvalue of the tridiagonal positive; "
        "leading reduced block PSD, hence the bordered block is PSD"
    ),
}


@dataclass(frozen=True)
class SturmCertificate:
    """Exact minor sequence and sign-count verdict for one block index."""

    j: int
    sequence: tuple
    scalings: tuple
    sign_agreements: int | None
    transition_index: int | None
    root_window: tuple  # (root_minus, root_minus + 1) as floats
    verdict: str
    reason: str

    @property
    def parity(self) -> str:
        return "odd" if self.j % 2 else "even"

    @property
    def half_order(self) -> int:
        """(j+1)//2: p = (j+1)/2 for odd j, q = j/2 for even j."""
        return (self.j + 1) // 2


def _check_index(j: int) -> None:
    if j < _FIRST_J:
        raise OutOfRange(f"the Sturm certificate needs j >= {_FIRST_J}, got {j}")


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
    scalings populated and the verdict left unevaluated.  The sign flip
    is expected in the window (root_minus, root_minus + 1] with
    root_minus = (j - sqrt(j))/2.
    """
    count = j // 2 + 1
    seq = recurrence_values(j, count)
    rm = 0.5 * (j - math.sqrt(j))
    return SturmCertificate(
        j=j,
        sequence=seq,
        scalings=_scalings(j, count),
        sign_agreements=None,
        transition_index=None,
        root_window=(rm, rm + 1.0),
        verdict="unevaluated",
        reason="sequence only",
    )


def closed_form(j: int, n: int) -> int:
    """Closed-form value of the n-th sequence entry, 2 <= n <= j-2:
    (j-2)!/(j-n)! ((j-2n)^2 - j); the radicals of the two roots cancel."""
    _check_index(j)
    if not 2 <= n <= j - 2:
        raise OutOfRange(f"closed form needs 2 <= n <= {j - 2}")
    return math.prod(range(j - n + 1, j - 1)) * ((j - 2 * n) ** 2 - j)


def generating_polynomial_check(j: int) -> bool:
    """Verify n! [x^n] (1+x)^{j-2} (1-x)^2 = u_n for every n, including the
    vanishing of the sequence past the degree j."""
    power = j - 2
    seq = recurrence_values(j, j + 3)

    def comb(k):
        return math.comb(power, k) if 0 <= k <= power else 0

    fact = 1
    for n in range(j + 3):
        if n > 0:
            fact *= n
        coeff = comb(n) - 2 * comb(n - 1) + comb(n - 2)
        if fact * coeff != seq[n]:
            return False
    return True


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
    a positive second eigenvalue, hence the bordered reduced block is PSD.
    A sign pattern with more than one transition would falsify the
    positivity claim itself and raises instead of returning.
    """
    base = sturm_sequence(j)
    seq = base.sequence
    signs = _effective_signs(seq)
    agreements = sum(1 for a, b in zip(signs, signs[1:]) if a == b)
    transitions = len(signs) - 1 - agreements
    if transitions != 1:
        raise CertificateFailed(
            f"j={j}: sign pattern has {transitions} transitions (expected 1)"
        )
    t = next(i for i, val in enumerate(seq) if val < 0)
    if not _window_contains(j, t):
        rm = base.root_window[0]
        raise CertificateFailed(
            f"j={j}: transition index {t} outside ({rm}, {rm + 1}]"
        )
    return replace(
        base,
        sign_agreements=agreements,
        transition_index=t,
        verdict="pass",
        reason=_REASONS[base.parity],
    )


def certificate_json(cert: SturmCertificate) -> dict:
    return {
        "j": cert.j,
        "parity": cert.parity,
        "verdict": cert.verdict,
        "transition_index": cert.transition_index,
        "sequence_prefix": [str(v) for v in cert.sequence[:16]],
    }
