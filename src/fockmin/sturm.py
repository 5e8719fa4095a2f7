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

All sequence arithmetic is arbitrary-precision integer: sign correctness is
the entire point, so there is no floating shortcut anywhere in this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


@dataclass(frozen=True)
class SturmCertificate:
    """Exact minor sequence and sign-count verdict for one block index."""

    j: int
    parity: str
    half_order: int  # p = (j+1)/2 for odd j, q = j/2 for even j
    sequence: tuple
    scalings: tuple
    sign_agreements: int | None
    transition_index: int | None
    root_window: tuple  # (root_minus, root_minus + 1) as floats
    verdict: str
    reason: str
    smallest_positive_eigenvalue: float | None = None


def _parity_data(j: int):
    """(parity, half order m, recurrence coefficients (a, b), minor count).

    Odd j: u_{k+2} = (2p-5) u_{k+1} - (k+1)(2p-(k+1)) u_k, minors 0..p-1 of
    the extracted tridiagonal of order p-1.  Even j: v_{k+2} = (2q-4) v_{k+1}
    - (k+1)(2q+1-(k+1)) v_k, minors 0..q of the full tridiagonal of order q.
    """
    if j % 2 == 1:
        p = (j + 1) // 2
        if p < 4:
            raise OutOfRange(f"odd-index certificate needs j >= 7, got {j}")
        return "odd", p, (2 * p - 5, 2 * p), p
    q = j // 2
    if q < 3:
        raise OutOfRange(f"even-index certificate needs j >= 6, got {j}")
    return "even", q, (2 * q - 4, 2 * q + 1), q + 1


def recurrence_values(j: int, count: int) -> tuple:
    """First `count` values of the minor integer sequence for block j."""
    _, _, (a, b), _ = _parity_data(j)
    vals = [1, a]
    for k in range(count - 2):
        vals.append(a * vals[-1] - (k + 1) * (b - (k + 1)) * vals[-2])
    return tuple(vals[:count])


def _scalings(j: int, count: int) -> tuple:
    """gamma_k with Delta_k(0) = gamma_k * u_k; positive by construction."""
    parity, m, _, _ = _parity_data(j)
    out = [Fraction(1)]
    gamma = Fraction(1)
    for k in range(1, count):
        if parity == "odd":
            gamma *= Fraction(math.factorial(k - 1) * math.factorial(2 * m - k), 8)
        else:
            gamma *= Fraction(
                math.factorial(k - 1) * math.factorial(2 * m + 1 - k), 8
            )
        out.append(gamma)
    return tuple(out)


def _root_window(j: int):
    """Exact data for the sign-flip window (root_minus, root_minus + 1].

    root_minus = (s - sqrt(s))/2 with s = 2p-1 (odd j) or s = 2q (even j).
    """
    parity, m, _, _ = _parity_data(j)
    s = 2 * m - 1 if parity == "odd" else 2 * m
    return s, 0.5 * (s - math.sqrt(s))


def _window_contains(s: int, t: int) -> bool:
    # root_minus < t  <=>  s - 2t < sqrt(s); t <= root_minus + 1 similarly.
    lhs = s - 2 * t
    below = lhs < 0 or lhs * lhs < s
    rhs = s - 2 * (t - 1)
    above = rhs >= 0 and s <= rhs * rhs
    return below and above


def sturm_sequence(j: int) -> SturmCertificate:
    """Exact minor sequence of the tridiagonal part at shift zero.

    Returns the certificate skeleton with sequence and scalings populated
    and the verdict left unevaluated.
    """
    parity, m, _, count = _parity_data(j)
    seq = recurrence_values(j, count)
    s, rm = _root_window(j)
    return SturmCertificate(
        j=j,
        parity=parity,
        half_order=m,
        sequence=seq,
        scalings=_scalings(j, count),
        sign_agreements=None,
        transition_index=None,
        root_window=(rm, rm + 1.0),
        verdict="unevaluated",
        reason="sequence only",
    )


def closed_form(j: int, n: int) -> int:
    """Closed-form value of the n-th sequence entry; the radicals cancel.

    Odd j: 4 (2p-3)!/(2p-1-n)! (n-p+)(n-p-) for 2 <= n <= 2p-3.
    Even j: 4 (2q-2)!/(2q-n)! (n-q+)(n-q-) for 2 <= n <= 2q-2.
    """
    parity, m, _, _ = _parity_data(j)
    if parity == "odd":
        if not 2 <= n <= 2 * m - 3:
            raise OutOfRange(f"closed form needs 2 <= n <= {2 * m - 3}")
        ratio = math.prod(range(2 * m - n, 2 * m - 2))
        quad = 4 * n * n - 4 * (2 * m - 1) * n + (2 * m - 1) * (2 * m - 2)
        return ratio * quad
    if not 2 <= n <= 2 * m - 2:
        raise OutOfRange(f"closed form needs 2 <= n <= {2 * m - 2}")
    ratio = math.prod(range(2 * m - n + 1, 2 * m - 1))
    quad = 4 * n * n - 8 * m * n + 4 * m * m - 2 * m
    return ratio * quad


def generating_polynomial_check(j: int) -> bool:
    """Verify n! [x^n] (1+x)^{s-2} (1-x)^2 = u_n for every n (s as in the
    recurrence), including the vanishing of the sequence past the degree."""
    parity, m, _, _ = _parity_data(j)
    power = 2 * m - 3 if parity == "odd" else 2 * m - 2
    degree = power + 2
    seq = recurrence_values(j, degree + 3)

    def comb(k):
        return math.comb(power, k) if 0 <= k <= power else 0

    fact = 1
    for n in range(degree + 3):
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


def positivity_certificate(j: int, *, with_gap: bool = False) -> SturmCertificate:
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
    s, rm = _root_window(j)
    if not _window_contains(s, t):
        raise CertificateFailed(
            f"j={j}: transition index {t} outside ({rm}, {rm + 1}]"
        )
    if base.parity == "odd":
        reason = (
            "one transition: at most one non-positive eigenvalue in the "
            "extracted tridiagonal; third eigenvalue positive; reduced block "
            "PSD with its two exact kernel vectors"
        )
    else:
        reason = (
            "one transition: second eigenvalue of the tridiagonal positive; "
            "leading reduced block PSD, hence the bordered block is PSD"
        )
    gap = None
    if with_gap:
        from . import spectra

        reduced = spectra.centro_decompose(spectra.build_B_block(j))
        eigs = spectra.symmetric_eigenvalues(spectra.scaled_block(reduced))
        norm = float(max(abs(eigs[0]), abs(eigs[-1])))
        positive = [float(e) for e in eigs if e > 1e-10 * norm]
        gap = min(positive) if positive else None
    return SturmCertificate(
        j=base.j,
        parity=base.parity,
        half_order=base.half_order,
        sequence=base.sequence,
        scalings=base.scalings,
        sign_agreements=agreements,
        transition_index=t,
        root_window=base.root_window,
        verdict="pass",
        reason=reason,
        smallest_positive_eigenvalue=gap,
    )


def certificate_json(cert: SturmCertificate) -> dict:
    return {
        "j": cert.j,
        "parity": cert.parity,
        "verdict": cert.verdict,
        "transition_index": cert.transition_index,
        "sequence_prefix": [str(v) for v in cert.sequence[:16]],
    }
