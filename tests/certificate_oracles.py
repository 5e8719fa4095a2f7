"""Cross-checks of the exact certificate layer, kept as test oracles.

No verdict of `fockmin certify` reads these.  They re-derive facts the
certificate rests on, from the same integer blocks: the tridiagonal +
rank-one split of a reduced block, the interlacing of their spectra, the
quartic functional as a sum over the blocks, and the closed form and
generating polynomial of the Sturm minor sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from fockmin import spectra, sturm
from fockmin.errors import InvalidParameter, OutOfRange
from fockmin.spectra import BlockKind


def expected_transition(j: int) -> int:
    """The one integer in ((j - sqrt j)/2, (j - sqrt j)/2 + 1], that is
    floor((j - sqrt j)/2) + 1, with floor(j - sqrt j) = j - ceil(sqrt j)
    and ceil(sqrt j) = isqrt(j - 1) + 1."""
    return (j - 1 - math.isqrt(j - 1)) // 2 + 1


# ---------------------------------------------------------------------------
# Rank-one splitting of the reduced block
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Tridiagonal:
    """The tridiagonal part T of a reduced block: entry (k, l) is
    ``rows[k][l] / 2**shift``."""

    j: int
    shift: int
    rows: tuple

    has_border = False

    @property
    def order(self) -> int:
        return len(self.rows)


def rank_one_split(reduced: spectra.BlockMatrix):
    """Split the reduced block into tridiagonal + all-ones rank-one parts.

    The leading block L (all of S for odd j, R for even j) is T + K with
    K = kappa·ones, kappa = j!/2^j.  T = L - K is formed exactly and must
    vanish off its three diagonals.  Returns (T, kappa, delta) with
    delta = trace(K): (j+1)!/2^{j+1} for odd j, (j/2)·j!/2^j for even j.
    """
    if reduced.kind is not BlockKind.REDUCED_S:
        raise InvalidParameter(f"cannot split a {reduced.kind.value} block")
    j = reduced.j
    even = j % 2 == 0
    order = reduced.order - even  # R leaves out the border of M
    if order < 1:
        raise OutOfRange(f"no tridiagonal part at j = {j}")
    # M's leading block is 2R, so R has one more factor 2 below it
    shift = reduced.shift + even
    kappa = math.factorial(j) << (shift - j)
    t = [[entry - kappa for entry in row[:order]] for row in reduced.rows[:order]]
    for i in range(order):
        for l in range(order):
            if abs(i - l) > 1 and t[i][l]:
                raise AssertionError(
                    f"tridiagonal + rank-one does not reassemble the reduced "
                    f"block at ({i},{l}) for j={j}"
                )
    t_block = Tridiagonal(j, shift, tuple(map(tuple, t)))
    return t_block, Fraction(kappa, 1 << shift), Fraction(order * kappa, 1 << shift)


# ---------------------------------------------------------------------------
# Interlacing of the tridiagonal and reduced spectra
# ---------------------------------------------------------------------------


def _raw_floats(block) -> np.ndarray:
    scale = 1 << block.shift
    return np.array([[entry / scale for entry in row] for row in block.rows])


def _trace(block) -> Fraction:
    return Fraction(sum(block.rows[i][i] for i in range(block.order)), 1 << block.shift)


@dataclass(frozen=True)
class InterlacingReport:
    j: int
    p: int
    tolerance: float
    interlaces: bool
    max_violation: float
    eig_shift_sum: float
    delta: float
    sum_ok: bool
    trace_identity_exact: bool


def interlacing_check(j: int) -> InterlacingReport:
    """Eigenvalues of the tridiagonal part interlace those of the reduced
    block, and the total shift equals the rank-one trace.

    Works on the raw matrices, so it is limited to j below roughly 150
    (beyond that the entries overflow double precision).
    """
    if j < 7 or j % 2 == 0:
        raise OutOfRange("interlacing check applies to odd j >= 7")
    if j > 151:
        raise InvalidParameter("raw entries overflow double precision past j ~ 151")
    reduced = spectra.centro_decompose(spectra.build_B_block(j))
    t_block, _, delta = rank_one_split(reduced)
    p = reduced.order
    lam = spectra.symmetric_eigenvalues(_raw_floats(t_block))
    lam_prime = spectra.symmetric_eigenvalues(_raw_floats(reduced))
    norm = float(np.max(np.abs(lam_prime))) if p else 0.0
    tol = 1e-9 * max(norm, 1.0)
    worst = 0.0
    ok = True
    for i in range(p):
        worst = max(worst, lam[i] - lam_prime[i])
        if lam[i] > lam_prime[i] + tol:
            ok = False
        if i + 1 < p:
            worst = max(worst, lam_prime[i] - lam[i + 1])
            if lam_prime[i] > lam[i + 1] + tol:
                ok = False
    shift = float(np.sum(lam_prime) - np.sum(lam))
    sum_ok = abs(shift - float(delta)) <= tol
    return InterlacingReport(
        j=j,
        p=p,
        tolerance=tol,
        interlaces=ok,
        max_violation=worst,
        eig_shift_sum=shift,
        delta=float(delta),
        sum_ok=sum_ok,
        trace_identity_exact=(_trace(reduced) - _trace(t_block) == delta),
    )


# ---------------------------------------------------------------------------
# Quadratic-form evaluation through the blocks
# ---------------------------------------------------------------------------


def block_quadratic_value(coeffs: np.ndarray) -> float:
    """Evaluate the quartic functional as sum_j conj(A_j)^T B^(j) A_j with
    A_{jk} = a_k a_{j-k} / sqrt(k!(j-k)!), using the scaled blocks so the
    weights cancel exactly."""
    a = np.asarray(coeffs, dtype=complex)
    n = a.shape[0] - 1
    total = 0.0
    for j in range(2 * n + 1):
        scaled = spectra.scaled_block(spectra.build_B_block(j))
        g = np.zeros(j + 1, dtype=complex)
        for k in range(j + 1):
            if k <= n and j - k <= n:
                g[k] = a[k] * a[j - k]
        total += float(np.real(np.conj(g) @ scaled @ g))
    return total


# ---------------------------------------------------------------------------
# Closed forms of the Sturm minor sequence
# ---------------------------------------------------------------------------


def closed_form(j: int, n: int) -> int:
    """Closed-form value of the n-th sequence entry, 2 <= n <= j-2:
    (j-2)!/(j-n)! ((j-2n)^2 - j); the radicals of the two roots cancel."""
    if j < 6:
        raise OutOfRange(f"the Sturm sequence needs j >= 6, got {j}")
    if not 2 <= n <= j - 2:
        raise OutOfRange(f"closed form needs 2 <= n <= {j - 2}")
    return math.prod(range(j - n + 1, j - 1)) * ((j - 2 * n) ** 2 - j)


def generating_polynomial_check(j: int) -> bool:
    """Verify n! [x^n] (1+x)^{j-2} (1-x)^2 = u_n for every n, including the
    vanishing of the sequence past the degree j."""
    power = j - 2
    seq = sturm.recurrence_values(j, j + 3)

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
