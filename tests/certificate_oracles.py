"""Cross-checks of the exact certificate layer, kept as test oracles.

No verdict of `fockmin certify` reads these.  They re-derive facts the
certificate rests on, from the same integer blocks: the exact values of a
block, its congruence-scaled view entry by entry from the dense rows, the
tridiagonal + rank-one split of a reduced block, the
interlacing of their spectra, the quartic functional as a sum over the
blocks, and the closed form and generating polynomial of the Sturm minor
sequence.
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
# Exact values of a block
# ---------------------------------------------------------------------------


def exact_values(block):
    """Entry (k, l) of a block as (a, b), the value a + b*sqrt(2) with a and
    b exact Fractions.  The rows hold M over 2**shift; the value is
    M_kl / sqrt(e_k e_l) for the orbit sizes e, so it is M/2 between two
    pairs, M at the centre or on a full block, and sqrt(2)·M/2 between a
    pair and the centre."""
    scale = 1 << block.shift
    orbits = block.orbits
    out = []
    for e, row in zip(orbits, block.rows):
        values = []
        for f, entry in zip(orbits, row):
            if e * f == 2:
                values.append((Fraction(0), Fraction(entry, 2 * scale)))
            else:
                root = math.isqrt(e * f)
                values.append((Fraction(entry, root * scale), Fraction(0)))
        out.append(values)
    return out


def entrywise_scaled_block(block) -> np.ndarray:
    """`spectra.scaled_block` entry by entry from the dense rows: each
    M_kl^2 / (e_k w_k e_l w_l), over 4^shift, with w_k = k!(j-k)!, is one
    exact integer ratio, which int true division rounds once, correctly;
    its square root is the one float operation per entry."""
    j, n = block.j, block.order
    scale = 1 << block.shift
    weights = [
        scale * e * math.factorial(k) * math.factorial(j - k)
        for k, e in enumerate(block.orbits)
    ]
    out = [[0.0] * n for _ in range(n)]
    for k, row in enumerate(block.rows):
        for l in range(k, n):
            entry = row[l]
            if entry:
                ratio = (entry * entry) / (weights[k] * weights[l])
                val = math.sqrt(ratio) if entry > 0 else -math.sqrt(ratio)
                out[k][l] = out[l][k] = val
    return np.array(out)


# ---------------------------------------------------------------------------
# Rank-one splitting of the reduced block
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Tridiagonal:
    """The tridiagonal part T of a reduced block: entry (k, l) is
    ``rows[k][l] / 2**shift``, with no orbit scaling."""

    j: int
    shift: int
    rows: tuple

    @property
    def order(self) -> int:
        return len(self.rows)

    @property
    def orbits(self) -> tuple:
        return (1,) * self.order


def rank_one_split(reduced: spectra.BlockMatrix):
    """Split the reduced block into tridiagonal + all-ones rank-one parts.

    P^T maps the band of the block to a band, so D = M - base·e e^T, with
    base = j!/2^{j+1} and e the orbit sizes, is formed exactly and must
    vanish off its three diagonals.  On the pair orbits (e_i = 2) the
    leading block L of S is M/2 = T + K with K = kappa·ones,
    kappa = 2·base = j!/2^j, so T = D/2 there.  Returns (T, kappa, delta)
    with delta = trace(K): (j+1)!/2^{j+1} for odd j, (j/2)·j!/2^j for
    even j.
    """
    if reduced.kind is not BlockKind.REDUCED_S:
        raise InvalidParameter(f"cannot split a {reduced.kind.value} block")
    j, orbits = reduced.j, reduced.orbits
    pairs = [i for i, e in enumerate(orbits) if e == 2]
    if not pairs:
        raise OutOfRange(f"no tridiagonal part at j = {j}")
    base = math.factorial(j) << (reduced.shift - j - 1)
    d = [
        [entry - base * e * f for f, entry in zip(orbits, row)]
        for e, row in zip(orbits, reduced.rows)
    ]
    for i, row in enumerate(d):
        for l, entry in enumerate(row):
            if abs(i - l) > 1 and entry:
                raise AssertionError(
                    f"tridiagonal + rank-one does not reassemble the reduced "
                    f"block at ({i},{l}) for j={j}"
                )
    # D is 2T on the pairs: T has one more factor 2 below it
    shift = reduced.shift + 1
    t = tuple(tuple(d[i][l] for l in pairs) for i in pairs)
    kappa = Fraction(2 * base, 1 << reduced.shift)
    return Tridiagonal(j, shift, t), kappa, len(pairs) * kappa


# ---------------------------------------------------------------------------
# Interlacing of the tridiagonal and reduced spectra
# ---------------------------------------------------------------------------


def _value_floats(block) -> np.ndarray:
    rows = exact_values(block)
    return np.array([[float(a) + float(b) * math.sqrt(2) for a, b in r] for r in rows])


def _trace(block) -> Fraction:
    # a diagonal entry joins an orbit to itself, so it has no sqrt(2) part
    return sum(row[i][0] for i, row in enumerate(exact_values(block)))


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
    if j < 7:
        raise OutOfRange("interlacing check applies to odd j >= 7")
    if j > 151:
        raise InvalidParameter("raw entries overflow double precision past j ~ 151")
    reduced = spectra.centro_decompose(spectra.build_B_block(j))
    if 1 in reduced.orbits:
        # T covers the pair orbits only: S = T + K needs every orbit a pair
        raise OutOfRange("interlacing check applies to odd j >= 7")
    t_block, _, delta = rank_one_split(reduced)
    p = reduced.order
    lam = spectra.symmetric_eigenvalues(_value_floats(t_block))
    lam_prime = spectra.symmetric_eigenvalues(_value_floats(reduced))
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
