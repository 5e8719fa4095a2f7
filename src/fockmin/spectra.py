"""Exact construction and reduction of the quartic-form coefficient blocks.

For each degree j the quartic energy couples the products a_k a_{j-k}
through a symmetric centrosymmetric matrix of order j+1.  This module
builds those blocks in exact rational arithmetic, reduces them to their
symmetric-sector half (the anti-diagonal flip splits the spectrum), peels
off the rank-one all-ones part, carries the exact null vectors, and
provides congruence-scaled floating-point views for eigenvalue checks.
`integer_reduction` does the kernel check and the float view of one block
in a single pass over integer numerators; the rational path above renders
blocks and serves as the reference it is tested against.

Public indexing is 0-based throughout; the usual 1-based entry formulas
are shifted here, in one place.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from .errors import (
    InvalidParameter,
    NoConvergence,
    NotCentrosymmetric,
    OutOfRange,
    WrongParityInput,
)
# mat_vec is no longer called here; perfbench's tracer looks it up in this
# module to show that the certify path leaves it alone.
from .rt2 import Rt2, mat_vec  # noqa: F401

__all__ = [
    "BlockKind",
    "BlockMatrix",
    "CentroDecomposition",
    "build_B_block",
    "build_E_block",
    "centro_decompose",
    "integer_reduction",
    "IntegerReduction",
    "kernel_annihilated",
    "reassemble",
    "rank_one_split",
    "null_vectors",
    "scaled_block",
    "symmetric_eigenvalues",
    "interlacing_check",
    "InterlacingReport",
    "block_quadratic_value",
    "dump_entries",
]


class BlockKind(Enum):
    FULL_B = "B"
    FULL_E = "E"
    REDUCED_S = "S"
    REDUCED_R = "R"
    TRIDIAGONAL_T = "T"
    RANK_ONE_K = "K"


@dataclass(frozen=True)
class BlockMatrix:
    """Dense exact matrix attached to one block index."""

    j: int
    kind: BlockKind
    entries: tuple

    @property
    def order(self) -> int:
        return len(self.entries)

    def entry(self, k: int, l: int) -> Rt2:
        return self.entries[k][l]


def _freeze(rows) -> tuple:
    return tuple(tuple(row) for row in rows)


def build_B_block(j: int) -> BlockMatrix:
    """Full quartic-form block of order j+1 (exact rationals).

    Diagonal j!/2^{j+1} + (j-4) k!(j-k)!/8, first off-diagonal
    j!/2^{j+1} - (k+1)!(j-k)!/8, every other entry j!/2^{j+1}.
    """
    if j < 0:
        raise OutOfRange("block index must be non-negative")
    base = Rt2(Fraction(math.factorial(j), 2 ** (j + 1)))
    n = j + 1
    rows = [[base] * n for _ in range(n)]
    for k in range(n):
        rows[k][k] = base + Rt2(
            Fraction((j - 4) * math.factorial(k) * math.factorial(j - k), 8)
        )
    for k in range(n - 1):
        off = base - Rt2(
            Fraction(math.factorial(k + 1) * math.factorial(j - k), 8)
        )
        rows[k][k + 1] = off
        rows[k + 1][k] = off
    return BlockMatrix(j, BlockKind.FULL_B, _freeze(rows))


def build_E_block(j: int) -> BlockMatrix:
    """Same block with the momentum-coupling (off-diagonal) term removed."""
    if j < 0:
        raise OutOfRange("block index must be non-negative")
    base = Rt2(Fraction(math.factorial(j), 2 ** (j + 1)))
    n = j + 1
    rows = [[base] * n for _ in range(n)]
    for k in range(n):
        rows[k][k] = base + Rt2(
            Fraction((j - 4) * math.factorial(k) * math.factorial(j - k), 8)
        )
    return BlockMatrix(j, BlockKind.FULL_E, _freeze(rows))


# ---------------------------------------------------------------------------
# Centrosymmetric reduction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CentroDecomposition:
    """Half-size reduction of a symmetric centrosymmetric block.

    Even order (j odd): the symmetric sector is S = A + JC of order (j+1)/2.
    Odd order (j even): the symmetric sector is S = [[A+JC, sqrt2*x],
    [sqrt2*x^T, q]] of order j/2+1, and R = A + JC is its leading j/2 block.
    The skew sector is A - JC in both cases.
    """

    j: int
    parity: str
    A: tuple
    C: tuple
    x: tuple | None
    q: Rt2 | None
    S: BlockMatrix
    R: BlockMatrix | None
    skew: tuple


def _check_symmetric_centrosymmetric(rows) -> None:
    n = len(rows)
    for k in range(n):
        if len(rows[k]) != n:
            raise NotCentrosymmetric("matrix is not square")
        for l in range(k, n):
            if rows[k][l] != rows[l][k]:
                raise NotCentrosymmetric(f"not symmetric at ({k},{l})")
            if rows[k][l] != rows[n - 1 - k][n - 1 - l]:
                raise NotCentrosymmetric(f"not centrosymmetric at ({k},{l})")


def centro_decompose(block: BlockMatrix) -> CentroDecomposition:
    """Split a symmetric centrosymmetric block into its two spectral sectors."""
    rows = block.entries
    _check_symmetric_centrosymmetric(rows)
    n = len(rows)
    j = block.j
    if n % 2 == 0:
        m = n // 2
        a = [[rows[i][l] for l in range(m)] for i in range(m)]
        c = [[rows[m + i][l] for l in range(m)] for i in range(m)]
        s = [[a[i][l] + rows[n - 1 - i][l] for l in range(m)] for i in range(m)]
        skew = [[a[i][l] - rows[n - 1 - i][l] for l in range(m)] for i in range(m)]
        return CentroDecomposition(
            j=j,
            parity="odd",
            A=_freeze(a),
            C=_freeze(c),
            x=None,
            q=None,
            S=BlockMatrix(j, BlockKind.REDUCED_S, _freeze(s)),
            R=None,
            skew=_freeze(skew),
        )
    m = (n - 1) // 2
    a = [[rows[i][l] for l in range(m)] for i in range(m)]
    c = [[rows[m + 1 + i][l] for l in range(m)] for i in range(m)]
    x = tuple(rows[i][m] for i in range(m))
    q_scalar = rows[m][m]
    if any(not xi.is_rational for xi in x):
        raise NotCentrosymmetric("border entries must be rational")
    r = [[a[i][l] + rows[n - 1 - i][l] for l in range(m)] for i in range(m)]
    skew = [[a[i][l] - rows[n - 1 - i][l] for l in range(m)] for i in range(m)]
    s = [list(r[i]) + [Rt2(0, x[i].a)] for i in range(m)]
    s.append([Rt2(0, xi.a) for xi in x] + [q_scalar])
    return CentroDecomposition(
        j=j,
        parity="even",
        A=_freeze(a),
        C=_freeze(c),
        x=x,
        q=q_scalar,
        S=BlockMatrix(j, BlockKind.REDUCED_S, _freeze(s)),
        R=BlockMatrix(j, BlockKind.REDUCED_R, _freeze(r)),
        skew=_freeze(skew),
    )


def reassemble(decomp: CentroDecomposition) -> tuple:
    """Rebuild the full block entries from the decomposition pieces exactly."""
    a, c = decomp.A, decomp.C
    m = len(a)
    if decomp.parity == "odd":
        n = 2 * m
        rows = [[None] * n for _ in range(n)]
        for i in range(m):
            for l in range(m):
                rows[i][l] = a[i][l]
                rows[i][m + l] = c[l][i]  # transpose of C
                rows[m + i][l] = c[i][l]
                rows[m + i][m + l] = a[m - 1 - i][m - 1 - l]  # JAJ
        return _freeze(rows)
    n = 2 * m + 1
    rows = [[None] * n for _ in range(n)]
    for i in range(m):
        for l in range(m):
            rows[i][l] = a[i][l]
            rows[i][m + 1 + l] = c[l][i]
            rows[m + 1 + i][l] = c[i][l]
            rows[m + 1 + i][m + 1 + l] = a[m - 1 - i][m - 1 - l]
    for i in range(m):
        rows[i][m] = decomp.x[i]
        rows[m][i] = decomp.x[i]
        rows[m][m + 1 + i] = decomp.x[m - 1 - i]  # x^T J
        rows[m + 1 + i][m] = decomp.x[m - 1 - i]  # J x
    rows[m][m] = decomp.q
    return _freeze(rows)


# ---------------------------------------------------------------------------
# Rank-one splitting of the reduced block
# ---------------------------------------------------------------------------


def rank_one_split(decomp: CentroDecomposition):
    """Split the reduced block into tridiagonal + all-ones rank-one parts.

    Odd j (half order p): S = T + K with K = (j!/2^j) * ones(p) and delta =
    trace(K) = (2p)!/2^{2p}.  Even j (order q): R = T + K with the analogous
    entries.  The reassembly T + K is verified exactly before returning.
    """
    j = decomp.j
    if decomp.parity == "odd":
        p = (j + 1) // 2
        if p < 1:
            raise OutOfRange("no reduced block below j = 1")
        kappa = Fraction(math.factorial(j), 2**j)
        t = [[Rt2(0)] * p for _ in range(p)]
        for i in range(p - 1):
            t[i][i] = Rt2(
                Fraction((2 * p - 5) * math.factorial(i) * math.factorial(2 * p - 1 - i), 8)
            )
        t[p - 1][p - 1] = Rt2(
            Fraction((p - 5) * math.factorial(p - 1) * math.factorial(p), 8)
        )
        for i in range(p - 1):
            off = Rt2(
                -Fraction(math.factorial(i + 1) * math.factorial(2 * p - 1 - i), 8)
            )
            t[i][i + 1] = off
            t[i + 1][i] = off
        target = decomp.S.entries
        delta = Fraction(math.factorial(2 * p), 2 ** (2 * p))
        order = p
    elif decomp.parity == "even":
        q = j // 2
        if q < 1:
            raise OutOfRange("no tridiagonal part below j = 2")
        kappa = Fraction(math.factorial(j), 2**j)
        t = [[Rt2(0)] * q for _ in range(q)]
        for i in range(q):
            t[i][i] = Rt2(
                Fraction((2 * q - 4) * math.factorial(i) * math.factorial(2 * q - i), 8)
            )
        for i in range(q - 1):
            off = Rt2(
                -Fraction(math.factorial(i + 1) * math.factorial(2 * q - i), 8)
            )
            t[i][i + 1] = off
            t[i + 1][i] = off
        target = decomp.R.entries
        delta = q * kappa
        order = q
    else:
        raise WrongParityInput(f"unknown parity {decomp.parity!r}")

    kap = Rt2(kappa)
    for i in range(order):
        for l in range(order):
            if t[i][l] + kap != target[i][l]:
                raise WrongParityInput(
                    f"tridiagonal + rank-one does not reassemble the reduced "
                    f"block at ({i},{l}) for j={j}"
                )
    t_block = BlockMatrix(j, BlockKind.TRIDIAGONAL_T, _freeze(t))
    k_block = BlockMatrix(
        j, BlockKind.RANK_ONE_K, _freeze([[kap] * order for _ in range(order)])
    )
    return t_block, k_block, delta


# ---------------------------------------------------------------------------
# Exact null vectors of the reduced block
# ---------------------------------------------------------------------------


def null_vectors(j: int):
    """The two exact kernel vectors of the reduced symmetric-sector block.

    Valid for odd j >= 5 and even j >= 4 (below that the reduced block is
    zero and the two-dimensional kernel statement is vacuous).
    """
    if j >= 5 and j % 2 == 1:
        p = (j + 1) // 2
        v = tuple(
            Rt2(Fraction(1, math.factorial(i) * math.factorial(j - i)))
            for i in range(p)
        )
        w = tuple(
            Rt2(Fraction(i * (j - i), math.factorial(i) * math.factorial(j - i)))
            for i in range(p)
        )
        return v, w
    if j >= 4 and j % 2 == 0:
        q = j // 2
        v = [
            Rt2(Fraction(1, math.factorial(i) * math.factorial(j - i)))
            for i in range(q)
        ]
        w = [
            Rt2(Fraction(i * (j - i), math.factorial(i) * math.factorial(j - i)))
            for i in range(q)
        ]
        v.append(Rt2(0, Fraction(1, 2 * math.factorial(q) ** 2)))
        w.append(Rt2(0, Fraction(1, 2 * math.factorial(q - 1) ** 2)))
        return tuple(v), tuple(w)
    raise _outside_kernel_range(j)


def _outside_kernel_range(j: int) -> OutOfRange:
    return OutOfRange(
        f"the double-kernel statement needs odd j >= 5 or even j >= 4, got {j}"
    )


def kernel_annihilated(j: int) -> bool:
    """Exact check that both kernel vectors are annihilated by the reduced block."""
    return integer_reduction(j).kernel_annihilated()


# ---------------------------------------------------------------------------
# Integer pass: one build and one reduction per block
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntegerReduction:
    """Symmetric sector of B^(j) as integer numerators over 2^shift.

    Odd j: ``rows`` holds S = A + JC, of order (j+1)/2.  Even j: ``rows``
    holds M = 2·D S D = [[2R, 2x], [2x^T, q]], of order j/2 + 1, with
    D = diag(1, ..., 1, 1/sqrt2); see `integer_reduction`.
    """

    j: int
    shift: int
    rows: tuple

    @property
    def order(self) -> int:
        return len(self.rows)

    def kernel_annihilated(self) -> bool:
        """Exact check that M annihilates C(j,i) and i(j-i)·C(j,i), i < order.

        These are the vectors of `null_vectors` times j!, with the last
        component multiplied by sqrt2 for even j (the map v -> D^-1 v).
        """
        j = self.j
        if j < 4:
            raise _outside_kernel_range(j)
        v = [math.comb(j, i) for i in range(self.order)]
        w = [i * (j - i) * c for i, c in enumerate(v)]
        return all(
            sum(map(operator.mul, row, v)) == 0 and sum(map(operator.mul, row, w)) == 0
            for row in self.rows
        )

    def scaled(self) -> np.ndarray:
        """The congruence-scaled reduced block, bit for bit equal to
        ``scaled_block(centro_decompose(build_B_block(j)).S)``.

        Each squared entry S_kl^2 / (w_k w_l), w_k = k!(j-k)!, is one exact
        integer ratio, and int true division rounds it once, correctly, as
        ``float(Fraction)`` does.  For even j, S_kl^2 = M_kl^2 e_k e_l / 4
        with e = (1, ..., 1, 2), which undoes M = 2·D S D.
        """
        j, n = self.j, self.order
        weights = [math.factorial(k) * math.factorial(j - k) for k in range(n)]
        factors = [1] * n
        denominator = 4**self.shift
        if j % 2 == 0:
            factors[-1] = 2
            denominator *= 4
        out = np.empty((n, n))
        for k in range(n):
            for l in range(k, n):
                entry = self.rows[k][l]
                val = 0.0
                if entry:
                    ratio = (entry * entry * factors[k] * factors[l]) / (
                        denominator * weights[k] * weights[l]
                    )
                    val = math.sqrt(ratio) if entry > 0 else -math.sqrt(ratio)
                out[k, l] = val
                out[l, k] = val
        return out


def integer_reduction(j: int) -> IntegerReduction:
    """Build B^(j) once in integers and reduce it to its symmetric sector.

    Every entry of 2^s B^(j), s = max(j+1, 3), is an integer, so the block
    is built, checked symmetric and centrosymmetric, and reduced with no
    rational or sqrt2 arithmetic.  Odd j gives S = A + JC directly.

    Even j: the symmetric sector S = [[R, sqrt2 x], [sqrt2 x^T, q]] carries
    sqrt2 on its border.  The congruence D = diag(1, ..., 1, 1/sqrt2),
    scaled by 2, gives M = 2·D S D = [[2R, 2x], [2x^T, q]], which has
    integer numerators.  D is invertible, so S v = 0 exactly when
    M (D^-1 v) = 0 and the kernels correspond one to one; by Sylvester's
    law of inertia M and S also have the same inertia.  The exact kernel
    check therefore runs on M, while the float view (`scaled`) maps back
    to S and is unchanged.
    """
    if j < 0:
        raise OutOfRange("block index must be non-negative")
    shift = max(j + 1, 3)
    n = j + 1
    fact = [math.factorial(k) for k in range(n)]
    base = fact[j] << (shift - j - 1)
    rows = [[base] * n for _ in range(n)]
    for k in range(n):
        rows[k][k] = base + ((j - 4) * fact[k] * fact[j - k] << (shift - 3))
    for k in range(n - 1):
        off = base - (fact[k + 1] * fact[j - k] << (shift - 3))
        rows[k][k + 1] = off
        rows[k + 1][k] = off
    _check_symmetric_centrosymmetric(rows)
    m = n // 2
    if n % 2 == 0:
        reduced = [[rows[i][l] + rows[n - 1 - i][l] for l in range(m)] for i in range(m)]
    else:
        x = [rows[i][m] for i in range(m)]
        reduced = [
            [2 * (rows[i][l] + rows[n - 1 - i][l]) for l in range(m)] + [2 * x[i]]
            for i in range(m)
        ]
        reduced.append([2 * xi for xi in x] + [rows[m][m]])
    return IntegerReduction(j, shift, _freeze(reduced))


# ---------------------------------------------------------------------------
# Floating-point views
# ---------------------------------------------------------------------------

_SCALABLE = {
    BlockKind.FULL_B,
    BlockKind.FULL_E,
    BlockKind.REDUCED_S,
    BlockKind.REDUCED_R,
}


def _scaled_entry(value: Rt2, wk: int, wl: int) -> float:
    # |entry| may exceed float range; route through bounded squares instead.
    out = 0.0
    if value.a:
        sign = 1.0 if value.a > 0 else -1.0
        out += sign * math.sqrt(float(value.a * value.a / (wk * wl)))
    if value.b:
        sign = 1.0 if value.b > 0 else -1.0
        out += sign * math.sqrt(float(2 * value.b * value.b / (wk * wl)))
    return out


def scaled_block(block: BlockMatrix) -> np.ndarray:
    """Congruence scaling X -> D^-1 X D^-1 with D = diag(sqrt(k!(j-k)!)).

    Entries become O(j)-bounded binomial ratios; the signature (hence
    positive semidefiniteness) is preserved.
    """
    if block.kind not in _SCALABLE:
        raise InvalidParameter(f"cannot congruence-scale a {block.kind.value} block")
    j = block.j
    n = block.order
    weights = [math.factorial(k) * math.factorial(j - k) for k in range(n)]
    out = np.empty((n, n))
    for k in range(n):
        for l in range(k, n):
            val = _scaled_entry(block.entries[k][l], weights[k], weights[l])
            out[k, l] = val
            out[l, k] = val
    return out


def symmetric_eigenvalues(matrix: np.ndarray) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, ascending (backward error
    bounded by machine epsilon times the norm; tolerance 1e-12*||A||
    is safe for every check in this package)."""
    arr = np.asarray(matrix, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise InvalidParameter("eigenvalue input must be square")
    if not np.allclose(arr, arr.T, rtol=1e-12, atol=0.0):
        raise InvalidParameter("eigenvalue input must be symmetric")
    try:
        return np.linalg.eigvalsh(arr)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise NoConvergence(str(exc)) from exc


def _raw_float(value: Rt2) -> float:
    return float(value)


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

    @property
    def passed(self) -> bool:
        return self.interlaces and self.sum_ok and self.trace_identity_exact


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
    decomp = centro_decompose(build_B_block(j))
    t_block, _, delta = rank_one_split(decomp)
    p = (j + 1) // 2
    t = np.array([[_raw_float(e) for e in row] for row in t_block.entries])
    s = np.array([[_raw_float(e) for e in row] for row in decomp.S.entries])
    lam = symmetric_eigenvalues(t)
    lam_prime = symmetric_eigenvalues(s)
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
    trace_s = Fraction(0)
    trace_t = Fraction(0)
    for i in range(p):
        trace_s += decomp.S.entries[i][i].a
        trace_t += t_block.entries[i][i].a
    return InterlacingReport(
        j=j,
        p=p,
        tolerance=tol,
        interlaces=ok,
        max_violation=worst,
        eig_shift_sum=shift,
        delta=float(delta),
        sum_ok=sum_ok,
        trace_identity_exact=(trace_s - trace_t == delta),
    )


# ---------------------------------------------------------------------------
# Quadratic-form evaluation through the blocks
# ---------------------------------------------------------------------------


def block_quadratic_value(coeffs: np.ndarray, j_max: int | None = None) -> float:
    """Evaluate the quartic functional as sum_j conj(A_j)^T B^(j) A_j with
    A_{jk} = a_k a_{j-k} / sqrt(k!(j-k)!), using the scaled blocks so the
    weights cancel exactly."""
    a = np.asarray(coeffs, dtype=complex)
    n = a.shape[0] - 1
    top = 2 * n if j_max is None else min(j_max, 2 * n)
    total = 0.0
    for j in range(top + 1):
        scaled = scaled_block(build_B_block(j))
        g = np.zeros(j + 1, dtype=complex)
        for k in range(j + 1):
            if k <= n and j - k <= n:
                g[k] = a[k] * a[j - k]
        total += float(np.real(np.conj(g) @ scaled @ g))
    return total


def dump_entries(block: BlockMatrix) -> list:
    """Entries as exact strings: "p/q" with a "·√2" marker on border terms."""
    return [[str(e) for e in row] for row in block.entries]
