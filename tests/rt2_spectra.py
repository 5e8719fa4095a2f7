"""Reference implementation: the Rt2 build of the blocks that `fockmin.spectra`
replaced.

Each block is built, reduced and split over `Rt2` numbers (pairs of
`Fraction`s, a + b*sqrt(2)); the code below is the earlier
`fockmin.spectra`, kept verbatim.  Tests compare the integer blocks of
`fockmin.spectra` with it entry by entry, float by float and byte by byte
(`block_stdout` is the earlier `block` command's rendering).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from fockmin.errors import (
    InvalidParameter,
    NotCentrosymmetric,
    OutOfRange,
    WrongParityInput,
)
from rt2 import Rt2

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


def dump_entries(block: BlockMatrix) -> list:
    """Entries as exact strings: "p/q" with a "·√2" marker on border terms."""
    return [[str(e) for e in row] for row in block.entries]


def block_stdout(j: int, decoupled: bool, reduced: bool, fmt: str) -> str:
    """What `fockmin block` printed for these arguments, built over Rt2."""
    block = build_E_block(j) if decoupled else build_B_block(j)
    if reduced:
        block = centro_decompose(block).S
    entries = dump_entries(block)
    if fmt == "json":
        text = json.dumps({"j": j, "kind": block.kind.value, "entries": entries})
        text += "\n"
    else:
        width = max(len(e) for row in entries for e in row)
        lines = [f"{block.kind.value}^({j}), order {block.order}"]
        for row in entries:
            lines.append("  ".join(e.rjust(width) for e in row))
        text = "\n".join(lines) + "\n"
    return text
