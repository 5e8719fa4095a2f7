"""Exact construction and reduction of the quartic-form coefficient blocks.

For each degree j the quartic energy couples the products a_k a_{j-k}
through a symmetric centrosymmetric matrix of order j+1.  Every entry of
2^s B^(j), s = max(j+1, 3), is an integer, so every exact step is integer
arithmetic on numerators over 2^s.  A block is described once, by its band
(`BlockBand`): the all-ones numerator, the diagonal and the first
off-diagonal, both palindromes.  `build_B_block` expands the band into the
dense `BlockMatrix` that `block` prints, and `centro_decompose` reduces
that to its symmetric-sector half (the anti-diagonal flip splits the
spectrum).  `fold_band` gives the same reduced block straight from the
band, in O(j) arithmetic after an O(j) palindrome check; `certify` reads
that one.  The module then checks the two exact kernel vectors, and
provides congruence-scaled floating-point views for eigenvalue checks and
exact strings for printing.  The sqrt2 on the border of an even-index
reduction is carried by a congruence (see `centro_decompose`), never
stored.  The tridiagonal + rank-one split of a reduced block and the
interlacing of their spectra are cross-checks that no verdict reads; they
live with the tests, as oracles.

Public indexing is 0-based throughout; the usual 1-based entry formulas
are shifted here, in one place.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from .errors import InvalidParameter, NoConvergence, NotCentrosymmetric, OutOfRange

__all__ = [
    "BlockKind",
    "BlockBand",
    "BlockMatrix",
    "block_band",
    "build_B_block",
    "centro_decompose",
    "fold_band",
    "mat_vec",
    "kernel_annihilated",
    "null_vectors",
    "scaled_block",
    "symmetric_eigenvalues",
    "dump_entries",
]


class BlockKind(Enum):
    FULL_B = "B"
    FULL_E = "E"
    REDUCED_S = "S"


@dataclass(frozen=True)
class BlockMatrix:
    """Dense exact matrix attached to one block index: the entry (k, l) is
    ``rows[k][l] / 2**shift``, except on an even-index reduced block, which
    holds M = 2·D S D in place of S (see `centro_decompose`)."""

    j: int
    kind: BlockKind
    shift: int
    rows: tuple

    @property
    def order(self) -> int:
        return len(self.rows)

    @property
    def has_border(self) -> bool:
        """True when the last row and column stand for sqrt2 times a rational."""
        return self.kind is BlockKind.REDUCED_S and self.j % 2 == 0


def _freeze(rows) -> tuple:
    return tuple(tuple(row) for row in rows)


@dataclass(frozen=True)
class BlockBand:
    """One block of order j+1 as its band, over 2**shift: every entry is
    ``base``, plus ``diagonal[k]`` at (k, k) and ``off_diagonal[k]`` at
    (k, k+1) and (k+1, k)."""

    j: int
    shift: int
    base: int
    diagonal: tuple
    off_diagonal: tuple


def block_band(j: int, *, decoupled: bool = False) -> BlockBand:
    """The band of the quartic-form block j, over 2^s with s = max(j+1, 3).

    Every entry holds j!/2^{j+1}; the diagonal adds (j-4) k!(j-k)!/8 and
    the first off-diagonal subtracts (k+1)!(j-k)!/8.  The decoupled block E
    leaves out the momentum coupling, the off-diagonal correction, so its
    off-diagonal is zero.
    """
    if j < 0:
        raise OutOfRange("block index must be non-negative")
    shift = max(j + 1, 3)
    fact = list(itertools.accumulate(range(1, j + 1), operator.mul, initial=1))
    base = fact[j] << (shift - j - 1)
    weights = list(map(operator.mul, fact, reversed(fact)))  # k!(j-k)!
    diagonal = tuple((j - 4) * w << (shift - 3) for w in weights)
    if decoupled:
        off_diagonal = (0,) * j
    else:
        # (k+1)!(j-k)! = (k+1)·k!(j-k)!
        off_diagonal = tuple(-(k + 1) * weights[k] << (shift - 3) for k in range(j))
    return BlockBand(j, shift, base, diagonal, off_diagonal)


def build_B_block(j: int, *, decoupled: bool = False) -> BlockMatrix:
    """Full quartic-form block of order j+1: `block_band` expanded densely.

    Diagonal j!/2^{j+1} + (j-4) k!(j-k)!/8, first off-diagonal
    j!/2^{j+1} - (k+1)!(j-k)!/8, every other entry j!/2^{j+1}.
    """
    band = block_band(j, decoupled=decoupled)
    n = j + 1
    rows = [[band.base] * n for _ in range(n)]
    for k, entry in enumerate(band.diagonal):
        rows[k][k] += entry
    for k, entry in enumerate(band.off_diagonal):
        rows[k][k + 1] += entry
        rows[k + 1][k] += entry
    kind = BlockKind.FULL_E if decoupled else BlockKind.FULL_B
    return BlockMatrix(j, kind, band.shift, _freeze(rows))


# ---------------------------------------------------------------------------
# Centrosymmetric reduction
# ---------------------------------------------------------------------------


def _check_symmetric_centrosymmetric(rows) -> None:
    """Raise `NotCentrosymmetric` unless `rows` is square, equal to its
    transpose and equal to its 180-degree rotation.

    The two comparisons of whole tuples read every entry, at C speed; the
    entries are integers, whose equality is reflexive, so they decide
    exactly what the walk over the upper triangle decides.  The walk runs
    only after a failed comparison (or on rows that are not tuples), to name
    the first failing (k, l) in row-major order.
    """
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise NotCentrosymmetric("matrix is not square")
    if tuple(zip(*rows)) == rows and tuple(row[::-1] for row in rows[::-1]) == rows:
        return
    for k in range(n):
        for l in range(k, n):
            if rows[k][l] != rows[l][k]:
                raise NotCentrosymmetric(f"not symmetric at ({k},{l})")
            if rows[k][l] != rows[n - 1 - k][n - 1 - l]:
                raise NotCentrosymmetric(f"not centrosymmetric at ({k},{l})")


def centro_decompose(block: BlockMatrix) -> BlockMatrix:
    """Reduce a symmetric centrosymmetric block to its symmetric sector.

    With A and C the upper-left and lower-left half blocks and J the flip,
    even order (j odd) gives S = A + JC, of order (j+1)/2.  Odd order
    (j even) gives S = [[R, sqrt2 x], [sqrt2 x^T, q]], of order j/2 + 1,
    with R = A + JC, x the middle column above the centre and q the centre.
    The skew sector A - JC holds the rest of the spectrum.

    S carries sqrt2 on its border, so the even reduction holds
    M = 2·D S D = [[2R, 2x], [2x^T, q]] with D = diag(1, ..., 1, 1/sqrt2),
    whose numerators are integers.  D is invertible, so S v = 0 exactly
    when M (D^-1 v) = 0 and the kernels correspond one to one; by
    Sylvester's law of inertia M and S also have the same inertia.
    `scaled_block` and `dump_entries` map M back to S.
    """
    if block.kind not in (BlockKind.FULL_B, BlockKind.FULL_E):
        raise InvalidParameter(f"cannot reduce a {block.kind.value} block")
    rows = block.rows
    _check_symmetric_centrosymmetric(rows)
    n = len(rows)
    m = n // 2
    # row i of A + JC: the leading halves of rows i and n-1-i, added
    folded = [map(operator.add, rows[i][:m], rows[n - 1 - i][:m]) for i in range(m)]
    if n % 2 == 0:
        reduced = tuple(map(tuple, folded))
    else:
        border = tuple(2 * rows[i][m] for i in range(m))
        reduced = tuple(
            (*(2 * entry for entry in row), border[i]) for i, row in enumerate(folded)
        )
        reduced += ((*border, rows[m][m]),)
    return BlockMatrix(block.j, BlockKind.REDUCED_S, block.shift, reduced)


def _check_palindromes(band: BlockBand) -> None:
    """Raise `NotCentrosymmetric` unless the band's diagonal and
    off-diagonal read the same backwards, naming the first entry that does
    not.  The band is symmetric by construction, so this is the whole of
    the expanded block's centrosymmetry, read in O(j)."""
    for name, entries in (
        ("diagonal", band.diagonal),
        ("off-diagonal", band.off_diagonal),
    ):
        if entries != entries[::-1]:
            last = len(entries) - 1
            k = next(k for k in range(last + 1) if entries[k] != entries[last - k])
            raise NotCentrosymmetric(
                f"{name} entry {k} of block {band.j} differs from its mirror {last - k}"
            )


def fold_band(band: BlockBand) -> BlockMatrix:
    """The reduced block of `centro_decompose`, folded from the band in
    O(j) arithmetic, with no dense block built.

    With m = (j+1)//2 leading rows: for odd j, S = A + JC is 2·base·11^T
    plus the tridiagonal (diagonal[i], off_diagonal[i]) of its m rows, and
    JC adds off_diagonal[m-1] at the centre (m-1, m-1), the one band entry
    that folds onto the half block.  For even j, M = [[2R, 2x], [2x^T, q]]
    is base·e e^T with e = (2, ..., 2, 1), plus twice the band inside,
    2·off_diagonal[m-1] on the border next to the centre and diagonal[m]
    at the corner.
    """
    _check_palindromes(band)
    base, diagonal, off = band.base, band.diagonal, band.off_diagonal
    m = (band.j + 1) // 2
    odd = band.j % 2
    if odd:
        rows = [[2 * base] * m for _ in range(m)]
        scale = 1
    else:
        rows = [[4 * base] * m + [2 * base] for _ in range(m)]
        rows.append([2 * base] * m + [base + diagonal[m]])
        scale = 2
    for i in range(m):
        row = rows[i]
        row[i] += scale * diagonal[i]
        if i:
            row[i - 1] += scale * off[i - 1]
        if i + 1 < len(row):  # on even j, i = m-1 reaches the border
            row[i + 1] += scale * off[i]
    if odd:
        rows[m - 1][m - 1] += off[m - 1]
    elif m:
        rows[m][m - 1] += 2 * off[m - 1]
    return BlockMatrix(band.j, BlockKind.REDUCED_S, band.shift, _freeze(rows))


# ---------------------------------------------------------------------------
# Exact null vectors of the reduced block
# ---------------------------------------------------------------------------


def null_vectors(j: int):
    """The two exact kernel vectors of the reduced block, as integers:
    C(j, i) and i(j-i)·C(j, i), for i below the reduced order j//2 + 1.

    These are j! times the kernel vectors 1/(i!(j-i)!) and
    i(j-i)/(i!(j-i)!) of S, mapped by D^-1 for even j, where the reduced
    block holds M = 2·D S D.  Valid for odd j >= 5 and even j >= 4 (below
    that the reduced block is zero and the two-dimensional kernel
    statement is vacuous).
    """
    if j < 4:
        raise OutOfRange(
            f"the double-kernel statement needs odd j >= 5 or even j >= 4, got {j}"
        )
    v = tuple(math.comb(j, i) for i in range(j // 2 + 1))
    w = tuple(i * (j - i) * c for i, c in enumerate(v))
    return v, w


def mat_vec(rows, vec) -> tuple:
    """Exact integer matrix-vector product."""
    return tuple(sum(map(operator.mul, row, vec)) for row in rows)


def kernel_annihilated(reduced: BlockMatrix) -> bool:
    """Exact check that the reduced block annihilates both `null_vectors`."""
    if reduced.kind is not BlockKind.REDUCED_S:
        raise InvalidParameter(
            f"the kernel check needs a reduced block, got {reduced.kind.value}"
        )
    v, w = null_vectors(reduced.j)
    return not any(mat_vec(reduced.rows, v)) and not any(mat_vec(reduced.rows, w))


# ---------------------------------------------------------------------------
# Floating-point views
# ---------------------------------------------------------------------------

def scaled_block(block: BlockMatrix) -> np.ndarray:
    """Congruence scaling X -> W^-1/2 X W^-1/2 with W = diag(k!(j-k)!).

    Entries become O(j)-bounded binomial ratios; the signature (hence
    positive semidefiniteness) is preserved.  |X_kl| may exceed float
    range, so each squared entry X_kl^2 / (w_k w_l) is formed as one exact
    integer ratio, which int true division rounds once, correctly; its
    square root is then the one float operation per entry.  An even-index
    reduction maps back from M to S: S_kl^2 = M_kl^2 e_k e_l / 4 with
    e = (1, ..., 1, 2), which undoes M = 2·D S D.  The upper triangle is
    filled row by row into nested lists, mirrored, and converted once.
    """
    j, n = block.j, block.order
    weights = [math.factorial(k) * math.factorial(j - k) for k in range(n)]
    factors = [1] * n
    denominator = 4**block.shift
    if block.has_border:
        factors[-1] = 2
        denominator *= 4
    out = [[0.0] * n for _ in range(n)]
    for k, row in enumerate(block.rows):
        row_denominator = denominator * weights[k]
        factor = factors[k]
        for l in range(k, n):
            entry = row[l]
            if entry:
                ratio = (entry * entry * factor * factors[l]) / (
                    row_denominator * weights[l]
                )
                val = math.sqrt(ratio) if entry > 0 else -math.sqrt(ratio)
                out[k][l] = out[l][k] = val
    return np.array(out)


def symmetric_eigenvalues(matrix: np.ndarray) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, ascending (backward error
    bounded by machine epsilon times the norm; tolerance 1e-12*||A||
    is safe for every check in this package).

    The input must be square and match its transpose to a relative 1e-12
    entry by entry (`np.allclose` with atol 0); a NaN fails.  An exactly
    symmetric input, such as every `scaled_block`, passes the cheaper
    `np.array_equal` first, which accepts nothing that test would reject.
    """
    arr = np.asarray(matrix, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise InvalidParameter("eigenvalue input must be square")
    if not np.array_equal(arr, arr.T) and not np.allclose(
        arr, arr.T, rtol=1e-12, atol=0.0
    ):
        raise InvalidParameter("eigenvalue input must be symmetric")
    try:
        return np.linalg.eigvalsh(arr)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise NoConvergence(str(exc)) from exc


def dump_entries(block: BlockMatrix) -> list:
    """Entries as exact strings "p/q"; the border of an even-index
    reduction reads "p/q·√2"."""
    rows, scale = block.rows, 1 << block.shift
    if not block.has_border:
        return [[str(Fraction(entry, scale)) for entry in row] for row in rows]
    # M = 2·D S D: S is M/2 inside, sqrt2·M/2 on the border and M at the corner
    out = [[str(Fraction(entry, 2 * scale)) for entry in row] for row in rows]
    last = block.order - 1
    for k in range(last):
        border = Fraction(rows[k][last], 2 * scale)
        out[k][last] = out[last][k] = f"{border}·√2" if border else "0"
    out[last][last] = str(Fraction(rows[last][last], scale))
    return out
