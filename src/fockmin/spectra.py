"""Exact construction and reduction of the quartic-form coefficient blocks.

For each degree j the quartic energy couples the products a_k a_{j-k}
through a symmetric centrosymmetric matrix B of order j+1.  Every entry of
2^s B^(j), s = max(j+1, 3), is an integer, so every exact step is integer
arithmetic on numerators over 2^s.  Every block, full or reduced, is one
`BlockMatrix` kept as its band: a rank-one numerator base·e e^T, the
diagonal and the first off-diagonal.  `build_B_block` gives the full block,
whose band entries are palindromes; only `block` printing expands the
dense rows.

The flip k -> j-k splits the spectrum into a symmetric and a skew sector.
For every j the symmetric sector is one reduced block M = P^T B P, where
P embeds x (length j//2 + 1) as the symmetric vector v_k = x_{r(k)},
r(k) = min(k, j-k): index i stands for the orbit {i, j-i}, of size e_i,
2 or 1 (the centre of an even j).  P^T P = E = diag(e), so the sector's
own matrix is S = E^-1/2 M E^-1/2, with sqrt2 between a pair and the
centre; M has integer numerators, the inertia of S (Sylvester) and its
kernel up to E^1/2.  `centro_decompose` folds the band into M's band, in
O(j) arithmetic after an O(j) check of the band's shape and palindromes.
The module then checks the two exact kernel vectors in O(j), and reads
the orbit sizes to give congruence-scaled floating-point views for
eigenvalue checks and exact strings of S for printing.  The interlacing
of the tridiagonal and reduced spectra is a cross-check that no verdict
reads; it lives with the tests, as an oracle.

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
    "BlockMatrix",
    "build_B_block",
    "centro_decompose",
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
    """One block over 2**shift, as a rank-one part plus a band: the entry
    (k, l) is ``base·e_k·e_l`` for the orbit sizes e, plus ``diagonal[k]``
    at (k, k) and ``off_diagonal[k]`` at (k, k+1) and (k+1, k).  A reduced
    block holds M = P^T B P, whose index i stands for ``orbits[i]``
    indices of the full block."""

    j: int
    kind: BlockKind
    shift: int
    base: int
    diagonal: tuple
    off_diagonal: tuple

    @property
    def order(self) -> int:
        return len(self.diagonal)

    @property
    def orbits(self) -> tuple:
        """The orbit size e_i of each index: 1 on a full block, where P is
        the identity, and the size of {i, j-i} on a reduced block."""
        if self.kind is not BlockKind.REDUCED_S:
            return (1,) * self.order
        return _orbit_sizes(self.j)

    @property
    def rows(self) -> tuple:
        """The dense numerators, row by row, order^2 of them: for printing."""
        sizes = self.orbits
        rows = [[self.base * e * f for f in sizes] for e in sizes]
        for k, entry in enumerate(self.diagonal):
            rows[k][k] += entry
        for k, entry in enumerate(self.off_diagonal):
            rows[k][k + 1] += entry
            rows[k + 1][k] += entry
        return tuple(map(tuple, rows))


def _orbit_sizes(j: int) -> tuple:
    """The size e_i of the orbit {i, j-i} of the flip k -> j-k, for
    i = 0 .. j//2: 1 at the centre of an even j, 2 elsewhere."""
    return tuple(1 if 2 * i == j else 2 for i in range(j // 2 + 1))


def build_B_block(j: int, *, decoupled: bool = False) -> BlockMatrix:
    """The quartic-form block j, of order j+1, over 2^s with s = max(j+1, 3).

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
    kind = BlockKind.FULL_E if decoupled else BlockKind.FULL_B
    return BlockMatrix(j, kind, shift, base, diagonal, off_diagonal)


# ---------------------------------------------------------------------------
# Centrosymmetric reduction
# ---------------------------------------------------------------------------


def _check_band(block: BlockMatrix) -> None:
    """Raise `NotCentrosymmetric` unless the band has the shape of block j,
    j+1 diagonal and j off-diagonal entries, and both read the same
    backwards; a broken palindrome is named by its first entry.  The band
    is symmetric by construction, so this is the block's centrosymmetry."""
    j, diagonal, off_diagonal = block.j, block.diagonal, block.off_diagonal
    if (len(diagonal), len(off_diagonal)) != (j + 1, j):
        raise NotCentrosymmetric(
            f"the band of block {j} has {len(diagonal)} diagonal and "
            f"{len(off_diagonal)} off-diagonal entries, not {j + 1} and {j}"
        )
    for name, entries in (("diagonal", diagonal), ("off-diagonal", off_diagonal)):
        if entries != entries[::-1]:
            last = len(entries) - 1
            k = next(k for k in range(last + 1) if entries[k] != entries[last - k])
            raise NotCentrosymmetric(
                f"{name} entry {k} of block {j} differs from its mirror {last - k}"
            )


def centro_decompose(block: BlockMatrix) -> BlockMatrix:
    """Reduce a full block, from `build_B_block`, to its symmetric sector
    M = P^T B P (see the module docstring), in O(j): base·1 1^T folds to
    base·e e^T, and each band entry at (k, l) adds at (r(k), r(l)),
    r(k) = min(k, j-k), which keeps M a band.  The middle edge of an odd j
    lands twice on the diagonal.  The skew sector holds the rest of the
    spectrum."""
    if not isinstance(block, BlockMatrix) or block.kind is BlockKind.REDUCED_S:
        raise InvalidParameter("centro_decompose reduces a block from build_B_block")
    _check_band(block)
    j = block.j
    r = [min(k, j - k) for k in range(j + 1)]
    diagonal = [0] * (j // 2 + 1)
    off = [0] * (j // 2)
    for i, entry in zip(r, block.diagonal):
        diagonal[i] += entry
    for i, l, entry in zip(r, r[1:], block.off_diagonal):
        if i == l:
            diagonal[i] += 2 * entry
        else:
            off[min(i, l)] += entry
    return BlockMatrix(
        j, BlockKind.REDUCED_S, block.shift, block.base, tuple(diagonal), tuple(off)
    )


# ---------------------------------------------------------------------------
# Exact null vectors of the reduced block
# ---------------------------------------------------------------------------


def null_vectors(j: int):
    """The two exact kernel vectors of the reduced block, as integers:
    C(j, i) and i(j-i)·C(j, i), for i below the reduced order j//2 + 1.

    These are j! times the kernel vectors 1/(k!(j-k)!) and
    k(j-k)/(k!(j-k)!) of the full block, read at the representatives
    k = i: P maps them back to the symmetric vectors.  Valid for odd j >= 5
    and even j >= 4 (below that the reduced block is zero and the
    two-dimensional kernel statement is vacuous).
    """
    if j < 4:
        raise OutOfRange(
            f"the double-kernel statement needs odd j >= 5 or even j >= 4, got {j}"
        )
    v = tuple(math.comb(j, i) for i in range(j // 2 + 1))
    w = tuple(i * (j - i) * c for i, c in enumerate(v))
    return v, w


def mat_vec(block: BlockMatrix, vec) -> tuple:
    """Exact product of a block's numerators with an integer vector, in
    O(j): base·e (e^T x) plus the band's product."""
    sizes = block.orbits
    total = block.base * sum(map(operator.mul, sizes, vec))
    out = [total * e + d * x for e, d, x in zip(sizes, block.diagonal, vec)]
    for k, entry in enumerate(block.off_diagonal):
        out[k] += entry * vec[k + 1]
        out[k + 1] += entry * vec[k]
    return tuple(out)


def kernel_annihilated(reduced: BlockMatrix) -> bool:
    """Exact check that the reduced block annihilates both `null_vectors`."""
    if reduced.kind is not BlockKind.REDUCED_S:
        raise InvalidParameter(
            f"the kernel check needs a reduced block, got {reduced.kind.value}"
        )
    v, w = null_vectors(reduced.j)
    return not any(mat_vec(reduced, v)) and not any(mat_vec(reduced, w))


# ---------------------------------------------------------------------------
# Floating-point views
# ---------------------------------------------------------------------------

def scaled_block(block: BlockMatrix) -> np.ndarray:
    """Congruence scaling X -> W^-1/2 X W^-1/2 with W = diag(k!(j-k)!).

    Entries become O(j)-bounded binomial ratios; the signature (hence
    positive semidefiniteness) is preserved.  The block is read as
    S = E^-1/2 M E^-1/2 with E = diag(orbits), M itself on a full block.
    Each entry is the square root of M_kl^2 / (e_k w_k e_l w_l), over
    4^shift, rounded once, correctly.  Off the band M_kl = base·e_k·e_l,
    so that is the dyadic C(j,k)e_k·C(j,l)e_l / 4^(j+1), at most 1: its
    integer outer product rounds once to float, and the power of two is
    exact while every quotient is normal, j <= 510; past that int true
    division rounds it.  The O(j) band entries are one exact ratio each.
    """
    j, sizes = block.j, block.orbits
    binomials = np.array([math.comb(j, k) * e for k, e in enumerate(sizes)], object)
    squares = np.multiply.outer(binomials, binomials)
    if j <= 510:
        out = np.sqrt(np.ldexp(squares.astype(float), -2 * j - 2))
    else:
        out = np.sqrt((squares / 4 ** (j + 1)).astype(float))
    # with w_k = j!/C(j,k), M_kl^2 / (e_k w_k e_l w_l) over 4^shift is
    # M_kl^2 · squares_kl / (e_k e_l j! 2^shift)^2
    unit = math.factorial(j) << block.shift
    index = range(block.order)
    for k, l, extra in itertools.chain(
        zip(index, index, block.diagonal), zip(index, index[1:], block.off_diagonal)
    ):
        orbit = sizes[k] * sizes[l]
        entry = block.base * orbit + extra
        root = math.sqrt(entry * entry * squares[k, l] / (orbit * unit) ** 2)
        out[k, l] = out[l, k] = root if entry >= 0 else -root
    return out


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
    """Entries of S = E^-1/2 M E^-1/2 as exact strings "p/q": S_kl is
    M_kl / sqrt(e_k e_l), which is M/2 between two pairs, M at the centre
    and the entry itself on a full block.  Between a pair and the centre it
    is sqrt2·M/2, which reads "p/q·√2"."""
    scale, orbits = 1 << block.shift, block.orbits
    out = []
    for e, row in zip(orbits, block.rows):
        line = []
        for f, entry in zip(orbits, row):
            if e * f == 2:
                value = Fraction(entry, 2 * scale)
                line.append(f"{value}·√2" if value else "0")
            else:
                line.append(str(Fraction(entry, math.isqrt(e * f) * scale)))
        out.append(line)
    return out
