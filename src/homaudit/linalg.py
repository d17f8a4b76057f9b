"""Exact linear algebra over prime fields F_p.

All arithmetic is integer residue arithmetic; no floating point appears
anywhere. A matrix is a dense int64 array of residues, always passed
together with its prime p. There is one dense elimination kernel,
`row_reduce`: Gauss-Jordan with explicit mod-p pivoting, where each pivot
clears its whole column with one array-wide rank-1 update. Results are
deterministic: elimination always picks the first usable pivot (smallest
row, then smallest column), so the echelon forms are bit-identical to
textbook row-by-row elimination. It gives the ranks of the generic audit
(`dense_rank`, with `mat_mul` for its composites), `solve_matrix` and the
checked `Subspace` constructor. (Filtrations are reduced in `persistence`,
once each, on sparse columns.)
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

import numpy as np


class DimensionMismatchError(ValueError):
    """Matrix or vector shapes do not compose."""


def is_prime(n: int) -> bool:
    """Trial-division primality test; the moduli here are small."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@lru_cache(maxsize=256)
def _small_prime(n: int) -> bool:
    """Whether n is a prime below 2^31, by trial division once per n. The
    bound comes first: trial division of a huge n would take hours."""
    return n < 2**31 and is_prime(n)


def check_modulus(p: int) -> int:
    if isinstance(p, (int, np.integer)) and p >= 2**31:
        raise ValueError(f"modulus too large for exact int64 arithmetic: {p}")
    if not isinstance(p, (int, np.integer)) or not _small_prime(int(p)):
        raise ValueError(f"modulus must be prime, got {p!r}")
    return int(p)


# ---------------------------------------------------------------------------
# dense matrices

def mat_mul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact product mod p. Falls back to Python ints if int64 could overflow."""
    if a.shape[1] != b.shape[0]:
        raise DimensionMismatchError(f"cannot multiply {a.shape} by {b.shape}")
    inner = a.shape[1]
    # each accumulated sum is < inner * (p-1)^2; keep it inside int64
    if inner * (p - 1) * (p - 1) < 2**62:
        return (a.astype(np.int64) @ b.astype(np.int64)) % p
    return (a.astype(object) @ b.astype(object) % p).astype(np.int64)


def row_reduce(a: np.ndarray, p: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """Reduced row echelon form over F_p and the pivot column indices.

    Each pivot clears its column with one rank-1 update over every row that
    has a nonzero there, restricted to columns c: (rows at or below the
    pivot row are already zero to the left of c, and the pivot row is what
    gets subtracted). Every product is below p^2 < 2^62, so int64 stays exact.
    """
    m = a.astype(np.int64) % p
    rows, cols = m.shape
    if rows == 0 or cols == 0:
        return m, ()
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = m[r:, c].nonzero()[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            m[[r, pr]] = m[[pr, r]]
        inv = pow(int(m[r, c]), -1, p)
        if inv != 1:
            m[r, c:] = (m[r, c:] * inv) % p
        hit = m[:, c].nonzero()[0]
        hit = hit[hit != r]
        if hit.size:
            m[hit, c:] = (m[hit, c:] - m[hit, c, None] * m[r, c:]) % p
        pivots.append(c)
        r += 1
    return m, tuple(pivots)


def dense_rank(a: np.ndarray, p: int) -> int:
    if a.size == 0:
        return 0
    return len(row_reduce(a, p)[1])


def solve_matrix(a: np.ndarray, b: np.ndarray, p: int) -> Optional[np.ndarray]:
    """One solution X of a X = b (column-wise), or None if any column is unsolvable.

    Free variables are set to 0, so the result is deterministic.
    """
    if b.ndim == 1:
        b = b.reshape(-1, 1)
    if a.shape[0] != b.shape[0]:
        raise DimensionMismatchError(f"cannot solve {a.shape} x = {b.shape}")
    aug, pivots = row_reduce(np.concatenate((a, b), axis=1), p)
    n = a.shape[1]
    if pivots and pivots[-1] >= n:
        return None  # a pivot in the augmented block means an inconsistent column
    x = np.zeros((n, b.shape[1]), dtype=np.int64)
    x[list(pivots)] = aug[:len(pivots), n:]
    return x


class Subspace:
    """A subspace of F_p^n spanned by an independent list of coordinate vectors.

    Basis vectors are the columns of `basis`, read-only. The constructor
    proves independence with one reduction.
    """

    __slots__ = ("ambient", "modulus", "basis")

    def __init__(self, ambient: int, vectors, modulus: int):
        p = check_modulus(modulus)
        mat = np.asarray(list(vectors) if not isinstance(vectors, np.ndarray) else vectors,
                         dtype=np.int64)
        if mat.size == 0:
            mat = np.zeros((0, ambient), dtype=np.int64)
        if mat.ndim != 2 or mat.shape[1] != ambient:
            raise DimensionMismatchError(
                f"basis vectors must have length {ambient}, got shape {mat.shape}")
        basis = (mat % p).T  # ambient x dim
        if dense_rank(basis, p) != basis.shape[1]:
            raise ValueError("basis vectors are linearly dependent")
        basis.setflags(write=False)
        for name, value in zip(self.__slots__, (ambient, p, basis)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @property
    def dim(self) -> int:
        return self.basis.shape[1]
