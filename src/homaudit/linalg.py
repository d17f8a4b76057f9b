"""Exact linear algebra over prime fields F_p.

All arithmetic is integer residue arithmetic; no floating point appears
anywhere. The matrices in this project are boundary operators and induced
maps of desk-scale complexes, so every matrix is a dense int64 array of
residues, always passed together with its prime p. There is one dense
elimination kernel, `row_reduce`: Gauss-Jordan with explicit mod-p
pivoting, where each pivot clears its whole column with one array-wide
rank-1 update. Results are deterministic: elimination always picks the
first usable pivot (smallest row, then smallest column), so the echelon
forms are bit-identical to textbook row-by-row elimination. (Filtrations
are reduced in `persistence`, once each, on sparse columns.)
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

import numpy as np


class NotInvariantError(ValueError):
    """A map does not carry the given domain subspace into the codomain subspace."""


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
# dense helpers (shared by the whole package)

def _as_array(m, p: int) -> tuple[np.ndarray, int]:
    """m as a 2-D int64 array of residues, with the checked prime p."""
    p = check_modulus(p)
    arr = np.asarray(m, dtype=np.int64) % p
    if arr.ndim != 2:
        raise DimensionMismatchError(f"expected a 2-D array, got shape {arr.shape}")
    return arr, p


def block_diag(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The block matrix [[a, 0], [0, b]]."""
    out = np.zeros((a.shape[0] + b.shape[0], a.shape[1] + b.shape[1]), dtype=np.int64)
    out[:a.shape[0], :a.shape[1]] = a
    out[a.shape[0]:, a.shape[1]:] = b
    return out


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


def nullspace(a: np.ndarray, p: int) -> np.ndarray:
    """Columns form the standard basis of {x : a x = 0} (free variables set to 1)."""
    rref, pivots = row_reduce(a, p)
    is_free = np.ones(rref.shape[1], dtype=bool)
    is_free[list(pivots)] = False
    free = is_free.nonzero()[0]
    basis = np.zeros((rref.shape[1], free.size), dtype=np.int64)
    basis[free, np.arange(free.size)] = 1
    basis[list(pivots)] = (-rref[:len(pivots), free]) % p
    return basis


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


# ---------------------------------------------------------------------------
# subspaces

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

    @classmethod
    def _of(cls, basis: np.ndarray, p: int) -> "Subspace":
        """The span of basis columns already reduced mod p and known independent."""
        space = object.__new__(cls)
        basis.setflags(write=False)
        for name, value in zip(cls.__slots__, (basis.shape[0], p, basis)):
            object.__setattr__(space, name, value)
        return space

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


# ---------------------------------------------------------------------------
# operations

def rank(m: np.ndarray, p: int) -> int:
    """Dimension of the column space of m."""
    return dense_rank(*_as_array(m, p))


def kernel_basis(m: np.ndarray, p: int) -> Subspace:
    """Basis of the null space; its dimension is cols - rank."""
    a, p = _as_array(m, p)
    return Subspace._of(nullspace(a, p), p)


def image_basis(m: np.ndarray, p: int) -> Subspace:
    """Basis of the column space: the original columns at pivot positions."""
    a, p = _as_array(m, p)
    pivots = row_reduce(a, p)[1]
    return Subspace._of(a[:, list(pivots)], p)


def preimage(m: np.ndarray, v, p: int) -> Optional[np.ndarray]:
    """Some x with m x = v, or None when v is not in the image.

    None is the NotInImage value; unsolvability is an answer, not an error.
    """
    a, p = _as_array(m, p)
    w = np.asarray(v, dtype=np.int64) % p
    if w.shape != (a.shape[0],):
        raise DimensionMismatchError(
            f"vector of length {w.shape} does not match {a.shape[0]} rows")
    x = solve_matrix(a, w.reshape(-1, 1), p)
    return None if x is None else x[:, 0]


def restrict_map(m: np.ndarray, domain_sub: Subspace, codomain_sub: Subspace,
                 p: int) -> np.ndarray:
    """Matrix of m restricted to domain_sub, written in codomain_sub coordinates.

    Raises NotInvariantError when some image vector falls outside codomain_sub.
    """
    a, p = _as_array(m, p)
    if domain_sub.modulus != p or codomain_sub.modulus != p:
        raise ValueError("mixed moduli")
    if domain_sub.ambient != a.shape[1] or codomain_sub.ambient != a.shape[0]:
        raise DimensionMismatchError("subspace ambients do not match the matrix")
    if domain_sub.dim == 0:
        return np.zeros((codomain_sub.dim, 0), dtype=np.int64)
    coords = solve_matrix(codomain_sub.basis, mat_mul(a, domain_sub.basis, p), p)
    if coords is None:
        raise NotInvariantError("map does not carry the domain subspace into the codomain subspace")
    return coords
