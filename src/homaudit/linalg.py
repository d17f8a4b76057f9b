"""Exact linear algebra over prime fields F_p.

All arithmetic is integer residue arithmetic; no floating point appears
anywhere. The matrices in this project are boundary operators and induced
maps of desk-scale complexes, so every matrix is a dense int64 array of
residues, always passed together with its prime p. There is one
elimination kernel, `row_reduce`: Gauss-Jordan with explicit mod-p
pivoting, where each pivot clears its whole column with one array-wide
rank-1 update. Results are deterministic: elimination always picks the
first usable pivot (smallest row, then smallest column), so the echelon
forms, and the homology bases chosen from them, are bit-identical to
textbook row-by-row elimination.
"""

from __future__ import annotations

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


def check_modulus(p: int) -> int:
    # the bound comes first: trial division of a huge p would take hours
    if isinstance(p, (int, np.integer)) and p >= 2**31:
        raise ValueError(f"modulus too large for exact int64 arithmetic: {p}")
    if not isinstance(p, (int, np.integer)) or not is_prime(int(p)):
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


def _kernel_from_rref(rref: np.ndarray, pivots: tuple[int, ...],
                      p: int) -> tuple[np.ndarray, np.ndarray]:
    """The basis of `nullspace`, read off an already reduced matrix, and the
    free columns; the basis is the identity on the free columns."""
    cols = rref.shape[1]
    is_free = np.ones(cols, dtype=bool)
    is_free[list(pivots)] = False
    free = is_free.nonzero()[0]
    basis = np.zeros((cols, free.size), dtype=np.int64)
    basis[free, np.arange(free.size)] = 1
    basis[list(pivots)] = (-rref[:len(pivots), free]) % p
    return basis, free


def nullspace(a: np.ndarray, p: int) -> np.ndarray:
    """Columns form the standard basis of {x : a x = 0} (free variables set to 1)."""
    return _kernel_from_rref(*row_reduce(a, p), p)[0]


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


def _independent_columns(a: np.ndarray, p: int) -> tuple[tuple[int, ...], np.ndarray]:
    """The pivot columns of a, and a left inverse of a[:, pivots], from one
    reduction of [a | I].

    The left block reduces exactly as a alone would (a pivot choice depends
    only on the columns up to it), so the pivots are those of `row_reduce(a)`.
    The right block E records the row operations, E a = rref(a), and the
    first r rows of rref(a) are the identity on the r pivot columns.
    """
    rows, cols = a.shape
    if rows == 0 or cols == 0:
        return (), np.zeros((0, rows), dtype=np.int64)
    rref, pivots = row_reduce(np.concatenate((a, np.eye(rows, dtype=np.int64)), axis=1), p)
    pivots = tuple(c for c in pivots if c < cols)
    return pivots, rref[:len(pivots), cols:].copy()


# ---------------------------------------------------------------------------
# subspaces

class Subspace:
    """A subspace of F_p^n spanned by an independent list of coordinate vectors.

    Basis vectors are the columns of `basis`, and `left` is a left inverse of
    it (left @ basis = I), so a vector of the subspace has coordinates
    left @ vector. The constructor proves independence and finds `left` with
    one reduction; `image_basis`, `kernel_basis` and `direct_sum` take both
    from reductions they have already made.
    """

    __slots__ = ("ambient", "modulus", "basis", "left")

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
        pivots, left = _independent_columns(basis, p)
        if len(pivots) != basis.shape[1]:
            raise ValueError("basis vectors are linearly dependent")
        self._fill(basis, left, p)

    @classmethod
    def _trusted(cls, basis: np.ndarray, left: np.ndarray, p: int) -> "Subspace":
        """A subspace from independent columns and their known left inverse."""
        sub = cls.__new__(cls)
        sub._fill(basis, left, p)
        return sub

    def _fill(self, basis: np.ndarray, left: np.ndarray, p: int) -> None:
        basis.setflags(write=False)
        left.setflags(write=False)
        object.__setattr__(self, "ambient", basis.shape[0])
        object.__setattr__(self, "modulus", p)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "left", left)

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def direct_sum(self, other: "Subspace") -> "Subspace":
        """self ⊕ other inside the direct sum of the ambients. The pivots of a
        block-diagonal matrix are those of its blocks, so this is the basis
        `image_basis` finds for the block-diagonal sum of spanning matrices."""
        if other.modulus != self.modulus:
            raise ValueError("mixed moduli")
        return Subspace._trusted(block_diag(self.basis, other.basis),
                                 block_diag(self.left, other.left), self.modulus)

    def __repr__(self):
        return f"Subspace(dim {self.dim} of F_{self.modulus}^{self.ambient})"


# ---------------------------------------------------------------------------
# operations

def rank(m: np.ndarray, p: int) -> int:
    """Dimension of the column space of m."""
    return dense_rank(*_as_array(m, p))


def kernel_basis(m: np.ndarray, p: int) -> Subspace:
    """Basis of the null space; its dimension is cols - rank."""
    a, p = _as_array(m, p)
    basis, free = _kernel_from_rref(*row_reduce(a, p), p)
    left = np.zeros((free.size, a.shape[1]), dtype=np.int64)
    left[np.arange(free.size), free] = 1  # the basis is the identity on the free rows
    return Subspace._trusted(basis, left, p)


def image_basis(m: np.ndarray, p: int) -> Subspace:
    """Basis of the column space: the original columns at pivot positions,
    with their left inverse from the same reduction."""
    a, p = _as_array(m, p)
    pivots, left = _independent_columns(a, p)
    return Subspace._trusted(a[:, list(pivots)], left, p)


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
    images = mat_mul(a, domain_sub.basis, p)
    # the codomain basis is independent, so left @ images are the only
    # possible coordinates; they are coordinates when they rebuild the images
    # (into a zero codomain: when the images vanish)
    coords = mat_mul(codomain_sub.left, images, p)
    if not np.array_equal(mat_mul(codomain_sub.basis, coords, p), images):
        raise NotInvariantError("map does not carry the domain subspace into the codomain subspace")
    return coords
