"""Independent brute-force oracles for the test suite.

Everything here is deliberately written against plain Python lists, separate
from the library's numpy elimination: textbook row reduction, exhaustive
vector enumeration, a from-scratch persistent dimension that reduces the
cycle-inclusion matrix directly instead of composing step maps, the
per-step homology basis choice written as three separate reductions, and
the persistent sequence built from each term's block-diagonal vertical map.
"""

from itertools import product

import numpy as np

from homaudit import sequences
from homaudit.complexes import boundary_matrix
from homaudit.linalg import mat_mul, solve_matrix


def as_rows(m):
    arr = np.asarray(m, dtype=np.int64)
    return [[int(x) for x in row] for row in arr]


def naive_rref(rows, p):
    """Gauss-Jordan on lists of lists; returns (rref rows, pivot columns)."""
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, nrows):
            if m[i][c] % p != 0:
                pivot = i
                break
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = pow(m[r][c] % p, -1, p)
        m[r] = [(x * inv) % p for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] % p != 0:
                coef = m[i][c] % p
                m[i] = [(a - coef * b) % p for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def naive_rank(m, p):
    rows = as_rows(m)
    if not rows or not rows[0]:
        return 0
    return len(naive_rref(rows, p)[1])


def naive_nullspace(m, p):
    """All-free-variables nullspace basis, as a list of column vectors."""
    rows = as_rows(m)
    if not rows:
        ncols = np.asarray(m, dtype=np.int64).shape[1]
        return [[1 if i == j else 0 for i in range(ncols)] for j in range(ncols)]
    ncols = len(rows[0])
    rref, pivots = naive_rref(rows, p)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [0] * ncols
        vec[fc] = 1
        for r, pc in enumerate(pivots):
            vec[pc] = (-rref[r][fc]) % p
        basis.append(vec)
    return basis


def naive_homology_basis(d_k, d_k1, p):
    """(representatives, boundaries) of one step by three separate reductions:
    the kernel basis of d_k, the pivot columns of d_k1 as boundaries, and the
    kernel cycles that stay pivots in the echelon form of [boundaries | cycles]."""
    kernel = naive_nullspace(d_k, p)
    cycles = np.array(kernel, dtype=np.int64).reshape(len(kernel), d_k.shape[1]).T
    bounds = d_k1[:, naive_rref(as_rows(d_k1), p)[1]]
    pivots = naive_rref(as_rows(np.hstack([bounds, cycles])), p)[1]
    nb = bounds.shape[1]
    return cycles[:, [c - nb for c in pivots if c >= nb]], bounds


def naive_class_of(representatives, boundaries, chains, p):
    """Class coordinates of cycle columns from one reduction of
    [boundaries | representatives | chains]; None when a chain is not a cycle."""
    basis = np.hstack([boundaries, representatives])
    n = basis.shape[1]
    rref, pivots = naive_rref(as_rows(np.hstack([basis, chains])), p)
    if pivots != list(range(n)):
        return None  # the chains leave the span, or the basis is dependent
    coords = np.array([row[n:] for row in rref[:n]], dtype=np.int64).reshape(n, chains.shape[1])
    return coords[boundaries.shape[1]:]


def enumerate_vectors(n, p):
    return product(range(p), repeat=n)


def kernel_by_enumeration(m, p):
    """All nonzero kernel vectors of a tiny matrix, found by exhaustion."""
    arr = np.asarray(m, dtype=np.int64)
    out = []
    for x in enumerate_vectors(arr.shape[1], p):
        if not any(x) or arr.shape[1] == 0:
            continue
        if not ((arr @ np.array(x)) % p).any():
            out.append(tuple(x))
    return out


def solutions_by_enumeration(m, v, p):
    arr = np.asarray(m, dtype=np.int64)
    target = np.asarray(v, dtype=np.int64) % p
    out = []
    for x in enumerate_vectors(arr.shape[1], p):
        if np.array_equal((arr @ np.array(x)) % p, target):
            out.append(tuple(x))
    return out


def span_size(columns, p):
    """Number of distinct vectors in the span of the given columns."""
    arr = np.asarray(columns, dtype=np.int64)
    seen = set()
    for coeffs in enumerate_vectors(arr.shape[1], p):
        seen.add(tuple(int(x) for x in (arr @ np.array(coeffs)) % p))
    return len(seen)


def naive_betti(K, p):
    """Betti numbers with the library's boundary matrices but this file's rank."""
    out = []
    for k in range(K.dim + 1):
        dk = boundary_matrix(K, k, p)
        dk1 = boundary_matrix(K, k + 1, p)
        kernel = dk.shape[1] - naive_rank(dk, p)
        out.append(kernel - naive_rank(dk1, p))
    return out


def naive_persistent_dim(result, k, u, v):
    """dim H_k^{u,v} straight from chain data: include a cycle basis of step u
    into step v and count independent classes modulo step-v boundaries."""
    p = result.modulus
    z_u = np.array(naive_nullspace(result.chain_boundary(k, u), p), dtype=np.int64).T
    if z_u.size == 0:
        z_u = z_u.reshape(len(result.basis_simplices(k, u)), 0)
    pos = {s: i for i, s in enumerate(result.basis_simplices(k, v))}
    included = np.zeros((len(pos), z_u.shape[1]), dtype=np.int64)
    for i, s in enumerate(result.basis_simplices(k, u)):
        j = pos.get(s)
        if j is not None:
            included[j] = z_u[i]
    d_next = result.chain_boundary(k + 1, v)
    stacked = np.hstack([d_next, included])
    return naive_rank(stacked, p) - naive_rank(d_next, p)


def naive_persistent_sequence(system, u, v):
    """(bases, maps) of the persistent sequence between steps u <= v, the
    direct way: each term's group is spanned by the pivot columns (textbook
    elimination) of its whole vertical map, block diagonal for A⊕B, and each
    arrow is the level-v map restricted by a solve in the target basis (None
    where an image leaves the target group)."""
    p = system.modulus
    bases = []
    for label, k in sequences._term_schedule(system):
        vertical = system.vertical(label, k, u, v)
        bases.append(vertical[:, naive_rref(as_rows(vertical), p)[1]])
    maps = []
    for i, (gap, k) in enumerate(sequences._gap_schedule(system)):
        images = mat_mul(system.horizontal(gap, k, v), bases[i], p)
        maps.append(solve_matrix(bases[i + 1], images, p))
    return bases, maps
