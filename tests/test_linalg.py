"""Residue arrays over F_p and the dense kernel (row reduction, rank,
solves, products), checked against enumeration oracles, textbook
elimination and frozen hand values."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homaudit import linalg
from homaudit.complexes import boundary_matrix, close_under_faces
from homaudit.linalg import (DimensionMismatchError, Subspace, check_modulus, dense_rank,
                             mat_mul, row_reduce, solve_matrix)

from naive import (as_rows, kernel_by_enumeration, kernel_from_rref, naive_nullspace, naive_rank,
                   naive_rref, solutions_by_enumeration, span_size)

TRIANGLE = close_under_faces([(0, 1, 2)])
HOLLOW = close_under_faces([(0, 1), (1, 2), (0, 2)])


def eye(n):
    return np.eye(n, dtype=np.int64)


def zeros(rows, cols):
    return np.zeros((rows, cols), dtype=np.int64)


def kernel(m, p):
    """The kernel basis read off the library's reduction, one column each."""
    return kernel_from_rref(*row_reduce(m, p), p)[0]


def image(m, p):
    """The image basis: the columns of m at the library's pivots."""
    return m[:, list(row_reduce(m, p)[1])]


def solve(m, v, p):
    """One x with m x = v as a vector, or None."""
    x = solve_matrix(m, np.asarray(v, dtype=np.int64), p)
    return None if x is None else x[:, 0]


def test_array_entries_reduced_mod_p_and_modulus_checked():
    m = np.array([[7, 0], [0, 5]])
    assert dense_rank(m, 5) == 1               # 7 is 2 mod 5, 5 is the zero residue
    assert kernel(m, 5).shape == (2, 1)
    assert np.array_equal(image(m, 5) % 5, [[2], [0]])
    assert np.array_equal(solve(np.array([[-1]]), [1], 7), [6])  # -1 is 6 mod 7
    assert np.array_equal(solve(np.array([[4]]), [3], 5), [2])   # 3 / 4 over F_5
    assert check_modulus(7) == 7
    for bad in (1, 4, 6, 2**31 + 11):
        with pytest.raises(ValueError):
            check_modulus(bad)
    with pytest.raises(ValueError):
        Subspace(2, eye(2), 4)


def test_rank_trivial_and_derived():
    assert dense_rank(zeros(3, 3), 2) == 0
    assert dense_rank(zeros(0, 3), 2) == 0
    assert dense_rank(eye(3), 5) == 3
    d1 = boundary_matrix(TRIANGLE, 1, 2)
    # oracle: span of the three boundary columns over F_2 has 2^rank vectors
    assert span_size(d1, 2) == 2 ** 2
    assert dense_rank(d1, 2) == 2


def test_kernel_basis():
    assert kernel(eye(4), 3).shape == (4, 0)
    assert np.array_equal(kernel(zeros(2, 4), 2), eye(4))
    d1 = boundary_matrix(HOLLOW, 1, 2)
    # oracle: exhaustive solve over F_2^3 finds exactly one nonzero kernel vector
    assert kernel_by_enumeration(d1, 2) == [(1, 1, 1)]
    ker = kernel(d1, 2)
    assert ker.shape == (3, 1)
    assert list(ker[:, 0]) == [1, 1, 1]  # the sum of all three edges


def test_image_basis():
    assert image(zeros(3, 2), 2).shape == (3, 0)
    assert np.array_equal(image(eye(3), 7), eye(3))
    d2 = boundary_matrix(TRIANGLE, 2, 2)
    img = image(d2, 2)
    assert img.shape == (3, 1)
    assert np.array_equal(img[:, 0], d2[:, 0])  # the boundary cycle itself


def test_preimage():
    v = np.array([1, 2, 3])
    assert np.array_equal(solve(eye(3), v, 5), v)
    assert solve(zeros(2, 2), [1, 0], 2) is None
    d1 = boundary_matrix(TRIANGLE, 1, 3)
    target = np.array([1, 2, 0])  # e0 - e1 over F_3
    sols = solutions_by_enumeration(d1, target, 3)
    assert sols, "oracle says the system is solvable"
    x = solve(d1, target, 3)
    assert x is not None
    assert tuple(int(c) for c in x) in sols
    assert np.array_equal(mat_mul(d1, x.reshape(-1, 1), 3)[:, 0], target)


def _random_matrix(rng, rows, cols, p, density=0.3):
    m = zeros(rows, cols)
    for r in range(rows):
        for c in range(cols):
            if rng.random() < density:
                m[r, c] = rng.randrange(1, p)
    return m


@pytest.mark.parametrize("p", [2, 3, 7, 101])
def test_rank_nullity_randomized(p):
    rng = random.Random(p)
    for _ in range(25):
        rows, cols = rng.randrange(1, 9), rng.randrange(1, 9)
        m = _random_matrix(rng, rows, cols, p)
        r = dense_rank(m, p)
        assert r == naive_rank(m, p)
        ker = kernel(m, p)
        assert r + ker.shape[1] == cols
        assert not mat_mul(m, ker, p).any()


def test_preimage_contract_randomized():
    rng = random.Random(7)
    for _ in range(40):
        p = rng.choice((2, 3, 5))
        m = _random_matrix(rng, rng.randrange(1, 7), rng.randrange(1, 7), p)
        x = np.array([rng.randrange(p) for _ in range(m.shape[1])])
        v = mat_mul(m, x.reshape(-1, 1), p)[:, 0]
        y = solve(m, v, p)
        assert y is not None
        assert np.array_equal(mat_mul(m, y.reshape(-1, 1), p)[:, 0], v)


def test_basis_independence_randomized():
    rng = random.Random(11)
    for _ in range(20):
        p = rng.choice((2, 5))
        m = _random_matrix(rng, rng.randrange(1, 8), rng.randrange(1, 8), p)
        img, ker = image(m, p), kernel(m, p)
        # re-verified by the rank of the stacked basis matrix
        assert dense_rank(img, p) == img.shape[1]
        assert dense_rank(ker, p) == ker.shape[1]
        built = Subspace(m.shape[0], img.T, p)  # the checked constructor
        assert built.dim == img.shape[1] and np.array_equal(built.basis, img % p)
        assert not built.basis.flags.writeable


def test_rank_and_solve_take_one_reduction(monkeypatch):
    rng = random.Random(19)
    real = linalg.row_reduce
    for _ in range(40):
        p = rng.choice((2, 3, 7))
        m = _random_matrix(rng, rng.randrange(1, 7), rng.randrange(1, 7), p)
        b = _random_matrix(rng, m.shape[0], rng.randrange(1, 3), p)
        calls = []
        with monkeypatch.context() as patch:
            patch.setattr(linalg, "row_reduce", lambda a, q: calls.append(q) or real(a, q))
            r, x = dense_rank(m, p), solve_matrix(m, b, p)
        assert calls == [p, p]
        assert r == naive_rank(m, p)
        assert (x is not None) == (naive_rank(np.hstack([m, b]), p) == r)
        assert x is None or np.array_equal(mat_mul(m, x, p), b)


def test_determinism():
    rng1, rng2 = random.Random(3), random.Random(3)
    for _ in range(10):
        m1 = _random_matrix(rng1, 6, 6, 3)
        m2 = _random_matrix(rng2, 6, 6, 3)
        assert np.array_equal(m1, m2)
        r1, r2 = row_reduce(m1, 3), row_reduce(m2, 3)
        assert np.array_equal(r1[0], r2[0]) and r1[1] == r2[1]
        assert np.array_equal(kernel(m1, 3), kernel(m2, 3))
        assert np.array_equal(image(m1, 3), image(m2, 3))
        assert dense_rank(m1, 3) == dense_rank(m2, 3)
        v = m1[:, 0]
        assert np.array_equal(solve_matrix(m1, v, 3), solve_matrix(m2, v, 3))


def test_large_modulus_products_stay_exact():
    p = 2147483629  # largest prime below 2^31
    m = np.array([[p - 1, p - 1], [0, p - 1]], dtype=np.int64)
    sq = mat_mul(m, m, p)
    assert sq[0, 0] == 1
    assert sq[0, 1] == ((p - 1) * (p - 1) + (p - 1) * (p - 1)) % p


def test_dimension_errors():
    with pytest.raises(DimensionMismatchError):
        solve_matrix(eye(2), np.array([1, 0, 0]), 2)
    with pytest.raises(DimensionMismatchError):
        mat_mul(eye(2), eye(3), 2)
    with pytest.raises(DimensionMismatchError):
        Subspace(3, [[1, 0]], 2)  # vectors of the wrong length
    with pytest.raises(ValueError):
        Subspace(2, [[1, 0], [1, 0]], 2)  # dependent vectors


LARGE_PRIME = 2147483629  # largest prime below 2^31: rank-1 updates reach (p-1)^2

_SHAPES = st.one_of(
    st.tuples(st.just(0), st.integers(0, 12)),                                   # 0 x n
    st.tuples(st.integers(0, 12), st.just(0)),                                   # n x 0
    st.tuples(st.just(1), st.integers(1, 12)),                                   # 1 x n
    st.integers(1, 12).flatmap(lambda c: st.tuples(st.integers(c, 12), st.just(c))),  # tall
    st.integers(1, 12).flatmap(lambda r: st.tuples(st.just(r), st.integers(r, 12))),  # wide
)


@st.composite
def _residue_systems(draw):
    """(p, a, b): a matrix of residues and a right-hand side with as many rows.
    Zeros, 1 and p-1 are frequent, so ranks drop and pivots move."""
    p = draw(st.sampled_from((2, 3, 5, 7, LARGE_PRIME)))
    rows, cols = draw(_SHAPES)
    entry = st.one_of(st.just(0), st.sampled_from((1, p - 1)), st.integers(0, p - 1))
    a = np.array(draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                               min_size=rows, max_size=rows)), dtype=np.int64).reshape(rows, cols)
    rhs = draw(st.integers(0, 3))
    b = np.array(draw(st.lists(st.lists(entry, min_size=rhs, max_size=rhs),
                               min_size=rows, max_size=rows)), dtype=np.int64).reshape(rows, rhs)
    if draw(st.booleans()) and cols:  # a right-hand side known to be solvable
        x = np.array(draw(st.lists(st.lists(entry, min_size=rhs, max_size=rhs),
                                   min_size=cols, max_size=cols)), dtype=np.int64)
        b = _exact_product(a, x.reshape(cols, rhs), p)
    return p, a, b


def _exact_product(a, b, p):
    return (a.astype(object) @ b.astype(object) % p).astype(np.int64)


@settings(max_examples=300, deadline=None)
@given(_residue_systems())
def test_kernel_matches_textbook_elimination(system):
    p, a, b = system
    rref, pivots = row_reduce(a, p)
    want_rref, want_pivots = naive_rref(as_rows(a), p)
    assert rref.shape == a.shape and rref.dtype == np.int64
    assert rref.tolist() == want_rref and pivots == tuple(want_pivots)
    assert kernel(a, p).T.tolist() == naive_nullspace(a, p)

    x = solve_matrix(a, b, p)
    solvable = naive_rank(np.hstack([a, b]), p) == naive_rank(a, p)
    assert (x is not None) == solvable
    if x is not None:
        assert x.shape == (a.shape[1], b.shape[1])
        assert np.array_equal(_exact_product(a, x, p), b)
        free = [c for c in range(a.shape[1]) if c not in pivots]
        assert not x[free].any()  # free variables are set to 0


def test_modulus_verdict_is_decided_once(monkeypatch):
    calls = []
    real = linalg.is_prime
    monkeypatch.setattr(linalg, "is_prime", lambda n: calls.append(n) or real(n))
    for _ in range(2):
        assert check_modulus(LARGE_PRIME) == LARGE_PRIME
        with pytest.raises(ValueError):
            check_modulus(LARGE_PRIME - 2)  # 47 x 45691141
    assert calls.count(LARGE_PRIME) <= 1 and calls.count(LARGE_PRIME - 2) <= 1
