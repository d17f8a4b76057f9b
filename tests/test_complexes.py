"""Complex construction, boundary operators, Betti numbers, set operations."""

import random
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from homaudit.complexes import (MalformedSimplexError, NotSubcomplexError, Simplex,
                                SimplicialComplex, betti_numbers, boundary_matrix,
                                close_under_faces, intersect, is_subcomplex,
                                relative_boundary_matrix)
from homaudit.fixtures import torus_triad
from homaudit.linalg import mat_mul

from naive import naive_betti, naive_simplex, reindex_chains
from randfix import random_complex


def test_repr_counts_cells_by_degree():
    assert repr(close_under_faces([(0, 1, 2)])) == "SimplicialComplex(dim 2; cells 3,3,1)"
    assert repr(SimplicialComplex(())) == "SimplicialComplex(dim -1; cells -)"


def test_simplex_validation():
    assert Simplex((0, 2, 5)).dim == 2
    with pytest.raises(MalformedSimplexError):
        Simplex((2, 1))
    with pytest.raises(MalformedSimplexError):
        Simplex((1, 1))
    with pytest.raises(MalformedSimplexError):
        Simplex(())
    with pytest.raises(MalformedSimplexError):
        Simplex((-1, 0))
    with pytest.raises(MalformedSimplexError, match=r"negative vertex id in \(3, -1\)"):
        Simplex((3, -1))  # negative is reported before decreasing


_VERTEX = st.one_of(st.integers(-3, 8), st.booleans(), st.integers(-3, 8).map(np.int64),
                    st.integers(0, 8).map(np.uint8))


@settings(max_examples=300, deadline=None)
@given(st.lists(_VERTEX, max_size=5))
@example([])
@example([3, -1])
@example([2, 2])
@example([False, True, np.int64(4)])
def test_simplex_checks_match_the_generator_oracle(vertices):
    """Each vertex list gives the oracle's tuple of ints, or its exception
    type and message: empty, then negative, then not increasing."""
    def outcome(build):
        try:
            vs = tuple(build(vertices))
        except Exception as exc:
            return type(exc), str(exc)
        return vs, tuple(map(type, vs))

    assert outcome(Simplex) == outcome(naive_simplex)


def test_facet_table_is_the_complex_own_facets(torus, genus2):
    # each cell's facets in vertex-deletion order, as the complex's own objects
    rng = random.Random(23)
    complexes = [torus.complex, torus.A, intersect(torus.A, torus.B), genus2.complex,
                 SimplicialComplex(())] + [random_complex(rng) for _ in range(20)]
    for K in complexes:
        table, own = K.facet_table, {s: s for s in K.simplices()}
        assert set(table) == set(own)
        for s in K.simplices():
            assert table[s] == tuple(s.facets())
            assert all(f is own[f] for f in table[s])


def test_faces_equal_the_validated_construction(torus, genus2):
    # faces skip validation, so they must come out exactly as validated ones
    for fixture in (torus, genus2):
        for s in fixture.complex.simplices():
            for got, want in ((s.facets(), [Simplex(s[:i] + s[i + 1:]) for i in range(len(s))]
                               if s.dim else []),
                              (s.faces(), [Simplex(c) for k in range(1, len(s))
                                           for c in combinations(s, k)])):
                assert got == want
                assert all(type(f) is Simplex for f in got)


def test_close_under_faces_counts():
    assert len(close_under_faces([])) == 0
    full = close_under_faces([(0, 1, 2)])
    assert len(full) == 7
    two = close_under_faces([(0, 1, 2), (1, 2, 3)])
    assert len(two) == 11
    assert two.n_cells(0) == 4 and two.n_cells(1) == 5 and two.n_cells(2) == 2


def _every_face_closure(generators):
    """The closure the generator-by-generator way: every proper face of
    every generator, each built once per coface."""
    pool = set()
    for g in map(Simplex, generators):
        pool.add(g)
        pool.update(g.faces())
    return SimplicialComplex(pool)


def test_close_under_faces_matches_every_face_closure(torus, genus2):
    lists = [list(K.simplices()) for K in (torus.complex, torus.A, torus.B, genus2.complex,
                                           genus2.A)]
    lists += [list(K.maximal_simplices()) for K in (torus.complex, genus2.complex, genus2.A)]
    rng = random.Random(17)
    for _ in range(200):
        K = random_complex(rng, n_vertices=rng.choice((4, 7, 9)))
        cells = list(K.simplices())
        lists.append(rng.sample(cells, rng.randrange(len(cells) + 1)))
        lists.append(list(K.maximal_simplices()))
    lists += [[], [(3,)], [(0, 1, 2, 3, 4)], [(0, 1), (0, 1), (1, 2)]]
    for generators in lists:
        closed = close_under_faces(generators)
        assert closed == _every_face_closure(generators), generators
        assert list(closed.simplices()) == list(_every_face_closure(generators).simplices())


def test_complex_requires_closure():
    with pytest.raises(ValueError):
        SimplicialComplex([Simplex((0, 1))])
    with pytest.raises(ValueError, match=r"\(0, 1, 2\) present but \(0, 2\) missing"):
        SimplicialComplex([Simplex(s) for s in ((0,), (1,), (2,), (0, 1), (1, 2), (0, 1, 2))])


def test_ordering_is_dimension_major_lexicographic():
    K = close_under_faces([(0, 1, 2), (1, 2, 3)])
    sims = K.simplices()
    keyed = [(s.dim, tuple(s)) for s in sims]
    assert keyed == sorted(keyed)
    for i, s in enumerate(K.simplices()):
        assert K.simplices()[K._index[s]] is s and K._index[s] == i


def test_boundary_matrix_k0_and_signs():
    tri = close_under_faces([(0, 1, 2)])
    d0 = boundary_matrix(tri, 0, 2)
    assert d0.shape == (0, 3)
    d2 = boundary_matrix(tri, 2, 2)
    assert d2.shape == (3, 1) and np.count_nonzero(d2) == 3
    d1 = boundary_matrix(tri, 1, 3)
    # column of edge (0, 1): deleting position 0 leaves (1,) with sign +1,
    # position 1 leaves (0,) with sign -1 == 2 mod 3
    col = d1[:, tri.simplices(1).index(Simplex((0, 1)))]
    assert list(col) == [2, 1, 0]
    with pytest.raises(ValueError):
        boundary_matrix(tri, -1, 2)


def test_boundary_squares_to_zero_randomized():
    rng = random.Random(5)
    for _ in range(15):
        K = random_complex(rng)
        for p in (2, 3, 5):
            for k in range(1, K.dim + 2):
                prod = mat_mul(boundary_matrix(K, k - 1, p),
                               boundary_matrix(K, k, p), p)
                assert not prod.any()


def test_betti_numbers():
    point = close_under_faces([(0,)])
    assert betti_numbers(point, 2) == [1]
    hollow = close_under_faces([(0, 1), (1, 2), (0, 2)])
    assert naive_betti(hollow, 2) == [1, 1]
    assert betti_numbers(hollow, 2) == [1, 1]
    torus = torus_triad().complex
    assert naive_betti(torus, 2) == [1, 2, 1]
    for p in (2, 3, 5):
        assert betti_numbers(torus, p) == [1, 2, 1]


def test_betti_of_cones():
    for n in (2, 3, 4):
        cone = close_under_faces([tuple(range(n + 1))])
        assert betti_numbers(cone, 3) == [1] + [0] * n


def test_intersect():
    A = close_under_faces([(0, 1, 2)])
    B = close_under_faces([(1, 2, 3)])
    both = intersect(A, B)
    assert len(both) == 3 and Simplex((1, 2)) in both
    assert intersect(A, A) == A
    assert intersect(A, B) == intersect(B, A)
    assert is_subcomplex(both, A) and is_subcomplex(both, B)
    disjoint = intersect(close_under_faces([(0, 1)]), close_under_faces([(4, 5)]))
    assert len(disjoint) == 0


def test_is_subcomplex():
    tri = close_under_faces([(0, 1, 2)])
    edge = close_under_faces([(0, 1)])
    empty = close_under_faces([])
    assert is_subcomplex(tri, tri)
    assert is_subcomplex(empty, tri)
    assert is_subcomplex(edge, tri)
    assert not is_subcomplex(tri, edge)


def test_relative_boundary_matrix():
    tri = close_under_faces([(0, 1, 2)])
    for k in range(3):
        m = relative_boundary_matrix(tri, tri, k, 2)
        assert m.shape == (0, 0)
    empty = close_under_faces([])
    for k in range(3):
        assert np.array_equal(relative_boundary_matrix(tri, empty, k, 2),
                              boundary_matrix(tri, k, 2))
    edge = close_under_faces([(0, 1)])
    ends = close_under_faces([(0,), (1,)])
    rel1 = relative_boundary_matrix(edge, ends, 1, 2)
    assert rel1.shape == (0, 1)  # both vertex rows are killed
    with pytest.raises(NotSubcomplexError):
        relative_boundary_matrix(edge, close_under_faces([(5,)]), 1, 2)


def test_relative_boundary_squares_to_zero():
    rng = random.Random(9)
    for _ in range(10):
        X = random_complex(rng)
        gens = [s for s in X.maximal_simplices() if rng.random() < 0.5]
        A = close_under_faces(gens)
        for k in range(1, X.dim + 2):
            prod = mat_mul(relative_boundary_matrix(X, A, k - 1, 3),
                           relative_boundary_matrix(X, A, k, 3), 3)
            assert not prod.any()


def test_reindex_chains_moves_rows_and_reports_leaks():
    # the oracle's step maps move representatives between step bases with it
    tri = close_under_faces([(0, 1, 2)])
    edges = tri.simplices(1)                     # (0,1), (0,2), (1,2)
    chains = np.array([[1, 0], [2, 0], [0, 1]])
    sub = (Simplex((1, 2)), Simplex((0, 1)))
    moved, leaked = reindex_chains(chains, edges, sub)
    assert np.array_equal(moved, [[0, 1], [1, 0]])
    assert leaked == [Simplex((0, 2))]
    # a zero row on a missing simplex is dropped without a leak
    moved, leaked = reindex_chains(chains[:, 1:], edges, sub)
    assert np.array_equal(moved, [[1], [0]]) and leaked == []
    # inclusion into a bigger basis leaks nothing and pads with zero rows
    moved, leaked = reindex_chains(moved, sub, edges)
    assert np.array_equal(moved, [[0], [0], [1]]) and leaked == []

