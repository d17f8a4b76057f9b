"""The integer index of a complex's incidences and the ranks read over it.

The index against the facet table it is built from: the empty complex, a
vertex-only complex, 3-dimensional complexes, subcomplexes, and the same
object on every use. Ranks against exact comparison, with values of 2**63
and beyond mixed with `Fraction`s. Over hypothesis-drawn small complexes
(up to dimension 3) and values of that kind: the classification against
the separate scans, the `Fraction` pass and the dict pass (violations in
the same order), entry steps against the `Fraction` filtration, the
persistence build's cells against the (step, simplex) pair sort, and the
bars and cycle columns of absolute, restricted and relative results
against the dense per-step path over F_2, F_3, F_5 and F_7. Every
violation kind on one 3-dimensional complex, and the validating
constructor against closing first and comparing sizes after.
"""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homaudit.complexes import (EMPTY_COMPLEX, Simplex, SimplicialComplex, close_under_faces,
                                intersect)
from homaudit.linalg import dense_rank
from homaudit.morse import (MorseFunction, MorseViolation, _classify, _ranks,
                            sublevel_filtration)
from homaudit.persistence import compute_persistence, relative_persistence

from naive import (DensePersistence, assert_matches_oracle, closure_then_compare,
                   dict_classify, fraction_classify, fraction_filtration, naive_classify,
                   pair_sorted_cells)
from randfix import random_complex, random_subcomplex

PRIMES = (2, 3, 5, 7)
BIG = 2 ** 63


def _expected_incidences(K):
    """(cell, facet) positions in `simplices()`, read off the facet table."""
    position = {s: i for i, s in enumerate(K.simplices())}
    return [(position[s], position[n]) for s in K.simplices() for n in K.facet_table[s]]


def _assert_index_matches_table(K):
    cells, facets, levels = K._facet_index()
    assert cells.dtype == facets.dtype == np.intp
    assert list(zip(cells.tolist(), facets.tolist())) == _expected_incidences(K)
    assert len(levels) == max(K.dim, 0)
    assert np.array_equal(np.concatenate([c for c, _ in levels] + [cells[:0]]), cells)
    assert np.array_equal(np.concatenate([n for _, n in levels] + [facets[:0]]), facets)
    for k, (c, n) in enumerate(levels, start=1):  # the k-cells' incidences, k + 1 each
        assert c.size == n.size == K.n_cells(k) * (k + 1)
        assert {len(K.simplices()[i]) for i in c.tolist()} == {k + 1}
        assert {len(K.simplices()[i]) for i in n.tolist()} == {k}
    assert K._facet_index() is K._facet_index()


def test_the_index_of_the_empty_and_a_vertex_only_complex():
    for K in (EMPTY_COMPLEX, SimplicialComplex(()), close_under_faces([(3,), (0,), (7,)])):
        cells, facets, levels = K._facet_index()
        assert cells.size == facets.size == 0 and levels == ()
        _assert_index_matches_table(K)


def test_the_index_of_three_dimensional_complexes_and_their_subcomplexes():
    K = close_under_faces([(0, 1, 2, 3), (1, 2, 3, 4), (3, 4, 5), (5, 6), (7,)])
    assert K.dim == 3
    _assert_index_matches_table(K)
    A = K.closure([(1, 2, 3, 4), (5, 6)])
    B = close_under_faces([(0, 1, 2, 3), (3, 4, 5)])
    for S in (A, B, intersect(A, B), intersect(K, K)):
        _assert_index_matches_table(S)
    rng = random.Random(3)
    for _ in range(40):
        L = random_complex(rng, max_simplices=40, n_vertices=6)
        _assert_index_matches_table(L)
        _assert_index_matches_table(random_subcomplex(L, rng))


def test_the_index_is_built_on_first_use_and_kept():
    K = close_under_faces([(0, 1, 2)])
    assert K._incidences is None
    index = K._facet_index()
    assert K._incidences is index and K._facet_index() is index


def test_ranks_compare_big_integers_and_fractions_exactly():
    values = [BIG, Fraction(2 * BIG + 1, 2), -BIG - 1, Fraction(-1, 3), BIG + 1, 0, BIG]
    distinct, rank = _ranks(values)  # one value per cell of a triangle, in its order
    assert distinct == sorted(set(values))
    assert [distinct[r] for r in rank.tolist()] == values
    for a, x in zip(rank.tolist(), values):
        for b, y in zip(rank.tolist(), values):
            assert (a < b) == (x < y) and (a == b) == (x == y)
    distinct, rank = _ranks([None, Fraction(1, 2)] + [None] * 5)  # unvalued cells rank last
    assert distinct == [Fraction(1, 2)] and rank.tolist() == [1, 0, 1, 1, 1, 1, 1]


def test_every_violation_kind_in_the_order_of_the_scans():
    # a tetrahedron with a dangling edge; three kinds over dimensions 0-3
    K = close_under_faces([(0, 1, 2, 3), (3, 4)])
    values = {s: len(s) for s in K.simplices()}
    values.update({Simplex((0,)): 5, Simplex((3,)): 9, Simplex((0, 1)): 1,
                   Simplex((0, 1, 2)): 2, Simplex((0, 1, 2, 3)): 2, Simplex((3, 4)): 0})
    f = MorseFunction(K, values)
    bad, critical = _classify(K, f)
    assert {v.kind for v in bad} == {"excess_cofacets", "excess_facets", "both_exceptional"}
    assert {len(v.cell) for v in bad} == {1, 2, 3, 4}
    for oracle in (naive_classify, fraction_classify, dict_classify):
        assert (bad, critical) == oracle(K, f), oracle.__name__


def _big_values():
    """Exact values around 2**63: integers and fractions on both sides."""
    return st.one_of(st.integers(-3, 3), st.integers(BIG - 2, BIG + 2),
                     st.integers(-BIG - 2, -BIG + 2),
                     st.fractions(min_value=-3, max_value=3, max_denominator=4),
                     st.builds(lambda n, d: Fraction(BIG * d + n, d),
                               st.integers(-3, 3), st.integers(1, 4)))


def _drawn_function(data, K):
    values = data.draw(st.lists(_big_values(), min_size=len(K), max_size=len(K)))
    return MorseFunction(K, dict(zip(K.simplices(), values)))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_classification_and_entry_steps_on_big_and_fractional_values(seed, data):
    rng = random.Random(seed)
    K = random_complex(rng, max_simplices=data.draw(st.sampled_from((1, 8, 25, 40))),
                       n_vertices=6)
    f = _drawn_function(data, K)
    got = _classify(K, f)
    assert got == naive_classify(K, f) == fraction_classify(K, f) == dict_classify(K, f)
    assert all(isinstance(v, MorseViolation) for v in got[0])
    thresholds = data.draw(st.lists(_big_values(), min_size=1, max_size=5))
    filt = sublevel_filtration(K, f, thresholds)
    ts, entry = fraction_filtration(K, f, thresholds)
    assert filt.thresholds == ts
    assert list(filt.entry.items()) == list(entry.items())
    A = random_subcomplex(K, rng)
    restricted = filt.restrict_to(A)
    assert list(restricted.entry.items()) == [(s, entry[s]) for s in A.simplices()]


def _assert_cycle_columns_are_bases(R, dense):
    """At every step, the classes of the result's cycle columns in the dense
    path's homology form an invertible matrix: they are a basis there."""
    for k in range(R.max_degree + 1):
        for u in range(R.n_steps):
            reps = R.representatives(k, u)
            m = dense.class_of(k, u, reps)
            assert m.shape == (len(reps), len(reps)) and len(reps) == dense.dim(k, u)
            assert dense_rank(m, R.modulus) == len(reps), (k, u)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), p=st.sampled_from(PRIMES), data=st.data())
def test_bars_and_cycle_columns_match_the_dense_path(seed, p, data):
    rng = random.Random(seed)
    K = random_complex(rng, max_simplices=data.draw(st.sampled_from((8, 18, 25))),
                       n_vertices=6)
    f = _drawn_function(data, K)
    thresholds = data.draw(st.lists(_big_values(), min_size=1, max_size=4))
    filt = sublevel_filtration(K, f, thresholds)
    A = random_subcomplex(K, rng)
    results = [(compute_persistence(filt, p), None),
               (compute_persistence(filt.restrict_to(A), p), None),
               (relative_persistence(K, A, filt, p), A)]
    for R, sub in results:
        top = R.max_degree + 1
        cells, steps = pair_sorted_cells(R.filtration, sub or EMPTY_COMPLEX, top)
        assert R._cells == cells
        assert [e.tolist() for e in R._entry] == steps
        assert_matches_oracle(R, sub)
        _assert_cycle_columns_are_bases(
            R, DensePersistence(R.filtration, R.modulus, R.max_degree, sub))


def _simplices(rng):
    """A random set of simplices on 6 vertices, closed under faces or not."""
    K = random_complex(rng, max_simplices=rng.choice((1, 10, 30)), n_vertices=6)
    cells = list(K.simplices())
    return [s for s in cells if rng.random() < 0.85 or s.dim == K.dim]


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_the_validating_constructor_matches_closing_first(seed):
    rng = random.Random(seed)
    simplices = _simplices(rng)
    try:
        want = closure_then_compare(simplices)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            SimplicialComplex(simplices)
        assert str(got.value) == str(exc)
        return
    K = SimplicialComplex(simplices)
    assert K == want and K.simplices() == want.simplices()
    assert K.facet_table == want.facet_table
