"""Morse validation, critical cells, sublevels, filtrations."""

import random
from fractions import Fraction

import pytest

from homaudit.complexes import Simplex, betti_numbers, close_under_faces, is_subcomplex
from homaudit.morse import (Filtration, MorseFunction, NotMorseError, critical_cells,
                            filtration_from_morse, is_perfect, sublevel, sublevel_filtration,
                            validate_morse)

from randfix import random_complex, random_morse

EDGE = close_under_faces([(0, 1)])


def edge_function(v0, v1, e):
    return MorseFunction(EDGE, {Simplex((0,)): v0, Simplex((1,)): v1, Simplex((0, 1)): e})


def dimension_scaled(K):
    """Injective, strictly increasing with dimension: every cell critical."""
    values = {}
    for i, s in enumerate(K.simplices()):
        values[s] = Fraction(10 * s.dim + i, 1)
    return MorseFunction(K, values)


def test_totality_required():
    with pytest.raises(ValueError):
        MorseFunction(EDGE, {Simplex((0,)): 0, Simplex((1,)): 1})


def test_validate_ok_cases():
    tri = close_under_faces([(0, 1, 2)])
    assert validate_morse(tri, dimension_scaled(tri)) == ()
    assert validate_morse(EDGE, edge_function(0, 2, 1)) == ()


def test_validate_violations():
    f = edge_function(2, 2, 1)
    violations = validate_morse(EDGE, f)
    kinds = {(v.kind, tuple(v.cell)) for v in violations}
    assert ("excess_facets", (0, 1)) in kinds


def test_validate_flags_both_exceptional():
    # one wrong-way facet and one wrong-way cofacet on the same edge is
    # surfaced as its own diagnostic class instead of being resolved silently
    tri = close_under_faces([(0, 1, 2)])
    values = {Simplex((0,)): 2, Simplex((1,)): 0, Simplex((2,)): 0,
              Simplex((0, 1)): 2, Simplex((0, 2)): 1, Simplex((1, 2)): 1,
              Simplex((0, 1, 2)): 2}
    violations = validate_morse(tri, MorseFunction(tri, values))
    kinds = {(v.kind, tuple(v.cell)) for v in violations}
    assert ("both_exceptional", (0, 1)) in kinds


def test_critical_cells():
    tri = close_under_faces([(0, 1, 2)])
    assert critical_cells(tri, dimension_scaled(tri)) == tri.simplices()
    point = close_under_faces([(5,)])
    f = MorseFunction(point, {Simplex((5,)): 0})
    assert critical_cells(point, f) == (Simplex((5,)),)
    crit = critical_cells(EDGE, edge_function(0, 2, 1))
    assert crit == (Simplex((0,)),)
    with pytest.raises(NotMorseError):
        critical_cells(EDGE, edge_function(2, 2, 1))


def test_sublevel():
    f = edge_function(0, 2, 1)
    assert len(sublevel(EDGE, f, -1)) == 0
    assert sublevel(EDGE, f, 5) == EDGE
    mid = sublevel(EDGE, f, 1)  # the edge enters and drags its high endpoint
    assert mid == EDGE


def test_sublevel_monotone_randomized():
    rng = random.Random(4)
    for _ in range(10):
        K = random_complex(rng)
        f = random_morse(K, rng)
        levels = sorted({v for _, v in f.items()})
        for a, b in zip(levels, levels[1:]):
            assert is_subcomplex(sublevel(K, f, a), sublevel(K, f, b))


def test_filtration_from_morse_appends_max():
    filt = filtration_from_morse(EDGE, edge_function(0, 2, 1))
    assert filt.thresholds == (Fraction(0), Fraction(2))
    assert filt.steps[-1] == EDGE
    point = close_under_faces([(3,)])
    filt = filtration_from_morse(point, MorseFunction(point, {Simplex((3,)): 7}))
    assert len(filt) == 1 and filt.steps[0] == point


def test_filtration_explicit_thresholds():
    f = edge_function(0, 2, 1)
    filt = filtration_from_morse(EDGE, f, thresholds=[0, 1, 2])
    assert [len(s) for s in filt.steps] == [1, 3, 3]  # equal steps retained
    with pytest.raises(NotMorseError):
        filtration_from_morse(EDGE, edge_function(2, 2, 1))
    # sublevel_filtration has no Morse requirement; the level-1 edge drags
    # both of its level-2 endpoints in by closure
    filt = sublevel_filtration(EDGE, edge_function(2, 2, 1), [1, 2])
    assert [len(s) for s in filt.steps] == [3, 3]


def test_filtration_invariants():
    with pytest.raises(ValueError):
        Filtration([1, 1], [EDGE, EDGE])
    with pytest.raises(ValueError):
        Filtration([1, 2], [EDGE, close_under_faces([(7,)])])


def test_values_and_thresholds_are_exact():
    # integral values and thresholds are held as ints, the rest as Fractions;
    # both compare, hash and print as the Fraction of the same value
    f = edge_function("10/2", Fraction(7, 3), "0.5")
    for s, v in zip(EDGE.simplices(), (Fraction(5), Fraction(7, 3), Fraction(1, 2))):
        assert f(s) == v and hash(f(s)) == hash(v) and str(f(s)) == str(v)
        assert type(f(s)) is (int if v.denominator == 1 else Fraction)
    assert type(f.max_value) is int and f.max_value == 5
    filt = sublevel_filtration(EDGE, f, ["0.5", "1/2", Fraction(5), "10/2", 5])
    assert filt.thresholds == (Fraction(1, 2), 5) and type(filt.thresholds[1]) is int
    assert filt.labels() == ("1/2", "5")
    assert filt.index_of("0.5") == filt.index_of(Fraction(1, 2)) == 0
    assert filt.index_of("10/2") == filt.index_of(5) == filt.index_of(Fraction(5)) == 1
    with pytest.raises(ValueError, match="strictly increasing"):
        Filtration([Fraction(5), "10/2", 7], [EDGE, EDGE, EDGE])
    with pytest.raises(ValueError, match="strictly increasing"):
        Filtration(["0.5", "1/2"], [EDGE, EDGE])
    # an int comes back as it is, a bool or an integral Fraction as an int
    g = edge_function(True, 2, Fraction(6, 2))
    assert [(type(v), str(v)) for _, v in g.items()] == [(int, "1"), (int, "2"), (int, "3")]
    half = Fraction(1, 2)
    assert sublevel_filtration(EDGE, edge_function(half, 2, 3), [half]).thresholds[0] is half


def test_is_perfect():
    point = close_under_faces([(0,)])
    assert is_perfect(point, MorseFunction(point, {Simplex((0,)): 0}), 2)
    tri = close_under_faces([(0, 1, 2)])
    report = is_perfect(tri, dimension_scaled(tri), 2)
    assert not report and not report.perfect
    assert report.critical_counts == (3, 3, 1)
    assert report.betti == (1, 0, 0)


def test_restriction_of_morse_stays_morse():
    # a subcomplex only removes incidences, so the exceptional counts drop
    rng = random.Random(13)
    for _ in range(10):
        K = random_complex(rng)
        f = random_morse(K, rng)
        sub = close_under_faces([s for s in K.maximal_simplices() if rng.random() < 0.5])
        assert validate_morse(sub, f.restrict(sub)) == ()


def test_restriction_warns_when_values_violate():
    # construction does not validate, so non-Morse values restrict with a warning
    tri = close_under_faces([(0, 1, 2)])
    values = {Simplex((0,)): 2, Simplex((1,)): 2, Simplex((2,)): 0,
              Simplex((0, 1)): 1, Simplex((0, 2)): 3, Simplex((1, 2)): 3,
              Simplex((0, 1, 2)): 4}
    f = MorseFunction(tri, {s: Fraction(v) for s, v in values.items()})
    assert validate_morse(tri, f)
    with pytest.warns(UserWarning):
        f.restrict(close_under_faces([(0, 1)]))


def test_weak_morse_inequality_randomized():
    rng = random.Random(6)
    for _ in range(15):
        K = random_complex(rng)
        f = random_morse(K, rng)
        counts = [0] * (K.dim + 1)
        for s in critical_cells(K, f):
            counts[s.dim] += 1
        for p in (2, 3):
            for ck, bk in zip(counts, betti_numbers(K, p)):
                assert ck >= bk


def test_a_function_reads_alike_on_a_subcomplex_of_its_own(torus):
    """f on X, read on a band of the torus, gives what its restriction to the
    band gives: the same violations, critical cells and entry steps, with
    the cells in the band's order."""
    f, thresholds = torus.function, (0, 6, 8, 79, 95, 100)
    for S in (torus.A, torus.B, torus.complex.closure(torus.A.simplices(1))):
        g = f.restrict(S)
        assert g.complex is S and f.complex is not S
        assert validate_morse(S, f) == validate_morse(S, g)
        assert critical_cells(S, f) == critical_cells(S, g)
        for build in (sublevel_filtration, filtration_from_morse):
            got, want = build(S, f, thresholds), build(S, g, thresholds)
            assert got.thresholds == want.thresholds
            assert list(got.entry.items()) == list(want.entry.items())
        assert list(filtration_from_morse(S, f).entry.items()) == \
            list(filtration_from_morse(S, g).entry.items())
