"""Fast paths against the paths they replaced.

The count audits over maps over bars against the per-step path (every map
at every step, the rank profiles of `_Level`, the scatter square check),
against `audit` of the sequences they return and against the per-call
audit path, at every u <= v of the acceptance batch and of its first 64
fixtures rebuilt over F_2, F_3, F_5 and F_7; against the per-step path on
lower-star grid tori, at every u <= v for n = 8 and 10 and on a grid of
(u, v) for n = 16. A property over random and lower-star fixtures and four
primes: every map over bars passes its structural checks, and its image
bars give the rank of its restriction at every u <= v.

The bar-selection path against the dense per-step path, on basis-free
invariants: dims, ranks of induced maps, bars and every audit row. Inputs:
the acceptance batch at its own primes, its first 64 fixtures rebuilt over
F_2, F_3, F_5 and F_7 (at its own prime a fixture is the batch's), grid
tori from the benchmark's generator and both shipped fixtures.

Each space's bars and cycle columns, read as simplices, and every map over
bars of a system against the simplex-keyed build and maps that one
numbering per system replaced: on fixtures 0-63 over F_2, F_3, F_5 and
F_7 and on the lower-star grid-torus triads and pairs at n = 8 and 10.
Each of those spaces built without cycles, and the grid tori n = 6..14,
read for their bars first and their cycles after, against the same space
built with cycles and the simplex-keyed build: bars, representatives,
coordinates and classes.

The reduction kernel against the dict reduction of `naive.dict_reduce`,
and over F_2 against the set kernel `naive.set_reduce` that its int
columns replaced, with V and without: on random sparse columns over F_2,
F_3, F_5 and F_7 with cleared slots, on rows on both sides of the 30-bit
digit boundaries of an int (over F_2 given as lists of rows and as {row:
1} dicts), and on every degree's columns of the builds over F_2 of
fixtures 0-63 (absolute, restricted and relative), the grid tori n =
6..14 and the lower-star grid-torus triads and pairs at n = 8 and 10: the
same pivots, R and V equal column by column (as the same row sets over
F_2), and no column given over F_2 mutated. Over F_2 on the n=8
lower-star triad, a column with no addition comes back as the list it was
given and each space's cycle table keeps an int only where the kernel
made one; on the lower-star triads and pairs at n = 8 and 10, every
back-substitution of a system's maps equals the set back-substitution
`naive.set_coordinates`.

Every relative barcode, reduced as the filtered quotient C(X)/C(A),
against the reduced persistence of the cone X ∪ cone(A), built as a real
complex: on every pair of the acceptance batch, of its first 64 fixtures
rebuilt over F_2, F_3, F_5 and F_7, the shipped genus-2 pair and the
lower-star grid-torus pairs at n = 8 and 10.

The input layers against their old paths on the same inputs: filtrations
stored as entry steps against one closed sublevel per threshold (and
restrictions against steps intersected with the subcomplex), the one Morse
classification pass against the separate scans, classification and
entry steps on `int` values and the facet table against the same passes on
`Fraction` values and rebuilt facets (also on non-integral variants of
every input), each cell's step from thresholds placed among f's ranked
values against each value bisected among the thresholds, and Betti
numbers from the column reduction against dense ranks.
"""

import importlib.util
import random
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homaudit import persistence
from homaudit.complexes import (SimplicialComplex, Simplex, betti_numbers, close_under_faces,
                                intersect)
from homaudit.linalg import dense_rank
from homaudit.morse import (Filtration, MorseFunction, _classify, critical_cells,
                            filtration_from_morse, sublevel, sublevel_filtration)
from homaudit.persistence import PersistenceResult, _reduce, barcode, compute_persistence
from homaudit.sequences import MayerVietorisSystem, PairSystem, persistent_sequence

from naive import (SimplexKeyedResult, assert_audits_match_per_call_path, assert_matches_oracle,
                   bisect_filtration, cone_barcodes, dict_reduce, f2_rows, fraction_classify,
                   fraction_filtration, naive_betti, naive_classify, set_coordinates,
                   set_reduce, simplex_keyed_system)
from randfix import (FIXTURE_COUNT, fixture_batch, lower_star, lower_star_fixture,
                     lower_star_system, make_fixture, random_complex, random_subcomplex)

PRIMES = (2, 3, 5, 7)
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_gridgen():
    """perfbench/gridgen.py, imported read-only by path."""
    spec = importlib.util.spec_from_file_location("perfbench_gridgen", PERFBENCH / "gridgen.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_acceptance_batch_matches_oracle():
    for _, system, _ in fixture_batch(FIXTURE_COUNT):
        assert_matches_oracle(system)


@pytest.mark.parametrize("p", PRIMES)
def test_rebuilt_fixtures_match_oracle(p):
    batch = fixture_batch(FIXTURE_COUNT)
    for index in range(64):
        if batch[index][1].modulus != p:  # at its own prime it is the batch's fixture
            assert_matches_oracle(make_fixture(index, p)[1])


def test_acceptance_batch_audits_match_per_call_path():
    for _, system, _ in fixture_batch(FIXTURE_COUNT):
        assert_audits_match_per_call_path(system)


@pytest.mark.parametrize("p", PRIMES)
def test_rebuilt_fixtures_audits_match_per_call_path(p):
    batch = fixture_batch(FIXTURE_COUNT)
    for index in range(64):
        if batch[index][1].modulus != p:  # at its own prime it is the batch's fixture
            assert_audits_match_per_call_path(make_fixture(index, p)[1])


def _lower_star_torus(n, kind, p):
    """A grid torus from the benchmark's generator over lower-star values of
    a seeded vertex order, with a step at every value: a triad of two bands
    of n/2 columns, or a pair with a band of two columns."""
    grid = _load_gridgen().grid_torus(n, 2000 + n)
    K = SimplicialComplex(Simplex(s) for s in grid.values)
    widths = (n // 2, n // 2) if kind == "triad" else (2,)
    cover = [close_under_faces(grid.band(i * n // 2, w)) for i, w in enumerate(widths)]
    return lower_star_system(kind, K, cover, lower_star(K, random.Random(n)), p)


@pytest.mark.parametrize("n,p", [(8, 2), (10, 3)])
@pytest.mark.parametrize("kind", ["triad", "pair"])
def test_lower_star_tori_match_per_step_path(n, p, kind):
    system = _lower_star_torus(n, kind, p)
    assert system.n_steps == n * n
    assert_audits_match_per_call_path(system, per_call=False)


@pytest.mark.parametrize("kind", ["triad", "pair"])
def test_lower_star_torus_16_matches_per_step_path_on_a_grid(kind):
    system = _lower_star_torus(16, kind, 2)
    n = system.n_steps
    pairs = [(u, v) for u in range(0, n, 37) for v in range(u, n, 29)]
    pairs += [(u, u + 1) for u in range(5, n - 1, 23)] + [(n - 1, n - 1)]
    assert_audits_match_per_call_path(system, pairs, per_call=False)


def _dense(m):
    out = np.zeros(m.shape, dtype=np.int64)
    out[m.rows, m.cols] = m.values
    return out


def _with_a_sum(chains, p):
    """The chains, then the sum of chain i times i + 1 over F_p."""
    total = {}
    for i, chain in enumerate(chains):
        for s, x in chain.items():
            total[s] = (total.get(s, 0) + (i + 1) * x) % p
    return chains + [total]


def _assert_lean_result_matches(lean, eager, old):
    """A result built without cycles, its bars read first and its cycles
    after, against the same space built with cycles and the simplex-keyed
    build: the bars, representatives, coordinates and class_of."""
    p, degrees = eager.modulus, range(eager.max_degree + 1)
    for k in degrees:
        for got, want in zip(lean.bars_alive(k), old.bars(k), strict=True):
            assert np.array_equal(got, want), k
    assert not {"_cycle_table", "_lists"} & vars(lean).keys()
    for k in degrees:
        chains = _with_a_sum(eager.representatives(k), p)
        assert lean.representatives(k) == chains[:-1] == old.representatives(k), k
        want = _dense(old.coordinates(k, chains))
        assert np.array_equal(_dense(lean.coordinates(k, chains)), want), k
        assert np.array_equal(_dense(eager.coordinates(k, chains)), want), k
        for u in range(eager.n_steps):
            at_u = _with_a_sum(eager.representatives(k, u), p)
            assert lean.representatives(k, u) == at_u[:-1], (k, u)
            assert np.array_equal(lean.class_of(k, u, at_u), eager.class_of(k, u, at_u)), (k, u)


def _assert_positions_match_simplex_keyed_path(system):
    """Each space's bars and cycle columns, read as simplices, and every map
    over bars equal those of the simplex-keyed build and maps; the same space
    built without cycles, its cycles read after its bars, equals both."""
    spaces, maps = simplex_keyed_system(system)
    for name, R in system.spaces.items():
        old = spaces[name]
        for k in range(R.max_degree + 1):
            for got, want in zip(R.bars_alive(k), old.bars(k), strict=True):
                assert np.array_equal(got, want), (name, k)
            assert R.representatives(k) == old.representatives(k), (name, k)
        lean = PersistenceResult(system.filtration, R.modulus, R.max_degree, R._space, R._A)
        _assert_lean_result_matches(lean, R, old)
    for gap, k in system._gaps:
        got, want = system.matrix(gap, k), maps[gap, k]
        assert got.shape == want.shape and np.array_equal(_dense(got), _dense(want)), (gap, k)


@pytest.mark.parametrize("p", PRIMES)
def test_fixtures_match_the_simplex_keyed_path(p):
    for index in range(64):
        _assert_positions_match_simplex_keyed_path(make_fixture(index, p)[1])


@pytest.mark.parametrize("n,p", [(8, 2), (10, 3)])
@pytest.mark.parametrize("kind", ["triad", "pair"])
def test_lower_star_tori_match_the_simplex_keyed_path(n, p, kind):
    _assert_positions_match_simplex_keyed_path(_lower_star_torus(n, kind, p))


def _grid_torus_filtrations():
    """The filtrations of the grid tori n = 6..14 from the benchmark's
    generator, at its thresholds."""
    gridgen = _load_gridgen()
    for n in range(6, 15):
        grid = gridgen.grid_torus(n, 1000 + n)
        K = SimplicialComplex(Simplex(s) for s in grid.values)
        f = MorseFunction(K, {Simplex(s): v for s, v in grid.values.items()})
        yield filtration_from_morse(K, f, gridgen.thresholds(grid))


@pytest.mark.parametrize("p", PRIMES)
def test_lean_grid_tori_match_the_simplex_keyed_path(p):
    for filt in _grid_torus_filtrations():
        _assert_lean_result_matches(compute_persistence(filt, p),
                                    PersistenceResult(filt, p, None, cycles=True),
                                    SimplexKeyedResult(filt, filt.complex, p, filt.complex.dim))


def _assert_same_columns(got, want, p):
    """Kernel columns against `dict_reduce`'s, column by column: over F_2 as
    the same sets of distinct rows (a list's, or an int's set bits, decoded
    by `f2_rows`), over any other F_p as equal dicts."""
    for g, w in zip(got, want, strict=True):
        if w is None:
            assert g is None
        elif p == 2:
            assert type(g) is int or len(set(g)) == len(g)
            assert f2_rows(g) == w.keys() and set(w.values()) <= {1}
        else:
            assert g == w


def _row_sets(columns):
    """F_2 kernel columns as sets of rows, None kept (and None for no V)."""
    return None if columns is None else [None if c is None else f2_rows(c) for c in columns]


def _assert_kernel_matches_the_reference(columns, p):
    """One degree's columns (lists of rows or {row: 1} dicts over F_2, dicts
    otherwise; None for a cleared slot) reduced by `_reduce` with and without
    V, by `dict_reduce` with V and, over F_2, by the set kernel `set_reduce`:
    the same pivots, and column by column the same R (and V). The columns
    given over F_2 are not mutated."""
    want_r, want_v, want_pivots = dict_reduce(
        [None if c is None else dict.fromkeys(c, 1) if p == 2 else dict(c) for c in columns], p)
    for cycles in (True, False):
        given = [None if c is None else type(c)(c) for c in columns]
        got_r, got_v, got_pivots = _reduce(given, p, cycles)
        assert got_pivots == want_pivots
        _assert_same_columns(got_r, want_r, p)
        if cycles:
            _assert_same_columns(got_v, want_v, p)
        else:
            assert got_v is None
        if p == 2:
            assert given == columns
            set_r, set_v, set_pivots = set_reduce(given, cycles)
            assert set_pivots == got_pivots
            assert _row_sets(set_r) == _row_sets(got_r)
            assert _row_sets(set_v) == _row_sets(got_v)


# rows within one 30-bit digit of a CPython int and on both sides of digit boundaries
_ROWS = st.integers(0, 9) | st.sampled_from((29, 30, 31, 59, 60, 61, 1000))


@st.composite
def _sparse_columns(draw):
    """(p, columns): a few sparse columns over F_p on a few rows, some None,
    drawn across the digit boundaries of an int's bits; over F_2 each column
    is given as a list of its rows or as a {row: 1} dict."""
    p = draw(st.sampled_from(PRIMES))
    column = st.dictionaries(_ROWS, st.integers(1, p - 1), max_size=5)
    columns = draw(st.lists(st.none() | column, max_size=10))
    if p == 2:
        columns = [list(c) if c is not None and draw(st.booleans()) else c for c in columns]
    return p, columns


@settings(max_examples=300, deadline=None)
@given(_sparse_columns())
def test_the_kernel_matches_the_dict_reduction(case):
    _assert_kernel_matches_the_reference(case[1], case[0])


def test_f2_kernel_matches_the_dict_kernel():
    # every degree's columns of F_2 builds, as the kernel is given them
    real, seen = persistence._reduce, []

    def spy(columns, p, cycles=True):
        assert p == 2 and all(c is None or type(c) is list for c in columns)
        seen.append([None if c is None else list(c) for c in columns])
        return real(columns, p, cycles)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(persistence, "_reduce", spy)
        for index in range(64):  # absolute and restricted spaces, and relative pairs
            make_fixture(index, 2)
        for filt in _grid_torus_filtrations():
            compute_persistence(filt, 2)
        for n in (8, 10):
            for kind in ("triad", "pair"):
                _lower_star_torus(n, kind, 2)
    assert len(seen) > 64
    for columns in seen:
        _assert_kernel_matches_the_reference(columns, 2)


def test_f2_columns_become_ints_only_when_added_to():
    """Over F_2, on the n=8 lower-star triad: a column that gets no addition
    comes back as the very list it was given, with V_j the list [j], and one
    that does as ints; each space's cycle table holds an int only where the
    kernel returned one, so an untouched cycle column stays its short list."""
    real, calls = persistence._reduce, []

    def spy(columns, p, cycles=True):
        out = real(columns, p, cycles)
        calls.append((list(columns), out))
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(persistence, "_reduce", spy)
        system = _lower_star_torus(8, "triad", 2)
        tables = [R._cycle_table[0] for R in system.spaces.values()]
    from_kernel, added = set(), 0
    for columns, (reduced, sources, _) in calls:
        want = dict_reduce([None if c is None else dict.fromkeys(c, 1) for c in columns], 2)[0]
        for j, (c, r, v) in enumerate(zip(columns, reduced, sources)):
            if c is None:
                continue
            # an addition lowers the low; with none the column keeps its own
            if not c or (want[j] and max(want[j]) == max(c)):
                assert r is c and v == [j]
            else:
                assert type(r) is int and type(v) is int
                from_kernel |= {id(r), id(v)}
                added += 1
    assert added
    kept = [column for table in tables for columns in table for column in columns]
    assert any(type(column) is list for column in kept)
    assert any(type(column) is int for column in kept)
    for column in kept:
        assert type(column) is list or id(column) in from_kernel


@pytest.mark.parametrize("n", [8, 10])
@pytest.mark.parametrize("kind", ["triad", "pair"])
def test_f2_back_substitution_matches_the_set_back_substitution(n, kind):
    # every coordinate call of a system's maps over bars, against sets of rows
    real, seen = PersistenceResult._coordinates, []

    def spy(self, k, chains, u=None):
        out = real(self, k, chains, u)
        seen.append((self, k, chains, u, out))
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(PersistenceResult, "_coordinates", spy)
        system = _lower_star_torus(n, kind, 2)
        for gap, k in system._gaps:
            system.matrix(gap, k)
    assert sum(out.values.size for *_, out in seen) > 0
    for R, k, chains, u, got in seen:
        want = set_coordinates(R, k, chains, u)
        assert got.shape == want.shape
        assert np.array_equal(_dense(got), _dense(want)), (k, u)


@settings(max_examples=80, deadline=None)
@given(index=st.integers(0, FIXTURE_COUNT - 1), p=st.sampled_from(PRIMES), lower=st.booleans())
def test_maps_over_bars_pass_their_checks_and_image_bars_give_ranks(index, p, lower):
    """Every map over bars passes both structural checks, on a fixture's
    own values or on lower-star values, and its image bars containing
    [u, v] number the dense rank of its restriction at every u <= v."""
    system = (lower_star_fixture if lower else make_fixture)(index, p)[1]
    gaps, bars, n = system._gaps, system._bars, system.n_steps
    for i, gap in enumerate(gaps):
        m, (sb, sd), (tb, td) = system.matrix(*gap), bars[i], bars[i + 1]
        assert (tb[m.rows] <= sb[m.cols]).all() and (td[m.rows] <= sd[m.cols]).all(), gap
    for u in range(n):
        for v in range(u, n):
            seq, aud = persistent_sequence(system, u, v)
            ranks = [pos.dim_image_in for pos in aud.positions[1:]]
            assert ranks == [dense_rank(m, p) for m in seq.maps[:-1]], (u, v)


@pytest.mark.parametrize("p", PRIMES)
def test_grid_tori_match_oracle(p):
    gridgen = _load_gridgen()
    for n in range(4, 11):
        grid = gridgen.grid_torus(n, 1000 + n)
        K = SimplicialComplex(Simplex(s) for s in grid.values)
        f = MorseFunction(K, {Simplex(s): v for s, v in grid.values.items()})
        filt = filtration_from_morse(K, f, gridgen.thresholds(grid))
        assert_matches_oracle(compute_persistence(filt, p))


@pytest.mark.parametrize("p", PRIMES)
def test_shipped_fixtures_match_oracle(torus, genus2, p):
    filt = filtration_from_morse(torus.complex, torus.function, torus.thresholds)
    assert_matches_oracle(MayerVietorisSystem(torus.complex, torus.A, torus.B, filt, p))
    filt = sublevel_filtration(genus2.complex, genus2.function, genus2.thresholds)
    assert_matches_oracle(PairSystem(genus2.complex, genus2.A, filt, p))


# ---------------------------------------------------------------------------
# the cone path

def _assert_relative_barcodes_match_the_cone(system):
    R = system.RXA
    want = cone_barcodes(system.X, system.A, system.filtration, R.modulus, R.max_degree)
    assert [tuple(barcode(R, k)) for k in range(R.max_degree + 1)] == want


def test_acceptance_pairs_match_the_cone(genus2):
    pairs = [system for kind, system, _ in fixture_batch(FIXTURE_COUNT) if kind == "pair"]
    assert len(pairs) == FIXTURE_COUNT // 2
    for system in pairs:
        _assert_relative_barcodes_match_the_cone(system)
    filt = sublevel_filtration(genus2.complex, genus2.function, genus2.thresholds)
    _assert_relative_barcodes_match_the_cone(PairSystem(genus2.complex, genus2.A, filt, 2))


@pytest.mark.parametrize("p", PRIMES)
def test_rebuilt_pairs_match_the_cone(p):
    for index in range(1, 64, 2):  # the odd fixtures are the pairs
        kind, system, _ = make_fixture(index, p)
        assert kind == "pair"
        _assert_relative_barcodes_match_the_cone(system)


@pytest.mark.parametrize("n,p", [(8, 2), (10, 3)])
def test_lower_star_pairs_match_the_cone(n, p):
    _assert_relative_barcodes_match_the_cone(_lower_star_torus(n, "pair", p))


# ---------------------------------------------------------------------------
# the input layers

def _shipped_and_grid_inputs(torus, genus2, largest=10):
    """(K, f, thresholds, subcomplexes) of the grid tori n = 4..largest and
    both shipped fixtures."""
    gridgen = _load_gridgen()
    out = []
    for n in range(4, largest + 1):
        grid = gridgen.grid_torus(n, 1000 + n)
        K = SimplicialComplex(Simplex(s) for s in grid.values)
        f = MorseFunction(K, {Simplex(s): v for s, v in grid.values.items()})
        out.append((K, f, gridgen.thresholds(grid), ()))
    out.append((torus.complex, torus.function, torus.thresholds,
                (torus.A, torus.B, intersect(torus.A, torus.B))))
    out.append((genus2.complex, genus2.function, genus2.thresholds, (genus2.A,)))
    return out


def _assert_filtration_matches(K, f, thresholds, subcomplexes):
    """Entry steps against one closed sublevel per threshold, and each
    restriction against the steps intersected with the subcomplex."""
    filt = sublevel_filtration(K, f, thresholds)
    old_steps = [sublevel(K, f, t) for t in filt.thresholds]
    assert list(filt.steps) == old_steps
    assert filt.complex == K and len(filt) == len(old_steps)
    assert filt.entry == Filtration(filt.thresholds, old_steps).entry
    for S in subcomplexes:
        restricted = filt.restrict_to(S)
        assert restricted.thresholds == filt.thresholds and restricted.complex == S
        assert list(restricted.steps) == [intersect(step, S) for step in old_steps]


def _assert_classification_matches(K, f):
    assert _classify(K, f) == naive_classify(K, f)


def _values_of(system, f):
    """The acceptance fixture's values, and a shuffle of them that breaks
    the Morse conditions on most fixtures."""
    cells = list(system.X.simplices())
    shuffled = [f(s) for s in cells]
    random.Random(len(cells)).shuffle(shuffled)
    return f, MorseFunction(system.X, dict(zip(cells, shuffled)))


def test_filtrations_match_closed_sublevels(torus, genus2):
    for _, system, f in fixture_batch(FIXTURE_COUNT):
        subcomplexes = [system.spaces[name].filtration.complex
                        for name in system.spaces if name not in ("X", "(X,A)")]
        values = sorted({v for _, v in f.items()})
        for thresholds in (system.filtration.thresholds, values, values[::3]):
            _assert_filtration_matches(system.X, f, thresholds, subcomplexes)
    for K, f, thresholds, subcomplexes in _shipped_and_grid_inputs(torus, genus2):
        _assert_filtration_matches(K, f, thresholds, subcomplexes)


def test_classification_matches_the_three_scans(torus, genus2):
    non_morse = 0
    for _, system, f in fixture_batch(FIXTURE_COUNT):
        for g in _values_of(system, f):
            _assert_classification_matches(system.X, g)
            non_morse += bool(naive_classify(system.X, g)[0])
    assert non_morse > FIXTURE_COUNT // 2
    for K, f, _, _ in _shipped_and_grid_inputs(torus, genus2):
        _assert_classification_matches(K, f)


def _decimal(q):
    """A multiple of 1/2 written as a decimal: 5/2 as '2.5', -1/2 as '-0.5'."""
    m = abs(2 * q)
    return f"{'-' if q < 0 else ''}{m // 2}.{5 * (m % 2)}"


def _non_integral_variants(K, f, thresholds):
    """(f, thresholds) as given, then: every value and threshold divided by
    3; half-integer thresholds; every value and threshold halved and written
    as a string, the values alternately as '0.5' and '1/2', the thresholds
    in both forms at once."""
    values = dict(f.items())
    yield f, list(thresholds)
    yield (MorseFunction(K, {s: Fraction(v) / 3 for s, v in values.items()}),
           [Fraction(t) / 3 for t in thresholds])
    yield f, [Fraction(t) + Fraction(1, 2) for t in thresholds]
    halves = {s: Fraction(v) / 2 for s, v in values.items()}
    written = {s: _decimal(q) if i % 2 else f"{q.numerator}/{q.denominator}"
               for i, (s, q) in enumerate(halves.items())}
    half_ts = [Fraction(t) / 2 for t in thresholds]
    yield (MorseFunction(K, written),
           [_decimal(q) for q in half_ts] + [f"{q.numerator}/{q.denominator}" for q in half_ts])


def _assert_matches_fraction_path(K, f, thresholds):
    """Classification and entry steps against the Fraction path: the same
    violations and witnesses and critical cells, each in the same order, and
    the same thresholds and entry steps; an integral value or threshold is
    an int, any other a Fraction."""
    assert _classify(K, f) == fraction_classify(K, f)
    filt = sublevel_filtration(K, f, thresholds)
    ts, entry = fraction_filtration(K, f, thresholds)
    assert filt.thresholds == ts
    assert list(filt.entry.items()) == list(entry.items())
    for q in filt.thresholds + tuple(f(s) for s in K.simplices()):
        assert type(q) is (int if Fraction(q).denominator == 1 else Fraction)


def test_int_values_match_the_fraction_path(torus, genus2):
    inputs, non_morse = [], 0
    for _, system, f in fixture_batch(FIXTURE_COUNT):
        inputs.append((system.X, f, system.filtration.thresholds))
        shuffled = _values_of(system, f)[1]
        non_morse += bool(fraction_classify(system.X, shuffled)[0])
        _assert_matches_fraction_path(system.X, shuffled, [0])
    assert non_morse > FIXTURE_COUNT // 2
    inputs += [(K, f, ts) for K, f, ts, _ in _shipped_and_grid_inputs(torus, genus2, 14)]
    for K, f, thresholds in inputs:
        for g, ts in _non_integral_variants(K, f, thresholds):
            _assert_matches_fraction_path(K, g, ts)


def _placement_thresholds(values):
    """Threshold lists below, on, between and above sorted distinct values,
    each alone, then all mixed."""
    below, above = [values[0] - 1], [values[-1] + 1]
    between = [Fraction(a + b, 2) for a, b in zip(values, values[1:])]
    return [below, values, between or above, above,
            below + values[::2] + between[1::2] + above]


def _assert_placement_matches(K, f, threshold_lists):
    for thresholds in threshold_lists:
        got, want = sublevel_filtration(K, f, thresholds), bisect_filtration(K, f, thresholds)
        assert got.thresholds == want.thresholds, thresholds
        assert np.array_equal(got._steps, want._steps), thresholds


def test_rank_placement_matches_bisection(torus, genus2):
    """Each cell's step, from thresholds placed among the ranked values,
    against each value bisected among the thresholds: on the acceptance
    batch and on A, at its thresholds and below, on, between and above its
    values, and from its critical values; on the shipped and grid tori and
    their non-integral variants."""
    for _, system, f in fixture_batch(FIXTURE_COUNT):
        values = sorted({v for _, v in f.items()})
        lists = [system.filtration.thresholds] + _placement_thresholds(values)
        for K in (system.X, system.A):
            _assert_placement_matches(K, f, lists)
        critical = {f(s) for s in critical_cells(system.X, f)}
        got, want = filtration_from_morse(system.X, f), bisect_filtration(system.X, f, critical)
        assert got.thresholds == want.thresholds and np.array_equal(got._steps, want._steps)
    for K, f, thresholds, _ in _shipped_and_grid_inputs(torus, genus2, 14):
        for g, ts in _non_integral_variants(K, f, thresholds):
            values = sorted({v for _, v in g.items()})
            _assert_placement_matches(K, g, [ts] + _placement_thresholds(values))


_RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_filtration_and_classification_on_arbitrary_values(seed, data):
    """Arbitrary rational values, Morse or not, and thresholds below, inside
    and above their range (values lie in [-3, 3], thresholds in [-5, 5])."""
    rng = random.Random(seed)
    K = random_complex(rng)
    values = data.draw(st.lists(_RATIONALS, min_size=len(K), max_size=len(K)))
    f = MorseFunction(K, dict(zip(K.simplices(), values)))
    thresholds = data.draw(st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=4),
                                    min_size=1, max_size=6))
    _assert_filtration_matches(K, f, thresholds, [random_subcomplex(K, rng)])
    _assert_classification_matches(K, f)
    _assert_matches_fraction_path(K, f, thresholds)


@pytest.mark.parametrize("p", PRIMES)
def test_betti_numbers_match_dense_ranks(torus, genus2, p):
    complexes = [system.X for _, system, _ in fixture_batch(FIXTURE_COUNT)]
    complexes += [K for K, _, _, _ in _shipped_and_grid_inputs(torus, genus2)[:3]]
    complexes += [torus.complex, torus.A, intersect(torus.A, torus.B), genus2.complex, genus2.A]
    complexes.append(SimplicialComplex(()))
    for K in complexes:
        assert betti_numbers(K, p) == naive_betti(K, p), K
