"""Persistence engine: per-step homology, induced maps, persistent groups,
barcodes against the structure-theorem consistency formula, the per-step
views selected on first use against their eager definition, and the
masked spaces of a system against the lone builds of their filtrations."""

import functools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homaudit import linalg
from homaudit.complexes import (EMPTY_COMPLEX, Simplex, close_under_faces, intersect,
                                relative_basis, relative_boundary_matrix)
from homaudit.fixtures import genus2_pair, torus_triad
from homaudit.linalg import mat_mul
from homaudit.morse import Filtration, filtration_from_morse, sublevel_filtration
from homaudit.persistence import (NotACycleError, PersistenceResult, barcode,
                                  compute_persistence, relative_persistence)
from homaudit.sequences import (MayerVietorisSystem, PairSystem, module_sequence,
                                ordinary_sequence)

from naive import (DensePersistence, EagerSteps, chain_boundary, chain_columns, naive_class_of,
                   naive_homology_basis, naive_nullspace, naive_persistent_dim, naive_rank)
from randfix import FIXTURE_COUNT, lower_star_fixture, make_fixture, random_complex, random_morse

POINT = close_under_faces([(0,)])
HOLLOW = close_under_faces([(0, 1), (1, 2), (0, 2)])
FULL = close_under_faces([(0, 1, 2)])


def test_single_point():
    filt = Filtration([0], [POINT])
    res = compute_persistence(filt, 2)
    assert res.dims(0) == (1,)
    assert res.n_steps == 1


def test_point_then_hollow_triangle():
    filt = Filtration([0, 1], [POINT, HOLLOW])
    res = compute_persistence(filt, 2)
    assert res.dims(1) == (0, 1)
    assert res.induced_matrix(1, 0, 1).shape == (1, 0)


def test_persistent_group_equal_indices_is_full_homology(torus_system):
    for R in (torus_system.RX, torus_system.RA, torus_system.RB, torus_system.RAB):
        for k in range(3):
            for u in range(R.n_steps):
                assert len(R.persistent_group(k, u, u)) == R.dim(k, u)


def test_step_homology_dims_are_betti_numbers(torus_system):
    from homaudit.complexes import betti_numbers
    R = torus_system.RX
    for u, step in enumerate(R.filtration.steps):
        betti = betti_numbers(step, 2)
        for k in range(R.max_degree + 1):
            expected = betti[k] if k < len(betti) else 0
            assert R.dim(k, u) == expected


def test_functoriality_randomized():
    rng = random.Random(21)
    for _ in range(10):
        K = random_complex(rng)
        f = random_morse(K, rng)
        res = compute_persistence(filtration_from_morse(K, f), 3)
        n = res.n_steps
        for k in range(res.max_degree + 1):
            for u in range(n):
                for v in range(u, n):
                    for w in range(v, n):
                        left = mat_mul(res.induced_matrix(k, v, w),
                                       res.induced_matrix(k, u, v), 3)
                        assert np.array_equal(left, res.induced_matrix(k, u, w))


def test_barcode_one_step_hollow():
    res = compute_persistence(Filtration([0], [HOLLOW]), 2)
    bars = barcode(res, 1)
    assert len(bars) == 1
    assert (bars.intervals[0].birth, bars.intervals[0].death) == (0, None)
    assert str(bars.intervals[0]) == "[0, inf)"


def test_barcode_birth_and_fill():
    # 1-cycle appears at step 1 and is filled at step 3
    filt = Filtration([0, 1, 2, 3], [POINT, HOLLOW, HOLLOW, FULL])
    res = compute_persistence(filt, 2)
    bars = barcode(res, 1)
    assert [(iv.birth, iv.death) for iv in bars] == [(1, 3)]
    for u in range(4):
        for v in range(u, 4):
            assert len(res.persistent_group(1, u, v)) == bars.count_containing(u, v)


def test_barcode_consistency_fixtures(torus_system, genus2_system):
    results = [torus_system.RX, torus_system.RA, torus_system.RB, torus_system.RAB,
               genus2_system.RX, genus2_system.RA, genus2_system.RXA]
    for R in results:
        for k in range(R.max_degree + 1):
            bars = barcode(R, k)
            for u in range(R.n_steps):
                for v in range(u, R.n_steps):
                    assert len(R.persistent_group(k, u, v)) == bars.count_containing(u, v)


def test_persistent_dims_against_bruteforce_oracle():
    rng = random.Random(33)
    for _ in range(6):
        K = random_complex(rng, max_simplices=20)
        f = random_morse(K, rng)
        res = compute_persistence(filtration_from_morse(K, f), 2)
        for k in range(res.max_degree + 1):
            for u in range(res.n_steps):
                for v in range(u, res.n_steps):
                    assert len(res.persistent_group(k, u, v)) == \
                        naive_persistent_dim(res, k, u, v)


def test_x_action_nilpotent_exactly_where_barcode_dies(torus_system):
    # x acts on the persistence module as the step map from u to u + 1:
    # the class of B born at step 4 dies at step 5, so one shift kills it
    bars = barcode(torus_system.RB, 1)
    torsion = [iv for iv in bars if iv.death is not None]
    assert [(iv.birth, iv.death) for iv in torsion] == [(4, 5)]
    dying = torus_system.RB.induced_matrix(1, 4, 5)  # H1(B at 95) -> H1(B at 100)
    kernel_vec = None
    for cand in ([1, 0], [0, 1], [1, 1]):
        if not mat_mul(dying, np.array(cand).reshape(-1, 1), 2).any():
            kernel_vec = cand
            break
    assert kernel_vec is not None
    # an immortal class is never killed: the shift into the last step keeps it
    survivor = np.array([[1], [0]])
    assert [iv.death for iv in barcode(torus_system.RAB, 1) if iv.birth <= 4] == [None, None]
    assert mat_mul(torus_system.RAB.induced_matrix(1, 4, 5), survivor, 2).any()


def test_relative_persistence_trivial_cases():
    filt = Filtration([0, 1], [close_under_faces([(0, 1)]), FULL])
    res = relative_persistence(FULL, FULL, filt, 2)
    for k in range(3):
        assert res.dims(k) == (0, 0)
    empty = close_under_faces([])
    rel = relative_persistence(FULL, empty, filt, 2)
    absolute = compute_persistence(filt, 2)
    for k in range(3):
        assert rel.dims(k) == absolute.dims(k)
        for u in range(2):
            for v in range(u, 2):
                assert np.array_equal(rel.induced_matrix(k, u, v),
                                      absolute.induced_matrix(k, u, v))


def test_relative_persistence_edge_pair():
    edge = close_under_faces([(0, 1)])
    ends = close_under_faces([(0,), (1,)])
    filt = Filtration([0], [edge])
    rel = relative_persistence(edge, ends, filt, 2)
    assert rel.dim(1, 0) == 1
    assert rel.dim(0, 0) == 0


def test_index_errors(torus_system):
    with pytest.raises(IndexError):
        torus_system.RX.persistent_group(1, 0, 99)
    with pytest.raises(IndexError):
        torus_system.RX.persistent_group(1, 3, 1)
    with pytest.raises(IndexError):
        torus_system.RX.representatives(-1, 0)
    for u in (99, -1, torus_system.n_steps):
        with pytest.raises(IndexError):
            torus_system.RX.basis_simplices(1, u)
    # a degree outside the chain table has no cells (the oracle asks for d_0)
    assert torus_system.RX.basis_simplices(-1, 0) == ()
    # a negative degree is no degree with or without a step, not the top one
    for query in (torus_system.RX.bars_alive, torus_system.RX.representatives,
                  lambda k: torus_system.RX.coordinates(k, []),
                  lambda k: barcode(torus_system.RX, k)):
        with pytest.raises(IndexError):
            query(-1)


def test_truncated_max_degree_still_quotients_by_boundaries(torus_system):
    # homology at the truncation degree must see the (k+1)-boundaries
    res = compute_persistence(torus_system.filtration, 2, max_degree=1)
    assert res.dims(1) == torus_system.RX.dims(1)
    assert res.dim(2, 5) == 0  # beyond the truncation everything reads as zero


@pytest.mark.parametrize("max_degree", [0, 1])
def test_oracle_sees_boundaries_above_the_truncation(torus_system, max_degree):
    # the oracle's chain_boundary(res, max_degree + 1, v) is the real d_{k+1},
    # so its step-v boundaries are right at the truncation degree too
    res = compute_persistence(torus_system.filtration, 2, max_degree=max_degree)
    for k in range(max_degree + 1):
        for u in range(res.n_steps):
            for v in range(u, res.n_steps):
                assert naive_persistent_dim(res, k, u, v) == \
                    linalg.dense_rank(res.induced_matrix(k, u, v), 2), (k, u, v)


def test_class_of_chain():
    res = compute_persistence(Filtration([0], [HOLLOW]), 2)
    assert res.class_of(1, 0, [dict.fromkeys(HOLLOW.simplices(1), 1)]).tolist() == [[1]]
    with pytest.raises(NotACycleError):
        res.class_of(1, 0, [{HOLLOW.simplices(1)[0]: 1}])


def _results_with_subcomplex(system):
    """Each persistence result of a system, with the subcomplex A it is taken
    relative to (None for absolute persistence)."""
    out = [(getattr(system, name), None) for name in ("RX", "RA", "RB", "RAB")
           if hasattr(system, name)]
    if hasattr(system, "RXA"):
        out.append((system.RXA, system.A))
    return out


def _assert_bases_match_three_reductions(R, A, rng=None):
    p = R.modulus
    for k in range(R.max_degree + 1):
        prev = None
        for u, X_u in enumerate(R.filtration.steps):
            A_u = EMPTY_COMPLEX if A is None else intersect(X_u, A)
            reps, bounds = naive_homology_basis(relative_boundary_matrix(X_u, A_u, k, p),
                                                relative_boundary_matrix(X_u, A_u, k + 1, p), p)
            hom = R.homology(k, u)
            assert hom.representatives.shape == reps.shape
            assert np.array_equal(hom.representatives, reps)
            assert hom.boundaries.shape == bounds.shape
            assert np.array_equal(hom.boundaries, bounds)
            basis = relative_basis(X_u, A_u, k)
            if prev is not None:
                prev_reps, prev_basis = prev
                pos = {s: i for i, s in enumerate(basis)}
                included = np.zeros((len(basis), prev_reps.shape[1]), dtype=np.int64)
                for i, s in enumerate(prev_basis):
                    if s in pos:
                        included[pos[s]] = prev_reps[i]
                expected = naive_class_of(reps, bounds, included, p)
                assert R.induced_matrix(k, u - 1, u).shape == expected.shape
                assert np.array_equal(R.induced_matrix(k, u - 1, u), expected)
            if rng is not None:
                # a random cycle and two random chains, each a cycle exactly
                # when the textbook solve finds class coordinates
                basis_cycles = np.hstack([bounds, reps])
                coeffs = np.array([rng.randrange(p) for _ in range(basis_cycles.shape[1])],
                                  dtype=np.int64).reshape(-1, 1)
                chains = [mat_mul(basis_cycles, coeffs, p)[:, 0]]
                chains += [np.array([rng.randrange(p) for _ in basis], dtype=np.int64)
                           for _ in range(2)]
                for chain in chains:
                    want = naive_class_of(reps, bounds, chain.reshape(-1, 1), p)
                    if want is None:
                        with pytest.raises(NotACycleError):
                            hom.class_of(chain)
                    else:
                        assert np.array_equal(hom.class_of(chain), want[:, 0])
            prev = (reps, basis)


def _dense_results(system):
    """The dense per-step oracle of each result of a system, with its A."""
    return [(DensePersistence(R.filtration, R.modulus, R.max_degree, A), A)
            for R, A in _results_with_subcomplex(system)]


def test_bases_and_step_maps_match_three_reduction_choice_on_fixtures(torus_system,
                                                                        torus_system_f3,
                                                                        genus2_system):
    # the dense oracle's bases, step maps and class coordinates
    rng = random.Random(5)
    for system in (torus_system, torus_system_f3, genus2_system):
        for R, A in _dense_results(system):
            _assert_bases_match_three_reductions(R, A, rng)


def test_bases_and_step_maps_match_three_reduction_choice_on_random_systems():
    for index in range(40):
        _, system, _ = make_fixture(index)
        for R, A in _dense_results(system):
            _assert_bases_match_three_reductions(R, A)


def _assert_representatives_follow_their_bars(R):
    """A bar's representative is one chain for the bar's whole life: a cycle
    whose class is the bar's unit vector at every step the bar is alive, and
    zero at the step where it dies. Following the representatives of the
    bars born at each step gives back the barcode."""
    p, n = R.modulus, R.n_steps
    for k in range(R.max_degree + 1):
        lives = []
        for u in range(n):
            reps = R.representatives(k, u)
            assert len(reps) == R.dim(k, u)
            columns = chain_columns(reps, R.basis_simplices(k, u))
            assert not mat_mul(chain_boundary(R, k, u), columns, p).any()
            assert np.array_equal(R.class_of(k, u, reps), np.eye(len(reps), dtype=np.int64))
            born = (np.ones(len(reps), dtype=bool) if u == 0
                    else ~R.induced_matrix(k, u - 1, u).any(axis=1))
            for j in np.flatnonzero(born):
                death = None
                for w in range(u + 1, n):
                    coords = R.class_of(k, w, [reps[j]])[:, 0]
                    assert np.array_equal(coords, R.induced_matrix(k, u, w)[:, j])
                    if not coords.any():
                        death = w
                        break
                    assert sorted(coords.tolist()) == [0] * (coords.size - 1) + [1]
                    assert R.representatives(k, w)[coords.argmax()] == reps[j]
                lives.append((u, death))
        lives.sort(key=lambda bar: (bar[0], n if bar[1] is None else bar[1]))
        assert lives == [(iv.birth, iv.death) for iv in barcode(R, k)], k


def test_representatives_follow_their_bars(torus_system, torus_system_f3, genus2_system):
    systems = [torus_system, torus_system_f3, genus2_system]
    systems += [make_fixture(index)[1] for index in range(40)]
    for system in systems:
        for R in system.spaces.values():
            _assert_representatives_follow_their_bars(R)


@functools.lru_cache(maxsize=1)
def _property_results():
    """Every space of the torus triad over F_2 and F_3, the genus-2 pair and
    random systems 0-39, relative results included."""
    torus, genus2 = torus_triad(), genus2_pair()
    torus_filt = filtration_from_morse(torus.complex, torus.function, torus.thresholds)
    systems = [MayerVietorisSystem(torus.complex, torus.A, torus.B, torus_filt, p)
               for p in (2, 3)]
    systems.append(PairSystem(genus2.complex, genus2.A, sublevel_filtration(
        genus2.complex, genus2.function, genus2.thresholds), 2))
    systems += [make_fixture(index)[1] for index in range(40)]
    return [R for system in systems for R in system.spaces.values()]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_class_of_agrees_with_naive_homology(data):
    # basis-free: class_of rejects exactly the chains that are no cycles of
    # step u, and a cycle minus its coordinates' combination of
    # representatives bounds
    R = data.draw(st.sampled_from(_property_results()))
    p = R.modulus
    k = data.draw(st.integers(0, R.max_degree))
    u = data.draw(st.integers(0, R.n_steps - 1))
    # sometimes the chain is drawn on a later step, whose extra cells step u lacks
    w = data.draw(st.integers(u, R.n_steps - 1)) if data.draw(st.booleans()) else u
    cells = R.basis_simplices(k, w)
    d_k = chain_boundary(R, k, w)
    if data.draw(st.booleans()):
        kernel = naive_nullspace(d_k, p)
        kernel = np.array(kernel, dtype=np.int64).reshape(len(kernel), len(cells))
        coeffs = data.draw(st.lists(st.integers(0, p - 1), min_size=len(kernel),
                                    max_size=len(kernel)))
        vec = np.array(coeffs, dtype=np.int64).reshape(1, -1) @ kernel % p
        vec = vec.reshape(len(cells))
    else:
        vec = np.array(data.draw(st.lists(st.integers(0, p - 1), min_size=len(cells),
                                          max_size=len(cells))), dtype=np.int64)
    chain = {s: int(x) for s, x in zip(cells, vec) if x}
    n_u = len(R.basis_simplices(k, u))
    if vec[n_u:].any() or mat_mul(d_k, vec.reshape(-1, 1), p).any():
        with pytest.raises(NotACycleError):
            R.class_of(k, u, [chain])
        return
    coords = R.class_of(k, u, [chain])
    cells, vec = cells[:n_u], vec[:n_u]
    reps = chain_columns(R.representatives(k, u), cells)
    rest = (vec.reshape(-1, 1) - mat_mul(reps, coords, p)) % p
    bounds = chain_boundary(R, k + 1, u)
    assert naive_rank(np.hstack([bounds, rest]), p) == naive_rank(bounds, p)


@functools.lru_cache(maxsize=1)
def _relative_results():
    """(relative result, A, its dense twin) of the genus-2 pair over F_2 and
    F_3 and of the pairs among random and lower-star systems 0-39."""
    genus2 = genus2_pair()
    filt = sublevel_filtration(genus2.complex, genus2.function, genus2.thresholds)
    systems = [PairSystem(genus2.complex, genus2.A, filt, p) for p in (2, 3)]
    systems += [build(index)[1] for index in range(1, 40, 2)
                for build in (make_fixture, lower_star_fixture)]
    return [(S.RXA, S.A, DensePersistence(S.filtration, S.modulus, S.RXA.max_degree, S.A))
            for S in systems]


def _class_or_error(query):
    try:
        return query()
    except NotACycleError:
        return NotACycleError


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_relative_classes_read_chains_of_x_in_the_quotient(data):
    # a chain of X, cells of A included, against the dense quotient's
    # class_of: a cell of A present at step u is zero there, one entering
    # later is no cell of the step; classes agree up to the change of basis
    # that the result's representatives give
    R, A, dense = data.draw(st.sampled_from(_relative_results()))
    p, entry = R.modulus, R.filtration.entry
    k = data.draw(st.integers(0, R.max_degree))
    u = data.draw(st.integers(0, R.n_steps - 1))
    w = data.draw(st.integers(u, R.n_steps - 1)) if data.draw(st.booleans()) else u
    cells = R.basis_simplices(k, w)
    kernel = naive_nullspace(chain_boundary(R, k, w), p)
    coeffs = data.draw(st.lists(st.integers(0, p - 1), min_size=len(kernel),
                                max_size=len(kernel)))
    chain = {}
    for c, z in zip(coeffs, kernel):
        for s, x in zip(cells, z):
            chain[s] = (chain.get(s, 0) + c * x) % p
    a_cells = [s for s in A.simplices(k) if entry[s] <= w]
    for s in data.draw(st.lists(st.sampled_from(a_cells), max_size=4) if a_cells
                       else st.just([])):
        chain[s] = data.draw(st.integers(1, p - 1))
    late = any(x % p and entry[s] > u for s, x in chain.items())
    got = _class_or_error(lambda: R.class_of(k, u, [chain]))
    want = _class_or_error(lambda: dense.class_of(k, u, [chain]))
    if late or want is NotACycleError:
        assert got is NotACycleError and want is NotACycleError
        return
    change = dense.class_of(k, u, R.representatives(k, u))
    assert np.array_equal(want, mat_mul(change, got, p))
    # over every bar, the bars alive at u read the same coordinates
    births, deaths = R.bars_alive(k)
    m = R.coordinates(k, [chain])
    full = np.zeros(m.shape, dtype=np.int64)
    full[m.rows, m.cols] = m.values
    assert np.array_equal(full[(births <= u) & (deaths > u)], got)
    # the cells of A alone are zero wherever they are present
    on_a = {s: x for s, x in chain.items() if s in A}
    assert not R.class_of(k, u, [on_a]).any() and not R.coordinates(k, [on_a]).values.size


def test_relative_chain_coordinates_are_the_cells_outside_a():
    for R, A, _ in _relative_results():
        X = R.filtration.complex
        for k in range(R.max_degree + 2):
            assert set(R.basis_simplices(k, R.n_steps - 1)) == \
                {s for s in X.simplices(k) if s not in A}, k
            assert len(R.basis_simplices(k, R.n_steps - 1)) == X.n_cells(k) - A.n_cells(k)


def test_each_result_reduces_its_filtration_once(torus, genus2, monkeypatch):
    # a result reduces its filtration once, without V, and every bar read is a
    # selection; a lean result reduces once more, with V, at its first cycle
    # read, and no later read reduces again; no dense elimination builds any
    # step's bases, step maps, induced maps, groups or bars
    real_reduction = PersistenceResult._reduce_filtration
    reductions, eliminations = {}, []

    def counted(result, cycles):
        reductions.setdefault(id(result), []).append(cycles)
        return real_reduction(result, cycles)

    monkeypatch.setattr(PersistenceResult, "_reduce_filtration", counted)
    monkeypatch.setattr(linalg, "row_reduce",
                        lambda *args: eliminations.append(args) or pytest.fail("row_reduce"))
    torus_filt = filtration_from_morse(torus.complex, torus.function, torus.thresholds)
    genus2_filt = sublevel_filtration(genus2.complex, genus2.function, genus2.thresholds)
    results = [compute_persistence(torus_filt, 2),
               compute_persistence(torus_filt.restrict_to(torus.A), 3),
               relative_persistence(genus2.complex, genus2.A, genus2_filt, 5)]
    for R in results:
        for k in range(R.max_degree + 2):
            barcode(R, k)
            for u in range(R.n_steps):
                for v in range(u, R.n_steps):
                    R.induced_matrix(k, u, v)
                    R.persistent_group(k, u, v)
    assert [reductions.pop(id(R)) for R in results] == [[False]] * len(results)
    for R in results:
        R.representatives(0)
        assert reductions[id(R)] == [True]
        for k in range(R.max_degree + 2):
            for u in range(R.n_steps):
                R.class_of(k, u, R.representatives(k, u))
    assert [reductions[id(R)] for R in results] == [[True]] * len(results)
    assert not eliminations


def test_each_space_of_a_system_reduces_once_with_cycles(torus, genus2, monkeypatch):
    real_reduction = PersistenceResult._reduce_filtration
    reductions = []

    def counted(result, cycles):
        reductions.append((id(result), cycles))
        return real_reduction(result, cycles)

    monkeypatch.setattr(PersistenceResult, "_reduce_filtration", counted)
    torus_filt = filtration_from_morse(torus.complex, torus.function, torus.thresholds)
    genus2_filt = sublevel_filtration(genus2.complex, genus2.function, genus2.thresholds)
    systems = [MayerVietorisSystem(torus.complex, torus.A, torus.B, torus_filt, 2),
               PairSystem(genus2.complex, genus2.A, genus2_filt, 3)]
    systems += [make_fixture(index)[1] for index in range(16)]
    for system in systems:
        module_sequence(system)
        for u in range(system.n_steps):
            ordinary_sequence(system, u)
        for R in system.spaces.values():
            for k in range(R.max_degree + 2):
                R.class_of(k, 0, R.representatives(k, 0))
    spaces = [id(R) for system in systems for R in system.spaces.values()]
    assert sorted(reductions) == sorted((space, True) for space in spaces)


@settings(max_examples=120, deadline=None)
@given(index=st.integers(0, FIXTURE_COUNT - 1), p=st.sampled_from((2, 3, 5, 7)),
       lower=st.booleans())
def test_per_step_views_equal_their_eager_definition(index, p, lower):
    """Selected from the bar table on first use, every per-step view of every
    space equals its eager definition at every step and every u <= v, one
    degree above the top included; on a fixture's own values or lower-star
    values."""
    system = (lower_star_fixture if lower else make_fixture)(index, p)[1]
    for R in system.spaces.values():
        eager, n = EagerSteps(R), R.n_steps
        for k in range(R.max_degree + 2):
            for u in range(n):
                assert R.dim(k, u) == eager.dim(k, u)
                for got, want in zip(R.bars_alive(k, u), eager.bars_alive(k, u)):
                    assert np.array_equal(got, want), (k, u)
                assert R.representatives(k, u) == eager.representatives(k, u), (k, u)
                for v in range(u, n):
                    assert np.array_equal(R.induced_matrix(k, u, v),
                                          eager.induced_matrix(k, u, v)), (k, u, v)
                    assert np.array_equal(R.persistent_group(k, u, v),
                                          eager.persistent_group(k, u, v)), (k, u, v)


def test_a_chain_above_every_degree_is_no_cycle(torus_system):
    # past max_degree + 1 a result keeps no cell and no bar, so a nonzero
    # chain there is no cycle of the filtration
    R = torus_system.RX
    k = R.max_degree + 2
    with pytest.raises(NotACycleError) as info:
        R.coordinates(k, [{Simplex(range(k + 1)): 1}])
    assert str(info.value) == f"{tuple(range(k + 1))} is not a {k}-cell of the filtration"


def _lone_spaces(system):
    """Each space of a system built on its own: its restricted filtration, or
    the pair (X, A) by relative_persistence, with the system's top degree."""
    filt, p, top, A = system.filtration, system.modulus, system.top_degree, system.A
    spaces = {"X": compute_persistence(filt, p, top),
              "A": compute_persistence(filt.restrict_to(A), p, top)}
    if system.kind == "pair":
        spaces["(X,A)"] = relative_persistence(system.X, A, filt, p, top)
    else:
        for name, S in (("B", system.B), ("A∩B", intersect(A, system.B))):
            spaces[name] = compute_persistence(filt.restrict_to(S), p, top)
    return spaces


@pytest.mark.parametrize("index", range(0, 64, 3))
def test_masked_spaces_equal_the_lone_builds(index, torus_system, genus2_system):
    """The same bars, the same cycle columns read as simplices and the same
    filtration of its own space, per space; A∩B filters the intersection."""
    systems = [make_fixture(index, p)[1] for p in (2, 3)] + [lower_star_fixture(index, 5)[1]]
    for system in systems + ([torus_system, genus2_system] if index == 0 else []):
        lone = _lone_spaces(system)
        assert lone.keys() == system.spaces.keys()
        for name, R in system.spaces.items():
            for k in range(system.top_degree + 2):
                for got, want in zip(R.bars_alive(k), lone[name].bars_alive(k), strict=True):
                    assert np.array_equal(got, want), (name, k)
                assert R.representatives(k) == lone[name].representatives(k), (name, k)
            assert R.filtration.complex == lone[name].filtration.complex, name
            assert R.filtration.entry == lone[name].filtration.entry, name
        if system.kind == "mayer-vietoris":
            assert system.spaces["A∩B"].filtration.complex == intersect(system.A, system.B)
