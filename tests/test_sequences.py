"""Sequence construction and auditing: inclusion-induced maps, connecting
homomorphisms, the three audit levels, and the commuting-square checks."""

from collections import Counter

import numpy as np
import pytest

from homaudit import sequences
from homaudit.complexes import close_under_faces
from homaudit.linalg import DimensionMismatchError
from homaudit.morse import Filtration, filtration_from_morse
from homaudit.persistence import compute_persistence
from homaudit.sequences import (ORDINARY, LinearSequence, MayerVietorisSystem,
                                NotCoveringError, PairSystem, SequenceTerm, audit,
                                check_squares, induced_inclusion_map, module_sequence,
                                mv_connecting, ordinary_sequence, pair_connecting,
                                persistent_sequence)

from randfix import make_fixture

HOLLOW = close_under_faces([(0, 1), (1, 2), (0, 2)])
FULL = close_under_faces([(0, 1, 2)])


def _one_step(K, p=2):
    return compute_persistence(Filtration([0], [K]), p)


def test_induced_identity():
    res = _one_step(HOLLOW)
    m = induced_inclusion_map(res, res, 1, 0)
    assert np.array_equal(m, np.eye(1, dtype=np.int64))


def test_induced_cycle_becomes_boundary():
    sub = _one_step(HOLLOW)
    sup = _one_step(FULL)
    m = induced_inclusion_map(sub, sup, 1, 0)
    assert m.shape == (0, 1)  # H1 of the full triangle vanishes


def test_induced_torus_intersection_into_b(torus_system):
    # at the second-to-last level both circle classes of A∩B stay alive in B
    m = induced_inclusion_map(torus_system.RAB, torus_system.RB, 1, 4)
    assert m.shape == (2, 2)
    assert np.linalg.matrix_rank(m % 2) == 2


def square_circle_system(p=2):
    X = close_under_faces([(0, 1), (1, 2), (2, 3), (0, 3)])
    A = close_under_faces([(0, 1), (1, 2)])
    B = close_under_faces([(2, 3), (0, 3)])
    filt = Filtration([0], [X])
    return MayerVietorisSystem(X, A, B, filt, p)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_mv_connecting_square_circle(p):
    sys_ = square_circle_system(p)
    delta = mv_connecting(sys_, 0, 0)
    assert delta.shape == (2, 1)
    assert delta.any()  # fundamental class maps to the difference of the two points
    _, aud = ordinary_sequence(sys_, 0)
    assert aud.exact


def test_mv_connecting_kills_classes_supported_in_one_side():
    # a cycle lying entirely inside A splits as x = x + 0, and the boundary of
    # a cycle vanishes, so its connecting image is zero
    X = close_under_faces([(0, 1), (1, 2), (0, 2), (2, 3)])
    A = close_under_faces([(0, 1), (1, 2), (0, 2)])
    B = close_under_faces([(2, 3)])
    sys_ = MayerVietorisSystem(X, A, B, Filtration([0], [X]), 2)
    assert sys_.RX.dim(1, 0) == 1  # the hollow triangle inside A
    delta = mv_connecting(sys_, 0, 0)
    assert delta.shape == (1, 1) and not delta.any()
    _, aud = ordinary_sequence(sys_, 0)
    assert aud.exact


def test_mv_connecting_splitting_independence(torus_system):
    for k in range(3):
        for u in range(torus_system.n_steps):
            a_side = mv_connecting(torus_system, k, u, assign_shared_to="A")
            b_side = mv_connecting(torus_system, k, u, assign_shared_to="B")
            assert np.array_equal(a_side, b_side)


def test_mv_connecting_splitting_independence_odd_characteristic():
    sys_ = square_circle_system(5)
    for k in range(2):
        assert np.array_equal(mv_connecting(sys_, k, 0, assign_shared_to="A"),
                              mv_connecting(sys_, k, 0, assign_shared_to="B"))


def test_pair_connecting_edge():
    X = close_under_faces([(0, 1)])
    A = close_under_faces([(0,), (1,)])
    sys_ = PairSystem(X, A, Filtration([0], [X]), 2)
    delta = pair_connecting(sys_, 0, 0)  # H_1(X, A) -> H_0(A)
    assert delta.shape == (2, 1)
    assert sorted(delta[:, 0]) == [1, 1]  # endpoint difference (signs vanish mod 2)
    _, aud = ordinary_sequence(sys_, 0)
    assert aud.exact


def test_pair_connecting_a_empty():
    X = FULL
    sys_ = PairSystem(X, close_under_faces([]), Filtration([0], [X]), 2)
    delta = pair_connecting(sys_, 0, 0)
    assert delta.shape == (0, 0)
    _, aud = ordinary_sequence(sys_, 0)
    assert aud.exact


def test_ordinary_empty_triad():
    empty = close_under_faces([])
    sys_ = MayerVietorisSystem(empty, empty, empty, Filtration([0], [empty]), 2)
    _, aud = ordinary_sequence(sys_, 0)
    assert aud.exact


def test_trivial_triad_every_level(torus_system):
    X = torus_system.X
    sys_ = MayerVietorisSystem(X, X, X, torus_system.filtration, 2)
    _, aud = ordinary_sequence(sys_, 5)
    assert aud.exact
    _, aud = persistent_sequence(sys_, 2, 5)
    assert aud.exact and aud.order2
    _, aud = module_sequence(sys_)
    assert aud.exact


def test_persistent_equal_levels_match_ordinary(torus_system):
    for u in (0, 3, 5):
        oseq, oaud = ordinary_sequence(torus_system, u)
        pseq, paud = persistent_sequence(torus_system, u, u)
        assert [t.dim for t in pseq.terms] == [t.dim for t in oseq.terms]
        for a, b in zip(pseq.maps, oseq.maps):
            assert np.array_equal(a, b)
        assert paud.exact == oaud.exact


def test_torus_persistent_counterexample(torus_system):
    seq, aud = persistent_sequence(torus_system, 4, 5)
    pos = aud.position("A∩B", 1)
    assert (pos.dim, pos.dim_image_in, pos.dim_kernel_out) == (2, 0, 1)
    assert pos.defect == 1 and not pos.exact and pos.order2
    assert aud.order2 and not aud.exact
    assert aud.defects() == {("A∩B", 1): 1}


def test_genus2_persistent_counterexample(genus2_system):
    u = genus2_system.filtration.index_of(190)
    v = genus2_system.filtration.index_of(250)
    seq, aud = persistent_sequence(genus2_system, u, v)
    pos = aud.position("A", 1)
    assert pos.dim == 1 and pos.dim_image_in == 0 and pos.dim_kernel_out == 1
    assert aud.order2 and not aud.exact
    assert aud.defects() == {("A", 1): 1}


def test_module_level_exact_on_fixtures(torus_system, genus2_system):
    for sys_ in (torus_system, genus2_system):
        seq, aud = module_sequence(sys_)
        assert aud.exact and aud.order2
        assert all(pos.steps is not None for pos in aud.positions)


def test_audit_zero_maps():
    terms = (SequenceTerm("X", 1, 2), SequenceTerm("X", 0, 3))
    maps = (np.zeros((3, 2), dtype=np.int64), np.zeros((0, 3), dtype=np.int64))
    aud = audit(LinearSequence(ORDINARY, "pair", terms, maps, 2))
    assert aud.order2 and not aud.exact
    assert [pos.defect for pos in aud.positions] == [2, 3]


def test_audit_dimension_mismatch():
    terms = (SequenceTerm("X", 1, 2), SequenceTerm("X", 0, 3))
    maps = (np.zeros((2, 2), dtype=np.int64), np.zeros((0, 3), dtype=np.int64))
    with pytest.raises(DimensionMismatchError):
        audit(LinearSequence(ORDINARY, "pair", terms, maps, 2))


def test_not_covering_rejected():
    X = close_under_faces([(0, 1), (1, 2)])
    A = close_under_faces([(0, 1)])
    with pytest.raises(NotCoveringError):
        MayerVietorisSystem(X, A, A, Filtration([0], [X]), 2)


def test_commuting_squares_fixtures(torus_system, genus2_system):
    for sys_ in (torus_system, genus2_system):
        for u in range(sys_.n_steps):
            for v in range(u, sys_.n_steps):
                assert check_squares(sys_, u, v) == []


def test_full_audit_story_over_f3(torus_system_f3, genus2):
    # signs in the connecting and inclusion maps matter away from char 2
    seq, aud = persistent_sequence(torus_system_f3, 4, 5)
    assert aud.order2 and not aud.exact
    assert aud.defects() == {("A∩B", 1): 1}
    _, maud = module_sequence(torus_system_f3)
    assert maud.exact
    for u in range(torus_system_f3.n_steps):
        _, oaud = ordinary_sequence(torus_system_f3, u)
        assert oaud.exact

    from homaudit.morse import sublevel_filtration
    filt = sublevel_filtration(genus2.complex, genus2.function, genus2.thresholds)
    pair3 = PairSystem(genus2.complex, genus2.A, filt, 3)
    _, paud = persistent_sequence(pair3, filt.index_of(190), filt.index_of(250))
    assert paud.order2 and not paud.exact
    assert paud.defects() == {("A", 1): 1}
    _, maud = module_sequence(pair3)
    assert maud.exact


def test_ordinary_exact_at_every_step_of_shipped_fixtures(torus_system, genus2_system):
    for sys_ in (torus_system, genus2_system):
        for u in range(sys_.n_steps):
            _, aud = ordinary_sequence(sys_, u)
            assert aud.exact


def test_audits_deterministic_across_rebuilds(torus):
    from homaudit.morse import filtration_from_morse
    audits = []
    for _ in range(2):
        filt = filtration_from_morse(torus.complex, torus.function, torus.thresholds)
        sys_ = MayerVietorisSystem(torus.complex, torus.A, torus.B, filt, 2)
        _, pa = persistent_sequence(sys_, 4, 5)
        _, ma = module_sequence(sys_)
        audits.append((pa, ma))
    assert audits[0] == audits[1]


@pytest.mark.parametrize("kind", ["triad", "pair"])
def test_each_horizontal_map_is_computed_once(monkeypatch, torus, genus2, kind):
    calls = Counter()

    def counted(name):
        original = getattr(sequences, name)

        def wrapper(*args, **kwargs):
            # results and systems by identity, degrees and steps by value
            calls[(name,) + tuple(a if isinstance(a, int) else id(a) for a in args)] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in ("induced_inclusion_map", "mv_connecting", "pair_connecting", "quotient_map"):
        monkeypatch.setattr(sequences, name, counted(name))
    if kind == "triad":
        filt = filtration_from_morse(torus.complex, torus.function, torus.thresholds)
        sys_ = MayerVietorisSystem(torus.complex, torus.A, torus.B, filt, 2)
        calls_per_map = 5   # delta; alpha and beta each include from two spaces
    else:
        filt = filtration_from_morse(genus2.complex, genus2.function, genus2.thresholds)
        sys_ = PairSystem(genus2.complex, genus2.A, filt, 2)
        calls_per_map = 3
    n = sys_.n_steps
    for u in range(n):
        for v in range(u, n):
            persistent_sequence(sys_, u, v)
            assert check_squares(sys_, u, v) == []
        ordinary_sequence(sys_, u)
    module_sequence(sys_)
    assert len(calls) == calls_per_map * (sys_.top_degree + 1) * n
    assert set(calls.values()) == {1}
    assert not sys_.horizontal("alpha", 1, n - 1).flags.writeable


def test_module_sequence_rejects_a_map_that_breaks_a_square(torus):
    filt = filtration_from_morse(torus.complex, torus.function, torus.thresholds)
    sys_ = MayerVietorisSystem(torus.complex, torus.A, torus.B, filt, 2)
    computed = sys_.map_at

    def broken(gap, k, u):
        m = computed(gap, k, u)
        return np.zeros_like(m) if (gap, k, u) == ("alpha", 1, 4) else m
    sys_.map_at = broken
    assert computed("alpha", 1, 4).any()
    with pytest.raises(ValueError, match="shift action"):
        module_sequence(sys_)


def test_order2_random_sample():
    for i in range(12):
        kind, sys_, _ = make_fixture(i)
        n = sys_.n_steps
        for u in range(n):
            for v in range(u, n):
                _, aud = persistent_sequence(sys_, u, v)
                assert aud.order2, (kind, i, u, v)
