"""Sequence construction and auditing: inclusion-induced maps, connecting
homomorphisms, the three audit levels, and the commuting-square checks."""

from collections import Counter

import numpy as np
import pytest

from homaudit import linalg, sequences
from homaudit.complexes import close_under_faces
from homaudit.linalg import DimensionMismatchError
from homaudit.morse import Filtration, filtration_from_morse
from homaudit.persistence import barcode, compute_persistence
from homaudit.sequences import (ORDINARY, LinearSequence, MayerVietorisSystem,
                                NotCoveringError, PairSystem, SequenceTerm, audit,
                                check_squares, induced_inclusion_map, module_sequence,
                                mv_connecting, ordinary_sequence, pair_connecting,
                                persistent_sequence)

from naive import naive_persistent_sequence
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
        # a module map is the tuple of the ordinary maps, one per step
        assert all(np.array_equal(per_step[u], ordinary_sequence(sys_, u)[0].maps[i])
                   for i, per_step in enumerate(seq.maps) for u in range(sys_.n_steps))


def test_audit_zero_maps():
    terms = (SequenceTerm("X", 1, 2), SequenceTerm("X", 0, 3))
    maps = (np.zeros((3, 2), dtype=np.int64), np.zeros((0, 3), dtype=np.int64))
    aud = audit(LinearSequence(ORDINARY, "pair", terms, maps, 2))
    assert aud.order2 and not aud.exact
    assert [pos.defect for pos in aud.positions] == [2, 3]


def test_audit_sees_a_nonzero_composition():
    # F_3 -> F_3 -> F_3 by the identity twice: not of order 2 in the middle;
    # the zero map after it composes to zero with anything
    terms = (SequenceTerm("A", 1, 1), SequenceTerm("X", 1, 1), SequenceTerm("X", 0, 1),
             SequenceTerm("A", 0, 0))
    one = np.ones((1, 1), dtype=np.int64)
    maps = (one, one, np.zeros((0, 1), dtype=np.int64), np.zeros((0, 0), dtype=np.int64))
    aud = audit(LinearSequence(ORDINARY, "pair", terms, maps, 3))
    assert [pos.order2 for pos in aud.positions] == [True, False, True, True]
    assert [(pos.dim_image_in, pos.dim_kernel_out) for pos in aud.positions] == \
        [(0, 0), (1, 0), (1, 1), (0, 0)]
    assert not aud.order2 and [pos.exact for pos in aud.positions] == [True, False, True, True]


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


def _fresh_system(kind, torus, genus2, p=2):
    if kind == "triad":
        filt = filtration_from_morse(torus.complex, torus.function, torus.thresholds)
        return MayerVietorisSystem(torus.complex, torus.A, torus.B, filt, p)
    filt = filtration_from_morse(genus2.complex, genus2.function, genus2.thresholds)
    return PairSystem(genus2.complex, genus2.A, filt, p)


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
    sys_ = _fresh_system(kind, torus, genus2)
    # delta; for a triad alpha and beta each include from two spaces
    calls_per_map = 5 if kind == "triad" else 3
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


@pytest.mark.parametrize("kind,p", [("triad", 2), ("triad", 3), ("pair", 2), ("pair", 3)])
def test_persistent_sequence_matches_the_vertical_map_path(torus, genus2, kind, p):
    sys_ = _fresh_system(kind, torus, genus2, p)
    schedule = sequences._term_schedule(sys_)
    n = sys_.n_steps
    for u in range(n):
        for v in range(u, n):
            seq, _ = persistent_sequence(sys_, u, v)
            bases, maps = naive_persistent_sequence(sys_, u, v)
            for (label, k), term, basis in zip(schedule, seq.terms, bases, strict=True):
                assert term.dim == basis.shape[1], (u, v, label, k)
                # the group selects unit vectors of the term's bar coordinates at v
                group = sys_.persistent_group(label, k, u, v)
                selected = np.eye(sys_.term_dim(label, k, v), dtype=np.int64)[:, group]
                assert np.array_equal(selected, basis), (u, v, label, k)
            for got, want in zip(seq.maps, maps):
                assert want is not None and np.array_equal(got, want), (u, v)
            assert seq.maps[-1].shape == (0, seq.terms[-1].dim)


@pytest.mark.parametrize("kind", ["triad", "pair"])
def test_persistent_groups_and_barcodes_need_no_elimination(monkeypatch, torus, genus2, kind):
    # with the horizontal maps computed, a persistent sequence only selects
    # bars and submatrices: nothing but its audit's ranks eliminates
    sys_ = _fresh_system(kind, torus, genus2)
    n = sys_.n_steps
    for u in range(n):
        ordinary_sequence(sys_, u)
    auditing, eliminations = [False], Counter()

    def counted(name, original):
        def wrapper(*args):
            if not auditing[0]:
                eliminations[name] += 1
            return original(*args)
        return wrapper

    def flagged_audit(seq):
        auditing[0] = True
        try:
            return real_audit(seq)
        finally:
            auditing[0] = False

    real_audit = sequences.audit
    monkeypatch.setattr(sequences, "audit", flagged_audit)
    for name in ("row_reduce", "image_basis", "solve_matrix"):
        monkeypatch.setattr(linalg, name, counted(name, getattr(linalg, name)))
    for u in range(n):
        for v in range(u, n):
            persistent_sequence(sys_, u, v)
    for R in sys_.spaces.values():
        for k in range(sys_.top_degree + 1):
            barcode(R, k)
            for u in range(n):
                for v in range(u, n):
                    R.persistent_group(k, u, v)
    assert not eliminations


@pytest.mark.parametrize("kind,p", [("triad", 2), ("triad", 3), ("pair", 2), ("pair", 3)])
def test_horizontal_maps_need_no_elimination(monkeypatch, torus, genus2, kind, p):
    # classes are found by pivot lookup on the reduction's cycle columns
    sys_ = _fresh_system(kind, torus, genus2, p)
    for name in ("row_reduce", "solve_matrix"):
        monkeypatch.setattr(linalg, name, lambda *args, name=name: pytest.fail(name))
    for u in range(sys_.n_steps):
        for gap, k in sequences._gap_schedule(sys_):
            sys_.horizontal(gap, k, u)


@pytest.mark.parametrize("which", ["triad", "pair"] + list(range(12)))
def test_all_audits_reduce_each_map_once(monkeypatch, torus, genus2, which):
    """Every audit of a system, at every u <= v and at every level, runs at
    most one row reduction per map (gap, k, v); asking again runs none."""
    sys_ = (_fresh_system(which, torus, genus2, 3) if isinstance(which, str)
            else make_fixture(which)[1])
    reductions = []
    row_reduce = linalg.row_reduce

    def counted(a, p):
        reductions.append(a.shape)
        return row_reduce(a, p)
    monkeypatch.setattr(linalg, "row_reduce", counted)
    n = sys_.n_steps

    def audit_everything():
        for u in range(n):
            for v in range(u, n):
                persistent_sequence(sys_, u, v)
                check_squares(sys_, u, v)
            ordinary_sequence(sys_, u)
        module_sequence(sys_)
    audit_everything()
    assert 0 < len(reductions) <= len(sequences._gap_schedule(sys_)) * n
    first = len(reductions)
    audit_everything()
    assert len(reductions) == first


@pytest.mark.parametrize("kind,p", [("triad", 2), ("triad", 3), ("pair", 2), ("pair", 3)])
def test_audits_see_a_map_that_breaks_order_2(monkeypatch, torus, genus2, kind, p):
    """A level-v map whose composition with the map before it is nonzero
    (it sends a class in the image to an earlier-born class, so nothing
    leaks) breaks order 2 from the birth of a column that composition hits
    on. The audits say so, and agree with `audit` of their own sequences at
    every u <= v."""
    probe = _fresh_system(kind, torus, genus2, p)
    gaps, terms = sequences._gap_schedule(probe), sequences._term_schedule(probe)

    def breakable():  # (v, j, r, c): maps[j-1] reaches row c, and row r is born no later
        for v in range(probe.n_steps):
            for j in range(1, len(gaps)):
                hit = probe.horizontal(*gaps[j - 1], v).any(axis=1).nonzero()[0]
                source = probe.term_bars(*terms[j], v)[0]
                target = probe.term_bars(*terms[j + 1], v)[0]
                if hit.size and target.size:
                    c, r = hit[source[hit].argmax()], target.argmin()
                    if target[r] <= source[c]:
                        yield v, j, r, c
    found = next(breakable(), None)
    assert found is not None, "no map to break"
    v, j, r, c = found
    sys_ = _fresh_system(kind, torus, genus2, p)
    computed = sys_.map_at

    def broken(gap, k, w):
        m = computed(gap, k, w)
        if (gap, k, w) == (*gaps[j], v):
            m = m.copy()
            m[r, c] = (m[r, c] + 1) % p
        return m
    monkeypatch.setattr(sys_, "map_at", broken)
    for u in range(v + 1):
        seq, aud = persistent_sequence(sys_, u, v)
        assert aud == audit(seq), u
    assert not aud.position(*terms[j]).order2 and not aud.order2  # at u = v
    seq, aud = ordinary_sequence(sys_, v)
    assert aud == audit(seq) and not aud.position(*terms[j]).order2


@pytest.mark.parametrize("kind", ["triad", "pair"])
def test_persistent_sequence_rejects_a_map_that_leaves_the_group(torus, genus2, kind):
    """A level-v map that sends a persistent class outside the target group
    is an internal fault, reported as RestrictionLeakError."""
    sys_ = _fresh_system(kind, torus, genus2)
    n, schedule = sys_.n_steps, sequences._term_schedule(sys_)
    for u in range(n):
        ordinary_sequence(sys_, u)
    for i, (gap, k) in enumerate(sequences._gap_schedule(sys_)):
        for u in range(n):
            for v in range(u, n):
                source = sys_.persistent_group(*schedule[i], u, v)
                target = sys_.persistent_group(*schedule[i + 1], u, v)
                outside = np.setdiff1d(np.arange(sys_.term_dim(*schedule[i + 1], v)), target)
                if source.size and outside.size:
                    persistent_sequence(sys_, u, v)  # the true maps stay inside
                    leaking = sys_.horizontal(gap, k, v).copy()
                    leaking[outside[0], source[0]] += 1
                    leaking %= sys_.modulus
                    sys_._maps[(gap, k, v)] = leaking
                    with pytest.raises(sequences.RestrictionLeakError):
                        persistent_sequence(sys_, u, v)
                    return
    pytest.fail("no persistent group with a coordinate outside its target")


@pytest.mark.parametrize("which", ["triad", "pair"] + list(range(12)))
def test_check_squares_sees_every_broken_square(monkeypatch, torus, genus2, which):
    """Breaking m_v (seen through the source vertical) or m_u (seen through
    the target vertical) must be reported, whatever the other terms' sizes;
    the random fixtures add squares with a zero target at u or source at v."""
    sys_ = (_fresh_system(which, torus, genus2, 3) if isinstance(which, str)
            else make_fixture(which)[1])
    schedule, horizontal = sequences._term_schedule(sys_), sys_.horizontal
    n, broken = sys_.n_steps, Counter()
    for i, (gap, k) in enumerate(sequences._gap_schedule(sys_)):
        for u in range(n):
            for v in range(u + 1, n):
                for step, term in ((v, i), (u, i + 1)):
                    m, vert = horizontal(gap, k, step), sys_.vertical(*schedule[term], u, v)
                    bad = m.copy()
                    if step == v and m.shape[0] and vert.any():
                        bad[0, vert.any(axis=1).argmax()] += 1  # changes m_v ∘ vert_src
                    elif step == u and m.shape[1] and vert.any():
                        bad[vert.any(axis=0).argmax(), 0] += 1  # changes vert_tgt ∘ m_u
                    else:
                        continue  # no change of m shows through vert
                    bad %= sys_.modulus
                    monkeypatch.setattr(sys_, "horizontal", lambda *key: (
                        bad if key == (gap, k, step) else horizontal(*key)))
                    failures = check_squares(sys_, u, v)
                    assert failures == [f"{gap} square at degree {k} between steps {u} and {v}"]
                    broken[step == v] += 1
    assert broken[True] and broken[False]


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
