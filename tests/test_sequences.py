"""Sequence construction and auditing: inclusion-induced maps, connecting
homomorphisms, the three audit levels, and the commuting-square checks."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homaudit import linalg, sequences
from homaudit.complexes import close_under_faces
from homaudit.linalg import DimensionMismatchError
from homaudit.morse import Filtration, filtration_from_morse
from homaudit.persistence import PersistenceResult, barcode, compute_persistence
from homaudit.sequences import (ORDINARY, LinearSequence, MayerVietorisSystem,
                                NotCoveringError, PairSystem, SequenceTerm, audit,
                                check_squares, induced_inclusion_map, module_sequence,
                                mv_connecting, ordinary_sequence, pair_connecting,
                                persistent_sequence)

from naive import (PerStepSystem, b_side_mv_connecting, entry_sites, fault_sites,
                   level_ordinary_sequence, level_persistent_sequence, naive_persistent_sequence,
                   order2_sites, per_call_check_squares, per_call_ordinary_sequence,
                   per_call_persistent_sequence, per_step_module_sequence, reading,
                   scatter_check_squares, step_mv_connecting, tampered)
from randfix import lower_star_fixture, make_fixture

HOLLOW = close_under_faces([(0, 1), (1, 2), (0, 2)])
FULL = close_under_faces([(0, 1, 2)])


def _one_step(K, p=2):
    return compute_persistence(Filtration([0], [K]), p)


def _inclusion_at(R_sub, R_sup, k, u):
    """The inclusion map over bars, selected at step u."""
    return _at(induced_inclusion_map(R_sub, R_sup, k), R_sup.bars_alive(k), R_sub.bars_alive(k), u)


def _at(m, target, source, u):
    """A map over bars at step u, given its target's and source's bars."""
    return sequences._select(m, sequences._group(target, u, u), sequences._group(source, u, u))


def test_induced_identity():
    res = _one_step(HOLLOW)
    m = _inclusion_at(res, res, 1, 0)
    assert np.array_equal(m, np.eye(1, dtype=np.int64))


def test_induced_cycle_becomes_boundary():
    sub = _one_step(HOLLOW)
    sup = _one_step(FULL)
    m = _inclusion_at(sub, sup, 1, 0)
    assert m.shape == (0, 1)  # H1 of the full triangle vanishes


def test_induced_torus_intersection_into_b(torus_system):
    # at the second-to-last level both circle classes of A∩B stay alive in B
    m = _inclusion_at(torus_system.RAB, torus_system.RB, 1, 4)
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
    delta = sys_.horizontal("delta", 0, 0)
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
    delta = sys_.horizontal("delta", 0, 0)
    assert delta.shape == (1, 1) and not delta.any()
    _, aud = ordinary_sequence(sys_, 0)
    assert aud.exact


def _assert_split_independent(sys_, k):
    """Both splits of the connecting map over bars agree at every step with
    each other and with the per-step path's. Over all bars they may differ
    on rows that are dead before the column is born."""
    i, old = sys_._gaps.index(("delta", k)), PerStepSystem(sys_)
    sides = [mv_connecting(sys_, k), b_side_mv_connecting(sys_, k)]
    for u in range(sys_.n_steps):
        a_side, b_side = (_at(m, sys_._bars[i + 1], sys_._bars[i], u) for m in sides)
        assert np.array_equal(a_side, b_side)
        assert np.array_equal(a_side, step_mv_connecting(old, k, u, "B"))


def test_mv_connecting_splitting_independence(torus_system):
    for k in range(3):
        _assert_split_independent(torus_system, k)


def test_mv_connecting_splitting_independence_odd_characteristic():
    sys_ = square_circle_system(5)
    for k in range(2):
        _assert_split_independent(sys_, k)


@pytest.mark.parametrize("p", [2, 3])
def test_boundaries_of_the_connecting_maps_keep_no_zero_entry(torus, p):
    # the torus's cycle columns have facets shared by two cells, whose sums vanish
    filt = filtration_from_morse(torus.complex, torus.function, torus.thresholds)
    system = MayerVietorisSystem(torus.complex, torus.A, torus.B, filt, p)
    entries = 0
    for k in range(system.top_degree):
        for keep in (system._masks[0], None):  # the A-part, as for delta, and whole chains
            chains = system.RX._chains(k + 1)
            boundaries = sequences._boundary(system.X, chains, k + 1, p, keep)
            assert len(boundaries) == len(chains)
            for boundary in boundaries:
                assert all(x % p for x in boundary.values()), boundary
                entries += len(boundary)
    assert entries


def test_pair_connecting_edge():
    X = close_under_faces([(0, 1)])
    A = close_under_faces([(0,), (1,)])
    sys_ = PairSystem(X, A, Filtration([0], [X]), 2)
    delta = sys_.horizontal("delta", 0, 0)  # H_1(X, A) -> H_0(A)
    assert delta.shape == (2, 1)
    assert sorted(delta[:, 0]) == [1, 1]  # endpoint difference (signs vanish mod 2)
    _, aud = ordinary_sequence(sys_, 0)
    assert aud.exact


def test_pair_connecting_a_empty():
    X = FULL
    sys_ = PairSystem(X, close_under_faces([]), Filtration([0], [X]), 2)
    delta = sys_.horizontal("delta", 0, 0)
    assert delta.shape == (0, 0)
    assert pair_connecting(sys_, 0).shape == (0, 0)
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
    # every vertex and edge covered, the triangle not
    T = close_under_faces([(0, 1, 2)])
    with pytest.raises(NotCoveringError, match="^A ∪ B does not cover X$"):
        MayerVietorisSystem(T, close_under_faces([(0, 1), (1, 2)]), close_under_faces([(0, 2)]),
                            Filtration([0], [T]), 2)


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
    """map_at runs once per (gap, k), whatever the audits and their
    sequences' maps ask for, and each class computation under it runs once."""
    chain_calls, calls = Counter(), Counter()
    coordinates = PersistenceResult._coordinates

    def counted(result, k, chains, u=None):
        chain_calls[id(result), k, u] += 1
        return coordinates(result, k, chains, u)

    monkeypatch.setattr(PersistenceResult, "_coordinates", counted)
    sys_ = _fresh_system(kind, torus, genus2)
    computed = sys_.map_at

    def counted_map_at(gap, k):
        calls[gap, k] += 1
        return computed(gap, k)
    monkeypatch.setattr(sys_, "map_at", counted_map_at)
    n = sys_.n_steps
    for u in range(n):
        for v in range(u, n):
            seq, _ = persistent_sequence(sys_, u, v)
            assert len(list(seq.maps)) == len(seq.terms)
            assert check_squares(sys_, u, v) == []
        ordinary_sequence(sys_, u)
        for gap, k in sys_._gaps:
            sys_.horizontal(gap, k, u)
    seq, _ = module_sequence(sys_)
    assert all(len(per_step) == n for per_step in seq.maps)
    assert calls == Counter(sys_._gaps)
    # delta and beta; for a triad alpha includes into two spaces
    calls_per_map = 4 if kind == "triad" else 3
    assert len(chain_calls) == calls_per_map * (sys_.top_degree + 1)
    assert set(chain_calls.values()) == {1}
    assert not sys_.horizontal("alpha", 1, n - 1).flags.writeable


@pytest.mark.parametrize("kind,p", [("triad", 2), ("triad", 3), ("pair", 2), ("pair", 3)])
def test_persistent_sequence_matches_the_vertical_map_path(torus, genus2, kind, p):
    sys_ = _fresh_system(kind, torus, genus2, p)
    old = PerStepSystem(sys_)
    schedule = sys_._terms
    n = sys_.n_steps
    for u in range(n):
        for v in range(u, n):
            seq, _ = persistent_sequence(sys_, u, v)
            bases, maps = naive_persistent_sequence(old, u, v)
            for (label, k), term, basis in zip(schedule, seq.terms, bases, strict=True):
                assert term.dim == basis.shape[1], (u, v, label, k)
                # the group selects unit vectors of the term's bar coordinates at v
                group = old.persistent_group(label, k, u, v)
                selected = np.eye(old.term_dim(label, k, v), dtype=np.int64)[:, group]
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
    for name in ("row_reduce", "solve_matrix"):
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
        for gap, k in sys_._gaps:
            sys_.horizontal(gap, k, u)


@pytest.mark.parametrize("which", ["triad", "pair"] + list(range(12)))
def test_all_audits_reduce_each_map_once(monkeypatch, torus, genus2, which):
    """Every audit of a system, at every u <= v and at every level, runs
    exactly one image reduction per nonzero map (gap, k) and none for a zero
    map, whatever n_steps is, and no dense elimination; asking again runs
    none."""
    sys_ = (_fresh_system(which, torus, genus2, 3) if isinstance(which, str)
            else make_fixture(which)[1])
    reductions = []
    real_reduce = sequences._reduce

    def counted(columns, p, cycles=True):
        reductions.append(len(columns))
        return real_reduce(columns, p, cycles)
    monkeypatch.setattr(sequences, "_reduce", counted)
    monkeypatch.setattr(linalg, "row_reduce", lambda *args: pytest.fail("row_reduce"))
    n = sys_.n_steps

    def audit_everything():
        for u in range(n):
            for v in range(u, n):
                persistent_sequence(sys_, u, v)
                check_squares(sys_, u, v)
            ordinary_sequence(sys_, u)
        module_sequence(sys_)
    audit_everything()
    assert len(reductions) == sum(bool(sys_.matrix(*gap).values.size) for gap in sys_._gaps)
    first = len(reductions)
    audit_everything()
    assert len(reductions) == first


def _outcome(path, system, u, v):
    """A persistent audit, or 'leak' where the path raises RestrictionLeakError."""
    try:
        return path(system, u, v)[1]
    except sequences.RestrictionLeakError:
        return "leak"


@pytest.mark.parametrize("kind,p", [("triad", 2), ("triad", 3), ("pair", 2), ("pair", 3)])
def test_audits_see_a_map_that_breaks_order_2(torus, genus2, kind, p):
    """An entry added to map j over bars at (t, s), where map j - 1 reaches
    s and t is born and dies no later than s, passes both structural checks
    (nothing leaks) but makes the composite nonzero. The audits see order 2
    fail at term j exactly where that composite has a witness, and agree
    with `audit` of their own sequences, with the per-call path and with the
    rank profiles on the same maps at every u <= v."""
    probe = _fresh_system(kind, torus, genus2, p)
    terms, sites = probe._terms, order2_sites(probe)
    assert sites, "no map to break"
    n = probe.n_steps
    for j, t, s in sites[::max(1, len(sites) // 3)]:
        sys_ = tampered(probe, j, t, s)
        old, broken = reading(sys_), []
        for u in range(n):
            seq, aud = ordinary_sequence(sys_, u)
            assert aud == audit(seq) == level_ordinary_sequence(old, u)[1], u
            for v in range(u, n):
                seq, aud = persistent_sequence(sys_, u, v)
                assert aud == audit(seq) == _outcome(per_call_persistent_sequence, old, u, v) \
                    == _outcome(level_persistent_sequence, old, u, v), (u, v)
                if not aud.position(*terms[j]).order2:
                    broken.append((u, v))
        assert broken and not persistent_sequence(sys_, *broken[0])[1].order2


@pytest.mark.parametrize("kind,p", [("triad", 2), ("triad", 3), ("pair", 2), ("pair", 3)])
def test_tampered_twins_share_the_position_dict_safely(torus, genus2, kind, p):
    """A probe audited at every (u, v) fills its position dict; a tampered
    twin (a shallow copy) shares that dict. At the order-2 break sites and
    at a death-check fault site every twin audit still equals `audit` of its
    own sequence and the per-call path, because the dict is keyed by the
    counts that determine a position, never by (u, v). The probe's audits
    are unchanged afterwards."""
    probe = _fresh_system(kind, torus, genus2, p)
    n = probe.n_steps
    before = {(u, v): persistent_sequence(probe, u, v)[1] for u in range(n) for v in range(u, n)}
    ordinary = [ordinary_sequence(probe, u)[1] for u in range(n)]
    deaths = [(i, *site) for i in range(len(probe._gaps))
              for check, site in fault_sites(probe, i) if check == "death"]
    sites = order2_sites(probe)
    assert sites and deaths
    for i, t, s in sites[::max(1, len(sites) // 4)] + deaths[:1]:
        sys_ = tampered(probe, i, t, s)
        assert sys_._audits is probe._audits
        old = reading(sys_)
        for u in range(n):
            seq, aud = ordinary_sequence(sys_, u)
            assert aud == audit(seq) == per_call_ordinary_sequence(old, u)[1], (i, u)
            for v in range(u, n):
                seq, aud = persistent_sequence(sys_, u, v)
                assert aud == audit(seq) == per_call_persistent_sequence(old, u, v)[1], \
                    (i, u, v)
    assert {(u, v): persistent_sequence(probe, u, v)[1]
            for u in range(n) for v in range(u, n)} == before
    assert [ordinary_sequence(probe, u)[1] for u in range(n)] == ordinary


@pytest.mark.parametrize("kind", ["triad", "pair"])
def test_persistent_sequence_rejects_a_map_that_leaves_the_group(torus, genus2, kind):
    """An entry of a map over bars whose target is born after its source
    sends a persistent class outside the target group: an internal fault,
    reported as RestrictionLeakError at exactly the (u, v) where the
    per-call slicing path and the leak bounds report it on the same maps;
    elsewhere the audits are those of the per-call path."""
    probe = _fresh_system(kind, torus, genus2)
    n, leaks = probe.n_steps, 0
    for i in range(len(probe._gaps)):
        for check, (t, s) in fault_sites(probe, i):
            if check != "birth":
                continue
            sys_ = tampered(probe, i, t, s)
            old = reading(sys_)
            for u in range(n):
                for v in range(u, n):
                    got = _outcome(persistent_sequence, sys_, u, v)
                    assert got == _outcome(per_call_persistent_sequence, old, u, v), (i, u, v)
                    assert (got == "leak") == (
                        _outcome(level_persistent_sequence, old, u, v) == "leak"), (i, u, v)
                    leaks += got == "leak"
    assert leaks, "no map entry to make leak"


@pytest.mark.parametrize("which", ["triad", "pair"] + list(range(12)))
def test_check_squares_sees_every_broken_square(torus, genus2, which):
    """An entry of a map over bars that fails a structural check breaks the
    squares where it shows on one side only: a target born after its source
    shows through the source vertical (m_v ∘ vert) and not through the
    target vertical, a target dying after its source the other way round.
    check_squares lists exactly the squares that the scatter check and the
    multiplied-out check on the same maps list; the random fixtures add
    squares with a zero target at u or source at v. Every such entry breaks
    some square. The shipped fixtures have entries of both kinds; a small
    random fixture may have no pair of bars that shows one kind at any step."""
    probe = (_fresh_system(which, torus, genus2, 3) if isinstance(which, str)
             else make_fixture(which)[1])
    n, broken = probe.n_steps, Counter()
    for i, (gap, k) in enumerate(probe._gaps):
        for check, site in fault_sites(probe, i):
            sys_ = tampered(probe, i, *site)
            old, seen = reading(sys_), 0
            for u in range(n):
                for v in range(u, n):
                    failures = check_squares(sys_, u, v)
                    assert failures == scatter_check_squares(old, u, v) == \
                        per_call_check_squares(old, u, v), (gap, k, check, u, v)
                    assert failures in (
                        [], [f"{gap} square at degree {k} between steps {u} and {v}"])
                    seen += bool(failures)
            assert seen, (gap, k, check)
            broken[check] += seen
    assert set(broken) == {"birth", "death"} or not isinstance(which, str)


def test_module_sequence_rejects_a_map_that_breaks_a_square(torus):
    filt = filtration_from_morse(torus.complex, torus.function, torus.thresholds)
    sys_ = MayerVietorisSystem(torus.complex, torus.A, torus.B, filt, 2)
    assert module_sequence(sys_)[1].exact
    checks = set()
    for i in range(len(sys_._gaps)):
        for check, site in fault_sites(sys_, i):
            with pytest.raises(ValueError, match="shift action"):
                module_sequence(tampered(sys_, i, *site))
            checks.add(check)
    assert checks == {"birth", "death"}


@pytest.mark.parametrize("index", [1, 3, 11, 12, 14])
def test_module_audit_of_a_fault_no_step_reads(index):
    """An entry whose target bar is born no earlier than its source bar dies
    is in no group pair: no step or pair of steps reads it, so it is no
    fault, and every square commutes. Every audit of the twin equals that of
    the untampered system and of the per-step module path."""
    probe = make_fixture(index)[1]
    n, sites = probe.n_steps, list(entry_sites(probe, read=False))
    assert sites
    for i, t, s in sites:
        twin = tampered(probe, i, t, s)
        assert not twin._profile[3], (i, t, s)  # an unread entry is no fault
        assert all(check_squares(twin, u, v) == [] for u in range(n) for v in range(u, n))
        seq, aud = module_sequence(twin)
        want_seq, want = per_step_module_sequence(twin)
        assert seq.terms == want_seq.terms and aud == want == module_sequence(probe)[1]
        for u in range(n):
            assert ordinary_sequence(twin, u)[1] == ordinary_sequence(probe, u)[1], (i, u)
            for v in range(u, n):
                assert persistent_sequence(twin, u, v)[1] == \
                    persistent_sequence(probe, u, v)[1], (i, u, v)


@pytest.mark.parametrize("fixture", [make_fixture, lower_star_fixture])
def test_module_sequence_rejects_every_read_fault(fixture):
    """An entry some group pair reads that fails a structural check breaks a
    consecutive square: a target born after its source at the step before
    the target's birth, a target dying after its source at the step before
    the source's death. So `module_sequence` raises at every such site, and
    its count table never holds a count that is not a rank."""
    seen = 0
    for index in range(16):
        probe = fixture(index)[1]
        for i, t, s in entry_sites(probe, read=True):
            with pytest.raises(ValueError, match="shift action"):
                module_sequence(tampered(probe, i, t, s))
            seen += 1
    assert seen


def test_order2_random_sample():
    for i in range(12):
        kind, sys_, _ = make_fixture(i)
        n = sys_.n_steps
        for u in range(n):
            for v in range(u, n):
                _, aud = persistent_sequence(sys_, u, v)
                assert aud.order2, (kind, i, u, v)


_PROPERTY_SYSTEMS = st.tuples(st.integers(0, 63), st.sampled_from([2, 3, 5, 7]), st.booleans())


@settings(max_examples=150, deadline=None)
@given(_PROPERTY_SYSTEMS, st.randoms(use_true_random=False), st.booleans())
def test_count_table_and_position_dict_match_the_per_step_path(which, rng, module_first):
    """On a fresh random or lower-star fixture over F_2, F_3, F_5 or F_7,
    `module_sequence` gives the per-step path's terms (dims per step
    included), positions and step audits, whether it runs before or after
    the other audits; every ordinary and persistent audit, asked in a
    shuffled order and then again in another, equals `audit` of its own
    sequence."""
    index, p, lower = which
    sys_ = (lower_star_fixture if lower else make_fixture)(index, p)[1]
    n = sys_.n_steps
    queries = [(ordinary_sequence, (u,)) for u in range(n)]
    queries += [(persistent_sequence, (u, v)) for u in range(n) for v in range(u, n)]
    if module_first:
        module = module_sequence(sys_)
    for _ in range(2):
        rng.shuffle(queries)
        for path, steps in queries:
            seq, aud = path(sys_, *steps)
            assert aud == audit(seq), (path.__name__, steps)
    if not module_first:
        module = module_sequence(sys_)
    seq, aud = module
    want_seq, want = per_step_module_sequence(sys_)
    assert seq.terms == want_seq.terms and aud == want
    assert [[m.tolist() for m in per_step] for per_step in seq.maps] == \
        [[m.tolist() for m in per_step] for per_step in want_seq.maps]
