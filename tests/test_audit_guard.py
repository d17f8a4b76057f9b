"""An audit after the first one of a system is a lookup, and a zero map
costs nothing.

Auditing every u <= v of a system a second time builds no `PositionAudit`
and no `SequenceTerm`: each distinct position is built once per system. The
module level reads one per-step count table and never calls
`ordinary_sequence`, also when a map holds an entry that no step or pair of
steps reads. No map without a nonzero entry reaches the image reduction
(`_reduce`) or a composite (`_composite`).
"""

import pytest

from homaudit import sequences
from homaudit.sequences import module_sequence, ordinary_sequence, persistent_sequence

from naive import entry_sites, per_step_module_sequence, tampered
from randfix import lower_star_fixture, make_fixture


def _systems():
    for index in range(8):
        yield make_fixture(index)[1]
        yield lower_star_fixture(index)[1]


def _audit_every_step(system):
    n = system.n_steps
    for u in range(n):
        ordinary_sequence(system, u)
        for v in range(u, n):
            persistent_sequence(system, u, v)


def _count_builds(monkeypatch, name) -> list:
    built, real = [], getattr(sequences, name)

    def counted(*args, **kwargs):
        built.append(args[:2])
        return real(*args, **kwargs)

    monkeypatch.setattr(sequences, name, counted)
    return built


def test_a_second_audit_builds_no_position(monkeypatch):
    systems = list(_systems())
    for system in systems:
        _audit_every_step(system)
        module_sequence(system)
    positions = _count_builds(monkeypatch, "PositionAudit")
    terms = _count_builds(monkeypatch, "SequenceTerm")
    for system in systems:
        _audit_every_step(system)
    assert positions == [] and terms == []
    for system in systems:  # the module level builds only its summaries
        module_sequence(system)
        assert positions == terms == list(system._terms)
        positions.clear()
        terms.clear()


def test_module_sequence_reads_no_ordinary_sequence(monkeypatch, torus_system, genus2_system):
    systems = [torus_system, genus2_system, *_systems()]
    for index in (1, 3, 11, 12, 14):  # twins with an entry no group pair holds
        probe = make_fixture(index)[1]
        systems += [tampered(probe, *site) for site in entry_sites(probe, read=False)]
    monkeypatch.setattr(sequences, "ordinary_sequence",
                        lambda *args: pytest.fail("module_sequence read an ordinary sequence"))
    got = [module_sequence(system) for system in systems]
    monkeypatch.undo()
    for system, (seq, aud) in zip(systems, got):
        want_seq, want = per_step_module_sequence(system)
        assert seq.terms == want_seq.terms and aud == want


def test_no_zero_map_is_reduced_or_composed(monkeypatch):
    reduced, composed = [], []
    real_reduce, real_composite = sequences._reduce, sequences._composite

    def reduce(columns, p, cycles=True):
        reduced.append(any(columns))
        return real_reduce(columns, p, cycles)

    def composite(a, b, p):
        composed.append(bool(a.values.size and b.values.size))
        return real_composite(a, b, p)

    monkeypatch.setattr(sequences, "_reduce", reduce)
    monkeypatch.setattr(sequences, "_composite", composite)
    zero_maps = 0
    for system in _systems():
        _, aud = module_sequence(system)
        assert aud == per_step_module_sequence(system)[1]
        zero_maps += sum(not system.matrix(*gap).values.size for gap in system._gaps)
    assert zero_maps, "no zero map to skip"
    assert reduced and all(reduced)
    assert composed and all(composed)
