"""The program path reads a filtration only through its entry steps, and a
result's per-step index only for a per-step query.

With `Filtration.steps` made to raise, every README command and criteria
4-7 on the first acceptance fixtures still give the benchmark's reference
outputs, and no `SimplicialComplex` is built while a filtration is made,
restricted or reduced (inside `filtration_from_morse`,
`sublevel_filtration`, `Filtration.restrict_to` or `compute_persistence`).
With the lazy per-step index (`PersistenceResult._alive`) counting its
builds, the README `barcode`, `mv-audit` and `pair-audit` commands and
every system audit and square check at every u <= v build none, and a
per-step query builds it once per result.
"""

import sys
from functools import cached_property

from homaudit import morse, persistence
from homaudit.complexes import SimplicialComplex
from homaudit.persistence import PersistenceResult, barcode
from homaudit.sequences import (audit, check_squares, module_sequence, ordinary_sequence,
                                persistent_sequence)

from randfix import lower_star_fixture, make_fixture
from test_audit_golden import _load_workloads

GUARDED = {morse.filtration_from_morse.__code__, morse.sublevel_filtration.__code__,
           morse.Filtration.restrict_to.__code__, persistence.compute_persistence.__code__}


def _no_steps(filtration):
    raise AssertionError("the program asked for a filtration's step complexes")


def test_program_path_builds_no_step_complex(monkeypatch, tmp_path):
    workloads = _load_workloads()
    reference = workloads.load_reference()
    randfix = workloads.load_randfix()
    built, built_inside = [], []
    order = SimplicialComplex._order  # every complex is ordered once, however it is built

    def counting_order(self, facets):
        built.append(1)
        frame = sys._getframe(1)
        while frame is not None:
            if frame.f_code in GUARDED:
                built_inside.append(frame.f_code.co_name)
                break
            frame = frame.f_back
        order(self, facets)

    monkeypatch.setattr(SimplicialComplex, "_order", counting_order)
    monkeypatch.setattr(morse.Filtration, "steps", property(_no_steps))
    for name, argv, json_out in workloads.data_commands():
        outcome = workloads.run_cli(argv, tmp_path / "report.json" if json_out else None)
        assert workloads.cli_fingerprint(outcome) == reference["cli"][name], name
    for i in range(8):
        broken, record = workloads.verify_fixture(*workloads.fixture_inputs(randfix, i))
        assert broken == [] and workloads.digest(record) == reference["sweep"][i], i
    assert built, "the construction counter saw no complex at all"
    assert built_inside == []


def _count_index_builds(monkeypatch) -> list:
    """Make the lazy per-step index record each result it is built for."""
    built, build = [], PersistenceResult.__dict__["_alive"].func

    def counted(result):
        built.append(result)
        return build(result)

    prop = cached_property(counted)
    prop.__set_name__(PersistenceResult, "_alive")
    monkeypatch.setattr(PersistenceResult, "_alive", prop)
    return built


def test_bar_table_commands_build_no_per_step_index(monkeypatch, tmp_path):
    workloads = _load_workloads()
    reference = workloads.load_reference()["cli"]
    built = _count_index_builds(monkeypatch)
    commands = [c for c in workloads.data_commands()
                if c[1][0] in ("barcode", "mv-audit", "pair-audit")]
    assert len(commands) == 13
    for name, argv, json_out in commands:
        outcome = workloads.run_cli(argv, tmp_path / "report.json" if json_out else None)
        assert workloads.cli_fingerprint(outcome) == reference[name], name
    assert built == []


def test_system_audits_build_no_per_step_index(monkeypatch):
    # every audit, and `audit` of every sequence returned, which reads its maps
    built = _count_index_builds(monkeypatch)
    for index in range(8):
        for system in (make_fixture(index)[1], lower_star_fixture(index)[1]):
            n = system.n_steps
            seq, _ = module_sequence(system)
            assert all(m.ndim == 2 for per_step in seq.maps for m in per_step)
            runs = [ordinary_sequence(system, u) for u in range(n)]
            runs += [persistent_sequence(system, u, v) for u in range(n) for v in range(u, n)]
            for seq, aud in runs:
                assert audit(seq).positions == aud.positions
            assert not any(check_squares(system, u, v) for u in range(n) for v in range(u, n))
            for R in system.spaces.values():
                for k in range(R.max_degree + 2):
                    barcode(R, k)
    assert built == []


def test_a_per_step_query_builds_the_index_once(monkeypatch):
    built = _count_index_builds(monkeypatch)
    R = make_fixture(0)[1].RX
    R.bars_alive(0)
    R.representatives(1)
    assert built == []
    R.dim(0, 0)
    for u in range(R.n_steps):
        R.class_of(0, u, R.representatives(0, u))
        R.induced_matrix(1, 0, u)
        R.persistent_group(1, 0, u)
    assert built == [R]
