"""The program path reads a filtration only through its entry steps.

With `Filtration.steps` made to raise, every README command and criteria
4-7 on the first acceptance fixtures still give the benchmark's reference
outputs, and no `SimplicialComplex` is built while a filtration is made,
restricted or reduced (inside `filtration_from_morse`,
`sublevel_filtration`, `Filtration.restrict_to` or `compute_persistence`).
"""

import sys

from homaudit import morse, persistence
from homaudit.complexes import SimplicialComplex

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
    init = SimplicialComplex.__init__

    def counting_init(self, simplices):
        built.append(1)
        frame = sys._getframe(1)
        while frame is not None:
            if frame.f_code in GUARDED:
                built_inside.append(frame.f_code.co_name)
                break
            frame = frame.f_back
        init(self, simplices)

    monkeypatch.setattr(SimplicialComplex, "__init__", counting_init)
    monkeypatch.setattr(morse.Filtration, "steps", property(_no_steps))
    for name, argv, json_out in workloads.data_commands():
        outcome = workloads.run_cli(argv, tmp_path / "report.json" if json_out else None)
        assert workloads.cli_fingerprint(outcome) == reference["cli"][name], name
    for i in range(8):
        broken, record = workloads.verify_fixture(*workloads.fixture_inputs(randfix, i))
        assert broken == [] and workloads.digest(record) == reference["sweep"][i], i
    assert built, "the construction counter saw no complex at all"
    assert built_inside == []
