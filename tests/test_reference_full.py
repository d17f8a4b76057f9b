"""Every output the benchmark's reference file records: the audit rows and
bars of all acceptance fixtures, and the exit code, stdout and normalised
JSON report of every README command, against `perfbench/reference.json`,
read only."""

from test_audit_golden import _load_workloads


def test_every_sweep_fixture_matches_its_reference_digest():
    workloads = _load_workloads()
    reference = workloads.load_reference()["sweep"]
    randfix = workloads.load_randfix()
    assert len(reference) == 500
    mismatches = []
    for i, want in enumerate(reference):
        broken, record = workloads.verify_fixture(*workloads.fixture_inputs(randfix, i))
        if broken or workloads.digest(record) != want:
            mismatches.append((i, broken))
    assert mismatches == []


def test_every_cli_command_matches_its_reference_fingerprint(tmp_path):
    workloads = _load_workloads()
    reference = workloads.load_reference()["cli"]
    commands = workloads.data_commands()
    assert sorted(name for name, _, _ in commands) == sorted(reference)
    for name, argv, json_out in commands:
        outcome = workloads.run_cli(argv, tmp_path / "report.json" if json_out else None)
        assert workloads.cli_fingerprint(outcome) == reference[name], name
