"""The module audit's step rows, read off one count table.

`module_sequence` keeps every step's counts as arrays: each position's
`steps` is a read-only sequence that builds a `StepAudit` only when one is
read, equal to the per-step path's tuple and hashing like it
(`per_step_module_sequence`). The consecutive squares are checked in one
pass, which raises what the per-step loop raises, at the same square. With
`--json`, the writer reads the same arrays and writes each distinct row once;
the report stays the bytes `json.dumps(indent=2, sort_keys=True)` gives for
the payload of one dict per step row (`dict_positions_payload`).
"""

import json
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from homaudit import cli, sequences
from homaudit.sequences import (MODULE, MayerVietorisSystem, PositionAudit, SequenceAudit,
                                StepAudit, _StepAudits, module_sequence)

import long_probe
from naive import dict_positions_payload, entry_sites, per_step_module_sequence, tampered
from randfix import lower_star_fixture, make_fixture


def _report_text(aud) -> str:
    return cli._dumps({"positions": cli._audit_positions_payload(aud)})


def _old_report_text(aud) -> str:
    return json.dumps({"positions": dict_positions_payload(aud)}, indent=2, sort_keys=True)


def _assert_same_audit(aud, want):
    assert aud == want and want == aud and not aud != want
    assert hash(aud) == hash(want)
    for pos, old in zip(aud.positions, want.positions, strict=True):
        assert isinstance(old.steps, tuple) and not isinstance(pos.steps, tuple)
        assert pos.steps == old.steps and old.steps == pos.steps
        assert hash(pos.steps) == hash(old.steps)
        assert repr(tuple(pos.steps)) == repr(old.steps)  # bools as bools, ints as ints
        assert [pos.steps[u] for u in range(-len(old.steps), len(old.steps))] == \
            list(old.steps + old.steps)
        assert pos.steps[1:4] == old.steps[1:4] and pos.steps[::-2] == old.steps[::-2]


def _torus_triad(tmp_path: Path, n: int):
    """The lower-star n x n grid torus triad of `tests/long_probe.py`: its
    files, and its system as `mv-audit` builds it."""
    paths = long_probe.write_triad(long_probe._gridgen(), n, tmp_path)
    K, f = cli.load_complex(paths[0])
    A, B = (cli.load_membership(path, K) for path in paths[1:])
    return paths, MayerVietorisSystem(K, A, B, cli._build_filtration(K, f, None, []), 2)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_the_module_audit_equals_the_per_step_path_on_the_fixtures(p):
    for index in range(64):
        system = make_fixture(index, p)[1]
        seq, aud = module_sequence(system)
        want_seq, want = per_step_module_sequence(system)
        assert seq.terms == want_seq.terms, index
        _assert_same_audit(aud, want)
        assert _report_text(aud) == _old_report_text(want), index


@pytest.mark.parametrize("n", [8, 10])
def test_the_module_audit_and_report_of_a_lower_star_torus(tmp_path, capsys, n):
    """The audit against the per-step path, and the `--json` report against
    the one written from the per-step path's rows, one dict per step row."""
    paths, system = _torus_triad(tmp_path, n)
    assert system.n_steps == n * n
    _, aud = module_sequence(system)
    _, want = per_step_module_sequence(system)
    _assert_same_audit(aud, want)
    report = tmp_path / "report.json"
    argv = ["mv-audit", str(paths[0]), "--subspace-a", str(paths[1]), "--subspace-b",
            str(paths[2]), "--level", "module", "--json", str(report)]
    assert cli.main(argv) == 0
    capsys.readouterr()
    old = json.loads(report.read_bytes())
    old["positions"] = dict_positions_payload(want)
    assert report.read_bytes() == (json.dumps(old, indent=2, sort_keys=True) + "\n").encode()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 63), st.sampled_from([2, 3, 5, 7]), st.booleans())
def test_the_report_rows_of_drawn_fixtures(index, p, lower):
    system = (lower_star_fixture if lower else make_fixture)(index, p)[1]
    _, want = per_step_module_sequence(system)
    assert _report_text(module_sequence(system)[1]) == _old_report_text(want)


def _audit(*positions) -> SequenceAudit:
    """A module audit whose positions have the given step rows: (dim, image
    in, kernel out, order 2, exact, defect), consistent or not."""
    out = []
    for j, rows in enumerate(positions):
        columns = [np.array(c, dtype=bool if i in (3, 4) else np.int64)
                   for i, c in enumerate(zip(*rows))]
        out.append(PositionAudit("X", j, 0, 0, 0, True, True, 0, _StepAudits(*columns)))
    return SequenceAudit(MODULE, "pair", tuple(out), True, True)


_ROWS = st.lists(st.tuples(st.integers(0, 2), st.integers(0, 1), st.integers(0, 1),
                           st.booleans(), st.booleans(), st.integers(-1, 1)), min_size=1,
                 max_size=8)


@settings(max_examples=200, deadline=None)
@given(st.lists(_ROWS, min_size=1, max_size=3))
@example([[(1, 0, 1, True, True, 0), (1, 0, 1, True, True, 5)],  # only defect differs
          [(1, 0, 1, True, True, 7)]])  # again, across positions
@example([[(1, 0, 1, True, True, 0), (1, 0, 1, True, False, 0)],  # only exact
          [(1, 0, 1, False, True, 0)]])  # only order 2, across positions
@example([[(2, 1, 1, False, False, 0)], [(2, 1, 1, False, False, -1)]])
def test_rows_that_differ_in_one_field_are_written_apart(positions):
    aud = _audit(*positions)
    for pos, rows in zip(aud.positions, positions):
        assert pos.steps == tuple(StepAudit(u, *row) for u, row in enumerate(rows))
    assert _report_text(aud) == _old_report_text(aud)


def test_step_audits_are_a_read_only_sequence_built_when_read(monkeypatch):
    built = []
    monkeypatch.setattr(sequences, "StepAudit", lambda *row: built.append(row) or
                        StepAudit(*row))
    _, aud = module_sequence(make_fixture(4)[1])
    assert built == []
    steps = aud.positions[2].steps
    assert len(steps) == make_fixture(4)[1].n_steps and built == []
    assert steps[-1] == StepAudit(len(steps) - 1, *(c[-1] for c in steps._columns()))
    assert len(built) == 1
    assert list(steps) == [steps[u] for u in range(len(steps))] and len(built) == 1 + 2 * len(steps)
    assert steps != list(steps) and steps == tuple(steps) and steps[:] == tuple(steps)
    with pytest.raises(IndexError):
        steps[len(steps)]
    with pytest.raises(TypeError):
        steps[0] = steps[0]


@pytest.mark.parametrize("command", ["mv-audit", "pair-audit"])
def test_a_module_audit_builds_no_step_audit(monkeypatch, data_dir, tmp_path, capsys, command):
    built = []
    monkeypatch.setattr(sequences, "StepAudit", lambda *row: built.append(row) or
                        StepAudit(*row))
    space = data_dir / ("torus" if command == "mv-audit" else "genus2")
    argv = [command, str(space / "complex.txt"), "--subspace-a", str(space / "subspace_a.txt")]
    argv += ["--subspace-b", str(space / "subspace_b.txt")] if command == "mv-audit" else []
    assert cli.main(argv + ["--level", "module"]) == 0
    assert built == []
    # the report reads the arrays too
    assert cli.main(argv + ["--level", "module", "--json", str(tmp_path / "r.json")]) == 0
    assert built == []
    capsys.readouterr()


def _raised(audit, system) -> str:
    with pytest.raises(ValueError) as raised:
        audit(system)
    return str(raised.value)


def test_the_squares_pass_raises_at_the_first_square_the_loop_does():
    """Twins with one or two entries that fail a structural check, in one
    map or in two: `module_sequence` raises what the per-step loop over
    `check_squares` raises, at the same square."""
    rng, seen = random.Random(5), 0
    for index in range(16):
        for fixture in (make_fixture, lower_star_fixture):
            probe = fixture(index)[1]
            sites = list(entry_sites(probe, read=True))
            pairs = [(a, b) for a in sites for b in sites if a[0] != b[0]]
            for group in [[site] for site in sites[:4]] + rng.sample(pairs, min(len(pairs), 6)):
                twin = probe
                for site in group:
                    twin = tampered(twin, *site)
                assert _raised(module_sequence, twin) == \
                    _raised(per_step_module_sequence, twin), (index, group)
                seen += len(group)
    assert seen
