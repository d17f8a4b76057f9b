"""Persistence and Morse builds do only the work the bars need.

Every persistence build (absolute, restricted and relative, on the torus
and genus-2 fixtures over F_2 and F_3) hands the column reduction None for
each cleared cell, a low of the degree above, and a fresh dict for every
other cell, and its bars and cycle columns still match the dense per-step
path. A barcode, the Betti numbers and the CLI's `barcode`, `betti` and
`morse-check` track no V: no reduction on their way is asked for cycles,
and a result whose cycles are never read keeps no cycle table. With a
counting mapping swapped in for a function's value table,
`filtration_from_morse`, `validate_morse` and `critical_cells` read none of
it (they read f's values in K's order), while `f(s)`, `items()`,
`max_value` and `restrict` still give the same values.
"""

from collections.abc import Mapping

import pytest

from homaudit import cli, persistence
from homaudit.complexes import betti_numbers
from homaudit.morse import (MorseFunction, critical_cells, filtration_from_morse,
                            sublevel_filtration, validate_morse)
from homaudit.persistence import compute_persistence, relative_persistence

from naive import DensePersistence, assert_matches_oracle
from test_index import _assert_cycle_columns_are_bases


def _builds(fixture, p):
    """(result, A) for the absolute, restricted and relative builds of a fixture."""
    K = fixture.complex
    filt = sublevel_filtration(K, fixture.function, fixture.thresholds)
    subs = [fixture.A] + ([fixture.B] if hasattr(fixture, "B") else [])
    yield (lambda: compute_persistence(filt, p)), None
    for A in subs:
        yield (lambda A=A: compute_persistence(filt.restrict_to(A), p)), None
        yield (lambda A=A: relative_persistence(K, A, filt, p)), A


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("name", ["torus", "genus2"])
def test_a_cleared_cell_gets_no_column(monkeypatch, request, name, p):
    real_reduce, calls = persistence._reduce, []

    def spy(columns, p, cycles=True):
        columns = list(columns)
        out = real_reduce(columns, p, cycles)
        calls.append((columns, set(out[2])))  # the columns and their pivots' lows
        return out

    for build, A in _builds(request.getfixturevalue(name), p):
        monkeypatch.setattr(persistence, "_reduce", spy)
        calls.clear()
        R = build()
        monkeypatch.undo()
        assert len(calls) == R.max_degree + 2  # one reduction per degree, top down
        # a degree's cleared cells are the lows of the degree above, reduced just before
        cleared_by_degree = [set()] + [lows for _, lows in calls[:-1]]
        assert any(cleared_by_degree), "nothing was cleared"
        assert all(c == {} for c in calls[-1][0] if c is not None)  # a vertex has no rows
        for (columns, _), cleared in zip(calls, cleared_by_degree):
            for j, column in enumerate(columns):
                if j in cleared:
                    assert column is None, j
                else:
                    assert type(column) is dict, j
            fresh = [id(c) for c in columns if c is not None]
            assert len(set(fresh)) == len(fresh)  # reduced in place, so none is shared
        assert_matches_oracle(R, A)
        _assert_cycle_columns_are_bases(
            R, DensePersistence(R.filtration, R.modulus, R.max_degree, A))


@pytest.mark.parametrize("p", [2, 3])
def test_the_kernel_without_cycles_gives_the_same_pivots(monkeypatch, torus, genus2, p):
    # every degree's columns of each build, reduced again with and without V
    real_reduce, given = persistence._reduce, []

    def spy(columns, p, cycles=True):
        given.append([None if c is None else dict(c) for c in columns])
        return real_reduce(columns, p, cycles)

    for build, _ in [*_builds(torus, p), *_builds(genus2, p)]:
        monkeypatch.setattr(persistence, "_reduce", spy)
        build()
        monkeypatch.undo()
    assert given
    for columns in given:
        def fresh():
            return [None if c is None else dict(c) for c in columns]
        reduced, sources, pivot_of = real_reduce(fresh(), p, True)
        assert real_reduce(fresh(), p, False) == (reduced, None, pivot_of)
        assert len(sources) == len(columns)


def test_the_barcode_paths_track_no_v(monkeypatch, torus, genus2, data_dir, capsys):
    real_reduce, asked = persistence._reduce, []

    def spy(columns, p, cycles=True):
        asked.append(cycles)
        return real_reduce(columns, p, cycles)

    monkeypatch.setattr(persistence, "_reduce", spy)
    for fixture in (torus, genus2):
        K = fixture.complex
        R = compute_persistence(filtration_from_morse(K, fixture.function, fixture.thresholds), 2)
        for k in range(R.max_degree + 1):
            persistence.barcode(R, k)
        assert not {"_cycles", "_cycle_at", "_lists"} & vars(R).keys()
        betti_numbers(K, 3)
    for name in ("torus", "genus2"):
        path = str(data_dir / name / "complex.txt")
        for argv in (["barcode", path], ["betti", path], ["morse-check", path]):
            assert cli.main(argv) == 0
    capsys.readouterr()
    assert asked and not any(asked)


class _Counting(Mapping):
    """A read-only mapping that counts every access to its table."""

    def __init__(self, table):
        self.table, self.reads = table, 0

    def __getitem__(self, s):
        self.reads += 1
        return self.table[s]

    def __iter__(self):
        self.reads += 1
        return iter(self.table)

    def __len__(self):
        self.reads += 1
        return len(self.table)


@pytest.mark.parametrize("name", ["torus", "genus2"])
def test_the_morse_passes_read_no_value_table(request, name):
    fixture = request.getfixturevalue(name)
    K, g = fixture.complex, fixture.function
    f = MorseFunction(K, dict(g.items()))
    table = _Counting(f._values)
    object.__setattr__(f, "_values", table)
    assert validate_morse(K, f) == ()
    assert critical_cells(K, f) == critical_cells(K, g)
    for thresholds in (None, fixture.thresholds):
        got = filtration_from_morse(K, f, thresholds)
        want = filtration_from_morse(K, g, thresholds)
        assert got.thresholds == want.thresholds
        assert list(got.entry.items()) == list(want.entry.items())
    assert table.reads == 0
    values = table.table
    assert [f(s) for s in K] == [values[s] for s in K] == [g(s) for s in K]
    assert f.items() == list(values.items()) == g.items()
    assert f.max_value == max(values.values()) == g.max_value
    A = fixture.A
    assert f.restrict(A).items() == [(s, values[s]) for s in A] == g.restrict(A).items()
    assert table.reads
