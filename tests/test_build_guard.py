"""Persistence and Morse builds do only the work the bars need.

Every persistence build (absolute, restricted and relative, on the torus
and genus-2 fixtures over F_2 and F_3) hands the column reduction it calls
(the F_2 kernel over F_2, the dict kernel otherwise) None for each cleared
cell, a low of the degree above, and a fresh column for every other cell,
a list of rows over F_2 and a dict otherwise, and its bars and cycle
columns still match the dense per-step path. A barcode, the Betti numbers
and the CLI's `barcode`, `betti` and `morse-check` track no V: no
reduction on their way, by either kernel, is asked for cycles, and a
result whose cycles are never read keeps no cycle table. With a
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


def _kernel(p):
    """The name of the kernel a build over F_p calls, and its column type."""
    return ("_reduce_f2", list) if p == 2 else ("_reduce", dict)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("name", ["torus", "genus2"])
def test_a_cleared_cell_gets_no_column(monkeypatch, request, name, p):
    kernel, column_type = _kernel(p)
    real_reduce, calls = getattr(persistence, kernel), []

    def spy(columns, *args, **kwargs):
        columns = list(columns)
        out = real_reduce(columns, *args, **kwargs)
        calls.append((columns, set(out[2])))  # the columns and their pivots' lows
        return out

    for build, A in _builds(request.getfixturevalue(name), p):
        monkeypatch.setattr(persistence, kernel, spy)
        calls.clear()
        R = build()
        monkeypatch.undo()
        assert len(calls) == R.max_degree + 2  # one reduction per degree, top down
        # a degree's cleared cells are the lows of the degree above, reduced just before
        cleared_by_degree = [set()] + [lows for _, lows in calls[:-1]]
        assert any(cleared_by_degree), "nothing was cleared"
        # a vertex has no rows
        assert all(c == column_type() for c in calls[-1][0] if c is not None)
        for (columns, _), cleared in zip(calls, cleared_by_degree):
            for j, column in enumerate(columns):
                if j in cleared:
                    assert column is None, j
                else:
                    assert type(column) is column_type, j
            fresh = [id(c) for c in columns if c is not None]
            assert len(set(fresh)) == len(fresh)  # the dict kernel reduces in place: none is shared
        assert_matches_oracle(R, A)
        _assert_cycle_columns_are_bases(
            R, DensePersistence(R.filtration, R.modulus, R.max_degree, A))


@pytest.mark.parametrize("p", [2, 3])
def test_the_kernel_without_cycles_gives_the_same_pivots(monkeypatch, torus, genus2, p):
    # every degree's columns of each build, reduced again with and without V
    kernel, column_type = _kernel(p)
    real_reduce, given = getattr(persistence, kernel), []
    modulus = () if p == 2 else (p,)  # the F_2 kernel takes no modulus

    def spy(columns, *args, **kwargs):
        given.append([None if c is None else column_type(c) for c in columns])
        return real_reduce(columns, *args, **kwargs)

    for build, _ in [*_builds(torus, p), *_builds(genus2, p)]:
        monkeypatch.setattr(persistence, kernel, spy)
        build()
        monkeypatch.undo()
    assert given
    for columns in given:
        def fresh():
            return [None if c is None else column_type(c) for c in columns]
        reduced, sources, pivot_of = real_reduce(fresh(), *modulus, True)
        assert real_reduce(fresh(), *modulus, False) == (reduced, None, pivot_of)
        assert len(sources) == len(columns)


def test_the_barcode_paths_track_no_v(monkeypatch, torus, genus2, data_dir, capsys):
    real_reduce, real_reduce_f2, asked = persistence._reduce, persistence._reduce_f2, []

    def spy(columns, p, cycles=True):
        asked.append(("_reduce", cycles))
        return real_reduce(columns, p, cycles)

    def spy_f2(columns, cycles=True):
        asked.append(("_reduce_f2", cycles))
        return real_reduce_f2(columns, cycles)

    monkeypatch.setattr(persistence, "_reduce", spy)
    monkeypatch.setattr(persistence, "_reduce_f2", spy_f2)
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
    assert {kernel for kernel, _ in asked} == {"_reduce", "_reduce_f2"}
    assert not any(cycles for _, cycles in asked)


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
