"""Persistence and Morse builds do only the work the bars need.

Every persistence build (absolute, restricted and relative, on the torus
and genus-2 fixtures over F_2 and F_3) hands the column reduction None for
each cleared cell, a low of the degree above, and a fresh dict for every
other cell, and its bars and cycle columns still match the dense per-step
path. With a counting mapping swapped in for a function's value table,
`filtration_from_morse`, `validate_morse` and `critical_cells` read none of
it (they read f's values in K's order), while `f(s)`, `items()`,
`max_value` and `restrict` still give the same values.
"""

from collections.abc import Mapping

import pytest

from homaudit import persistence
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

    def spy(columns, p):
        columns = list(columns)
        out = real_reduce(columns, p)
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
