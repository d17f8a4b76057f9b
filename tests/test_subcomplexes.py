"""Every subcomplex taken from K is a mask over K's cells closed by the one
coface walk: `K.closure`, `morse.sublevel` and the entry steps of
`Filtration(thresholds, steps)` against the paths they replaced in
`tests/naive.py` (the set walk, the closure from scratch and the dict build
after pairwise subcomplex checks), on the torus, genus 2, random complexes
up to dimension 3 and lower-star grid tori. The complexes are equal, cell
for cell in the order of `simplices()`, the entry arrays are equal, and a
generator outside K or steps that are not nested raise the same error with
the same message.
"""

import importlib.util
import random
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from homaudit.complexes import NotSubcomplexError, Simplex, SimplicialComplex, close_under_faces
from homaudit.morse import Filtration, sublevel

from naive import closed_sublevel, dict_entry_steps, set_walk_closure
from randfix import lower_star, random_complex, random_morse

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _grid_tori():
    """(K, lower-star f, generator lists: three bands of triangles) of grid
    tori from the benchmark's generator, imported read-only by path."""
    spec = importlib.util.spec_from_file_location("perfbench_gridgen", PERFBENCH / "gridgen.py")
    gridgen = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = gridgen  # its dataclasses look their module up
    spec.loader.exec_module(gridgen)
    out = []
    for n in (6, 8):
        grid = gridgen.grid_torus(n, 4242 + n)
        K = SimplicialComplex(Simplex(s) for s in grid.values)
        out.append((K, lower_star(K, random.Random(n)),
                    [grid.band(0, n // 2), grid.band(n // 2, n // 2), grid.band(1, 2)]))
    return out


def _cases(torus, genus2):
    """(K, f, generator lists) over the fixtures, random complexes up to
    dimension 3 with Morse and lower-star values, and the grid tori."""
    out = [(torus.complex, torus.function, [torus.A.simplices(), torus.B.maximal_simplices()]),
           (genus2.complex, genus2.function, [genus2.A.simplices(1)])]
    rng = random.Random(29)
    for i in range(60):
        K = random_complex(rng, max_simplices=(14, 25, 40)[i % 3], n_vertices=(5, 7)[i % 2])
        f = random_morse(K, rng) if i % 2 else lower_star(K, rng)
        out.append((K, f, [rng.sample(K.simplices(), rng.randrange(len(K) + 1))
                           for _ in range(3)]))
    out += _grid_tori()
    return out


def _assert_same_complex(got, want):
    assert got == want and got.simplices() == want.simplices()
    assert got.facet_table == want.facet_table


def _outcome(build):
    """build()'s complex, or the type and message of the error it raises."""
    try:
        return build()
    except ValueError as error:
        return type(error), str(error)


def test_closure_matches_the_set_walk(torus, genus2):
    rng, seen = random.Random(5), 0
    for K, _, generator_lists in _cases(torus, genus2):
        assert K.dim <= 3
        for generators in [[], K.simplices(), K.maximal_simplices(), *generator_lists]:
            got, want = K.closure(generators), set_walk_closure(K, generators)
            _assert_same_complex(got, want)
            assert all(s is K.simplices()[K._index[s]] for s in got.simplices())  # K's own cells
            # the first generator outside K is named, a plain tuple or not
            bad = list(generators)
            for outside in (Simplex((0, 99)), (98,)):
                bad.insert(rng.randrange(len(bad) + 1), outside)
            error = _outcome(lambda: K.closure(bad))
            assert error == _outcome(lambda: set_walk_closure(K, bad))
            assert error[0] is NotSubcomplexError, error
            seen += 1
    assert seen > 150


def test_sublevel_matches_closing_from_scratch(torus, genus2):
    for K, f, _ in _cases(torus, genus2):
        values = sorted({x for _, x in f.items()})
        levels = [values[0] - 1, *values, values[-1] + Fraction(1, 2)]
        levels += [(a + b) / Fraction(2) for a, b in zip(values, values[1:])]
        for u in levels:
            _assert_same_complex(sublevel(K, f, u), closed_sublevel(K, f, u))


def test_filtration_entry_steps_match_the_dict_build(torus, genus2):
    outside = close_under_faces([(99,)])
    for K, f, _ in _cases(torus, genus2):
        values = sorted({x for _, x in f.items()})
        steps = [closed_sublevel(K, f, u) for u in values]
        filt = Filtration(values, steps)
        assert np.array_equal(filt._steps, dict_entry_steps(steps))
        assert filt._steps.dtype == np.intp
        assert list(filt.steps) == steps and filt.complex == K
        bads = [[steps[-1], *steps[1:-1], steps[0]]] if len(steps) > 1 else []  # swapped
        if len(steps) > 2:  # a middle step holding a cell that is in no later step
            middle = len(steps) // 2
            grown = close_under_faces([*steps[middle].simplices(), *outside.simplices()])
            bads.append(steps[:middle] + [grown] + steps[middle + 1:])
        for bad in bads:
            error = _outcome(lambda: Filtration(values, bad))
            assert error == _outcome(lambda: dict_entry_steps(bad))
            assert error == (ValueError, "filtration steps are not nested")


@pytest.mark.parametrize("n_steps", [1, 2, 5])
def test_repeated_steps_enter_at_the_first(torus, n_steps):
    steps = [torus.A] * (n_steps - 1) + [torus.complex]
    filt = Filtration(range(n_steps), steps)
    assert np.array_equal(filt._steps, dict_entry_steps(steps))
    assert filt.entry == {s: 0 if s in torus.A or n_steps == 1 else n_steps - 1
                          for s in torus.complex.simplices()}
