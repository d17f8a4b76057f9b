"""The library's input checks: each rejects its bad input with its own
error type and message, before any work. A subspace outside X is a
`NotSubcomplexError` and a filtration of another complex a plain
`ValueError`, for both systems and for relative persistence; a value for a
simplex outside K names that simplex; a sublevel filtration needs a
threshold; a filtration restricts only to a subcomplex."""

import pytest

from homaudit.complexes import NotSubcomplexError, Simplex, close_under_faces
from homaudit.morse import MorseFunction, sublevel_filtration
from homaudit.persistence import relative_persistence
from homaudit.sequences import MayerVietorisSystem, PairSystem

OUTSIDE = close_under_faces([(0, 99)])  # vertex 99 is in neither fixture


def _raises(error, message, build):
    """build() raises exactly `error` with exactly `message`."""
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error and str(info.value) == message


def test_systems_and_relative_persistence_check_their_spaces(torus, genus2):
    filt = sublevel_filtration(torus.complex, torus.function, torus.thresholds)
    X, A, B = torus.complex, torus.A, torus.B
    other = filt.restrict_to(A)  # a filtration of A, not of X
    for build in (lambda: MayerVietorisSystem(X, OUTSIDE, B, filt, 2),
                  lambda: MayerVietorisSystem(X, A, OUTSIDE, filt, 2),
                  lambda: PairSystem(X, OUTSIDE, filt, 2)):
        _raises(NotSubcomplexError, "subspaces must be subcomplexes of X", build)
    for build in (lambda: MayerVietorisSystem(X, A, B, other, 2),
                  lambda: PairSystem(X, A, other, 2)):
        _raises(ValueError, "the filtration must filter X", build)
    _raises(NotSubcomplexError, "A is not a subcomplex of X",
            lambda: relative_persistence(X, OUTSIDE, filt, 2))
    _raises(ValueError, "filtration does not filter X",
            lambda: relative_persistence(X, A, other, 2))
    g2 = sublevel_filtration(genus2.complex, genus2.function, genus2.thresholds)
    _raises(NotSubcomplexError, "subspaces must be subcomplexes of X",
            lambda: PairSystem(genus2.complex, OUTSIDE, g2, 3))
    _raises(ValueError, "filtration does not filter X",
            lambda: relative_persistence(genus2.complex, genus2.A, filt, 3))


def test_a_value_outside_the_complex_is_named(torus):
    values = dict(torus.function.items())
    values[Simplex((0, 99))] = 7
    _raises(ValueError, "value given for a simplex outside the complex: (0, 99)",
            lambda: MorseFunction(torus.complex, values))


def test_filtration_checks(torus):
    K, f = torus.complex, torus.function
    for none in ((), [], set()):
        _raises(ValueError, "at least one threshold is required",
                lambda: sublevel_filtration(K, f, none))
    filt = sublevel_filtration(K, f, torus.thresholds)
    _raises(ValueError, "A is not a subcomplex of the filtered complex",
            lambda: filt.restrict_to(OUTSIDE))
    _raises(ValueError, "A is not a subcomplex of the filtered complex",
            lambda: filt.restrict_to(K).restrict_to(torus.A).restrict_to(torus.B))
