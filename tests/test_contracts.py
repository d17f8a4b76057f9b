"""The library's input checks: each rejects its bad input with its own
error type and message, before any work. A subspace outside X is a
`NotSubcomplexError` and a filtration of another complex a plain
`ValueError`, for both systems and for relative persistence; a value for a
simplex outside K names that simplex; a sublevel filtration needs a
threshold; a filtration restricts only to a subcomplex, and so does a
function; a filtration's lists are equal-length and non-empty. A system
checks its subspaces, its cover and its filtration before it builds any
space. A persistence build refuses a negative top degree. The library's
values refuse assignment, and a system's queries reject an unknown map, a
step past the last, an unknown position and a (map, degree) that is not an
arrow of the sequence."""

import pytest

from homaudit.complexes import NotSubcomplexError, Simplex, close_under_faces
from homaudit.linalg import Subspace
from homaudit.morse import Filtration, MorseFunction, sublevel_filtration
from homaudit.persistence import PersistenceResult, compute_persistence, relative_persistence
from homaudit.sequences import (MayerVietorisSystem, NotCoveringError, PairSystem, audit,
                                module_sequence, ordinary_sequence)

OUTSIDE = close_under_faces([(0, 99)])  # vertex 99 is in neither fixture


def _raises(error, message, build):
    """build() raises exactly `error` with exactly `message`."""
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error and str(info.value) == message


def test_systems_and_relative_persistence_check_their_spaces(torus, genus2, monkeypatch):
    filt = sublevel_filtration(torus.complex, torus.function, torus.thresholds)
    X, A, B = torus.complex, torus.A, torus.B
    other = filt.restrict_to(A)  # a filtration of A, not of X
    builds = []  # every check runs before any space is built
    monkeypatch.setattr(PersistenceResult, "__init__", lambda *args: builds.append(args))
    for build in (lambda: MayerVietorisSystem(X, OUTSIDE, B, filt, 2),
                  lambda: MayerVietorisSystem(X, A, OUTSIDE, filt, 2),
                  lambda: PairSystem(X, OUTSIDE, filt, 2)):
        _raises(NotSubcomplexError, "subspaces must be subcomplexes of X", build)
    _raises(NotCoveringError, "A ∪ B does not cover X", lambda: MayerVietorisSystem(X, A, A, filt, 2))
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
    assert builds == []


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
    _raises(ValueError, "can only restrict to a subcomplex", lambda: f.restrict(OUTSIDE))
    for thresholds, steps in (([0, 1], [K]), ([], [])):
        _raises(ValueError, "thresholds and steps must be equal-length and non-empty",
                lambda: Filtration(thresholds, steps))


def test_values_refuse_assignment(torus):
    filt = sublevel_filtration(torus.complex, torus.function, torus.thresholds)
    for value in (torus.complex, torus.function, filt, Subspace(2, [[1, 0]], 2)):
        name = type(value).__name__
        _raises(AttributeError, f"{name} is immutable",
                lambda: setattr(value, value.__slots__[0], None))


@pytest.mark.parametrize("kind", ["triad", "pair"])
def test_system_queries_check_their_arguments(torus_system, genus2_system, kind):
    system = torus_system if kind == "triad" else genus2_system
    n = system.n_steps
    _raises(ValueError, "gamma", lambda: system.map_at("gamma", 1))
    _raises(IndexError, f"bad step pair ({n}, {n})", lambda: ordinary_sequence(system, n))
    seq, aud = module_sequence(system)
    _raises(ValueError, "a module sequence is audited step by step by module_sequence",
            lambda: audit(seq))
    _raises(KeyError, "'no position (A, degree 9)'", lambda: aud.position("A", 9))
    for gap, k in (("delta", 9), ("gamma", 1), ("alpha", -1)):
        message = f"the sequence has no map {gap} of degree {k}"
        _raises(ValueError, message, lambda: system.horizontal(gap, k, 0))
        _raises(ValueError, message, lambda: system.matrix(gap, k))
        assert (gap, k) not in system._matrices


def test_a_negative_max_degree_is_refused(torus):
    filt = sublevel_filtration(torus.complex, torus.function, torus.thresholds)
    for max_degree in (-1, -3):
        message = f"max_degree must be non-negative, got {max_degree}"
        _raises(ValueError, message, lambda: compute_persistence(filt, 2, max_degree=max_degree))
        _raises(ValueError, message,
                lambda: relative_persistence(torus.complex, torus.A, filt, 2, max_degree))
    R = compute_persistence(filt, 2, max_degree=None)  # None still means dim K
    assert R.max_degree == 2 and [R.dim(k, len(filt) - 1) for k in range(3)] == [1, 2, 1]
