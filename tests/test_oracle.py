"""The bar-selection path against the dense per-step path it replaced, on
basis-free invariants: dims, ranks of induced maps, bars and every audit
row. Inputs: the acceptance batch at its own primes, its first 64 fixtures
rebuilt over F_2, F_3, F_5 and F_7 (at its own prime a fixture is the
batch's), grid tori from the benchmark's generator and both shipped
fixtures."""

import importlib.util
import sys
from pathlib import Path

import pytest

from homaudit.complexes import SimplicialComplex, Simplex
from homaudit.morse import MorseFunction, filtration_from_morse, sublevel_filtration
from homaudit.persistence import compute_persistence
from homaudit.sequences import MayerVietorisSystem, PairSystem

from naive import assert_matches_oracle
from randfix import FIXTURE_COUNT, fixture_batch, make_fixture

PRIMES = (2, 3, 5, 7)
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_gridgen():
    """perfbench/gridgen.py, imported read-only by path."""
    spec = importlib.util.spec_from_file_location("perfbench_gridgen", PERFBENCH / "gridgen.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_acceptance_batch_matches_oracle():
    for _, system, _ in fixture_batch(FIXTURE_COUNT):
        assert_matches_oracle(system)


@pytest.mark.parametrize("p", PRIMES)
def test_rebuilt_fixtures_match_oracle(p):
    batch = fixture_batch(FIXTURE_COUNT)
    for index in range(64):
        if batch[index][1].modulus != p:  # at its own prime it is the batch's fixture
            assert_matches_oracle(make_fixture(index, p)[1])


@pytest.mark.parametrize("p", PRIMES)
def test_grid_tori_match_oracle(p):
    gridgen = _load_gridgen()
    for n in range(4, 11):
        grid = gridgen.grid_torus(n, 1000 + n)
        K = SimplicialComplex(Simplex(s) for s in grid.values)
        f = MorseFunction(K, {Simplex(s): v for s, v in grid.values.items()})
        filt = filtration_from_morse(K, f, gridgen.thresholds(grid))
        assert_matches_oracle(compute_persistence(filt, p))


@pytest.mark.parametrize("p", PRIMES)
def test_shipped_fixtures_match_oracle(torus, genus2, p):
    filt = filtration_from_morse(torus.complex, torus.function, torus.thresholds)
    assert_matches_oracle(MayerVietorisSystem(torus.complex, torus.A, torus.B, filt, p))
    filt = sublevel_filtration(genus2.complex, genus2.function, genus2.thresholds)
    assert_matches_oracle(PairSystem(genus2.complex, genus2.A, filt, p))
