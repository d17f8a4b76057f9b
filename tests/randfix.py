"""Seeded random fixtures: small complexes, valid discrete Morse functions
built from random gradient build orders, random triads / pairs, and
lower-star values of random vertex orders on the same complexes."""

import functools
import random
from fractions import Fraction

from homaudit.complexes import SimplicialComplex, Simplex, close_under_faces
from homaudit.morse import MorseFunction, filtration_from_morse, sublevel_filtration
from homaudit.sequences import MayerVietorisSystem, PairSystem

FIXTURE_COUNT = 500
_PRIMES = (2, 3, 5)


def random_complex(rng: random.Random, max_simplices=25, n_vertices=7) -> SimplicialComplex:
    verts = list(range(n_vertices))
    gens = [Simplex((rng.randrange(n_vertices),))]
    K = close_under_faces(gens)
    for _ in range(12):
        size = rng.choice((2, 2, 3, 3, 4))
        cand = Simplex(sorted(rng.sample(verts, size)))
        bigger = close_under_faces(gens + [cand])
        if len(bigger) <= max_simplices:
            gens.append(cand)
            K = bigger
    return K


def random_morse(K: SimplicialComplex, rng: random.Random) -> MorseFunction:
    """A valid Morse function from a random reversed-collapse build order.

    Cells enter one at a time (critical) or as a matched face/coface pair
    sharing a value, so every regular cell has exactly one exceptional
    relation: its partner.
    """
    cells = list(K.simplices())
    present: set[Simplex] = set()
    values: dict[Simplex, Fraction] = {}
    clock = 0
    while len(present) < len(cells):
        addable = [s for s in cells if s not in present
                   and all(f in present for f in s.facets())]
        pairs = []
        for tau in cells:
            if tau in present:
                continue
            missing = [f for f in tau.facets() if f not in present]
            if len(missing) == 1:
                sigma = missing[0]
                if all(f in present for f in sigma.facets()):
                    pairs.append((sigma, tau))
        if pairs and (not addable or rng.random() < 0.7):
            sigma, tau = rng.choice(pairs)
            values[sigma] = values[tau] = Fraction(clock)
            present.update((sigma, tau))
        else:
            crit = rng.choice(addable)
            values[crit] = Fraction(clock)
            present.add(crit)
        clock += 1
    return MorseFunction(K, values)


def random_triad(K: SimplicialComplex, rng: random.Random):
    """Random closed cover X = A ∪ B: each maximal cell goes to A, B, or both."""
    a_gens, b_gens = [], []
    for s in K.maximal_simplices():
        side = rng.randrange(3)
        if side != 1:
            a_gens.append(s)
        if side != 0:
            b_gens.append(s)
    return close_under_faces(a_gens), close_under_faces(b_gens)


def random_subcomplex(K: SimplicialComplex, rng: random.Random) -> SimplicialComplex:
    gens = [s for s in K.maximal_simplices() if rng.random() < 0.5]
    sub = close_under_faces(gens)
    if rng.random() < 0.3:  # sometimes take the 1-skeleton instead
        sub = close_under_faces([s for s in sub.simplices() if s.dim <= 1])
    return sub


def make_fixture(index: int, p=None):
    """One deterministic fixture: (kind, system, morse function), over its
    own prime unless p is given."""
    rng = random.Random(10_000 + index)
    K = random_complex(rng, max_simplices=(14, 18, 21, 25)[index % 4])
    f = random_morse(K, rng)
    filt = filtration_from_morse(K, f)
    p = p or _PRIMES[index % len(_PRIMES)]
    if index % 2 == 0:
        A, B = random_triad(K, rng)
        return "triad", MayerVietorisSystem(K, A, B, filt, p), f
    return "pair", PairSystem(K, random_subcomplex(K, rng), filt, p), f


def lower_star(K: SimplicialComplex, rng: random.Random) -> MorseFunction:
    """Lower-star values of a random vertex order: each cell takes the latest
    position among its vertices. Such a function is Morse only by chance."""
    vertices = [s[0] for s in K.simplices(0)]
    position = dict(zip(vertices, rng.sample(range(len(vertices)), len(vertices))))
    return MorseFunction(K, {s: max(map(position.__getitem__, s)) for s in K.simplices()})


def lower_star_system(kind: str, K: SimplicialComplex, cover, f: MorseFunction, p: int):
    """A triad (cover A, B) or pair (cover A) over f, with a step at every value."""
    filt = sublevel_filtration(K, f, {v for _, v in f.items()})
    if kind == "triad":
        return MayerVietorisSystem(K, *cover, filt, p)
    return PairSystem(K, *cover, filt, p)


def lower_star_fixture(index: int, p=None):
    """Fixture `index`'s complex and cover over lower-star values of a seeded
    vertex order: (kind, system, lower-star function)."""
    kind, system, _ = make_fixture(index, p)
    f = lower_star(system.X, random.Random(20_000 + index))
    cover = (system.A, system.B) if kind == "triad" else (system.A,)
    return kind, lower_star_system(kind, system.X, cover, f, system.modulus), f


@functools.lru_cache(maxsize=1)
def fixture_batch(count: int = FIXTURE_COUNT):
    return [make_fixture(i) for i in range(count)]
