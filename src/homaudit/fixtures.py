"""Shipped demonstration complexes.

`torus_triad` is a 3x3 grid triangulation of the torus carrying a perfect
discrete Morse function, covered by two annular bands A (two columns wide)
and B (one column); A ∩ B is two disjoint vertical circles. One band
triangle enters late (value 90) and the single critical triangle enters
last (value 100), so between the sublevels labelled 95 and 100 a cycle
class dies in B while surviving in A ∩ B.

`genus2_pair` glues two copies of that torus, each minus one triangle,
along the boundary circle of the removed triangle. The circle separates
the surface. One triangle on each side is postponed past the designated
levels, so the circle class is alive in the level-u surface but
null-homologous at level v.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .complexes import SimplicialComplex, Simplex, close_under_faces
from .morse import MorseFunction


def _v(i: int, j: int) -> int:
    return 3 * (i % 3) + (j % 3)


def _h(i, j):  # horizontal edge of the grid
    return Simplex(sorted((_v(i, j), _v(i, j + 1))))


def _w(i, j):  # vertical edge
    return Simplex(sorted((_v(i, j), _v(i + 1, j))))


def _d(i, j):  # diagonal edge
    return Simplex(sorted((_v(i, j), _v(i + 1, j + 1))))


def _ta(i, j):  # upper triangle of square (i, j)
    return Simplex(sorted((_v(i, j), _v(i, j + 1), _v(i + 1, j + 1))))


def _tb(i, j):  # lower triangle of square (i, j)
    return Simplex(sorted((_v(i, j), _v(i + 1, j), _v(i + 1, j + 1))))


def _torus_values() -> dict[Simplex, int]:
    """Perfect discrete Morse function on the grid torus.

    Cells enter one critical cell or one gradient pair at a time; a pair
    shares its value, so the pairing is exactly the set of equal-value
    face/coface couples. Criticals: the base vertex (0), the two
    circle-completing edges (6 and 8), and the last triangle (100).
    """
    values: dict[Simplex, int] = {Simplex((_v(0, 0),)): 0}
    vertex_pairs = [
        (_v(0, 1), _h(0, 0), 1), (_v(0, 2), _h(0, 1), 2),
        (_v(1, 0), _w(0, 0), 3), (_v(2, 0), _w(1, 0), 4),
        (_v(1, 1), _h(1, 0), 5),
        (_v(1, 2), _h(1, 1), 9), (_v(2, 1), _h(2, 0), 10),
        (_v(2, 2), _h(2, 1), 11),
    ]
    for vid, edge, val in vertex_pairs:
        values[Simplex((vid,))] = val
        values[edge] = val
    values[_h(0, 2)] = 6   # completes the horizontal circle
    values[_w(2, 0)] = 8   # completes the vertical circle
    edge_pairs = [
        (_d(0, 0), _tb(0, 0), 12), (_d(1, 0), _tb(1, 0), 13), (_d(2, 0), _tb(2, 0), 14),
        (_w(0, 1), _ta(0, 0), 15), (_w(1, 1), _ta(1, 0), 16), (_w(2, 1), _ta(2, 0), 17),
        (_d(0, 1), _tb(0, 1), 18), (_d(1, 1), _tb(1, 1), 19), (_d(2, 1), _tb(2, 1), 20),
        (_w(0, 2), _ta(0, 1), 21), (_w(1, 2), _ta(1, 1), 22),
        (_d(0, 2), _ta(0, 2), 23), (_h(1, 2), _tb(0, 2), 24),
        (_d(1, 2), _ta(1, 2), 25), (_h(2, 2), _tb(1, 2), 26),
        (_d(2, 2), _ta(2, 2), 27),
        (_w(2, 2), _ta(2, 1), 90),
    ]
    for edge, tri, val in edge_pairs:
        values[edge] = val
        values[tri] = val
    values[_tb(2, 2)] = 100  # the critical triangle caps the torus
    return values


@dataclass(frozen=True)
class TorusFixture:
    complex: SimplicialComplex
    function: MorseFunction
    A: SimplicialComplex
    B: SimplicialComplex
    thresholds: tuple[Fraction, ...]
    u_label: Fraction
    v_label: Fraction


def torus_triad() -> TorusFixture:
    values = _torus_values()
    X = SimplicialComplex(values.keys())
    A = close_under_faces([t for i in range(3) for j in (0, 1)
                           for t in (_ta(i, j), _tb(i, j))])
    B = close_under_faces([t for i in range(3) for t in (_ta(i, 2), _tb(i, 2))])
    thresholds = tuple(Fraction(t) for t in (0, 6, 8, 79, 95, 100))
    return TorusFixture(X, MorseFunction(X, values), A, B, thresholds,
                        Fraction(95), Fraction(100))


@dataclass(frozen=True)
class Genus2Fixture:
    complex: SimplicialComplex
    function: MorseFunction
    A: SimplicialComplex
    thresholds: tuple[Fraction, ...]
    u_label: Fraction
    v_label: Fraction


# vertex ids of the gluing circle (the boundary of the removed triangle)
_SHARED = (0, 2, 8)
_RELABEL = {0: 0, 2: 2, 8: 8, 1: 9, 3: 10, 4: 11, 5: 12, 6: 13, 7: 14}


def genus2_pair() -> Genus2Fixture:
    base = _torus_values()
    removed = _tb(2, 2)           # its boundary becomes the separating circle
    postponed = _tb(1, 1)         # one interior triangle held back on each side

    values: dict[Simplex, Fraction] = {}
    for s, val in base.items():
        if s == removed:
            continue
        values[s] = Fraction(250 if s == postponed else val)
    for s, val in base.items():
        if s == removed:
            continue
        mirror = Simplex(sorted(_RELABEL[v] for v in s))
        if all(v in _SHARED for v in mirror):
            continue  # the gluing circle exists once, with its bottom value
        values[mirror] = Fraction(300 if s == postponed else val + 100)

    X = SimplicialComplex(values.keys())
    A = close_under_faces([(0, 2), (2, 8), (0, 8)])
    thresholds = tuple(Fraction(t) for t in (0, 90, 190, 250, 300))
    return Genus2Fixture(X, MorseFunction(X, values), A, thresholds,
                         Fraction(190), Fraction(250))


# ---------------------------------------------------------------------------
# text files for the CLI

def _value_str(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def complex_file_lines(f: MorseFunction, title: str) -> list[str]:
    lines = [f"# {title}", "# one simplex per line: v0 v1 ... vk : value"]
    for s, val in f.items():
        lines.append(" ".join(str(v) for v in s) + " : " + _value_str(val))
    return lines


def membership_file_lines(K: SimplicialComplex, title: str) -> list[str]:
    lines = [f"# {title}", "# maximal simplices; faces are added by closure"]
    lines.extend(" ".join(str(v) for v in s) for s in K.maximal_simplices())
    return lines


def _write_files(directory: str | Path, files: dict[str, tuple[str, list[str]]]
                 ) -> dict[str, Path]:
    """Write each (file name, lines) under `directory`; returns the paths by key."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    out = {}
    for key, (name, lines) in files.items():
        out[key] = directory / name
        out[key].write_text("\n".join(lines) + "\n", encoding="utf-8")
    return out


def write_torus_files(directory: str | Path) -> dict[str, Path]:
    fx = torus_triad()
    restricted_b = fx.function.restrict(fx.B)  # Morse on B, so no warning
    return _write_files(directory, {
        "complex": ("complex.txt",
                    complex_file_lines(fx.function, "torus with a perfect discrete Morse function")),
        "subspace_a": ("subspace_a.txt",
                       membership_file_lines(fx.A, "band A: two columns of the grid torus")),
        "subspace_b": ("subspace_b.txt",
                       membership_file_lines(fx.B, "band B: the remaining column")),
        "complex_b": ("complex_b.txt",
                      complex_file_lines(restricted_b, "band B with the restricted values")),
    })


def write_genus2_files(directory: str | Path) -> dict[str, Path]:
    fx = genus2_pair()
    return _write_files(directory, {
        "complex": ("complex.txt",
                    complex_file_lines(fx.function, "genus-2 surface from two glued tori")),
        "subspace_a": ("subspace_a.txt",
                       membership_file_lines(fx.A, "the separating circle")),
    })
