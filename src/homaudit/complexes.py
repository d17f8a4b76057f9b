"""Finite simplicial complexes, boundary operators, and set operations.

A complex fixes one deterministic total order on its simplices
(dimension-major, then lexicographic on vertex tuples), and its dense
boundary matrices, absolute and relative to a subcomplex, are written in
that order. Betti numbers come from the persistence column reduction of
the one-step filtration, so those matrices are built for callers only.

A complex holds one cell set, the keys of its facet table, and one
numbering, each cell's position in `simplices()`. A private integer index
of the (cell, facet) incidences in that numbering is built on first use by
one pass over `facet_table` and kept like it: the Morse passes and the
persistence build are array operations on it. A subcomplex taken from K
is a mask over those positions, closed by the one coface walk down the
index (`_least_over_cofaces`) and built from K's own cells (`_sub`).
"""

from __future__ import annotations

from bisect import bisect_right
from functools import partial
from itertools import accumulate, chain, combinations, compress
from operator import itemgetter, lt
from typing import Iterable

import numpy as np

from .linalg import check_modulus


class MalformedSimplexError(ValueError):
    """Vertex list is not strictly increasing non-negative integers."""


class NotSubcomplexError(ValueError):
    """An operation required a subcomplex relationship that does not hold."""


class Simplex(tuple):
    """A simplex as a strictly increasing tuple of non-negative vertex ids, checked
    in that order (a vertex, none negative, increasing) by C-level calls."""

    __slots__ = ()

    def __new__(cls, vertices: Iterable[int]):
        vs = tuple(map(int, vertices))
        if not vs:
            raise MalformedSimplexError("a simplex needs at least one vertex")
        if min(vs) < 0:
            raise MalformedSimplexError(f"negative vertex id in {vs}")
        if not all(map(lt, vs, vs[1:])):
            raise MalformedSimplexError(f"vertices must be strictly increasing, got {vs}")
        return tuple.__new__(cls, vs)

    @property
    def dim(self) -> int:
        return len(self) - 1

    def facets(self) -> list["Simplex"]:
        """Codimension-1 faces, in vertex-deletion order."""
        if self.dim == 0:
            return []
        # a face of a valid simplex is valid, so it skips the validation in __new__
        return [tuple.__new__(Simplex, self[:i] + self[i + 1:]) for i in range(len(self))]

    def faces(self) -> list["Simplex"]:
        """All proper faces, every dimension."""
        out = []
        for k in range(1, len(self)):
            out.extend(tuple.__new__(Simplex, c) for c in combinations(self, k))
        return out


def _blocks(cells: list) -> list[list]:
    """Cells sorted by length, cut into one block per dimension."""
    lengths = list(map(len, cells))
    ends = [bisect_right(lengths, k) for k in range(1, (lengths[-1] if cells else 0) + 1)]
    return [cells[a:b] for a, b in zip([0] + ends, ends)]


_face = partial(tuple.__new__, Simplex)  # a face of a valid simplex is valid


def _face_closure(cells: Iterable[Simplex]) -> dict:
    """The facet table of the smallest complex containing the cells, one
    object per cell. Walking down one dimension at a time, each cell's facets
    are enumerated once, column by column (column i deletes vertex i), and a
    facet not seen yet is built then."""
    levels = [dict(zip(block, block)) for block in _blocks(sorted(set(cells), key=len))]
    facets = {}
    for k in range(len(levels) - 1, 0, -1):
        above, below = list(levels[k]), levels[k - 1]
        vertex = [list(map(itemgetter(j), above)) for j in range(k + 1)]
        columns = [list(zip(*vertex[:i], *vertex[i + 1:])) for i in range(k + 1)]
        new = list(map(_face, set().union(*columns).difference(below)))
        below.update(zip(new, new))
        facets.update(zip(above, zip(*(map(below.__getitem__, c) for c in columns))))
    facets.update(dict.fromkeys(levels[0] if levels else (), ()))
    return facets


class SimplicialComplex:
    """An immutable finite simplicial complex, closed under the face relation.
    `facet_table` (read-only): each cell's facets in vertex-deletion order, as its own simplices."""

    __slots__ = ("_by_dim", "_cells", "_index", "facet_table", "_incidences")

    def __init__(self, simplices: Iterable[Simplex]):
        pool = {s if isinstance(s, Simplex) else Simplex(s) for s in simplices}
        facets = _face_closure(pool)
        if len(facets) > len(pool):  # closing added a face
            s, f = next((s, f) for s in pool for f in s.facets() if f not in pool)
            raise ValueError(f"not closed under faces: {s} present but {f} missing")
        self._order(facets)

    @classmethod
    def _of(cls, facets: dict) -> "SimplicialComplex":
        """The complex whose facet table is `facets`, trusted to be closed."""
        K = object.__new__(cls)
        K._order(facets)
        return K

    def _order(self, facets: dict) -> None:
        """Order and index the cells of a facet table (its keys)."""
        cells = sorted(sorted(facets), key=len)  # stable: lexicographic within a dimension
        index = dict(zip(cells, range(len(cells))))  # each cell's position in simplices()
        for name, value in zip(self.__slots__,
                               (tuple(map(tuple, _blocks(cells))), tuple(cells), index, facets, None)):
            object.__setattr__(self, name, value)

    def _facet_index(self) -> tuple[np.ndarray, np.ndarray, tuple]:
        """The integer index of the (cell, facet) incidences: (cells, facets,
        levels), each incidence's cell and facet as positions in `simplices()`,
        cell by cell in that order and each cell's facets in vertex-deletion
        order, and per dimension k >= 1 the views of both on the k-cells'
        incidences. Built on first use by one pass over the facet table, then
        kept like it."""
        if self._incidences is None:
            sizes = list(map(len, self._by_dim)) or [0]
            per = [n * (k + 1) for k, n in enumerate(sizes)]
            facets = np.fromiter(map(self._index.__getitem__, chain.from_iterable(
                map(self.facet_table.__getitem__, self._cells[sizes[0]:]))),
                dtype=np.intp, count=sum(per[1:]))
            cells = np.repeat(np.arange(sizes[0], len(self._cells)),
                              np.repeat(np.arange(2, len(sizes) + 1), sizes[1:]))
            bounds = [0, *accumulate(per[1:])]
            levels = tuple((cells[a:b], facets[a:b]) for a, b in zip(bounds, bounds[1:]))
            object.__setattr__(self, "_incidences", (cells, facets, levels))
        return self._incidences

    def _mask(self, sub: "SimplicialComplex") -> np.ndarray | None:
        """The cells of `sub` as a mask over this complex's positions, by one
        lookup per cell; None when `sub` is not a subcomplex."""
        mask = np.zeros(len(self), dtype=bool)
        try:
            mask[list(map(self._index.__getitem__, sub.simplices()))] = True
        except KeyError:
            return None
        return mask

    def _sub(self, mask: np.ndarray) -> "SimplicialComplex":
        """The subcomplex on a face-closed mask over this complex's positions,
        made of its own cells and facet table entries."""
        cells = list(compress(self._cells, mask.tolist()))
        return SimplicialComplex._of(dict(zip(cells, map(self.facet_table.__getitem__, cells))))

    def closure(self, generators: Iterable[Simplex]) -> "SimplicialComplex":
        """Smallest subcomplex containing the generators, marked and closed by
        the coface walk; NotSubcomplexError at the first one not a cell here."""
        generators = list(generators)
        at = list(map(self._index.get, generators))
        if None in at:
            g = tuple(generators[at.index(None)])
            raise NotSubcomplexError(f"{g} is not a cell of the complex")
        outside = np.ones(len(self), dtype=np.intp)
        outside[at] = 0
        return self._sub(_least_over_cofaces(self, outside) == 0)

    def __setattr__(self, name, value):
        raise AttributeError("SimplicialComplex is immutable")

    @property
    def dim(self) -> int:
        return len(self._by_dim) - 1

    def simplices(self, k: int | None = None) -> tuple[Simplex, ...]:
        if k is None:
            return self._cells
        if k < 0 or k > self.dim:
            return ()
        return self._by_dim[k]

    def n_cells(self, k: int) -> int:
        return len(self.simplices(k))

    def maximal_simplices(self) -> tuple[Simplex, ...]:
        cofaced = {f for facets in self.facet_table.values() for f in facets}
        return tuple(s for s in self._cells if s not in cofaced)

    def __contains__(self, s) -> bool:
        return s in self.facet_table

    def __len__(self) -> int:
        return len(self.facet_table)

    def __iter__(self):
        return iter(self.simplices())

    def __eq__(self, other):  # a system compares its filtration's complex, often X itself
        return other is self or isinstance(other, SimplicialComplex) and \
            self.facet_table.keys() == other.facet_table.keys()

    def __hash__(self):
        return hash(frozenset(self.facet_table))

    def __repr__(self):
        counts = ",".join(str(self.n_cells(k)) for k in range(self.dim + 1))
        return f"SimplicialComplex(dim {self.dim}; cells {counts or '-'})"


EMPTY_COMPLEX = SimplicialComplex(())


def _least_over_cofaces(K: SimplicialComplex, x: np.ndarray) -> np.ndarray:
    """x, one integer per cell of K in its order, lowered in place to each
    cell's least over itself and its cofaces: the index walked down from
    the top dimension, each dimension's cells lowering their facets."""
    for cells, facets in reversed(K._facet_index()[2]):
        np.minimum.at(x, facets, x[cells])
    return x


def close_under_faces(generators: Iterable) -> SimplicialComplex:
    """Smallest complex containing the generators."""
    return SimplicialComplex._of(_face_closure(
        g if isinstance(g, Simplex) else Simplex(g) for g in generators))


def boundary_matrix(K: SimplicialComplex, k: int, p: int) -> np.ndarray:
    """Matrix of the boundary operator from k-chains to (k-1)-chains: the
    relative boundary of K modulo the empty complex.

    Degree 0 maps to the zero space, so the k=0 matrix has no rows.
    """
    return relative_boundary_matrix(K, EMPTY_COMPLEX, k, p)


def betti_numbers(K: SimplicialComplex, p: int) -> list[int]:
    """b_k for k = 0 .. dim K, read off the column reduction of the one-step
    filtration of K (imported here: morse and persistence import this module)."""
    from .morse import Filtration
    from .persistence import compute_persistence
    result = compute_persistence(Filtration([0], [K]), p)
    return [result.dim(k, 0) for k in range(K.dim + 1)]


def intersect(A: SimplicialComplex, B: SimplicialComplex) -> SimplicialComplex:
    """Set intersection of simplices, face-closed as both are: A's facet
    table restricted to the cells of B."""
    return SimplicialComplex._of({s: f for s, f in A.facet_table.items() if s in B.facet_table})


def is_subcomplex(A: SimplicialComplex, K: SimplicialComplex) -> bool:
    return A.facet_table.keys() <= K.facet_table.keys()


def relative_basis(X: SimplicialComplex, A: SimplicialComplex, k: int) -> tuple[Simplex, ...]:
    """The quotient chain basis in degree k: k-simplices of X not in A."""
    return tuple(s for s in X.simplices(k) if s not in A)


def relative_boundary_matrix(X: SimplicialComplex, A: SimplicialComplex,
                             k: int, p: int) -> np.ndarray:
    """Boundary of the quotient complex C(X)/C(A) on the relative basis.

    Coordinates of faces lying in A are deleted.
    """
    p = check_modulus(p)
    if k < 0:
        raise ValueError("degree must be non-negative")
    if not is_subcomplex(A, X):
        raise NotSubcomplexError("A is not a subcomplex of X")
    cols = relative_basis(X, A, k)
    rows = relative_basis(X, A, k - 1) if k > 0 else ()
    d = np.zeros((len(rows), len(cols)), dtype=np.int64)
    if rows:  # facet i of s, read off X's facet table, has the sign (-1)^i
        row_pos = {s: i for i, s in enumerate(rows)}
        for j, s in enumerate(cols):
            for i, f in enumerate(X.facet_table[s]):
                r = row_pos.get(f)
                if r is not None:
                    d[r, j] = (-1) ** i % p
    return d
