"""Finite simplicial complexes, boundary operators, and set operations.

A complex fixes one deterministic total order on its simplices
(dimension-major, then lexicographic on vertex tuples), and its dense
boundary matrices, absolute and relative to a subcomplex, are written in
that order. Betti numbers come from the persistence column reduction of
the one-step filtration, so those matrices are built for callers only.

A complex is held as arrays: its sorted vertex ids (int64, or Python ints
once an id reaches 2**63) and per degree one sorted array of rows of
indices into them, a cell's position being its row's place in that order.
A row's key reads its digits as one number (`_keys`): a closure sorts keys
once per degree (`_closed`) and keeps where each facet fell, which is the
integer index of the (cell, facet) incidences, and the keys themselves (a
few simplices are closed on sets of tuples, `_closed_few`, and their facets
looked up when indexed); a lookup finds each row's key among the keys of
the cells of its degree with one `searchsorted` (`_lookup`), for a batch of
simplices one width at a time (`_find`) and for the cells of another
complex one degree at a time (`_place`). A subcomplex taken
from K is a mask over K's positions, closed by the one coface walk down the
index (`_least_over_cofaces`), and keeps that mask (`_sub`, `_mask`). The
cells as `Simplex` objects, their positions (`_index`) and the
`facet_table` are built on first read.
"""

from __future__ import annotations

from functools import partial
from itertools import accumulate, chain, combinations, compress
from operator import lt
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


_face = partial(tuple.__new__, Simplex)  # a face of a valid simplex is valid


def _ids(values: list) -> np.ndarray:
    """Vertex ids as an int64 array, or as an object array of ints once one reaches 2**63."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def _batch(cells: Iterable) -> tuple[np.ndarray, np.ndarray]:
    """(sizes, ids) of a batch of simplices: each one's number of vertices,
    and all their vertex ids, one simplex after another."""
    cells = list(cells)
    return np.fromiter(map(len, cells), np.intp, len(cells)), _ids([*chain.from_iterable(cells)])


def _keys(radix: int, rows: np.ndarray) -> np.ndarray:
    """Each row of digits below `radix` read as one number, so that keys sort
    as the rows do (int64, or Python ints where int64 would overflow)."""
    dtype = np.intp if radix ** rows.shape[1] < 2 ** 63 else object
    weights = np.array([radix ** j for j in range(rows.shape[1] - 1, -1, -1)], dtype=dtype)
    return rows.astype(dtype, copy=False) @ weights


def _unique(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(one, inverse): a place where each distinct key occurs, in key order,
    and each key's place among the distinct keys."""
    order = keys.argsort()
    ordered, new = keys[order], np.ones(len(keys), dtype=bool)
    new[1:] = ordered[1:] != ordered[:-1]
    inverse = np.empty(len(keys), dtype=np.intp)
    inverse[order] = new.cumsum() - 1
    return order[new], inverse


def _facet_rows(rows: np.ndarray) -> np.ndarray:
    """Each row's facets, row by row in vertex-deletion order (facet i deletes vertex i)."""
    width = rows.shape[1]
    return rows[:, [[j for j in range(width) if j != i] for i in range(width)]].reshape(-1, width - 1)


def _closed(sizes: np.ndarray, ids: np.ndarray) -> tuple["SimplicialComplex", np.ndarray]:
    """The smallest complex containing a batch of simplices (`_batch`), and
    each simplex's position in it: from the top degree down, a degree's rows
    are the distinct rows among its generators and the facets of the degree
    above, and where each of those falls among them is kept, the facets' for
    the facet index; the rows' keys are kept for lookups."""
    one, index = _unique(ids)
    starts, top = np.cumsum(sizes) - sizes, int(sizes.max()) if len(sizes) else 0
    arrays, facets, keys, below = [], [], [], np.zeros((0, top), dtype=np.intp)
    at = index[np.minimum(starts, len(index) - 1)] if len(index) else np.zeros_like(sizes)
    for width in range(top, 1, -1):
        generators = sizes == width
        rows = np.concatenate((below, index[starts[generators][:, None] + np.arange(width)]))
        row_keys = _keys(len(one) + 1, rows)  # in the base `_lookup` reads them in
        distinct, place = _unique(row_keys)
        facets.append(place[:len(below)])
        at[generators] = place[len(below):]
        arrays.append(rows[distinct])
        keys.append(row_keys[distinct])
        below = _facet_rows(arrays[-1])
    facets.append(below.ravel())  # a vertex's row is its position
    arrays.append(np.arange(len(one)).reshape(-1, 1))
    keys.append(arrays[-1].ravel())
    K = SimplicialComplex._of(ids[one], tuple(reversed(arrays)) if len(one) else ())
    K._built["keys"] = dict(enumerate(reversed(keys)))
    ends = np.array([0, *accumulate(map(len, K._arrays))])
    K._built["facets"] = [ends[k] + f for k, f in enumerate(facets[:0:-1])]  # per degree >= 1
    return K, at + ends[sizes - 1]


def _closed_few(cells: set) -> "SimplicialComplex":
    """The smallest complex containing a set of simplices: for a few, one
    degree at a time from the top on sets of tuples, then as arrays (under
    about 32 simplices the array passes' fixed cost is the larger); else `_closed`."""
    if len(cells) > 32:
        return _closed(*_batch(cells))[0]
    levels, below, rows = {}, set(), []
    for c in cells:
        levels.setdefault(len(c), set()).add(c)
    for width in range(max(levels, default=0), 0, -1):
        rows.append(sorted(levels.get(width, set()) | below))
        below = {c[:i] + c[i + 1:] for c in rows[-1] for i in range(width)} if width > 1 else ()
    verts = _ids([c[0] for c in rows[-1]] if rows else [])
    return SimplicialComplex._of(verts, tuple(np.searchsorted(verts, _ids([*chain.from_iterable(
        r)])).reshape(-1, k + 1) for k, r in enumerate(reversed(rows))))


class SimplicialComplex:
    """An immutable finite simplicial complex, closed under the face relation.
    `facet_table` (read-only): each cell's facets in vertex-deletion order, as its own simplices."""

    __slots__ = ("_verts", "_arrays", "_over", "_incidences", "_built")

    def __init__(self, simplices: Iterable[Simplex]):
        pool = {s if isinstance(s, Simplex) else Simplex(s) for s in simplices}
        closed = _closed_few(pool)
        if len(closed) > len(pool):  # closing added a face
            s, f = next((s, f) for s in pool for f in s.facets() if f not in pool)
            raise ValueError(f"not closed under faces: {s} present but {f} missing")
        self._hold(closed._verts, closed._arrays)._built.update(closed._built)

    @classmethod
    def _of(cls, verts: np.ndarray, arrays: tuple, over: tuple | None = None
            ) -> "SimplicialComplex":
        """The complex of sorted vertex ids and sorted rows per degree, trusted
        to be closed; `over` is (K, mask) for a subcomplex taken from K."""
        return object.__new__(cls)._hold(verts, arrays, over)

    def _hold(self, verts: np.ndarray, arrays: tuple, over: tuple | None = None
              ) -> "SimplicialComplex":
        for name, value in zip(self.__slots__, (verts, arrays, over, None, {})):
            object.__setattr__(self, name, value)
        return self

    def _facet_index(self) -> tuple[np.ndarray, np.ndarray, tuple]:
        """The integer index of the (cell, facet) incidences: (cells, facets,
        levels), each incidence's cell and facet as positions in `simplices()`,
        cell by cell in that order and each cell's facets in vertex-deletion
        order, and per dimension k >= 1 the views of both on the k-cells'
        incidences. Built on first use, then kept."""
        if self._incidences is None:
            sizes = list(map(len, self._arrays)) or [0]
            ends = [0, *accumulate(sizes)]
            facets = np.concatenate([np.zeros(0, dtype=np.intp)] + (  # kept by a closure
                self._built.get("facets") or [self._lookup(k, _facet_rows(rows))
                                              for k, rows in enumerate(self._arrays[1:])]))
            cells = np.repeat(np.arange(sizes[0], ends[-1]),
                              np.repeat(np.arange(2, len(sizes) + 1), sizes[1:]))
            bounds = [0, *accumulate(n * (k + 1) for k, n in enumerate(sizes) if k)]
            levels = tuple((cells[a:b], facets[a:b]) for a, b in zip(bounds, bounds[1:]))
            object.__setattr__(self, "_incidences", (cells, facets, levels))
        return self._incidences

    def _indices(self, ids: np.ndarray) -> np.ndarray:
        """Each vertex id as its index in `_verts`, len(_verts) for an id not here."""
        verts = self._verts
        if not len(verts):
            return np.zeros(len(ids), dtype=np.intp)
        if ids.dtype != verts.dtype:
            verts, ids = verts.astype(object), ids.astype(object)
        index = np.searchsorted(verts, ids)
        index[verts.take(index, mode="clip") != ids] = len(verts)
        return index

    def _lookup(self, k: int, rows: np.ndarray) -> np.ndarray:
        """Each row of vertex indices (`_indices`) as the position of the k-cell
        it is, -1 for a row that is none: its key, in base len(_verts) + 1,
        looked up among the k-cells' keys with one `searchsorted`."""
        if k >= len(self._arrays):
            return np.full(len(rows), -1, dtype=np.intp)
        radix, keys = len(self._verts) + 1, self._built.setdefault("keys", {})
        if k not in keys:  # the k-cells' keys, sorted as the cells are
            keys[k] = _keys(radix, self._arrays[k])
        mine, theirs = keys[k], _keys(radix, rows)
        at = np.searchsorted(mine, theirs)
        start = sum(map(len, self._arrays[:k]))
        return np.where(mine.take(at, mode="clip") == theirs, at + start, -1)

    def _find(self, sizes: np.ndarray, ids: np.ndarray) -> np.ndarray:
        """Each simplex of a batch (`_batch`) as its position here, -1 for one
        that is not a cell, looked up one width at a time."""
        index, widths = self._indices(ids), set(sizes.tolist())
        if len(widths) == 1:  # one width, as in a file of maximal simplices
            return self._lookup(widths.pop() - 1, index.reshape(len(sizes), -1))
        starts, at = np.cumsum(sizes) - sizes, np.full(len(sizes), -1, dtype=np.intp)
        for width in widths:
            chosen = sizes == width
            at[chosen] = self._lookup(width - 1, index[starts[chosen][:, None] + np.arange(width)])
        return at

    def _place(self, other: "SimplicialComplex") -> np.ndarray:
        """Each cell of another complex as its position here, -1 for one that is not a cell."""
        index = self._indices(other._verts)
        return np.concatenate([np.zeros(0, dtype=np.intp)] + [
            self._lookup(k, index[rows]) for k, rows in enumerate(other._arrays)])

    def _mask(self, sub: "SimplicialComplex") -> np.ndarray | None:
        """The cells of `sub` as a mask over this complex's positions (the mask
        a subcomplex taken from here keeps); None when `sub` is not a subcomplex."""
        if sub._over is not None and sub._over[0] is self:
            return sub._over[1]
        at = np.arange(len(self)) if sub is self else self._place(sub)
        mask = np.zeros(len(self), dtype=bool)
        mask[at] = True
        return None if (at < 0).any() else mask

    def _sub(self, mask: np.ndarray) -> "SimplicialComplex":
        """The subcomplex on a face-closed mask over this complex's positions,
        made of its rows; it keeps the mask."""
        ends = [0, *accumulate(map(len, self._arrays))]
        arrays = [rows[mask[a:b]] for rows, a, b in zip(self._arrays, ends, ends[1:])]
        while arrays and not len(arrays[-1]):
            arrays.pop()
        return SimplicialComplex._of(self._verts, tuple(arrays), (self, mask))

    def closure(self, generators: Iterable[Simplex]) -> "SimplicialComplex":
        """Smallest subcomplex containing the generators, marked and closed by
        the coface walk; NotSubcomplexError at the first one not a cell here."""
        return self._closure(*_batch(generators))

    def _closure(self, sizes: np.ndarray, ids: np.ndarray) -> "SimplicialComplex":
        """`closure` of a batch of simplices (`_batch`)."""
        at = self._find(sizes, ids)
        if (at < 0).any():
            cell = tuple(np.split(ids, np.cumsum(sizes))[np.argmin(at)].tolist())
            raise NotSubcomplexError(f"{cell} is not a cell of the complex")
        outside = np.ones(len(self), dtype=np.intp)
        outside[at] = 0
        return self._sub(_least_over_cofaces(self, outside) == 0)

    def __setattr__(self, name, value):
        raise AttributeError("SimplicialComplex is immutable")

    @property
    def _cells(self) -> tuple[Simplex, ...]:
        """Every cell as a `Simplex`, in order, built on first read (a
        subcomplex taken from K reads K's own objects)."""
        if "cells" not in self._built:
            parent, mask = self._over or (None, None)
            self._built["cells"] = tuple(map(_face, chain.from_iterable(
                self._verts[rows].tolist() for rows in self._arrays))) if parent is None \
                else tuple(compress(parent._cells, mask.tolist()))
        return self._built["cells"]

    @property
    def _index(self) -> dict[Simplex, int]:
        """Each cell's position in `simplices()`, built on first read."""
        if "index" not in self._built:
            self._built["index"] = dict(zip(self._cells, range(len(self))))
        return self._built["index"]

    @property
    def facet_table(self) -> dict[Simplex, tuple[Simplex, ...]]:
        if "table" not in self._built:
            cells, levels = self._cells, self._facet_index()[2]
            facets = [tuple(map(cells.__getitem__, row)) for k, (_, at) in enumerate(levels, 1)
                      for row in at.reshape(-1, k + 1).tolist()]
            self._built["table"] = dict(zip(cells, [()] * self.n_cells(0) + facets))
        return self._built["table"]

    @property
    def dim(self) -> int:
        return len(self._arrays) - 1

    def simplices(self, k: int | None = None) -> tuple[Simplex, ...]:
        if k is None:
            return self._cells
        start = sum(map(len, self._arrays[:k]))
        return self._cells[start:start + self.n_cells(k)] if 0 <= k <= self.dim else ()

    def n_cells(self, k: int) -> int:
        return len(self._arrays[k]) if 0 <= k <= self.dim else 0

    def maximal_simplices(self) -> tuple[Simplex, ...]:
        cofaced = np.zeros(len(self), dtype=bool)
        cofaced[self._facet_index()[1]] = True
        return tuple(compress(self._cells, (~cofaced).tolist()))

    def __contains__(self, s) -> bool:
        return s in self._index

    def __len__(self) -> int:
        return sum(map(len, self._arrays))

    def __iter__(self):
        return iter(self._cells)

    def __eq__(self, other):  # a system compares its filtration's complex, often X itself
        return other is self or isinstance(other, SimplicialComplex) and \
            len(self._arrays) == len(other._arrays) and all(
                np.array_equal(self._verts[a], other._verts[b])
                for a, b in zip(self._arrays, other._arrays))

    def __hash__(self):
        return hash(self._cells)

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
    return _closed_few({g if isinstance(g, Simplex) else Simplex(g) for g in generators})


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
    """Set intersection of simplices, face-closed as both are: A's cells
    that B holds, as a mask over A."""
    return A._sub(B._place(A) >= 0)


def is_subcomplex(A: SimplicialComplex, K: SimplicialComplex) -> bool:
    return K._mask(A) is not None


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
