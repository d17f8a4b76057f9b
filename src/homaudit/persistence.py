"""Persistent homology of a filtration, from one column reduction per space.

The cells of a space are ordered by the step at which they enter, then by
dimension, then by simplex, with one stable sort of the entry steps over the
complex's own order. The boundary matrix in that order, built with one
lookup per facet, is reduced once on sparse columns over F_p
(Zomorodian-Carlsson 2005), top down: a low of the degree above is cleared
(Chen-Kerber 2011) and gets no column, the reduction mutates the fresh
columns it is given, and only a low that is not 1 is inverted. A pivot
pair (sigma, tau) is the bar [step of sigma, step of tau); an unpaired cycle
cell is an essential bar. The reduced column R_tau, a cycle whose last cell
is sigma, represents its bar at every step the bar is alive, and V_sigma an
essential bar. These bases fit every step at once: induced maps are 0/1
selections, the persistent group H^{u,v} is the set of bars containing
[u, v], and the barcode is read off the pairs. A result keeps per degree
only the cells, cycle columns and bar table its reduction gives; a
per-step view is selected from the table, and the index of the bars alive
at each step is built by the first per-step query, then kept. Chains are
sparse {simplex: coefficient} dicts: `representatives(k, u)` gives the
cycle columns of the bars alive at u (of every bar), and `coordinates`
finds classes by back-substitution on the lows of all cycle columns, so
no step builds a dense basis.

The pair (X, A) is reduced as the filtered quotient C(X_u)/C(A_u): its
cells are the cells of X not in A, and a facet in A has no row, so a
relative result reads chains of X with the cells of A zero. Absolute
persistence is the same code with A empty. All algebra happens on
step indices; thresholds are carried along as labels only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import filterfalse
from typing import Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .complexes import (EMPTY_COMPLEX, NotSubcomplexError, SimplicialComplex, Simplex,
                        is_subcomplex)
from .linalg import check_modulus
from .morse import Filtration


class NotACycleError(ValueError):
    """A chain handed to a homology coordinatization was not a cycle."""


def _add_multiple(target: dict, source: dict, c: int, p: int) -> None:
    """target += c * source over F_p, dropping entries that vanish."""
    for i, x in source.items():
        y = (target.get(i, 0) + c * x) % p
        if y:
            target[i] = y
        else:
            target.pop(i, None)


def _reduce(columns: Sequence[dict | None], p: int) -> tuple[list, list, dict]:
    """Left-to-right column reduction of one degree's boundary columns.

    Returns the reduced columns R, the columns V with R_j = sum_i V_j[i] d_i,
    and the pivot of every nonzero R_j as {low row: j}. Each nonzero R_j is
    scaled so that its low entry is 1; only a low that is not 1 is inverted.
    A None column is skipped, and its R_j and V_j are None: a caller passes
    None for a cleared column, a low of the degree above, which would reduce
    to zero. The columns are reduced in place, so callers pass fresh ones.
    """
    reduced: list[Optional[dict]] = [None] * len(columns)
    sources: list[Optional[dict]] = [None] * len(columns)
    pivot_of: dict[int, int] = {}
    for j, r in enumerate(columns):
        if r is None:
            continue
        v = {j: 1}
        while r:
            low = max(r)
            i = pivot_of.get(low)
            if i is None:
                if r[low] != 1:
                    inv = pow(r[low], -1, p)
                    r = {row: x * inv % p for row, x in r.items()}
                    v = {row: x * inv % p for row, x in v.items()}
                pivot_of[low] = j
                break
            c = p - r[low]
            _add_multiple(r, reduced[i], c, p)
            _add_multiple(v, sources[i], c, p)
        reduced[j], sources[j] = r, v
    return reduced, sources, pivot_of


class BarMatrix(NamedTuple):
    """A matrix over bars, stored sparse: values[e] at (rows[e], cols[e])."""

    shape: tuple[int, int]
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray


class PersistenceResult:
    """The bar table of one filtration, with its bar-adapted homology bases,
    and the per-step views and queries selected from it.

    Produced by compute_persistence (absolute) or relative_persistence (the
    pair, as the quotient C(X)/C(A)); immutable afterwards.
    """

    def __init__(self, filtration: Filtration, modulus: int, max_degree: Optional[int],
                 A: SimplicialComplex):
        self.filtration, self._A = filtration, A
        self.modulus = check_modulus(modulus)
        self.n_steps = len(filtration)
        self.max_degree = max(filtration.complex.dim, 0) if max_degree is None else max_degree
        top = self.max_degree + 1  # one degree up, so the top degree sees its boundaries
        K, steps = filtration.complex, list(filtration.entry.values())  # steps in K's order
        drop = set(map(K._index.__getitem__, A.simplices()))  # A's cells, by position in K
        self._cells, self._entry, a = [], [], 0
        for n in map(K.n_cells, range(top + 1)):
            # a stable sort of the entry steps over K's order, lexicographic within
            # a degree, puts the degree's cells not in A in filtration order
            order = sorted(filterfalse(drop.__contains__, range(a, a + n)), key=steps.__getitem__)
            a += n
            self._cells.append(tuple(map(K.simplices().__getitem__, order)))
            self._entry.append(np.array(list(map(steps.__getitem__, order)), dtype=np.int64))
        # degree k: cells in filtration order, their entry steps, their positions
        self._index = [dict(zip(c, range(len(c)))) for c in self._cells]
        self._reduce_filtration()

    def _reduce_filtration(self) -> None:
        """Reduce every degree's boundary columns once, top down, each
        degree's pivots clearing the degree below (Chen-Kerber 2011), and keep
        per degree the bar table: the cycle cells (each the low of exactly one
        cycle column: R_tau when paired with tau, V_sigma when essential),
        their cycle columns and their birth and death steps (n_steps if none).
        A facet in A has no row: it is zero in C(X)/C(A)."""
        p, n, top = self.modulus, self.n_steps, self.max_degree + 1
        facets = self.filtration.complex.facet_table.__getitem__
        paired: dict[int, int] = {}  # low of each pivot column of the degree above -> column
        above: list[Optional[dict]] = []
        self._cycles, self._cycle_at, self._births, self._deaths = [], [], [], []
        for k in range(top, -1, -1):
            # facet i of s: vertex i deleted, sign (-1)^i, looked up once: a facet in A
            # has no row (None), and a vertex has no facets; a cleared cell gets no column
            rows = (self._index[k - 1] if k else {}).get
            signs = [(-1) ** i % p for i in range(k + 1)]
            columns = [None if j in paired else dict(zip(map(rows, facets(s)), signs))
                       for j, s in enumerate(self._cells[k])]
            if self._A:  # relative
                for column in filter(None, columns):
                    column.pop(None, None)
            reduced, sources, pivot_of = _reduce(columns, p)
            if k < top:
                lows, cycles, deaths = [], [], []
                for j, r in enumerate(reduced):
                    if r:
                        continue  # j kills a class of degree k - 1
                    tau = paired.get(j)
                    lows.append(j)
                    cycles.append(sources[j] if tau is None else above[tau])
                    deaths.append(n if tau is None else int(self._entry[k + 1][tau]))
                self._cycles.insert(0, cycles)
                self._cycle_at.insert(0, {low: j for j, low in enumerate(lows)})
                self._births.insert(0, self._entry[k][np.array(lows, dtype=np.int64)])
                self._deaths.insert(0, np.array(deaths, dtype=np.int64))
            paired, above = pivot_of, reduced
        # per degree: the cycle cells of the bars of positive length (the others are never alive)
        self._long = [(b < d).nonzero()[0] for b, d in zip(self._births, self._deaths)]

    @cached_property
    def _alive(self) -> list[list[np.ndarray]]:
        """Per degree and step, the cycle cells whose bars are alive there:
        selected from the bar table by the first per-step query, then kept."""
        return [[((b <= u) & (d > u)).nonzero()[0] for u in range(self.n_steps)]
                for b, d in zip(self._births, self._deaths)]

    def labels(self) -> tuple[str, ...]:
        return self.filtration.labels()

    def _check(self, k: int, u: int, v: int) -> None:
        if k < 0:
            raise IndexError(f"negative degree {k}")
        if not 0 <= u <= v < self.n_steps:
            raise IndexError(f"bad step pair ({u}, {v})")

    def _bars(self, k: int, u: Optional[int]) -> Optional[np.ndarray]:
        """The cycle cells of the bars alive at step u, or of every bar of
        positive length when u is None; None above max_degree."""
        self._check(k, u or 0, u or 0)
        if k > self.max_degree:
            return None
        return self._long[k] if u is None else self._alive[k][u]

    def _n_cells(self, k: int, u: int) -> int:
        """Number of k-cells present at step u (a prefix of the degree's cells)."""
        if k < 0 or k >= len(self._entry):
            return 0
        return int(np.searchsorted(self._entry[k], u, side="right"))

    def dim(self, k: int, u: int) -> int:
        alive = self._bars(k, u)
        return 0 if alive is None else alive.size

    def dims(self, k: int) -> tuple[int, ...]:
        return tuple(self.dim(k, u) for u in range(self.n_steps))

    def basis_simplices(self, k: int, u: int) -> tuple[Simplex, ...]:
        """The k-cells of step u not in A, in filtration order: its chain coordinates,
        given through degree max_degree + 1, whose cells bound the top degree."""
        self._check(0, u, u)  # a bad step raises; a degree outside the table has no cells
        if not 0 <= k < len(self._cells):
            return ()
        return self._cells[k][:self._n_cells(k, u)]

    def bars_alive(self, k: int, u: Optional[int] = None) -> tuple[np.ndarray, np.ndarray]:
        """Births and deaths (n_steps when essential) of the bars alive at
        step u, or of every bar of positive length when u is None, in the order
        of `dim`, `induced_matrix`, `persistent_group` and `coordinates`."""
        alive = self._bars(k, u)
        if alive is None:
            return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
        return self._births[k][alive], self._deaths[k][alive]

    def induced_matrix(self, k: int, u: int, v: int) -> np.ndarray:
        """Matrix of the induced map from step u to step v (u <= v): a bar
        alive at both steps goes to itself, a bar dead by v goes to zero."""
        self._check(k, u, v)
        if k > self.max_degree:
            return np.zeros((0, 0), dtype=np.int64)
        at_u, at_v = self._alive[k][u], self._alive[k][v]
        m = np.zeros((at_v.size, at_u.size), dtype=np.int64)
        if m.size:  # the bars alive through [u, v] go to themselves
            rows = (self._births[k][at_v] <= u).nonzero()[0]  # among those at v: born by u
            m[rows, (self._deaths[k][at_u] > v).nonzero()[0]] = 1  # among those at u: dying after v
        return m

    def persistent_group(self, k: int, u: int, v: int) -> np.ndarray:
        """H^{u,v} = im(H_k(step u) -> H_k(step v)): the positions, among the
        bars alive at v, of the bars born by u."""
        self._check(k, u, v)
        if k > self.max_degree:
            return np.zeros(0, dtype=np.intp)
        return (self._births[k][self._alive[k][v]] <= u).nonzero()[0]

    def representatives(self, k: int, u: Optional[int] = None) -> list[dict[Simplex, int]]:
        """The cycle columns of the bars of `bars_alive(k, u)` as {simplex:
        coefficient} chains; a bar's chain is the same all its life."""
        alive = self._bars(k, u)
        if alive is None:
            return []
        cells, cycles = self._cells[k], self._cycles[k]
        return [{cells[i]: x for i, x in cycles[j].items()} for j in alive.tolist()]

    def coordinates(self, k: int, chains: Sequence[Mapping[Simplex, int]],
                    u: Optional[int] = None) -> BarMatrix:
        """Homology coordinates of degree-k cycles, given as {simplex:
        coefficient} chains, on the bars alive at step u (a column per chain),
        or on every bar of positive length when u is None. Each chain is
        reduced by back-substitution on the lows of all the degree's cycle
        columns, which are distinct and carry the coefficient 1; a bar not
        alive at u is a boundary there. A chain is read in C(X)/C(A), where a
        cell of A present at step u (any, when u is None) is zero. A cycle
        reduces to zero, so a low that is no cycle cell, or another cell
        outside step u (the filtration), raises NotACycleError."""
        rows, p, last = self._bars(k, u), self.modulus, self.n_steps - 1 if u is None else u
        if not chains:
            return BarMatrix((0 if rows is None else rows.size, 0), *np.zeros((3, 0), np.int64))
        where = "the filtration" if u is None else f"step {u}"
        A, entry, n = self._A, self.filtration.entry, self._n_cells(k, last)
        if rows is None:
            index, cycles, cycle_at, rows = {}, [], {}, np.zeros(0, dtype=np.int64)
        else:
            index, cycles, cycle_at = self._index[k], self._cycles[k], self._cycle_at[k]
        out = []
        for col, chain in enumerate(chains):
            r = {}
            for s, x in chain.items():
                x = int(x) % p
                if x:
                    i = index.get(s, n)
                    if i < n:
                        r[i] = x
                    elif not (s in A and entry[s] <= last):
                        raise NotACycleError(f"{tuple(s)} is not a {k}-cell of {where}")
            while r:
                low = max(r)
                j = cycle_at.get(low)
                if j is None:
                    raise NotACycleError(f"a {k}-chain is not a cycle of {where}")
                x = r[low]
                _add_multiple(r, cycles[j], p - x, p)
                out.append((j, col, x))
        j, col, x = np.array(out, dtype=np.int64).reshape(-1, 3).T
        position = np.full(len(cycles), -1)
        position[rows] = np.arange(rows.size)
        row = position[j]
        return BarMatrix((rows.size, len(chains)), row[row >= 0], col[row >= 0], x[row >= 0])

    def class_of(self, k: int, u: int, chains: Sequence[Mapping[Simplex, int]]) -> np.ndarray:
        """`coordinates(k, chains, u)` as a dense matrix."""
        m = self.coordinates(k, chains, u)
        out = np.zeros(m.shape, dtype=np.int64)
        out[m.rows, m.cols] = m.values
        return out


def compute_persistence(filtration: Filtration, modulus: int,
                        max_degree: Optional[int] = None) -> PersistenceResult:
    """Persistent homology of a filtration up to max_degree (default: dim of K),
    computed as persistence relative to the empty complex."""
    return PersistenceResult(filtration, modulus, max_degree, EMPTY_COMPLEX)


def relative_persistence(X: SimplicialComplex, A: SimplicialComplex,
                         filtration: Filtration, modulus: int,
                         max_degree: Optional[int] = None) -> PersistenceResult:
    """Persistence of the pairs (X_u, A_u), as the homology of the filtered
    quotient C(X_u)/C(A_u).

    The filtration filters X; each step is paired with its intersection with A.
    """
    if filtration.complex != X:
        raise ValueError("filtration does not filter X")
    if not is_subcomplex(A, X):
        raise NotSubcomplexError("A is not a subcomplex of X")
    return PersistenceResult(filtration, modulus, max_degree, A)


# ---------------------------------------------------------------------------
# barcode

@dataclass(frozen=True)
class Interval:
    """A bar: born at step index `birth`, mapping to zero at step `death`
    (None for classes that survive the whole filtration). Labels echo the
    filtration thresholds."""

    birth: int
    death: Optional[int]
    birth_label: str
    death_label: Optional[str]

    def contains(self, u: int, v: int) -> bool:
        return self.birth <= u and (self.death is None or self.death > v)

    def __str__(self):
        return f"[{self.birth_label}, {self.death_label if self.death is not None else 'inf'})"


@dataclass(frozen=True)
class Barcode:
    degree: int
    intervals: tuple[Interval, ...]

    def count_containing(self, u: int, v: int) -> int:
        return sum(1 for iv in self.intervals if iv.contains(u, v))

    def __iter__(self):
        return iter(self.intervals)

    def __len__(self):
        return len(self.intervals)


def barcode(result: PersistenceResult, k: int) -> Barcode:
    """Interval decomposition in degree k, read off the reduction's pairs:
    the bars sorted by birth, then death (essential bars last)."""
    n, labels = result.n_steps, result.labels()
    bars = [Interval(b, None if d == n else d, labels[b], None if d == n else labels[d])
            for b, d in sorted(zip(*(ends.tolist() for ends in result.bars_alive(k))))]
    return Barcode(k, tuple(bars))
