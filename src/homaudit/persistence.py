"""Persistent homology of a filtration, from one column reduction per space.

A space is a mask over the cells of the filtered complex X, numbered by
their position in X and ordered by entry step, then dimension, then
simplex, with one stable argsort of the filtration's entry-step array. The
boundary columns, read off X's integer facet index through an integer row
map, are reduced once (Zomorodian-Carlsson 2005), top down: a low of the
degree above is cleared (Chen-Kerber 2011) and gets no column. One kernel,
`_reduce`, reduces every column; the modulus picks its arithmetic. Over
F_2 a column is its list of rows, no coefficient being other than 1: it
stays that list while its low is free, becomes a set at its first
addition, and each addition is one symmetric difference. Over any other
F_p a column is a sparse {row: coefficient} dict, reduced in place, and
only a low that is not 1 is inverted. The same kernel reduces the image
bars of a map over bars. A pivot pair (sigma, tau) is the bar [step of
sigma, step of tau); an unpaired cycle cell is an essential bar. The
reduced column R_tau, a cycle whose last cell is sigma, represents its bar
at every step the bar is alive, and V_sigma an essential bar. These bases
fit every step at once: induced maps are 0/1 selections, the persistent
group H^{u,v} is the set of bars containing [u, v], and the barcode is
read off the pairs. A result keeps per degree only the cells and the bar
table its reduction gives; a barcode, the Betti numbers and every per-step
view need only the table. The cycle columns, with each cycle cell's bar,
are one cached table, `_cycle_table`: a result built with `cycles` (a
system's spaces, whose maps read them) tracks V and keeps it, and a result
built without tracks no V and reduces once more, tracking V, at its first
cycle read. A per-step view is selected from the table, and the index of
the bars alive at each step is built by the first per-step query, then
kept. Chains are sparse {position in X: coefficient} dicts, passed between
the spaces of one X unhashed: `_chains(k, u)` gives the cycle columns of
the bars alive at u (of every bar), and `_coordinates` finds classes by
back-substitution on the lows of all cycle columns, so no step builds a
dense basis; over F_2 both read the cycle columns as row collections, and
back-substitution works on a set of rows. The public `representatives`,
`coordinates` and `class_of` key chains by simplex.

The pair (X, A) is reduced as the filtered quotient C(X_u)/C(A_u): its
cells are the cells of X not in A, and a facet in A has no row, so a
relative result reads chains of X with the cells of A zero. Absolute
persistence is the same code with no cell in A. All algebra happens on
step indices; thresholds are carried along as labels only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, compress
from typing import Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .complexes import NotSubcomplexError, SimplicialComplex, Simplex
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


def _reduce(columns: Sequence[list | dict | None], p: int,
            cycles: bool = True) -> tuple[list, Optional[list], dict]:
    """Left-to-right column reduction of one degree's boundary columns.

    Returns the reduced columns R, the columns V with R_j = sum_i V_j[i] d_i
    when `cycles` is true (None otherwise: V is neither tracked nor added
    to, for a caller that reads only R and the pivots), and the pivot of
    every nonzero R_j as {low row: j}. A None column is skipped, and its R_j
    and V_j are None: a caller passes None for a cleared column, a low of
    the degree above, which would reduce to zero. Over F_2 a column is a
    list, or a dict, of its rows, every coefficient being 1: R_j stays the
    column given (V_j the list [j]) while its low is free, becomes a set at
    its first addition, and each addition, to R and to V, is one symmetric
    difference with the source as stored; no column given is mutated. Over
    any other F_p a column is a {row: coefficient} dict, reduced in place,
    so callers pass fresh ones, and each nonzero R_j is scaled so that its
    low entry is 1; only a low that is not 1 is inverted.
    """
    reduced: list = [None] * len(columns)
    sources: list = [None] * len(columns)
    pivot_of: dict[int, int] = {}
    f2 = p == 2
    for j, r in enumerate(columns):
        if r is None:
            continue
        v = ([j] if f2 else {j: 1}) if cycles else None
        while r:
            low = max(r)
            i = pivot_of.get(low)
            if i is None:
                if not f2 and r[low] != 1:
                    inv = pow(r[low], -1, p)
                    r = {row: x * inv % p for row, x in r.items()}
                    if cycles:
                        v = {row: x * inv % p for row, x in v.items()}
                pivot_of[low] = j
                break
            if f2:
                if type(r) is not set:  # its first addition: R_j and V_j become sets
                    r, v = set(r), {j} if cycles else None
                r.symmetric_difference_update(reduced[i])
                if cycles:
                    v.symmetric_difference_update(sources[i])
                continue
            c = p - r[low]
            _add_multiple(r, reduced[i], c, p)
            if cycles:
                _add_multiple(v, sources[i], c, p)
        reduced[j], sources[j] = r, v
    return reduced, sources if cycles else None, pivot_of


class BarMatrix(NamedTuple):
    """A matrix over bars, stored sparse: values[e] at (rows[e], cols[e])."""

    shape: tuple[int, int]
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray


class PersistenceResult:
    """The bar table of one filtered space, with its bar-adapted homology
    bases, and the per-step views and queries selected from it. The space is
    a mask over the cells of the filtered X (all of X when None), read
    relative to a mask A (no cell when None); immutable once built.

    With `cycles` the reduction tracks V and the result keeps its cycle
    table, for a caller that will read it (a system's maps read every
    space's). Without it the build keeps only the bar table, and the first
    read of a cycle column (`representatives`, `coordinates`, `class_of`)
    builds the cached `_cycle_table` by reducing once more, tracking V."""

    def __init__(self, filtration: Filtration, modulus: int, max_degree: Optional[int],
                 space: Optional[np.ndarray] = None, A: Optional[np.ndarray] = None,
                 cycles: bool = False):
        self._filtration, self._space, self._A, self.n_steps = filtration, space, A, len(filtration)
        self.modulus = check_modulus(modulus)
        X, steps = filtration.complex, filtration._steps
        self.max_degree = max(X.dim, 0) if max_degree is None else max_degree
        keep = space if A is None else ~A if space is None else space & ~A
        # each cell's row in its degree: len(X) outside the space, -1 in A, where
        # it is zero in C(X)/C(A) and dropped from every column
        row_of = np.full(len(X), len(X), dtype=np.intp)
        ends = list(accumulate(map(X.n_cells, range(self.max_degree + 2))))
        cells = np.arange(ends[-1]) if keep is None else keep[:ends[-1]].nonzero()[0]
        degree = np.searchsorted(ends, cells, side="right")  # X's order is dimension-major
        # a stable argsort by degree, then entry step, over X's order: filtration order
        order = cells[(degree * self.n_steps + steps[cells]).argsort(kind="stable")]
        cuts = np.searchsorted(degree, np.arange(len(ends) + 1))
        row_of[order] = np.arange(order.size) - cuts[degree]
        cuts, entry = cuts.tolist(), steps[order]
        self._order = [order[a:b] for a, b in zip(cuts, cuts[1:])]
        self._entry = [entry[a:b] for a, b in zip(cuts, cuts[1:])]
        if A is not None:
            row_of[A] = -1
        self._row_of = row_of
        self._births, self._deaths, table = self._reduce_filtration(cycles)
        # per degree: the cycle cells of the bars of positive length (the others are never alive)
        self._long = [(b < d).nonzero()[0] for b, d in zip(self._births, self._deaths)]
        if cycles:
            self._cycle_table = table

    def _reduce_filtration(self, cycles: bool) -> tuple[list, list, Optional[tuple]]:
        """Reduce every degree's boundary columns once, top down, each
        degree's pivots clearing the degree below (Chen-Kerber 2011). Returns
        per degree the bar table, the birth and death steps (n_steps if none)
        of the bars in the order of their cycle cells (each the low of exactly
        one cycle column: R_tau when paired with tau, V_sigma when essential),
        and with `cycles`, which tracks V, the `_cycle_table` (None without).
        A column's rows are its cell's facets, read off X's integer facet
        index and numbered by `_row_of`; a facet in A has none."""
        p, n, top = self.modulus, self.n_steps, self.max_degree + 1
        levels = self._filtration.complex._facet_index()[2]
        paired: dict[int, int] = {}  # low of each pivot column of the degree above -> column
        above: list = []
        births, deaths, cycle_columns, cycle_at = [], [], [], []
        for k in range(top, -1, -1):
            order = self._order[k]
            if k and order.size:  # facet i of a cell: vertex i deleted, sign (-1)^i
                cells, facets = levels[k - 1]  # X's k-cells from position cells[0] on
                rows = self._row_of[facets.reshape(-1, k + 1)[order - cells[0]]].tolist()
            else:  # a vertex has no facets
                rows = [[] for _ in range(order.size)]
            # a cleared cell gets no column; a facet in A has the row -1 and is dropped
            if p == 2:  # a column is its list of rows
                if self._A is not None:
                    rows = [[i for i in r if i >= 0] for r in rows]
                columns = [None if j in paired else r for j, r in enumerate(rows)]
            else:
                signs = [(-1) ** i % p for i in range(k + 1)]
                columns = [None if j in paired else dict(zip(r, signs))
                           for j, r in enumerate(rows)]
                if self._A is not None:
                    for column in filter(None, columns):
                        column.pop(-1, None)
            reduced, sources, pivot_of = _reduce(columns, p, cycles)
            if k < top:
                lows, ends, kept, entry = [], [], [], self._entry[k + 1].tolist()
                for j, r in enumerate(reduced):
                    if r:
                        continue  # j kills a class of degree k - 1
                    tau = paired.get(j)
                    lows.append(j)
                    ends.append(n if tau is None else entry[tau])
                    if cycles:
                        kept.append(sources[j] if tau is None else above[tau])
                births.insert(0, self._entry[k][np.array(lows, dtype=np.int64)])
                deaths.insert(0, np.array(ends, dtype=np.int64))
                if cycles:
                    cycle_columns.insert(0, kept)
                    cycle_at.insert(0, {low: j for j, low in enumerate(lows)})
            paired, above = pivot_of, reduced
        return births, deaths, (cycle_columns, cycle_at) if cycles else None

    @cached_property
    def _cycle_table(self) -> tuple[list[list], list[dict[int, int]]]:
        """Per degree, each bar's cycle column (its rows over F_2, a {row:
        coefficient} dict otherwise), and each cycle cell's bar. A build with
        cycles keeps it; a result built without finds it at this first read
        by reducing again, tracking V."""
        return self._reduce_filtration(cycles=True)[2]

    @cached_property
    def filtration(self) -> Filtration:
        """The filtration of the space, X's when the space is all of X; built on first read."""
        F, table = self._filtration, self._filtration.complex.facet_table
        if self._space is None:
            return F
        space = {s: table[s] for s in compress(F.complex.simplices(), self._space.tolist())}
        return Filtration._of(F.thresholds, SimplicialComplex._of(space), F._steps[self._space])

    @cached_property
    def _alive(self) -> list[list[np.ndarray]]:
        """Per degree and step, the cycle cells whose bars are alive there:
        selected from the bar table by the first per-step query, then kept."""
        return [[((b <= u) & (d > u)).nonzero()[0] for u in range(self.n_steps)]
                for b, d in zip(self._births, self._deaths)]

    def labels(self) -> tuple[str, ...]:
        return self._filtration.labels()

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
        if not 0 <= k < len(self._order):
            return ()
        cells = self._filtration.complex.simplices()
        return tuple(map(cells.__getitem__, self._order[k][:self._n_cells(k, u)].tolist()))

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
        if m.size:  # a bar alive at u and at v is alive through [u, v]: it goes to itself
            m[at_v[:, None] == at_u] = 1
        return m

    def persistent_group(self, k: int, u: int, v: int) -> np.ndarray:
        """H^{u,v} = im(H_k(step u) -> H_k(step v)): the positions, among the
        bars alive at v, of the bars born by u."""
        self._check(k, u, v)
        if k > self.max_degree:
            return np.zeros(0, dtype=np.intp)
        return (self._births[k][self._alive[k][v]] <= u).nonzero()[0]

    def _chains(self, k: int, u: Optional[int] = None) -> list[dict[int, int]]:
        """The cycle columns of the bars of `bars_alive(k, u)` as {position in
        X: coefficient} chains; a bar's chain is the same all its life."""
        alive = self._bars(k, u)
        if alive is None:
            return []
        order, cycles = self._lists[1][k], self._cycle_table[0][k]
        if self.modulus == 2:  # a column is its rows, each with coefficient 1
            return [dict.fromkeys(map(order.__getitem__, cycles[j]), 1) for j in alive.tolist()]
        return [{order[i]: x for i, x in cycles[j].items()} for j in alive.tolist()]

    def representatives(self, k: int, u: Optional[int] = None) -> list[dict[Simplex, int]]:
        """`_chains(k, u)` as {simplex: coefficient} chains."""
        cells = self._filtration.complex.simplices()
        return [{cells[i]: x for i, x in chain.items()} for chain in self._chains(k, u)]

    def coordinates(self, k: int, chains: Sequence[Mapping[Simplex, int]],
                    u: Optional[int] = None) -> BarMatrix:
        """`_coordinates` of degree-k cycles given as {simplex: coefficient}
        chains, each simplex read at its position in X; a simplex that is no
        k-cell of X, with a coefficient that is not 0, raises NotACycleError."""
        self._check(k, u or 0, u or 0)
        where = "the filtration" if u is None else f"step {u}"
        index, at = self._filtration.complex._index, [{} for _ in chains]
        for chain, out in zip(chains, at):
            for s, x in chain.items():
                if len(s) == k + 1 and s in index:
                    out[index[s]] = int(x)
                elif int(x) % self.modulus:
                    raise NotACycleError(f"{tuple(s)} is not a {k}-cell of {where}")
        return self._coordinates(k, at, u)

    @cached_property
    def _lists(self) -> tuple[list, list[list]]:
        """`_row_of` and each degree's cells in filtration order, as lists for per-cell reads."""
        return self._row_of.tolist(), [order.tolist() for order in self._order]

    def _coordinates(self, k: int, chains: Sequence[Mapping[int, int]],
                     u: Optional[int] = None) -> BarMatrix:
        """Homology coordinates of degree-k cycles, given as {position in X:
        coefficient} chains, on the bars alive at step u (a column per chain),
        or on every bar of positive length when u is None. Each chain is
        reduced by back-substitution on the lows of all the degree's cycle
        columns, which are distinct and carry the coefficient 1; a bar not
        alive at u is a boundary there. A chain is read in C(X)/C(A), where a
        cell of A present at step u (any, when u is None) is zero. A cycle
        reduces to zero, so a low that is no cycle cell, or another cell
        outside step u (the filtration), raises NotACycleError. Above
        max_degree there is no bar, and every chain has no coordinate."""
        rows, p, last = self._bars(k, u), self.modulus, self.n_steps - 1 if u is None else u
        where = "the filtration" if u is None else f"step {u}"
        if rows is None or not chains:  # above max_degree there are no bars
            return BarMatrix((0 if rows is None else rows.size, len(chains)),
                             *np.zeros((3, 0), np.int64))
        (row_of, _), steps, n = self._lists, self._filtration._steps, self._n_cells(k, last)
        cycles, cycle_at = (table[k] for table in self._cycle_table)
        out = []
        for col, chain in enumerate(chains):
            r = {}
            for s, x in chain.items():
                x %= p
                if x:
                    i = row_of[s]
                    if 0 <= i < n:
                        r[i] = x
                    elif i >= 0 or steps[s] > last:  # a cell of A present at step u is zero
                        cell = tuple(self._filtration.complex.simplices()[s])
                        raise NotACycleError(f"{cell} is not a {k}-cell of {where}")
            if p == 2:
                r = set(r)
            while r:
                low = max(r)
                j = cycle_at.get(low)
                if j is None:
                    raise NotACycleError(f"a {k}-chain is not a cycle of {where}")
                if p == 2:  # every coefficient is 1
                    x = 1
                    r.symmetric_difference_update(cycles[j])
                else:
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
    computed as persistence relative to no cell. The result is built without
    cycles: its cycle columns are found at their first read."""
    return PersistenceResult(filtration, modulus, max_degree)


def relative_persistence(X: SimplicialComplex, A: SimplicialComplex,
                         filtration: Filtration, modulus: int,
                         max_degree: Optional[int] = None) -> PersistenceResult:
    """Persistence of the pairs (X_u, A_u), as the homology of the filtered
    quotient C(X_u)/C(A_u).

    The filtration filters X; each step is paired with its intersection with A.
    The result is built without cycles: its cycle columns are found at their
    first read.
    """
    if filtration.complex != X:
        raise ValueError("filtration does not filter X")
    if (mask := X._mask(A)) is None:
        raise NotSubcomplexError("A is not a subcomplex of X")
    return PersistenceResult(filtration, modulus, max_degree, A=mask)


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
