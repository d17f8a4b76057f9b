"""Persistent homology of a filtration, from one column reduction per space.

A filtration numbers each degree's cells of X once, in filtration order
(entry step, then X's order), and keeps X's facet rows in that numbering.
A space is the mask of the indices it keeps, plus A's mask of rows that
are zero: its boundary columns, X's facet rows less A's, are reduced once
(Zomorodian-Carlsson 2005), top down, and a low of the degree above is
cleared (Chen-Kerber 2011): it gets no column, nor does a cell the space
does not keep. One kernel, `_reduce`, does every reduction, the image bars
of a map over bars included (`_image_bars`); the modulus picks its column
arithmetic. No other module reads a column, the kernel or the cycle table.
A pivot pair (sigma, tau) is the bar [step of sigma, step of tau); an
unpaired cycle cell is an essential bar. The reduced column R_tau
represents its bar at every step the bar is alive, and V_sigma an
essential bar, so one basis fits every step: induced maps are 0/1
selections and the persistent group H^{u,v} is the set of bars containing
[u, v]. A result keeps per degree only its bar table; its cycle columns,
with each cycle cell's bar, are one cached table, kept by a build with
`cycles` (a system's spaces) and found at the first cycle read otherwise.
The spaces of one filtration share their rows, so chains pass between them
as the columns are kept (`_chains`), a result gives the boundaries of its
own cycle columns (`_boundaries`), and `_coordinates` finds classes by
back-substitution on the lows of all cycle columns, checking membership
with masks. Only the public `representatives`, `coordinates`, `class_of`
and `basis_simplices` translate to simplices.

The pair (X, A) is reduced as the filtered quotient C(X_u)/C(A_u), so a
relative result reads chains of X with the cells of A zero; absolute
persistence is the same code with no cell in A. All algebra happens on
step indices; thresholds are carried along as labels only.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
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
    column given (V_j the list [j]) while its low is free; at its first
    addition R_j and V_j become ints, bit i for row i, and each addition is
    one XOR (row by row from a source still as given). No column given is
    mutated. Over any other F_p a column is a {row: coefficient} dict,
    reduced in place, so callers pass fresh ones, and each nonzero R_j is
    scaled so that its low entry is 1; only a low that is not 1 is inverted.
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
            low = r.bit_length() - 1 if type(r) is int else max(r)
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
                if type(r) is not int:  # its first addition: R_j and V_j become ints
                    bits = 0
                    for row in r:
                        bits ^= 1 << row
                    r, v = bits, 1 << j if cycles else None
                s = reduced[i]
                if type(s) is int:
                    r ^= s
                else:
                    for row in s:
                        r ^= 1 << row
                if cycles:  # an untouched V_i is [i]
                    s = sources[i]
                    v ^= s if type(s) is int else 1 << i
                continue
            c = p - r[low]
            _add_multiple(r, reduced[i], c, p)
            if cycles:
                _add_multiple(v, sources[i], c, p)
        reduced[j], sources[j] = r, v
    return reduced, sources if cycles else None, pivot_of


def _image_bars(m: BarMatrix, births: np.ndarray, deaths: np.ndarray,
                p: int) -> tuple[np.ndarray, np.ndarray]:
    """The image barcode of m, given its columns' births and its rows'
    deaths: columns in birth order and rows numbered by death, both stably,
    m is reduced once, and each pivot column gives the bar [its birth, the
    death of its low)."""
    cols, rows = births.argsort(kind="stable"), deaths.argsort(kind="stable")
    col_at, row_at = np.empty_like(cols), np.empty_like(rows)
    col_at[cols], row_at[rows] = np.arange(cols.size), np.arange(rows.size)
    columns: list[dict] = [{} for _ in range(cols.size)]
    for c, r, x in zip(col_at[m.cols].tolist(), row_at[m.rows].tolist(), m.values.tolist()):
        columns[c][r] = x
    lows, pivots = np.array(list(_reduce(columns, p, cycles=False)[2].items()),
                            dtype=np.int64).reshape(-1, 2).T
    return births[cols[pivots]], deaths[rows[lows]]


def _rows(column: list | int) -> list:
    """The rows of an F_2 column as `_reduce` returns it: the list given, or
    the set bits of an int, found in one pass over its binary digits."""
    if type(column) is not int:
        return column
    return [m.start() for m in re.finditer("1", bin(column)[:1:-1])]  # digit i is bit i


def _as_int(rows) -> int:
    """Distinct rows as an int, bit i for row i: the form of an F_2 column once added to."""
    return sum(map((1).__lshift__, rows))


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
    relative to a mask A (no cell when None); immutable once built. With
    `cycles` the build tracks V and keeps the cycle table; without, the
    first cycle read reduces once more, tracking V."""

    def __init__(self, filtration: Filtration, modulus: int, max_degree: Optional[int],
                 space: Optional[np.ndarray] = None, A: Optional[np.ndarray] = None,
                 cycles: bool = False):
        self._filtration, self._space, self._A, self.n_steps = filtration, space, A, len(filtration)
        self.modulus = check_modulus(modulus)
        if max_degree is not None and max_degree < 0:
            raise ValueError(f"max_degree must be non-negative, got {max_degree}")
        self.max_degree = max(filtration.complex.dim, 0) if max_degree is None else max_degree
        top, none = self.max_degree + 1, np.zeros(0, dtype=np.intp)
        degrees = filtration._numbering()[1][:top + 1]
        # per degree, in the filtration's numbering: X's cells, their steps and their facets
        self._cells = degrees + ((none, none, []),) * (top + 1 - len(degrees))
        # per degree, the mask of the cells the space keeps and of A's, which are zero
        keep = space if A is None else ~A if space is None else space & ~A
        self._keep = [np.ones(c.size, bool) if keep is None else keep[c] for c, _, _ in self._cells]
        self._zero = [np.zeros(c.size, bool) if A is None else A[c] for c, _, _ in self._cells]
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
        Column j is X's cell j of its degree, None when the space does not
        keep it, and its rows are the filtration's facet rows, less A's."""
        p, n, top = self.modulus, self.n_steps, self.max_degree + 1
        paired: dict[int, int] = {}  # low of each pivot column of the degree above -> column
        above: list = []
        births, deaths, cycle_columns, cycle_at = [], [], [], []
        for k in range(top, -1, -1):
            _, entry, rows = self._cells[k]
            keep = self._keep[k].tolist()
            # a cell the space does not keep, or a cleared one, gets no column;
            # a facet in A is zero in C(X)/C(A) and has no row
            zero = self._zero[k - 1].tolist() if k and self._A is not None else None
            if p == 2:  # a column is its list of rows
                if zero is not None:
                    rows = [[i for i in r if not zero[i]] for r in rows]
                columns = [r if keep[j] and j not in paired else None for j, r in enumerate(rows)]
            else:
                signs = [(-1) ** i % p for i in range(k + 1)]
                columns = [dict(zip(r, signs)) if keep[j] and j not in paired else None
                           for j, r in enumerate(rows)]
                if zero is not None:
                    columns = [c and {i: x for i, x in c.items() if not zero[i]} for c in columns]
            reduced, sources, pivot_of = _reduce(columns, p, cycles)
            if k < top:
                lows, ends, kept, entry_above = [], [], [], self._cells[k + 1][1].tolist()
                for j, r in enumerate(reduced):
                    if r or not keep[j]:
                        continue  # j kills a class of degree k - 1, or is outside the space
                    tau = paired.get(j)
                    lows.append(j)
                    ends.append(n if tau is None else entry_above[tau])
                    if cycles:
                        kept.append(sources[j] if tau is None else above[tau])
                births.insert(0, entry[np.array(lows, dtype=np.int64)])
                deaths.insert(0, np.array(ends, dtype=np.int64))
                if cycles:
                    cycle_columns.insert(0, kept)
                    cycle_at.insert(0, {low: j for j, low in enumerate(lows)})
            paired, above = pivot_of, reduced
        return births, deaths, (cycle_columns, cycle_at) if cycles else None

    @cached_property
    def _cycle_table(self) -> tuple[list[list], list[dict[int, int]]]:
        """Per degree, each bar's cycle column, as `_chains` gives it, and each
        cycle cell's bar; a build without cycles reduces again, tracking V."""
        return self._reduce_filtration(cycles=True)[2]

    @cached_property
    def filtration(self) -> Filtration:
        """The filtration of the space, X's when the space is all of X; built on first read."""
        F = self._filtration
        if self._space is None:
            return F
        return Filtration._of(F.thresholds, F.complex._sub(self._space), F._steps[self._space])

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
        (order, entry, _), cells = self._cells[k], self._filtration.complex.simplices()
        return tuple(map(cells.__getitem__, order[(entry <= u) & self._keep[k]].tolist()))

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

    def _chains(self, k: int, u: Optional[int] = None) -> list:
        """The cycle columns of the bars of `bars_alive(k, u)` as kept, over
        the filtration's numbering: over F_2 a list of rows or an int, bit i
        for row i, otherwise a {row: coefficient} dict; the same all its life."""
        alive = self._bars(k, u)
        return [] if alive is None else list(map(self._cycle_table[0][k].__getitem__,
                                                 alive.tolist()))

    def _boundaries(self, k: int, keep: Optional[np.ndarray] = None) -> list:
        """The boundaries, as `_coordinates` takes chains, of the parts of
        `_chains(k)` on the cells the mask `keep` over X marks (all when None),
        read off the facet rows (facet i has the sign (-1)^i): over F_2 an
        int, one XOR per facet, otherwise a dict with no zero."""
        chains, p = self._chains(k), self.modulus
        order, _, rows = self._cells[k]
        keep = None if keep is None else keep[order].tolist()
        out = []
        for chain in chains:
            if p == 2:
                boundary = 0
                for i in _rows(chain):
                    if keep is None or keep[i]:
                        for f in rows[i]:
                            boundary ^= 1 << f
                out.append(boundary)
                continue
            boundary = {}
            for i, x in chain.items():
                if keep is None or keep[i]:
                    for sign, f in enumerate(rows[i]):
                        boundary[f] = boundary.get(f, 0) + (-x if sign % 2 else x)
            out.append({f: y % p for f, y in boundary.items() if y % p})
        return out

    def representatives(self, k: int, u: Optional[int] = None) -> list[dict[Simplex, int]]:
        """`_chains(k, u)` as {simplex: coefficient} chains."""
        chains = self._chains(k, u)
        if not chains:
            return []
        if self.modulus == 2:  # each row has the coefficient 1
            chains = [dict.fromkeys(_rows(chain), 1) for chain in chains]
        order, cells = self._cells[k][0], self._filtration.complex.simplices()
        return [dict(zip(map(cells.__getitem__, order[list(chain)].tolist()), chain.values()))
                for chain in chains]

    def coordinates(self, k: int, chains: Sequence[Mapping[Simplex, int]],
                    u: Optional[int] = None) -> BarMatrix:
        """`_coordinates` of degree-k cycles given as {simplex: coefficient}
        chains; a simplex that is no k-cell of X, with a coefficient that is
        not 0, raises NotACycleError."""
        self._check(k, u or 0, u or 0)
        where, p = "the filtration" if u is None else f"step {u}", self.modulus
        index, at = self._filtration.complex._index, self._filtration._numbering()[0]
        numbered = []
        for chain in chains:
            out = {}
            for s, x in chain.items():
                if len(s) == k + 1 and s in index:
                    out[int(at[index[s]])] = int(x) % p
                elif int(x) % p:
                    raise NotACycleError(f"{tuple(s)} is not a {k}-cell of {where}")
            numbered.append([i for i, x in out.items() if x] if p == 2 else out)
        return self._coordinates(k, numbered, u)

    @cached_property
    def _bits(self) -> list[tuple[int, int]]:
        """Per degree, the cells the space keeps and all its cells, those of A
        included, as ints: bit i for the cell of index i."""
        return [tuple(int.from_bytes(np.packbits(m, bitorder="little").tobytes(), "little")
                      for m in (keep, keep | zero)) for keep, zero in zip(self._keep, self._zero)]

    def _coordinates(self, k: int, chains: Sequence, u: Optional[int] = None) -> BarMatrix:
        """Homology coordinates of degree-k cycles, given as `_chains` gives
        them, on the bars alive at step u (a column per chain), or on every bar
        of positive length when u is None, by back-substitution on the lows of
        all the degree's cycle columns (distinct, each with the coefficient 1);
        a bar not alive at u is a boundary there. A chain is read in C(X)/C(A):
        a cell of A is zero, and a cell outside the space or entering after u
        raises NotACycleError (a shift and ANDs with `_bits`), as does a low
        that is no cycle cell. Above max_degree no chain has a coordinate."""
        rows, p, last = self._bars(k, u), self.modulus, self.n_steps - 1 if u is None else u
        where = "the filtration" if u is None else f"step {u}"
        if rows is None or not chains:  # above max_degree there are no bars
            return BarMatrix((0 if rows is None else rows.size, len(chains)),
                             *np.zeros((3, 0), np.int64))
        n, (keep, cells) = int(self._cells[k][1].searchsorted(last, "right")), self._bits[k]
        cycles, cycle_at = (table[k] for table in self._cycle_table)
        out = []
        for col, chain in enumerate(chains):
            if p == 2:  # the chain as an int, like an added-to cycle column
                r = support = chain if type(chain) is int else _as_int(chain)
            else:
                r = {i: x % p for i, x in chain.items() if x % p}
                support = _as_int(r)
            if outside := support >> n << n | support & ~cells:
                i = self._cells[k][0][(outside & -outside).bit_length() - 1]
                cell = tuple(self._filtration.complex.simplices()[i])
                raise NotACycleError(f"{cell} is not a {k}-cell of {where}")
            if support & ~keep:  # a cell of A is zero
                r = r & keep if p == 2 else {i: x for i, x in r.items() if keep >> i & 1}
            while r:
                low = r.bit_length() - 1 if p == 2 else max(r)
                j = cycle_at.get(low)
                if j is None:
                    raise NotACycleError(f"a {k}-chain is not a cycle of {where}")
                if p == 2:  # every coefficient is 1
                    x, z = 1, cycles[j]
                    r ^= z if type(z) is int else _as_int(z)
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
