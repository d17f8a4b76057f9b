"""Discrete Morse functions: validation, critical cells, sublevel complexes,
filtrations, and the perfectness check.

A function is its ranks: its sorted distinct values and each cell's rank
among them, one read-only integer array in its complex's order, ranked once
when it is built (a complex file's closure-added face takes the least rank
over its valued cofaces by the one coface walk). Every pass reads them
through `_ranked` and hashes no cell: it runs on the complex's integer index
of its (cell, facet) incidences, as a few array operations per complex, and
comparing ranks decides every incidence alike for `int`, `Fraction` and
values of any size. An incidence of a facet n in a cell t is exceptional
when rank(n) >= rank(t); each cell's count of exceptional incidences tells
whether f is a discrete Morse function and which cells are critical, and a
`MorseViolation` is built only for a violating cell, only when the
violations are asked for; `_critical_values` builds none. A filtration
stores the step at which each cell enters, as an integer array in the
complex's order (a restriction indexes it): each threshold is placed among
the ranked values by bisection, so a cell's own step is a search of its
rank among those places, and its entry step is the least over its cofaces,
found by the coface walk, which also gives a sublevel complex. Given its
step complexes, a filtration counts the steps' masks over the last step that
hold each cell; its step complexes are built only on request, as masks.
Values and thresholds are exact: an integral one is held as an `int`, any
other as a `Fraction`; sublevel membership is decided by exact comparison.
"""

from __future__ import annotations

import warnings
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .complexes import SimplicialComplex, Simplex, _least_over_cofaces, betti_numbers

Rational = Fraction | int | str


def _exact(v: Rational) -> Fraction | int:
    """v as an int when integral, else as a Fraction: both compare, hash and print alike.
    An int that is not a bool comes back unchanged and a Fraction is not rebuilt."""
    if type(v) is int:
        return v
    q = v if type(v) is Fraction else Fraction(v)
    return int(q.numerator) if q.denominator == 1 else q


class NotMorseError(ValueError):
    """The function violates the discrete Morse conditions."""

    def __init__(self, violations):
        self.violations = tuple(violations)
        lines = "; ".join(str(v) for v in self.violations[:5])
        more = "" if len(self.violations) <= 5 else f" (+{len(self.violations) - 5} more)"
        super().__init__(f"not a discrete Morse function: {lines}{more}")


@dataclass(frozen=True)
class MorseViolation:
    """One offending cell. kind is 'excess_cofacets', 'excess_facets', or
    'both_exceptional' (one exceptional relation on each side, flagged for
    diagnosis rather than silently resolved)."""

    cell: Simplex
    kind: str
    witnesses: tuple[Simplex, ...]

    def __str__(self):
        return f"{self.kind} at {tuple(self.cell)} (witnesses {[tuple(w) for w in self.witnesses]})"


class MorseFunction:
    """A total assignment of rational values to the cells of one complex, held
    as its sorted distinct values and each cell's rank among them in K's order."""

    __slots__ = ("complex", "_distinct", "_rank")

    def __init__(self, complex: SimplicialComplex, values: Mapping[Simplex, Rational]):
        table = {s if isinstance(s, Simplex) else Simplex(s): _exact(v)
                 for s, v in values.items()}
        try:
            ordered = list(map(table.__getitem__, complex.simplices()))  # the values in K's order
        except KeyError:
            missing = [s for s in complex.simplices() if s not in table]
            raise ValueError(f"function not total: no value for {tuple(missing[0])} "
                             f"(+{len(missing) - 1} more)") from None
        if len(table) > len(ordered):  # every cell has a value, so some simplex is not a cell
            extra = [s for s in table if s not in complex]
            raise ValueError(f"value given for a simplex outside the complex: {tuple(extra[0])}")
        self._hold(complex, *_ranks(ordered))

    @classmethod
    def _of(cls, K: SimplicialComplex, distinct: list, rank: np.ndarray) -> "MorseFunction":
        """The function on K of sorted distinct values and their ranks, trusted."""
        return object.__new__(cls)._hold(K, distinct, rank)

    def _hold(self, K: SimplicialComplex, distinct: list, rank: np.ndarray) -> "MorseFunction":
        rank.flags.writeable = False  # every pass on K reads this one array
        for name, value in zip(self.__slots__, (K, distinct, rank)):
            object.__setattr__(self, name, value)
        return self

    @classmethod
    def _inherited(cls, K: SimplicialComplex,
                   explicit: Mapping[Simplex, Fraction | int]) -> Optional["MorseFunction"]:
        """The function on K of explicit exact values on cells of K, a cell
        without one taking the least rank over its valued cofaces by the coface
        walk (skipped when every cell is valued); None when a cell gets none."""
        distinct, rank = _ranks(list(map(explicit.get, K.simplices())))
        if len(explicit) < len(K):
            unvalued = rank == len(distinct)
            rank[unvalued] = _least_over_cofaces(K, rank.copy())[unvalued]
        return cls._of(K, distinct, rank) if rank.max() < len(distinct) else None

    def __setattr__(self, name, value):
        raise AttributeError("MorseFunction is immutable")

    def __call__(self, s: Simplex) -> Fraction | int:
        return self._distinct[self._rank[self.complex._index[s]]]

    def items(self):
        return list(zip(self.complex, map(self._distinct.__getitem__, self._rank.tolist())))

    @property
    def max_value(self) -> Fraction | int:
        return max(self._distinct[-1:])  # a ValueError on the empty complex

    def restrict(self, sub: SimplicialComplex) -> "MorseFunction":
        """Value restriction to a subcomplex, ranked among its own values; not
        re-validated, but a warning is emitted if it is not Morse there."""
        if (mask := self.complex._mask(sub)) is None:
            raise ValueError("can only restrict to a subcomplex")
        used, rank = np.unique(self._rank[mask], return_inverse=True)
        g = MorseFunction._of(sub, list(map(self._distinct.__getitem__, used.tolist())), rank)
        bad = validate_morse(sub, g)
        if bad:
            warnings.warn(f"restriction is not a Morse function on the subcomplex "
                          f"({len(bad)} violations)", stacklevel=2)
        return g


def _ranks(values: Sequence) -> tuple[list, np.ndarray]:
    """The sorted distinct values, one per cell in K's order, and each cell's
    rank among them (their number for a cell with no value, None)."""
    distinct = sorted(set(values).difference((None,)))
    rank = dict(zip(distinct, range(len(distinct))))
    rank[None] = len(distinct)
    return distinct, np.fromiter(map(rank.__getitem__, values), dtype=np.intp,
                                 count=len(values))


def _ranked(K: SimplicialComplex, f: MorseFunction) -> tuple[list, np.ndarray]:
    """f's sorted distinct values and each cell of K's rank among them, in K's
    order (f's own ranks on f's complex); a ValueError names a cell with none."""
    if K is f.complex:
        return f._distinct, f._rank
    at = list(map(f.complex._index.get, K.simplices()))
    if None in at:
        cell = K.simplices()[at.index(None)]
        raise ValueError(f"function not total on the complex: no value for {tuple(cell)}")
    return f._distinct, f._rank[at]


def _exceptional(K: SimplicialComplex, rank: np.ndarray) -> tuple[np.ndarray, ...]:
    """The exceptional incidences on K of a function of ranks `rank` (from
    `_ranked`), a facet n of a cell t with f(n) >= f(t), as the positions of
    their cells and facets in the index's order, and per cell the number it
    takes part in: 0 when critical, 2 or more when violating."""
    cells, facets, _ = K._facet_index()
    exceptional = rank[facets] >= rank[cells]
    cells, facets = cells[exceptional], facets[exceptional]
    return cells, facets, np.bincount(np.concatenate((cells, facets)), minlength=len(K))


def _violations(K: SimplicialComplex, cells: np.ndarray,
                facets: np.ndarray) -> tuple[MorseViolation, ...]:
    """A violation per offending cell and kind, cell by cell in K's order,
    from the exceptional incidences: a cell's exceptional cofacets in K's
    order, then its exceptional facets in vertex-deletion order."""
    simplices, up, down, out = K.simplices(), {}, {}, []
    for t, n in zip(cells.tolist(), facets.tolist()):
        up.setdefault(n, []).append(simplices[t])
        down.setdefault(t, []).append(simplices[n])
    for i in sorted(up.keys() | down.keys()):
        s, ups, downs = simplices[i], tuple(up.get(i, ())), tuple(down.get(i, ()))
        if len(ups) > 1:
            out.append(MorseViolation(s, "excess_cofacets", ups))
        if len(downs) > 1:
            out.append(MorseViolation(s, "excess_facets", downs))
        if len(ups) == 1 and len(downs) == 1:
            out.append(MorseViolation(s, "both_exceptional", ups + downs))
    return tuple(out)


def _classify(K: SimplicialComplex, f: MorseFunction) -> tuple[tuple, tuple]:
    """The violations (cell by cell in K's order) and the critical cells."""
    cells, facets, count = _exceptional(K, _ranked(K, f)[1])
    critical = tuple(map(K.simplices().__getitem__, (count == 0).nonzero()[0].tolist()))
    return _violations(K, cells, facets) if count.max(initial=0) > 1 else (), critical


def _critical_values(K: SimplicialComplex, f: MorseFunction) -> tuple[set, bool]:
    """(values, morse): f's critical values on K and True, or every distinct
    value of f and False when f is not Morse on K; builds no violation."""
    distinct, rank = _ranked(K, f)
    count = _exceptional(K, rank)[2]
    morse = count.max(initial=0) <= 1
    return set(map(distinct.__getitem__, rank[count == 0].tolist()) if morse else distinct), morse


def validate_morse(K: SimplicialComplex, f: MorseFunction) -> tuple[MorseViolation, ...]:
    """Check the two at-most-one conditions cell by cell; empty result means OK.

    A cell with exactly one exceptional facet and one exceptional cofacet is
    reported as its own violation class ('both_exceptional'); the exclusivity
    of the two conditions is surfaced, not assumed.
    """
    return _classify(K, f)[0]


def critical_cells(K: SimplicialComplex, f: MorseFunction) -> tuple[Simplex, ...]:
    """Cells with no exceptional facet and no exceptional cofacet, or
    NotMorseError with the violations."""
    bad, critical = _classify(K, f)
    if bad:
        raise NotMorseError(bad)
    return critical


def sublevel(K: SimplicialComplex, f: MorseFunction, u: Rational) -> SimplicialComplex:
    """Face closure of every cell with value at most u: the cells whose least
    rank over themselves and their cofaces is at most u's."""
    distinct, rank = _ranked(K, f)
    return K._sub(_least_over_cofaces(K, rank.copy()) < bisect_right(distinct, Fraction(u)))


class UnknownLabelError(KeyError):
    """No filtration step carries the requested threshold label."""

    def __str__(self):
        return str(self.args[0])


class Filtration:
    """Strictly increasing thresholds over one complex and the step at which
    each cell enters, an integer array in the complex's order. The spaces of
    a system are masks over its complex's cells that read this one array;
    `entry`, the same steps keyed by cell, is built when read, and the
    numbering of the cells in filtration order on first use, then kept."""

    __slots__ = ("thresholds", "complex", "_steps", "_numbered")

    def __init__(self, thresholds: Sequence[Rational], steps: Sequence[SimplicialComplex]):
        ts = tuple(_exact(t) for t in thresholds)
        if len(ts) != len(steps) or not ts:
            raise ValueError("thresholds and steps must be equal-length and non-empty")
        if any(a >= b for a, b in zip(ts, ts[1:])):
            raise ValueError("thresholds must be strictly increasing")
        masks = list(map(steps[-1]._mask, steps))  # each step's cells over the last step's
        if any(m is None for m in masks) or any((a & ~b).any() for a, b in zip(masks, masks[1:])):
            raise ValueError("filtration steps are not nested")
        # a cell is in every step from the one it enters on
        entry = len(ts) - np.count_nonzero(masks, axis=0)
        for name, value in zip(self.__slots__, (ts, steps[-1], entry, None)):
            object.__setattr__(self, name, value)

    @classmethod
    def _of(cls, thresholds: tuple, K: SimplicialComplex, steps: np.ndarray) -> "Filtration":
        """A filtration of K from sorted thresholds and each cell's entry step in K's order."""
        filtration = object.__new__(cls)
        for name, value in zip(cls.__slots__, (thresholds, K, steps, None)):
            object.__setattr__(filtration, name, value)
        return filtration

    def _numbering(self) -> tuple[np.ndarray, tuple]:
        """(index, degrees): each degree's cells numbered once in filtration
        order (entry step, then the complex's order), each cell's index by its
        position, and per degree its cells' positions, entry steps and facet
        rows (a list of indices per cell) in that order. Built once, then kept."""
        if self._numbered is None:
            K, steps = self.complex, self._steps
            levels, ends = K._facet_index()[2], [0, *accumulate(map(len, K._by_dim))]
            index, degrees = np.empty(len(K), dtype=np.intp), []
            for k, (a, b) in enumerate(zip(ends, ends[1:])):
                order = a + steps[a:b].argsort(kind="stable")
                index[order] = np.arange(b - a)
                facets = index[levels[k - 1][1].reshape(-1, k + 1)[order - a]].tolist() if k \
                    else [[] for _ in order]  # a vertex has no facets
                degrees.append((order, steps[order], facets))
            object.__setattr__(self, "_numbered", (index, tuple(degrees)))
        return self._numbered

    def __setattr__(self, name, value):
        raise AttributeError("Filtration is immutable")

    def __len__(self) -> int:
        return len(self.thresholds)

    @property
    def entry(self) -> dict[Simplex, int]:
        """Each cell's entry step, keyed by cell in the complex's order; built on each access."""
        return dict(zip(self.complex.simplices(), self._steps.tolist()))

    @property
    def steps(self) -> tuple[SimplicialComplex, ...]:
        """The step complexes, built on each access as the subcomplexes on the
        masks of the cells entered by then (a cell enters no earlier than its facets)."""
        return tuple(self.complex._sub(self._steps <= u) for u in range(len(self)))

    def index_of(self, label: Rational) -> int:
        t = _exact(label)
        try:
            return self.thresholds.index(t)
        except ValueError:
            raise UnknownLabelError(f"no filtration step labelled {label}") from None

    def labels(self) -> tuple[str, ...]:
        return tuple(str(t) for t in self.thresholds)

    def restrict_to(self, A: SimplicialComplex) -> "Filtration":
        """The induced filtration of a subcomplex: each step intersected with A."""
        if (mask := self.complex._mask(A)) is None:
            raise ValueError("A is not a subcomplex of the filtered complex")
        return Filtration._of(self.thresholds, A, self._steps[mask])


def sublevel_filtration(K: SimplicialComplex, f: MorseFunction,
                        thresholds: Iterable[Rational]) -> Filtration:
    """Sublevel complexes of f at the given thresholds (sorted, deduplicated).

    If the last threshold does not capture all of K, a final step at max f is
    appended so the filtration always terminates in the full complex. Each
    threshold is placed among f's ranked values by one bisection, so a cell's
    own step, the number of thresholds below its value, is the number of
    those places at or below its rank; a cell enters with the earliest of its
    cofaces. A cell of K that f gives no value raises ValueError."""
    distinct, rank = _ranked(K, f)
    ts = sorted({_exact(t) for t in thresholds})
    if not ts:
        raise ValueError("at least one threshold is required")
    if ts[-1] < f.max_value:
        ts.append(f.max_value)
    cuts = np.array([bisect_right(distinct, t) for t in ts])  # how many values are at most each
    return Filtration._of(tuple(ts), K, _least_over_cofaces(K, cuts.searchsorted(rank, "right")))


def filtration_from_morse(K: SimplicialComplex, f: MorseFunction,
                          thresholds: Optional[Iterable[Rational]] = None) -> Filtration:
    """Filtration at the distinct critical values of f, or at explicit thresholds.

    Either way a final max-f step is appended when needed, so the last step
    equals K. Steps that repeat between consecutive thresholds are retained.
    """
    critical, morse = _critical_values(K, f)  # validates f
    if not morse:
        raise NotMorseError(validate_morse(K, f))
    return sublevel_filtration(K, f, critical if thresholds is None else thresholds)


@dataclass(frozen=True)
class PerfectnessReport:
    perfect: bool
    critical_counts: tuple[int, ...]
    betti: tuple[int, ...]

    def __bool__(self):
        return self.perfect


def is_perfect(K: SimplicialComplex, f: MorseFunction, p: int) -> PerfectnessReport:
    """True when per-degree critical cell counts equal the Betti numbers over F_p."""
    return _perfectness(K, critical_cells(K, f), p)


def _perfectness(K: SimplicialComplex, crit: Iterable[Simplex], p: int) -> PerfectnessReport:
    counts = [0] * (K.dim + 1)
    for s in crit:
        counts[s.dim] += 1
    betti = betti_numbers(K, p)
    return PerfectnessReport(counts == betti, tuple(counts), tuple(betti))
