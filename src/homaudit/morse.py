"""Discrete Morse functions: validation, critical cells, sublevel complexes,
filtrations, and the perfectness check.

A function holds its values in K's order, so the per-cell passes hash no
cell: they run on the complex's integer index of its (cell, facet)
incidences, as a few array operations per complex (the coface walk takes
one per dimension). Each cell holds its rank among the function's sorted
distinct values, so comparing ranks decides every incidence alike for
`int`, `Fraction` and values of any size. An incidence of a facet n in a
cell t is exceptional when rank(n) >= rank(t); each cell's count of
exceptional incidences tells whether f is a discrete Morse function and
which cells are critical, and a `MorseViolation` is built only for a
violating cell, only when the violations are asked for; `_critical_values`
(f's critical values, or None when f is not Morse) builds none. A filtration
stores the step at which each cell enters, as an integer array in the
complex's order (a restriction indexes it): each threshold is placed among
the ranked values by bisection, so a cell's own step is a search of its
rank among those places, and its entry step is the least over its cofaces,
found by one walk down the index; its step complexes are built only on
request. A filtration ranks f's values once, and the Morse check reads the
same ranks. The same walk gives the values a complex file's faces
inherit. Values and thresholds are exact: an integral one is held as an
`int`, any other as a `Fraction`; sublevel membership is decided by exact
comparison, never by floats.
"""

from __future__ import annotations

import warnings
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .complexes import (SimplicialComplex, Simplex, betti_numbers, close_under_faces,
                        is_subcomplex)

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
    """A total assignment of rational values to the cells of one complex."""

    __slots__ = ("complex", "_values", "_ordered")

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
        for name, value in zip(self.__slots__, (complex, table, ordered)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("MorseFunction is immutable")

    def __call__(self, s: Simplex) -> Fraction | int:
        return self._values[s]

    def items(self):
        return list(zip(self.complex.simplices(), self._ordered))

    @property
    def max_value(self) -> Fraction | int:
        return max(self._ordered)

    def restrict(self, sub: SimplicialComplex) -> "MorseFunction":
        """Value restriction to a subcomplex.

        Restrictions are not re-validated; a warning is emitted if the result
        violates the Morse conditions on the subcomplex.
        """
        if not is_subcomplex(sub, self.complex):
            raise ValueError("can only restrict to a subcomplex")
        g = MorseFunction(sub, {s: self._values[s] for s in sub.simplices()})
        bad = validate_morse(sub, g)
        if bad:
            warnings.warn(f"restriction is not a Morse function on the subcomplex "
                          f"({len(bad)} violations)", stacklevel=2)
        return g


def _in_order(K: SimplicialComplex, f: MorseFunction) -> list:
    """f's values in K's order, its own list when K is f's complex; a cell of
    K that f gives no value is an input error, named as a ValueError."""
    if K is f.complex:
        return f._ordered
    values = list(map(f._values.get, K.simplices()))
    if None in values:
        cell = K.simplices()[values.index(None)]
        raise ValueError(f"function not total on the complex: no value for {tuple(cell)}")
    return values


def _ranks(values: Sequence) -> tuple[list, np.ndarray]:
    """The sorted distinct values, one per cell in K's order, and each cell's
    rank among them (their number for a cell with no value, None)."""
    distinct = sorted(set(values).difference((None,)))
    rank = dict(zip(distinct, range(len(distinct))))
    rank[None] = len(distinct)
    return distinct, np.fromiter(map(rank.__getitem__, values), dtype=np.intp,
                                 count=len(values))


def _least_over_cofaces(K: SimplicialComplex, x: np.ndarray) -> np.ndarray:
    """x, one integer per cell of K in its order, lowered in place to each
    cell's least over itself and its cofaces: the index walked down from
    the top dimension, each dimension's cells lowering their facets."""
    for cells, facets in reversed(K._facet_index()[2]):
        np.minimum.at(x, facets, x[cells])
    return x


def _exceptional(K: SimplicialComplex, rank: np.ndarray) -> tuple[np.ndarray, ...]:
    """The exceptional incidences on K of a function of ranks `rank` (from
    `_ranks`), a facet n of a cell t with f(n) >= f(t), as the positions of
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
    cells, facets, count = _exceptional(K, _ranks(_in_order(K, f))[1])
    critical = tuple(map(K.simplices().__getitem__, (count == 0).nonzero()[0].tolist()))
    return _violations(K, cells, facets) if count.max(initial=0) > 1 else (), critical


def _critical_values(K: SimplicialComplex, ranked: tuple[list, np.ndarray]) -> Optional[set]:
    """The critical values of a function given by its `_ranks` on K, or None
    when it is not Morse on K; builds no violation."""
    distinct, rank = ranked
    count = _exceptional(K, rank)[2]
    if count.max(initial=0) > 1:
        return None
    return set(map(distinct.__getitem__, rank[count == 0].tolist()))


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
    """Face closure of every cell with value at most u."""
    u = Fraction(u)
    return close_under_faces([s for s, x in zip(K.simplices(), _in_order(K, f)) if x <= u])


class UnknownLabelError(KeyError):
    """No filtration step carries the requested threshold label."""

    def __str__(self):
        return str(self.args[0])


class Filtration:
    """Strictly increasing thresholds over one complex and the step at which
    each cell enters, an integer array in the complex's order. The spaces of
    a system are masks over its complex's cells that read this one array;
    `entry`, the same steps keyed by cell, is built when read."""

    __slots__ = ("thresholds", "complex", "_steps")

    def __init__(self, thresholds: Sequence[Rational], steps: Sequence[SimplicialComplex]):
        ts = tuple(_exact(t) for t in thresholds)
        if len(ts) != len(steps) or not ts:
            raise ValueError("thresholds and steps must be equal-length and non-empty")
        if any(a >= b for a, b in zip(ts, ts[1:])):
            raise ValueError("thresholds must be strictly increasing")
        for earlier, later in zip(steps, steps[1:]):
            if not is_subcomplex(earlier, later):
                raise ValueError("filtration steps are not nested")
        # the earliest step wins, so the steps are read from the last one down
        entry = dict.fromkeys(steps[-1].simplices(), len(ts) - 1)
        for u in reversed(range(len(ts) - 1)):
            entry.update(dict.fromkeys(steps[u].simplices(), u))
        entry = np.fromiter(entry.values(), dtype=np.intp, count=len(entry))
        for name, value in zip(self.__slots__, (ts, steps[-1], entry)):
            object.__setattr__(self, name, value)

    @classmethod
    def _of(cls, thresholds: tuple, K: SimplicialComplex, steps: np.ndarray) -> "Filtration":
        """A filtration of K from sorted thresholds and each cell's entry step in K's order."""
        filtration = object.__new__(cls)
        for name, value in zip(cls.__slots__, (thresholds, K, steps)):
            object.__setattr__(filtration, name, value)
        return filtration

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
        """The step complexes, built on each access from `entry` and the complex's
        facet table (a cell enters no earlier than its facets)."""
        table, entry = self.complex.facet_table, self.entry
        return tuple(SimplicialComplex._of({s: table[s] for s, e in entry.items() if e <= u})
                     for u in range(len(self)))

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
    appended so the filtration always terminates in the full complex. A cell
    enters with the earliest of its cofaces; its own step is read off its
    rank among f's values, once each threshold is placed among them. A cell
    of K that f gives no value raises ValueError."""
    return _sublevel(K, f, thresholds, _ranks(_in_order(K, f)))


def _sublevel(K: SimplicialComplex, f: MorseFunction, thresholds: Iterable[Rational],
              ranked: tuple[list, np.ndarray]) -> Filtration:
    """`sublevel_filtration` from f's `_ranks` on K: each threshold is placed
    among the distinct values by one bisection, and a cell's own step, the
    number of thresholds below its value, is the number of those places at
    or below its rank."""
    ts = sorted({_exact(t) for t in thresholds})
    if not ts:
        raise ValueError("at least one threshold is required")
    if ts[-1] < f.max_value:
        ts.append(f.max_value)
    distinct, rank = ranked
    cuts = np.array([bisect_right(distinct, t) for t in ts])  # how many values are at most each
    return Filtration._of(tuple(ts), K, _least_over_cofaces(K, cuts.searchsorted(rank, "right")))


def _inherited_values(K: SimplicialComplex, value: Mapping[Simplex, Rational]) -> list:
    """Each cell's least value over itself and its valued cofaces, in K's
    order (None for a cell with none), by the walk that gives entry steps."""
    distinct, rank = _ranks(list(map(value.get, K.simplices())))
    return list(map((distinct + [None]).__getitem__, _least_over_cofaces(K, rank).tolist()))


def filtration_from_morse(K: SimplicialComplex, f: MorseFunction,
                          thresholds: Optional[Iterable[Rational]] = None) -> Filtration:
    """Filtration at the distinct critical values of f, or at explicit thresholds.

    Either way a final max-f step is appended when needed, so the last step
    equals K. Steps that repeat between consecutive thresholds are retained.
    """
    ranked = _ranks(_in_order(K, f))
    critical = _critical_values(K, ranked)  # validates f
    if critical is None:
        raise NotMorseError(validate_morse(K, f))
    return _sublevel(K, f, critical if thresholds is None else thresholds, ranked)


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
