"""Discrete Morse functions: validation, critical cells, sublevel complexes,
filtrations, and the perfectness check.

One pass over the facet incidences classifies every cell, giving the
violations and the critical cells together. A filtration stores the step
at which each cell enters, found from the lowest value on the cell's
cofaces; its step complexes are built only on request. Both walks read the
complex's facet table. Values and thresholds are exact: an integral one is
held as an `int`, any other as a `Fraction`; sublevel membership is decided
by exact comparison, never by floats.
"""

from __future__ import annotations

import warnings
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

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

    __slots__ = ("complex", "_values")

    def __init__(self, complex: SimplicialComplex, values: Mapping[Simplex, Rational]):
        table = {s if isinstance(s, Simplex) else Simplex(s): _exact(v)
                 for s, v in values.items()}
        missing = [s for s in complex.simplices() if s not in table]
        if missing:
            raise ValueError(f"function not total: no value for {tuple(missing[0])} "
                             f"(+{len(missing) - 1} more)")
        extra = [s for s in table if s not in complex]
        if extra:
            raise ValueError(f"value given for a simplex outside the complex: {tuple(extra[0])}")
        object.__setattr__(self, "complex", complex)
        object.__setattr__(self, "_values", table)

    def __setattr__(self, name, value):
        raise AttributeError("MorseFunction is immutable")

    def __call__(self, s: Simplex) -> Fraction | int:
        return self._values[s]

    def items(self):
        return [(s, self._values[s]) for s in self.complex.simplices()]

    @property
    def max_value(self) -> Fraction | int:
        return max(self._values.values())

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


def _classify(K: SimplicialComplex, f: MorseFunction) -> tuple[tuple, tuple]:
    """One pass over the incidences of a facet n in a cell t, exceptional when
    f(n) >= f(t): the violations (cell by cell in K's order) and the critical
    cells."""
    value, facets, up, down = f._values, K.facet_table, {}, {}
    for t in K.simplices():
        for n in facets[t]:
            if value[n] >= value[t]:
                up.setdefault(n, []).append(t)
                down.setdefault(t, []).append(n)
    violations = []
    for s in K.simplices():
        ups, downs = tuple(up.get(s, ())), tuple(down.get(s, ()))
        if len(ups) > 1:
            violations.append(MorseViolation(s, "excess_cofacets", ups))
        if len(downs) > 1:
            violations.append(MorseViolation(s, "excess_facets", downs))
        if len(ups) == 1 and len(downs) == 1:
            violations.append(MorseViolation(s, "both_exceptional", ups + downs))
    critical = tuple(s for s in K.simplices() if s not in up and s not in down)
    return tuple(violations), critical


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
    return close_under_faces([s for s in K.simplices() if f(s) <= u])


class UnknownLabelError(KeyError):
    """No filtration step carries the requested threshold label."""

    def __str__(self):
        return str(self.args[0])


class Filtration:
    """Strictly increasing thresholds over one complex and each cell's entry step."""

    __slots__ = ("thresholds", "complex", "entry")

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
        entry = {s: u for u in reversed(range(len(ts))) for s in steps[u].simplices()}
        for name, value in zip(self.__slots__, (ts, steps[-1], entry)):
            object.__setattr__(self, name, value)

    @classmethod
    def _of(cls, thresholds: tuple, K: SimplicialComplex, entry: dict) -> "Filtration":
        """A filtration of K from sorted thresholds and each cell's entry step."""
        filtration = object.__new__(cls)
        for name, value in zip(cls.__slots__, (thresholds, K, entry)):
            object.__setattr__(filtration, name, value)
        return filtration

    def __setattr__(self, name, value):
        raise AttributeError("Filtration is immutable")

    def __len__(self) -> int:
        return len(self.thresholds)

    @property
    def steps(self) -> tuple[SimplicialComplex, ...]:
        """The step complexes, built from `entry` on each access."""
        return tuple(SimplicialComplex([s for s, e in self.entry.items() if e <= u])
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
        if not is_subcomplex(A, self.complex):
            raise ValueError("A is not a subcomplex of the filtered complex")
        return Filtration._of(self.thresholds, A, {s: self.entry[s] for s in A.simplices()})


def sublevel_filtration(K: SimplicialComplex, f: MorseFunction,
                        thresholds: Iterable[Rational]) -> Filtration:
    """Sublevel complexes of f at the given thresholds (sorted, deduplicated).

    If the last threshold does not capture all of K, a final step at max f is
    appended so the filtration always terminates in the full complex. A cell
    enters with the earliest of its cofaces, each placed by bisecting its value."""
    ts = sorted({_exact(t) for t in thresholds})
    if not ts:
        raise ValueError("at least one threshold is required")
    if ts[-1] < f.max_value:
        ts.append(f.max_value)
    entry = _least_over_cofaces(K, {s: bisect_left(ts, f._values[s]) for s in K.simplices()})
    return Filtration._of(tuple(ts), K, entry)


def _least_over_cofaces(K: SimplicialComplex, value: Mapping[Simplex, Rational]) -> dict:
    """Each cell's least value over itself and its valued cofaces, walked down
    the facet table from the top dimension (cells with none are left out)."""
    least, facets = dict(value), K.facet_table
    for s in reversed(K.simplices()):
        x = least.get(s)
        if x is not None:
            for n in facets[s]:
                if n not in least or x < least[n]:
                    least[n] = x
    return least


def filtration_from_morse(K: SimplicialComplex, f: MorseFunction,
                          thresholds: Optional[Iterable[Rational]] = None) -> Filtration:
    """Filtration at the distinct critical values of f, or at explicit thresholds.

    Either way a final max-f step is appended when needed, so the last step
    equals K. Steps that repeat between consecutive thresholds are retained.
    """
    crit = critical_cells(K, f)  # validates f
    if thresholds is None:
        thresholds = {f(s) for s in crit}
    return sublevel_filtration(K, f, thresholds)


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
