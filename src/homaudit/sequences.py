"""Long sequences of a filtered triad (Mayer-Vietoris) or pair, audited at
three levels: ordinary homology per sublevel (exact), persistent groups
between two sublevels (order 2, exactness may fail), and graded persistence
modules (exact componentwise).

Sequences are finite windows over degrees 0..dim X; beyond the top degree
the tails are closed off with zero spaces and zero maps.

Each space of a system is a mask over X's cells, so the subspace,
intersection and cover checks are mask operations, and every space reads its
rows off the one numbering of X's filtration: chains pass between spaces as
a result keeps its cycle columns, from one result's `_chains` or
`_boundaries` to another's `_coordinates`, unread here. A system builds each
horizontal map once, as M over all bars: a column per source bar and a row
per target bar, summands side by side. A bar's cycle column is one chain for
its whole life, so the map at step u is M on the bars alive at u, and the
persistent map at (u, v) is M on the bars alive through [u, v]. Two
structural checks on every nonzero M[t, s], birth(t) <= birth(s) and
death(t) <= death(s), give every commuting square and every restriction that
stays in its target group. Persistence reduces M once (`_image_bars`),
columns in birth order and rows numbered by death, and each pivot column
gives an image bar (Cohen-Steiner-Edelsbrunner-Harer-Morozov 2009;
Bauer-Schmahl 2023); the rank at (u, v) is the number of image bars
containing [u, v]. Order 2 at a term fails at (u, v) exactly when a nonzero
entry of the composite of its two maps has its source born by u and its
target alive after v. So every ordinary (u = v) and persistent audit is a
count over bar arrays, each distinct position built once per system and kept
under the counts that determine it; the module level is one per-step count
table (+1 at each bar's birth, -1 at its death, summed over the steps) read
as arrays, every step at once. A returned sequence's maps are selected from M only when read.
An entry in no group pair (its target born once its source is dead) is
dropped; any other that fails a check is an internal fault: the module level
raises, and `audit`, which audits any `LinearSequence` from its maps alone,
audits (u, v).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, Optional

import numpy as np

from . import linalg
from .complexes import NotSubcomplexError, SimplicialComplex
from .linalg import DimensionMismatchError
from .morse import Filtration
from .persistence import BarMatrix, PersistenceResult, _image_bars

ORDINARY = "ordinary"
PERSISTENT = "persistent-group"
MODULE = "graded-module"

TERM_X = "X"
TERM_INT = "A∩B"
TERM_SUM = "A⊕B"
TERM_A = "A"
TERM_B = "B"
TERM_REL = "(X,A)"
GAPS = ("delta", "alpha", "beta")


class NotCoveringError(ValueError):
    """The triad does not satisfy X = A ∪ B as subcomplexes."""


class RestrictionLeakError(RuntimeError):
    """A restricted map left its target persistent group.

    Commutativity of the inclusion squares forbids this; seeing it means the
    implementation (not the input) is wrong.
    """


@dataclass(frozen=True)
class SequenceTerm:
    label: str
    degree: int
    dim: int
    dims_per_step: Optional[tuple[int, ...]] = None  # graded-module level only


@dataclass(frozen=True)
class LinearSequence:
    level: str
    kind: str  # 'mayer-vietoris' or 'pair'
    terms: tuple[SequenceTerm, ...]
    # maps[i]: terms[i] -> terms[i+1], built when read; at the module level, a
    # sequence of one matrix per step
    maps: Sequence
    modulus: int
    u: Optional[int] = None
    v: Optional[int] = None


@dataclass(frozen=True)
class StepAudit:
    step: int
    dim: int
    dim_image_in: int
    dim_kernel_out: int
    order2: bool
    exact: bool
    defect: int


@dataclass(frozen=True)
class PositionAudit:
    term: str
    degree: int
    dim: int
    dim_image_in: int
    dim_kernel_out: int
    order2: bool
    exact: bool
    defect: int
    # module level only: a read-only sequence of StepAudit, built when read
    steps: Optional[Sequence[StepAudit]] = None


@dataclass(frozen=True)
class SequenceAudit:
    level: str
    kind: str
    positions: tuple[PositionAudit, ...]
    order2: bool
    exact: bool

    def position(self, term: str, degree: int) -> PositionAudit:
        for pos in self.positions:
            if pos.term == term and pos.degree == degree:
                return pos
        raise KeyError(f"no position ({term}, degree {degree})")

    def defects(self) -> dict[tuple[str, int], int]:
        return {(pos.term, pos.degree): pos.defect
                for pos in self.positions if pos.defect != 0}


# ---------------------------------------------------------------------------
# systems: cached persistence of all spaces in a triad / pair

class _System:
    """Persistence of the spaces of a triad or pair over one filtration of X.

    Each subspace is a mask over X's cells: the one a subcomplex taken from X
    keeps, or else one lookup by key.
    `spaces` maps each space name to its persistence result, in the order
    reports list them. A sequence term is one space or the direct sum `A⊕B`
    of two, whose bars are its summands' bars side by side. `matrix` keeps
    each map over all bars, built once by the subclass's `map_at`.
    """

    kind: str
    spaces: dict[str, PersistenceResult]
    # within one degree: the three terms in sequence order; the lead term
    # sits one degree up at the head of the window
    term_cycle: tuple[str, str, str]
    lead_term: str

    def __init__(self, X: SimplicialComplex, subcomplexes: tuple[SimplicialComplex, ...],
                 filtration: Filtration, modulus: int):
        self._masks = list(map(X._mask, subcomplexes))
        if any(mask is None for mask in self._masks):
            raise NotSubcomplexError("subspaces must be subcomplexes of X")
        if filtration.complex != X:
            raise ValueError("the filtration must filter X")
        self.X = X
        self.modulus = linalg.check_modulus(modulus)
        self.top_degree = D = max(X.dim, 0)
        self.filtration = filtration
        self.n_steps = len(filtration)
        # (label, degree) of every term, the leading above-top-degree term
        # included, and (map name, degree) of every arrow between them
        self._terms = ((self.lead_term, D + 1),) + tuple(
            (label, k) for k in range(D, -1, -1) for label in self.term_cycle)
        self._gaps = tuple((gap, k) for k in range(D, -1, -1) for gap in GAPS)
        self._matrices: dict[tuple[str, int], BarMatrix] = {}
        # (term, dim, image rank in, rank out, witnesses) -> (term, its audit)
        self._audits: dict[tuple, tuple[SequenceTerm, PositionAudit]] = {}
        # the maps over bars read every space's cycle columns: each keeps them from its build
        self._space = partial(PersistenceResult, filtration, self.modulus, self.top_degree,
                              cycles=True)

    def _summands(self, label: str) -> list[PersistenceResult]:
        return [self.spaces[name] for name in label.split("⊕")]

    @cached_property
    def _bars(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Births and deaths of each term's bars: the rows or columns of its maps."""
        return [tuple(map(np.concatenate, zip(*(R.bars_alive(k) for R in self._summands(label)))))
                for label, k in self._terms]

    def matrix(self, gap: str, k: int) -> BarMatrix:
        """The map `gap` ('delta', 'alpha' or 'beta') of degree k over all bars."""
        if (gap, k) not in self._matrices:
            if (gap, k) not in self._gaps:
                raise ValueError(f"the sequence has no map {gap} of degree {k}")
            self._matrices[gap, k] = self.map_at(gap, k)
        return self._matrices[gap, k]

    def _maps_at(self, u: int, v: int) -> _Lazy:
        """The sequence's maps at (u, v), selected when read: map i (term i ->
        term i + 1) on the bars alive through [u, v], then a zero map."""
        groups, G = _Lazy(len(self._terms), lambda j: _group(self._bars[j], u, v)), len(self._gaps)
        return _Lazy(G + 1, lambda i: _select(self.matrix(*self._gaps[i]), groups[i + 1], groups[i])
                     if i < G else np.zeros((0, groups[G][2]), dtype=np.int64))

    def horizontal(self, gap: str, k: int, u: int) -> np.ndarray:
        """The map `gap` of degree k at step u, read-only."""
        _check_steps(self, u, u)
        self.matrix(gap, k)  # ValueError unless (gap, k) is an arrow of the sequence
        return self._maps_at(u, u)[self._gaps.index((gap, k))]

    @cached_property
    def _profile(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict]:
        """(births, deaths, slots) of every bar a count reads: term j's bars
        in slot j < T, map i's image bars in T + i, and in T + G + j term j's
        order-2 witnesses, a bar [source birth, target death) per nonzero
        entry of its composite. Then {map i: (target births, target deaths,
        source births, source deaths) of its entries that fail a check}."""
        T, G, p, bars = len(self._terms), len(self._gaps), self.modulus, self._bars
        maps = [self.matrix(gap, k) for gap, k in self._gaps]
        parts, faults = [(b, d, j) for j, (b, d) in enumerate(bars)], {}
        for i, m in enumerate(maps):
            if not m.values.size:  # the zero map: no entry to check, no image bar
                continue
            (sb, sd), (tb, td) = bars[i], bars[i + 1]
            ends = tb[m.rows], td[m.rows], sb[m.cols], sd[m.cols]
            bad = (ends[0] > ends[2]) | (ends[1] > ends[3])
            if bad.any():  # drop the entries in no group pair: target born once source dead
                read = ends[0] < ends[3]
                maps[i] = m = BarMatrix(m.shape, *(a[read] for a in m[1:]))
                if (bad := bad & read).any():
                    faults[i] = tuple(e[bad] for e in ends)
            parts.append((*_image_bars(m, sb, td, p), T + i))
        for j in range(1, G):
            if maps[j].values.size and maps[j - 1].values.size:
                s, t = _composite(maps[j], maps[j - 1], p)
                parts.append((bars[j - 1][0][s], bars[j + 1][1][t], T + G + j))
        births, deaths, slots = zip(*parts)
        slots = np.repeat(slots, [b.size for b in births])
        births, deaths = np.concatenate(births), np.concatenate(deaths)
        alive = births < deaths
        return births[alive], deaths[alive], slots[alive], faults


class MayerVietorisSystem(_System):
    """Absolute persistence of X, A, B, and A∩B over one filtration of X."""

    kind = "mayer-vietoris"
    term_cycle = (TERM_INT, TERM_SUM, TERM_X)
    lead_term = TERM_X

    def __init__(self, X: SimplicialComplex, A: SimplicialComplex, B: SimplicialComplex,
                 filtration: Filtration, modulus: int):
        super().__init__(X, (A, B), filtration, modulus)
        mA, mB = self._masks
        if not (mA | mB).all():
            raise NotCoveringError("A ∪ B does not cover X")
        self.A, self.B, space = A, B, self._space
        self.RX, self.RA, self.RB, self.RAB = space(), space(mA), space(mB), space(mA & mB)
        self.spaces = {TERM_X: self.RX, TERM_A: self.RA, TERM_B: self.RB, TERM_INT: self.RAB}

    def map_at(self, gap: str, k: int) -> BarMatrix:
        if gap == "delta":
            return mv_connecting(self, k)
        if gap == "alpha":  # H_k(A∩B) -> H_k(A) ⊕ H_k(B), x -> (x, -x)
            s, t = (induced_inclusion_map(self.RAB, R, k) for R in (self.RA, self.RB))
            return BarMatrix((s.shape[0] + t.shape[0], s.shape[1]),
                             np.append(s.rows, t.rows + s.shape[0]), np.append(s.cols, t.cols),
                             np.append(s.values, -t.values % self.modulus))
        if gap == "beta":  # H_k(A) ⊕ H_k(B) -> H_k(X), the classes side by side
            return self.RX._coordinates(k, self.RA._chains(k) + self.RB._chains(k))
        raise ValueError(gap)


class PairSystem(_System):
    """Absolute persistence of X and A plus relative persistence of (X, A)."""

    kind = "pair"
    term_cycle = (TERM_A, TERM_X, TERM_REL)
    lead_term = TERM_REL

    def __init__(self, X: SimplicialComplex, A: SimplicialComplex,
                 filtration: Filtration, modulus: int):
        super().__init__(X, (A,), filtration, modulus)
        self.A, space, (mA,) = A, self._space, self._masks
        self.RX, self.RA, self.RXA = space(), space(mA), space(None, mA)
        self.spaces = {TERM_X: self.RX, TERM_A: self.RA, TERM_REL: self.RXA}

    def map_at(self, gap: str, k: int) -> BarMatrix:
        if gap == "delta":
            return pair_connecting(self, k)
        if gap == "alpha":
            return induced_inclusion_map(self.RA, self.RX, k)
        if gap == "beta":
            return quotient_map(self, k)
        raise ValueError(gap)


# ---------------------------------------------------------------------------
# the three horizontal maps, chain level, over all bars

def induced_inclusion_map(R_sub: PersistenceResult, R_sup: PersistenceResult,
                          k: int) -> BarMatrix:
    """H_k(sub) -> H_k(sup) over all bars: the classes, in the bigger space,
    of the smaller space's cycle columns."""
    return R_sup._coordinates(k, R_sub._chains(k))


def mv_connecting(sys: MayerVietorisSystem, k: int) -> BarMatrix:
    """Connecting map H_{k+1}(X) -> H_k(A∩B) over all bars: split each cycle
    column into an A-part and a B-part and take the class of the A-part's
    boundary. A cell present at a step lies in that step of A exactly when it
    lies in A, so the split is the same at every step: the A-part is the
    chain on A's mask, and a cell of A∩B goes to the A side."""
    return sys.RAB._coordinates(k, sys.RX._boundaries(k + 1, sys._masks[0]))


def pair_connecting(sys: PairSystem, k: int) -> BarMatrix:
    """Connecting map H_{k+1}(X, A) -> H_k(A) over all bars: a relative
    class is a chain of X whose boundary lies in A, and the class of that
    boundary is the image."""
    return sys.RA._coordinates(k, sys.RXA._boundaries(k + 1))


def quotient_map(sys: PairSystem, k: int) -> BarMatrix:
    """H_k(X) -> H_k(X, A) over all bars: each cycle column of X read in
    C(X)/C(A), where its cells in A are zero."""
    return sys.RXA._coordinates(k, sys.RX._chains(k))


# ---------------------------------------------------------------------------
# maps over bars: selection and composites

def _group(bars: tuple[np.ndarray, np.ndarray], u: int, v: int) -> tuple:
    """The bars alive through [u, v]: a mask, each bar's position among them, their number."""
    alive = (bars[0] <= u) & (bars[1] > v)
    position = alive.cumsum()
    return alive, position - 1, int(position[-1]) if position.size else 0


def _select(m: BarMatrix, target: tuple, source: tuple) -> np.ndarray:
    """m on a group of its target's bars and one of its source's; read-only."""
    (rows, row_at, n_rows), (cols, col_at, n_cols) = target, source
    out = np.zeros((n_rows, n_cols), dtype=np.int64)
    if m.values.size:
        keep = rows[m.rows] & cols[m.cols]
        out[row_at[m.rows[keep]], col_at[m.cols[keep]]] = m.values[keep]
    out.setflags(write=False)
    return out


def _composite(a: BarMatrix, b: BarMatrix, p: int) -> tuple[np.ndarray, np.ndarray]:
    """The columns and rows of the nonzero entries of a · b over F_p."""
    by_col: dict[int, list] = {}
    for t, m, y in zip(a.rows.tolist(), a.cols.tolist(), a.values.tolist()):
        by_col.setdefault(m, []).append((t, y))
    out: dict[tuple[int, int], int] = {}
    for m, s, x in zip(b.rows.tolist(), b.cols.tolist(), b.values.tolist()):
        for t, y in by_col.get(m, ()):
            out[s, t] = (out.get((s, t), 0) + x * y) % p
    return np.array([st for st, z in out.items() if z], dtype=np.int64).reshape(-1, 2).T


class _Lazy(Sequence):
    """A read-only sequence whose item i is `build(i)`, built when first read."""

    def __init__(self, n: int, build: Callable[[int], object]):
        self._build, self._items = build, [None] * n

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[j] for j in range(*i.indices(len(self))))
        if self._items[i] is None:
            self._items[i] = self._build(range(len(self))[i])
        return self._items[i]

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))


class _StepAudits(Sequence):
    """The steps of one position of a module audit, from its columns (dim,
    image in, kernel out, order 2, exact, defect: one entry per step): a
    read-only sequence of StepAudit, each built when read, equal to the
    tuple of them and hashing like it."""

    def __init__(self, *columns: np.ndarray):
        self._arrays, self._lists = columns, None

    def _columns(self) -> list[list]:
        """The columns as lists of Python ints and bools, converted once."""
        if self._lists is None:
            self._lists = [a.tolist() for a in self._arrays]
        return self._lists

    def __len__(self) -> int:
        return len(self._arrays[0])

    def __getitem__(self, u):
        if isinstance(u, slice):
            return tuple(map(self.__getitem__, range(*u.indices(len(self)))))
        u = range(len(self))[u]
        return StepAudit(u, *(c[u] for c in self._columns()))

    def __iter__(self):
        return map(StepAudit, range(len(self)), *self._columns())

    def __eq__(self, other):
        if isinstance(other, _StepAudits):
            return self._columns() == other._columns()
        return tuple(self) == other if isinstance(other, tuple) else NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


# ---------------------------------------------------------------------------
# sequence assembly

def _check_steps(sys: _System, u: int, v: int) -> None:
    if not 0 <= u <= v < sys.n_steps:
        raise IndexError(f"bad step pair ({u}, {v})")


def _positions(sys: _System, counts: list[int]) -> list[tuple[SequenceTerm, PositionAudit]]:
    """Each term and its audit from the counts in the slots of `_System._profile`,
    built once per system for each (term, dim, image rank in, rank out,
    order-2 witnesses), the values that fully determine them."""
    T, G = len(sys._terms), len(sys._gaps)
    ranks, built = counts[T:T + G] + [0], sys._audits
    pairs = []
    for key in zip(range(T), counts, [0] + ranks, ranks, counts[T + G:]):
        pair = built.get(key)
        if pair is None:
            j, dim, im, rank, witnesses = key
            label, k = sys._terms[j]
            ker, order2 = dim - rank, not witnesses
            pair = built[key] = (SequenceTerm(label, k, dim), PositionAudit(
                label, k, dim, im, ker, order2, order2 and im == ker, ker - im))
        pairs.append(pair)
    return pairs


def _sequence(sys: _System, level: str, u: int, v: int) -> tuple[LinearSequence, SequenceAudit]:
    """The sequence of the groups at (u, v), its maps selected when read, and
    its audit by counts; by `audit` of the sequence when a map fails a
    structural check, whose counts would not be ranks."""
    _check_steps(sys, u, v)
    births, deaths, slots, faults = sys._profile
    counts = np.bincount(slots[(births <= u) & (deaths > v)],
                         minlength=2 * len(sys._terms) + len(sys._gaps)).tolist()
    terms, positions = zip(*_positions(sys, counts))
    seq = LinearSequence(level, sys.kind, terms, sys._maps_at(u, v), sys.modulus, u=u,
                         v=None if level == ORDINARY else v)
    return seq, audit(seq) if faults else _sequence_audit(level, sys.kind, positions)


def ordinary_sequence(sys: _System, u: int) -> tuple[LinearSequence, SequenceAudit]:
    """The long sequence of sublevel u, which must audit exact everywhere."""
    return _sequence(sys, ORDINARY, u, u)


def persistent_sequence(sys: _System, u: int, v: int) -> tuple[LinearSequence, SequenceAudit]:
    """The sequence of persistent groups between sublevels u <= v: in
    bar-adapted bases each group (an image of a vertical map) is the bars
    alive through [u, v], and each arrow a map over bars restricted to them,
    which must send every selected column into the selected rows. Order 2
    must always hold; exactness may fail."""
    _check_steps(sys, u, v)
    for i, (tb, td, sb, sd) in sys._profile[3].items():
        if ((sb <= u) & (sd > v) & (u < tb) & (tb <= v) & (td > v)).any():
            gap, k = sys._gaps[i]
            raise RestrictionLeakError(f"{gap} at degree {k} left the target persistent group; "
                                       "the inclusion squares cannot commute")
    return _sequence(sys, PERSISTENT, u, v)


def module_sequence(sys: _System) -> tuple[LinearSequence, SequenceAudit]:
    """The sequence of graded persistence modules, assembled componentwise.

    A sequence of graded modules is exact exactly when it is exact at every
    step index, and its maps commute with the shift action exactly when the
    squares between consecutive steps commute. So the module level is the
    ordinary audit of every step, summed, plus those squares; it must be
    exact everywhere. Row u of the count table holds step u's counts; a read
    entry that fails a check breaks a square, so past them each count is a
    rank. Every step's audit is read off the table as arrays, and each
    position's steps are a `_StepAudits` over them.
    """
    n, T, G = sys.n_steps, len(sys._terms), len(sys._gaps)
    births, deaths, slots, faults = sys._profile
    u = np.arange(n - 1)[:, None]  # the squares between steps u and u + 1, all at once
    broken = np.zeros(n - 1, dtype=bool)
    for ends in faults.values():
        broken |= _breaks(ends, u, u + 1).any(axis=1)
    if broken.any():
        first = int(broken.argmax())
        raise ValueError(f"graded {check_squares(sys, first, first + 1)[0]} "
                         "does not commute with the shift action")
    # row u: the bars born by u less those dead by u, slot by slot
    S = 2 * T + G
    table = (np.bincount(births * S + slots, minlength=(n + 1) * S) -
             np.bincount(deaths * S + slots, minlength=(n + 1) * S)
             ).reshape(n + 1, S)[:n].cumsum(axis=0)
    dim, (rank, im) = table[:, :T], np.zeros((2, n, T), dtype=table.dtype)
    rank[:, :G] = table[:, T:T + G]  # the last term's map out is the zero map
    im[:, 1:] = rank[:, :-1]
    ker, order2 = dim - rank, table[:, T + G:] == 0
    columns = dim, im, ker, order2, order2 & (im == ker), ker - im
    sums = [(c.all if c.dtype == bool else c.sum)(axis=0).tolist() for c in columns]
    terms, positions = [], []
    for j, (label, k) in enumerate(sys._terms):
        terms.append(SequenceTerm(label, k, sums[0][j], tuple(dim[:, j].tolist())))
        positions.append(PositionAudit(label, k, *(s[j] for s in sums),
                                       _StepAudits(*(c[:, j] for c in columns))))
    maps = _Lazy(T, lambda i: _Lazy(n, lambda u: sys._maps_at(u, u)[i]))
    seq = LinearSequence(MODULE, sys.kind, tuple(terms), maps, sys.modulus)
    return seq, _sequence_audit(MODULE, sys.kind, positions)


# ---------------------------------------------------------------------------
# auditing

def _sequence_audit(level: str, kind: str, positions: list[PositionAudit]) -> SequenceAudit:
    return SequenceAudit(level, kind, tuple(positions), all(pos.order2 for pos in positions),
                         all(pos.exact for pos in positions))


def audit(seq: LinearSequence) -> SequenceAudit:
    """Per-position image/kernel comparison of an ordinary or persistent
    sequence; order 2 means im ⊆ ker (checked as vanishing composition),
    exact additionally means equal dimensions."""
    if seq.level == MODULE:
        raise ValueError("a module sequence is audited step by step by module_sequence")
    p = seq.modulus
    ranks = [linalg.dense_rank(m, p) for m in seq.maps]  # maps[i] leaves terms[i]
    positions = []
    for i, term in enumerate(seq.terms):
        in_map = seq.maps[i - 1] if i > 0 else np.zeros((term.dim, 0), dtype=np.int64)
        out_map = seq.maps[i]
        if in_map.shape[0] != term.dim or out_map.shape[1] != term.dim:
            raise DimensionMismatchError(f"maps of shapes {in_map.shape} -> [{term.dim}] "
                                         f"-> {out_map.shape} do not compose")
        im = ranks[i - 1] if i > 0 else 0
        ker = term.dim - ranks[i]
        # a map of rank 0 is the zero map, so the composition vanishes
        order2 = im == 0 or ranks[i] == 0 or not linalg.mat_mul(out_map, in_map, p).any()
        exact = order2 and im == ker
        positions.append(PositionAudit(term.label, term.degree, term.dim,
                                       im, ker, order2, exact, ker - im))
    return _sequence_audit(seq.level, seq.kind, positions)


def check_squares(sys: _System, u: int, v: int) -> list[str]:
    """Commutativity of every inclusion square between sublevels u <= v:
    (map at v) ∘ vertical = vertical ∘ (map at u). The verticals are partial
    identities, so an entry M[t, s] with t alive at v and s alive at u shows
    on the left when s lives through v and on the right when t is born by
    u; the structural checks make both hold, so only the entries that fail
    one can break a square. Returns mismatch descriptions; an empty list
    means all squares commute."""
    _check_steps(sys, u, v)
    return [f"{sys._gaps[i][0]} square at degree {sys._gaps[i][1]} between steps {u} and {v}"
            for i, ends in sys._profile[3].items() if _breaks(ends, u, v).any()]


def _breaks(ends: tuple, u, v) -> np.ndarray:
    """Which entries, given by (target births, target deaths, source births,
    source deaths), break a square between steps u <= v: scalars, or arrays
    that broadcast against the entries."""
    tb, td, sb, sd = ends
    return (tb <= v) & (td > v) & (sb <= u) & (sd > u) & ((sd > v) != (tb <= u))
