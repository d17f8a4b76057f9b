"""Long sequences of a filtered triad (Mayer-Vietoris) or pair, audited at
three levels: ordinary homology per sublevel (exact), persistent groups
between two sublevels (order 2, exactness may fail), and graded persistence
modules (exact componentwise).

Sequences are finite windows over degrees 0..dim X; beyond the top degree
the tails are closed off with zero spaces and zero maps.

A system audits its sequences from one rank profile per step v. In
bar-adapted bases each coordinate of a term at v is a bar with a birth, and
the persistent group between u <= v selects the bars born by u. So a
level-v map, its columns sorted by birth, is reduced once: its restriction
to the groups at (u, v) has as rank the number of pivot columns born by u,
a prefix count. That holds because the rows the restriction drops are zero,
which the leak bounds check: no column born by u may reach a row born after
u (these bounds are built on the first query with u < v). Order 2 at a term
holds at (u, v) exactly while u is below the earliest birth among the
nonzero columns of the composition of its two level-v maps. The ordinary
sequence at v is the case u = v, so the ordinary, module and persistent
audits share one reduction per map. `audit` is the generic auditor of any
`LinearSequence`, from its maps alone.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import reduce
from typing import Optional, Union

import numpy as np

from . import linalg
from .complexes import NotSubcomplexError, SimplicialComplex, intersect, is_subcomplex, union
from .linalg import DimensionMismatchError
from .morse import Filtration
from .persistence import (PersistenceResult, _survivors, compute_persistence,
                          relative_persistence)

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
    # maps[i]: terms[i] -> terms[i+1]; at the module level, one matrix per step
    maps: tuple[Union[np.ndarray, tuple[np.ndarray, ...]], ...]
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
    steps: Optional[tuple[StepAudit, ...]] = None


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

    `spaces` maps each space name to its persistence result, in the order
    reports list them. A sequence term is one space or the direct sum `A⊕B`
    of two, so its coordinates at a step are its summands' bars side by
    side, its vertical maps are block diagonal and its persistent groups
    select the bars born early enough. `horizontal` computes each map of
    the sequence once, through the subclass's `map_at`, and keeps it
    read-only; `level` keeps the rank profile of each step's maps.
    """

    kind: str
    spaces: dict[str, PersistenceResult]
    # within one degree: the three terms in sequence order; the lead term
    # sits one degree up at the head of the window
    term_cycle: tuple[str, str, str]
    lead_term: str

    def __init__(self, X: SimplicialComplex, subcomplexes: tuple[SimplicialComplex, ...],
                 filtration: Filtration, modulus: int):
        if not all(is_subcomplex(S, X) for S in subcomplexes):
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
        self._maps: dict[tuple[str, int, int], np.ndarray] = {}
        self._bars: dict[tuple[str, int, int], tuple[np.ndarray, np.ndarray]] = {}
        self._levels: dict[int, _Level] = {}

    def _summands(self, label: str) -> list[PersistenceResult]:
        return [self.spaces[name] for name in label.split("⊕")]

    def term_bars(self, label: str, k: int, u: int) -> tuple[np.ndarray, np.ndarray]:
        """Births and deaths of the term's coordinates at step u."""
        key = (label, k, u)
        if key not in self._bars:
            parts = [R.bars_alive(k, u) for R in self._summands(label)]
            self._bars[key] = parts[0] if len(parts) == 1 else tuple(
                map(np.concatenate, zip(*parts)))
        return self._bars[key]

    def term_dim(self, label: str, k: int, u: int) -> int:
        return self.term_bars(label, k, u)[0].size

    def vertical(self, label: str, k: int, u: int, v: int) -> np.ndarray:
        return reduce(linalg.block_diag,
                      [R.induced_matrix(k, u, v) for R in self._summands(label)])

    def persistent_group(self, label: str, k: int, u: int, v: int) -> np.ndarray:
        """The image of `vertical(label, k, u, v)`: the positions, among the
        term's coordinates at step v, of the bars born by u."""
        _check_steps(self, u, v)
        return (self.term_bars(label, k, v)[0] <= u).nonzero()[0]

    def horizontal(self, gap: str, k: int, u: int) -> np.ndarray:
        """The map `gap` ('delta', 'alpha' or 'beta') of degree k at step u."""
        key = (gap, k, u)
        if key not in self._maps:
            m = self.map_at(gap, k, u)
            m.setflags(write=False)
            self._maps[key] = m
        return self._maps[key]

    def level(self, v: int) -> _Level:
        """The rank profile of the maps at step v, kept while they are the
        maps `horizontal` gives."""
        maps = tuple(self.horizontal(gap, k, v) for gap, k in self._gaps)
        level = self._levels.get(v)
        if level is None or any(a is not b for a, b in zip(maps, level.maps)):
            level = self._levels[v] = _Level(self, v, maps)
        return level


class _Level:
    """The rank profile at step v: `births[j]` of term j's coordinates,
    `pivots[i]` the births of the pivot columns of maps[i] (term i -> term
    i + 1) with its columns in birth order, and `order2_until[j]` the birth
    from which order 2 fails at term j (n_steps: never)."""

    __slots__ = ("maps", "births", "pivots", "order2_until", "_leaks")

    def __init__(self, sys: _System, v: int, maps: tuple[np.ndarray, ...]):
        p = sys.modulus
        self.maps = maps
        self.births = [sys.term_bars(label, k, v)[0] for label, k in sys._terms]
        self.pivots = []
        for m, births in zip(maps, self.births):
            pivots = []
            if m.any():  # a zero map has no pivots
                order = births.argsort(kind="stable")
                pivots = births[order[list(linalg.row_reduce(m[:, order], p)[1])]].tolist()
            self.pivots.append(pivots)
        self.order2_until = [sys.n_steps] * len(self.births)
        for j in range(1, len(maps)):
            if self.pivots[j - 1] and self.pivots[j]:
                hit = linalg.mat_mul(maps[j], maps[j - 1], p).any(axis=0)
                if hit.any():
                    self.order2_until[j] = int(self.births[j - 1][hit].min())
        self._leaks = None

    def leak(self, u: int) -> Optional[int]:
        """The first map that sends a column born by u to a row born after
        u, which the restriction to the groups at (u, v) would drop; None
        when there is none. Each column's latest row birth is found once."""
        if self._leaks is None:
            self._leaks = []
            for i, m in enumerate(self.maps):
                source, target = self.births[i], self.births[i + 1]
                latest = np.where(m != 0, target[:, None], -1).max(axis=0, initial=-1)
                early = source < latest
                if early.any():
                    self._leaks.append((i, source[early], latest[early]))
        for i, born, latest in self._leaks:
            if ((born <= u) & (u < latest)).any():
                return i
        return None

    def audit(self, sys: _System, level_name: str, u: int, dims: list[int]) -> SequenceAudit:
        """The audit at (u, v) of the terms of dimensions `dims`, read off
        the profile: ranks by prefix counts, order 2 by the earliest births."""
        ranks = [bisect_right(pivots, u) for pivots in self.pivots] + [0]
        positions, im = [], 0
        for (label, k), dim, rank, until in zip(sys._terms, dims, ranks, self.order2_until):
            ker, order2 = dim - rank, u < until
            positions.append(PositionAudit(label, k, dim, im, ker, order2,
                                           order2 and im == ker, ker - im))
            im = rank
        return SequenceAudit(level_name, sys.kind, tuple(positions),
                             all(pos.order2 for pos in positions),
                             all(pos.exact for pos in positions))


class MayerVietorisSystem(_System):
    """Absolute persistence of X, A, B, and A∩B over one filtration of X."""

    kind = "mayer-vietoris"
    term_cycle = (TERM_INT, TERM_SUM, TERM_X)
    lead_term = TERM_X

    def __init__(self, X: SimplicialComplex, A: SimplicialComplex, B: SimplicialComplex,
                 filtration: Filtration, modulus: int):
        super().__init__(X, (A, B), filtration, modulus)
        if union(A, B) != X:
            raise NotCoveringError("A ∪ B does not cover X")
        self.A, self.B = A, B
        self.RX = compute_persistence(filtration, self.modulus, self.top_degree)
        self.RA, self.RB, self.RAB = (
            compute_persistence(filtration.restrict_to(S), self.modulus, self.top_degree)
            for S in (A, B, intersect(A, B)))
        self.spaces = {TERM_X: self.RX, TERM_A: self.RA, TERM_B: self.RB, TERM_INT: self.RAB}

    def map_at(self, gap: str, k: int, u: int) -> np.ndarray:
        if gap == "delta":
            return mv_connecting(self, k, u)
        if gap == "alpha":
            s = induced_inclusion_map(self.RAB, self.RA, k, u)
            t = (-induced_inclusion_map(self.RAB, self.RB, k, u)) % self.modulus
            return np.vstack([s, t])
        if gap == "beta":
            za = induced_inclusion_map(self.RA, self.RX, k, u)
            zb = induced_inclusion_map(self.RB, self.RX, k, u)
            return np.hstack([za, zb])
        raise ValueError(gap)


class PairSystem(_System):
    """Absolute persistence of X and A plus relative persistence of (X, A)."""

    kind = "pair"
    term_cycle = (TERM_A, TERM_X, TERM_REL)
    lead_term = TERM_REL

    def __init__(self, X: SimplicialComplex, A: SimplicialComplex,
                 filtration: Filtration, modulus: int):
        super().__init__(X, (A,), filtration, modulus)
        self.A = A
        self.RX = compute_persistence(filtration, self.modulus, self.top_degree)
        self.RA = compute_persistence(filtration.restrict_to(A), self.modulus, self.top_degree)
        self.RXA = relative_persistence(X, A, filtration, self.modulus, self.top_degree)
        self.spaces = {TERM_X: self.RX, TERM_A: self.RA, TERM_REL: self.RXA}

    def map_at(self, gap: str, k: int, u: int) -> np.ndarray:
        if gap == "delta":
            return pair_connecting(self, k, u)
        if gap == "alpha":
            return induced_inclusion_map(self.RA, self.RX, k, u)
        if gap == "beta":
            return quotient_map(self, k, u)
        raise ValueError(gap)


# ---------------------------------------------------------------------------
# the three horizontal maps, chain level

def induced_inclusion_map(R_sub: PersistenceResult, R_sup: PersistenceResult,
                          k: int, u: int) -> np.ndarray:
    """Matrix of H_k(sub_u) -> H_k(sup_u) in the chosen homology bases: the
    classes, in the bigger step, of the smaller step's representatives."""
    return R_sup.class_of(k, u, R_sub.representatives(k, u))


def _boundary(chains, keep) -> list[dict]:
    """The boundary of the part of each chain on the cells that `keep` accepts."""
    out = []
    for chain in chains:
        boundary: dict = {}
        for s, x in chain.items():
            if keep(s):
                for sign, f in s.boundary():
                    boundary[f] = boundary.get(f, 0) + sign * x
        out.append(boundary)
    return out


def mv_connecting(sys: MayerVietorisSystem, k: int, u: int,
                  assign_shared_to: str = "A") -> np.ndarray:
    """Connecting map H_{k+1}(X_u) -> H_k((A∩B)_u): split each representative
    chain into an A-part and a B-part and take the class of the A-part's
    boundary. Simplices of A∩B go to the A side (or B, for the
    well-definedness cross-check)."""
    a_entry, b_entry = sys.RA.filtration.entry, sys.RB.filtration.entry

    def in_a_part(s) -> bool:
        in_a, in_b = a_entry.get(s, u + 1) <= u, b_entry.get(s, u + 1) <= u
        if not in_a and not in_b:
            # the constructor checked that A ∪ B covers X, so this is a bug
            raise RuntimeError(f"simplex {tuple(s)} lies in neither A nor B at step {u}")
        return in_a and (assign_shared_to == "A" or not in_b)

    return sys.RAB.class_of(k, u, _boundary(sys.RX.representatives(k + 1, u), in_a_part))


def pair_connecting(sys: PairSystem, k: int, u: int) -> np.ndarray:
    """Connecting map H_{k+1}(X_u, A_u) -> H_k(A_u): a relative class is a
    cycle of X_u ∪ cone(A_u); its part on the cells of X_u (the cone cells
    dropped) has its boundary in A_u, and the class of that boundary is the
    image."""
    x_entry = sys.filtration.entry
    return sys.RA.class_of(k, u, _boundary(sys.RXA.representatives(k + 1, u),
                                           lambda s: x_entry.get(s, u + 1) <= u))


def quotient_map(sys: PairSystem, k: int, u: int) -> np.ndarray:
    """Matrix of H_k(X_u) -> H_k(X_u, A_u): the map induced by the inclusion
    of X_u into X_u ∪ cone(A_u), whose cells are the relative chain
    coordinates."""
    return sys.RXA.class_of(k, u, sys.RX.representatives(k, u))


# ---------------------------------------------------------------------------
# sequence assembly

def _term_schedule(sys: _System) -> tuple[tuple[str, int], ...]:
    """(label, degree) of every term, the leading above-top-degree term included."""
    return sys._terms


def _gap_schedule(sys: _System) -> tuple[tuple[str, int], ...]:
    """(map name, degree) for every arrow between consecutive terms."""
    return sys._gaps


def _check_steps(sys: _System, u: int, v: int) -> None:
    if not 0 <= u <= v < sys.n_steps:
        raise IndexError(f"bad step pair ({u}, {v})")


def ordinary_sequence(sys: _System, u: int) -> tuple[LinearSequence, SequenceAudit]:
    """The long sequence of sublevel u, which must audit exact everywhere."""
    level = sys.level(u)
    terms = [SequenceTerm(label, k, births.size)
             for (label, k), births in zip(sys._terms, level.births)]
    maps = list(level.maps) + [np.zeros((0, terms[-1].dim), dtype=np.int64)]
    seq = LinearSequence(ORDINARY, sys.kind, tuple(terms), tuple(maps), sys.modulus, u=u)
    return seq, level.audit(sys, ORDINARY, u, [term.dim for term in terms])


def persistent_sequence(sys: _System, u: int, v: int) -> tuple[LinearSequence, SequenceAudit]:
    """The sequence of persistent groups between sublevels u <= v.

    Spaces are images of the vertical maps, which in bar-adapted bases are
    selections of coordinates at v; arrows are the level-v maps restricted to
    those selections, which must send every selected column into the
    selected rows. Order 2 must always hold; exactness may fail.
    """
    _check_steps(sys, u, v)
    level = sys.level(v)
    leak = level.leak(u) if u < v else None
    if leak is not None:
        gap, k = sys._gaps[leak]
        raise RestrictionLeakError(f"{gap} at degree {k} left the target persistent group; "
                                   "the inclusion squares cannot commute")
    groups = [(births <= u).nonzero()[0] for births in level.births]
    terms = [SequenceTerm(label, k, group.size)
             for (label, k), group in zip(sys._terms, groups)]
    maps = [m[groups[i + 1]][:, groups[i]] for i, m in enumerate(level.maps)]
    maps.append(np.zeros((0, terms[-1].dim), dtype=np.int64))
    seq = LinearSequence(PERSISTENT, sys.kind, tuple(terms), tuple(maps), sys.modulus, u=u, v=v)
    return seq, level.audit(sys, PERSISTENT, u, [term.dim for term in terms])


def module_sequence(sys: _System) -> tuple[LinearSequence, SequenceAudit]:
    """The sequence of graded persistence modules, assembled componentwise.

    A sequence of graded modules is exact exactly when it is exact at every
    step index, and its maps commute with the shift action exactly when the
    squares between consecutive steps commute. So the module level is the
    ordinary sequence of every step, audited step by step and summed, plus
    those squares; it must be exact everywhere.
    """
    seqs, auds = zip(*(ordinary_sequence(sys, u) for u in range(sys.n_steps)))
    for u in range(sys.n_steps - 1):
        failures = check_squares(sys, u, u + 1)
        if failures:
            raise ValueError(f"graded {failures[0]} does not commute with the shift action")
    terms, maps, positions = [], [], []
    for i, term in enumerate(seqs[0].terms):
        dims = tuple(seq.terms[i].dim for seq in seqs)
        terms.append(SequenceTerm(term.label, term.degree, sum(dims), dims))
        maps.append(tuple(seq.maps[i] for seq in seqs))
        steps = tuple(StepAudit(u, pos.dim, pos.dim_image_in, pos.dim_kernel_out,
                                pos.order2, pos.exact, pos.defect)
                      for u, pos in enumerate(aud.positions[i] for aud in auds))
        positions.append(PositionAudit(
            term.label, term.degree, sum(dims),
            sum(s.dim_image_in for s in steps), sum(s.dim_kernel_out for s in steps),
            all(s.order2 for s in steps), all(s.exact for s in steps),
            sum(s.defect for s in steps), steps))
    seq = LinearSequence(MODULE, sys.kind, tuple(terms), tuple(maps), sys.modulus)
    return seq, SequenceAudit(MODULE, sys.kind, tuple(positions),
                              all(pos.order2 for pos in positions),
                              all(pos.exact for pos in positions))


# ---------------------------------------------------------------------------
# auditing

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
    return SequenceAudit(seq.level, seq.kind, tuple(positions),
                         all(pos.order2 for pos in positions),
                         all(pos.exact for pos in positions))


def check_squares(sys: _System, u: int, v: int) -> list[str]:
    """Commutativity of every inclusion square between sublevels u <= v:
    (map at v) ∘ vertical = vertical ∘ (map at u). The verticals are partial
    identities, so each side is a selection of one map's entries scattered
    into the (target at v, source at u) shape. Returns mismatch
    descriptions; an empty list means all squares commute."""
    _check_steps(sys, u, v)
    if u == v:
        return []  # the verticals are identities, both sides the map at u
    # per term: its survivors' positions among its coordinates at u and at v
    kept = [_survivors(sys.term_bars(label, k, v)[0], sys.term_bars(label, k, u)[1], u, v)
            for label, k in sys._terms]
    failures = []
    for i, (gap, k) in enumerate(sys._gaps):
        m_u = sys.horizontal(gap, k, u)
        m_v = sys.horizontal(gap, k, v)
        if m_v.shape[0] == 0 or m_u.shape[1] == 0:
            continue  # both sides of the square are empty matrices
        (at_u, at_v), (target_at_u, target_at_v) = kept[i], kept[i + 1]
        left = np.zeros((m_v.shape[0], m_u.shape[1]), dtype=np.int64)
        right = left.copy()
        left[:, at_u] = m_v[:, at_v]
        right[target_at_v] = m_u[target_at_u]
        if not np.array_equal(left, right):
            failures.append(f"{gap} square at degree {k} between steps {u} and {v}")
    return failures
