"""Persistent homology of a filtration.

Per-step homology bases with chosen cycle representatives, the induced maps
between consecutive steps, persistent groups as images of composed maps,
interval (barcode) decomposition, and the graded module with its degree-one
shift action. Every step's chains form a quotient complex C(X_u)/C(A_u);
absolute persistence is the case of A empty.

All algebra happens on step indices; the rational threshold values are
carried along as labels only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import linalg
from .complexes import (EMPTY_COMPLEX, ChainCoordinates, NotSubcomplexError,
                        SimplicialComplex, Simplex, intersect, is_subcomplex,
                        reindex_chains, relative_basis, relative_boundary_matrix)
from .linalg import Subspace, check_modulus
from .morse import Filtration


class NotACycleError(ValueError):
    """A chain handed to a homology coordinatization was not a cycle."""


@dataclass(frozen=True)
class StepHomology:
    """Homology of one filtration step in one degree.

    The columns of `basis` are a basis of the cycle space: first the
    `boundaries`, which span the boundary subspace, then the
    `representatives`, cycles whose classes form the chosen basis. So any
    cycle has unique coordinates (boundary part, class part). `free` lists
    the chain coordinates that determine a cycle (the free columns of the
    echelon form of d_k), so a cycle's coordinates are solved on these rows
    alone.
    """

    modulus: int
    basis: np.ndarray             # chain_dim x (number of boundaries + dim)
    n_boundaries: int
    free: np.ndarray              # (number of boundaries + dim) chain indices

    @property
    def chain_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def boundaries(self) -> np.ndarray:
        return self.basis[:, :self.n_boundaries]

    @property
    def representatives(self) -> np.ndarray:
        return self.basis[:, self.n_boundaries:]

    @property
    def dim(self) -> int:
        return self.basis.shape[1] - self.n_boundaries

    def class_of(self, chains: np.ndarray) -> np.ndarray:
        """Homology coordinates of cycle columns (boundary summands discarded)."""
        chains = np.asarray(chains, dtype=np.int64) % self.modulus
        single = chains.ndim == 1
        if single:
            chains = chains.reshape(-1, 1)
        if chains.shape[0] != self.chain_dim:
            raise linalg.DimensionMismatchError("chain length differs from the step's chain space")
        # basis[free] is square and invertible; the chains are cycles exactly
        # when the solution rebuilds them on every row
        coords = linalg.solve_matrix(self.basis[self.free], chains[self.free], self.modulus)
        if not np.array_equal(linalg.mat_mul(self.basis, coords, self.modulus), chains):
            raise NotACycleError("chain is not a cycle of this step")
        out = coords[self.n_boundaries:, :]
        return out[:, 0] if single else out


@dataclass(frozen=True)
class _StepChains:
    """Chain-level data of one step: ordered bases and boundary matrices per degree."""

    bases: tuple[tuple[Simplex, ...], ...]
    boundaries: tuple[np.ndarray, ...]

    def basis(self, k: int) -> tuple[Simplex, ...]:
        return self.bases[k] if 0 <= k < len(self.bases) else ()

    def boundary(self, k: int) -> np.ndarray:
        if 0 <= k < len(self.boundaries):
            return self.boundaries[k]
        rows = len(self.basis(k - 1))
        return np.zeros((rows, 0), dtype=np.int64)


def _step_chains(x_step: SimplicialComplex, a_step: SimplicialComplex,
                 max_degree: int, p: int) -> _StepChains:
    """Chains of C(X_u)/C(A_u); the absolute case has A_u empty."""
    # one degree beyond max_degree so top-degree homology sees its boundaries
    degrees = range(max_degree + 2)
    return _StepChains(tuple(relative_basis(x_step, a_step, k) for k in degrees),
                       tuple(relative_boundary_matrix(x_step, a_step, k, p) for k in degrees))


def _step_homology(chain: _StepChains, max_degree: int, p: int) -> list[StepHomology]:
    """Boundary and representative bases of one step in degrees 0..max_degree.

    Each boundary operator d_k is row-reduced once: its kernel gives the
    degree-k cycles, its pivot columns the degree-(k-1) boundaries.
    Representatives are the kernel-basis cycles that stay independent after
    the boundary columns, taken in kernel-basis order. The kernel basis is
    the identity on the free columns of d_k, so z -> z[free] is injective on
    cycles and sends kernel column j to e_j. With B = bounds[free], e_j is a
    new class exactly when row j of B lies in the span of the rows below it,
    that is, when column (len(free) - 1 - j) of B[::-1].T is not a pivot.
    """
    boundaries = [chain.boundary(k) for k in range(max_degree + 2)]
    reduced = [linalg.row_reduce(d, p) for d in boundaries]
    out = []
    for k in range(max_degree + 1):
        cycles, free = linalg._kernel_from_rref(*reduced[k], p)
        bounds = boundaries[k + 1][:, list(reduced[k + 1][1])]
        _, spanned = linalg.row_reduce(bounds[free][::-1].T, p)
        is_new = np.ones(free.size, dtype=bool)
        is_new[free.size - 1 - np.array(spanned, dtype=np.intp)] = False
        out.append(StepHomology(p, np.hstack([bounds, cycles[:, is_new]]),
                                bounds.shape[1], free))
    return out


class PersistenceResult:
    """Homology bases, induced maps, and query operations for one filtration.

    Produced by compute_persistence (absolute) or relative_persistence
    (quotient complexes of a pair); immutable afterwards.
    """

    def __init__(self, filtration: Filtration, modulus: int, max_degree: int,
                 chains: Sequence[_StepChains]):
        self.filtration = filtration
        self.modulus = modulus
        self.max_degree = max_degree
        self._chains = tuple(chains)
        self._homology: dict[tuple[int, int], StepHomology] = {}
        self._maps: dict[tuple[int, int], np.ndarray] = {}  # (k, u): step u -> u+1
        self._composed: dict[tuple[int, int, int], np.ndarray] = {}
        self._groups: dict[tuple[int, int, int], Subspace] = {}
        for u, chain in enumerate(self._chains):
            for k, hom in enumerate(_step_homology(chain, max_degree, modulus)):
                self._homology[(k, u)] = hom
                if u == 0:
                    continue
                # a basis simplex keeps its coordinate downstream; in the
                # relative case one that has entered A maps to zero
                included, _ = reindex_chains(self._homology[(k, u - 1)].representatives,
                                             self._chains[u - 1].basis(k), chain.basis(k))
                self._maps[(k, u - 1)] = hom.class_of(included)

    @property
    def n_steps(self) -> int:
        return len(self._chains)

    def labels(self) -> tuple[str, ...]:
        return self.filtration.labels()

    def _check_degree(self, k: int) -> None:
        if k < 0:
            raise IndexError(f"negative degree {k}")

    def homology(self, k: int, u: int) -> StepHomology:
        self._check_degree(k)
        if not 0 <= u < self.n_steps:
            raise IndexError(f"step index {u} out of range")
        if k > self.max_degree:
            return StepHomology(self.modulus, np.zeros((0, 0), dtype=np.int64), 0,
                                np.zeros(0, dtype=np.intp))
        return self._homology[(k, u)]

    def dim(self, k: int, u: int) -> int:
        return self.homology(k, u).dim

    def dims(self, k: int) -> tuple[int, ...]:
        return tuple(self.dim(k, u) for u in range(self.n_steps))

    def basis_simplices(self, k: int, u: int) -> tuple[Simplex, ...]:
        if k > self.max_degree:
            return ()
        return self._chains[u].basis(k)

    def chain_boundary(self, k: int, u: int) -> np.ndarray:
        return self._chains[u].boundary(k)

    def step_map(self, k: int, u: int) -> np.ndarray:
        """Matrix of the induced map from step u to step u+1."""
        self._check_degree(k)
        if k > self.max_degree:
            return np.zeros((0, 0), dtype=np.int64)
        return self._maps[(k, u)]

    def induced_matrix(self, k: int, u: int, v: int) -> np.ndarray:
        """Matrix of the composed induced map from step u to step v (u <= v),
        composed once and kept read-only."""
        if not 0 <= u <= v < self.n_steps:
            raise IndexError(f"bad step pair ({u}, {v})")
        key = (k, u, v)
        m = self._composed.get(key)
        if m is None:
            rows, cols = self.dim(k, v), self.dim(k, u)
            if u == v:
                m = np.eye(cols, dtype=np.int64)
            elif rows == 0 or cols == 0:
                m = np.zeros((rows, cols), dtype=np.int64)
            else:
                m = linalg.mat_mul(self.step_map(k, v - 1), self.induced_matrix(k, u, v - 1),
                                   self.modulus)
            m.setflags(write=False)
            self._composed[key] = m
        return m

    def persistent_group(self, k: int, u: int, v: int) -> Subspace:
        """Image of the composed induced map, as a subspace of step-v homology;
        reduced once per (k, u, v) and kept."""
        key = (k, u, v)
        group = self._groups.get(key)
        if group is None:
            group = linalg.image_basis(self.induced_matrix(k, u, v), self.modulus)
            self._groups[key] = group
        return group

    def class_of_chain(self, u: int, chain: ChainCoordinates) -> np.ndarray:
        """Homology coordinates at step u of a cycle given in chain coordinates."""
        return self.homology(chain.degree, u).class_of(chain.coefficients)


def _persistence(filtration: Filtration, a_steps: Sequence[SimplicialComplex],
                 modulus: int, max_degree: Optional[int]) -> PersistenceResult:
    p = check_modulus(modulus)
    if max_degree is None:
        max_degree = max(filtration.complex.dim, 0)
    chains = [_step_chains(step, a_step, max_degree, p)
              for step, a_step in zip(filtration.steps, a_steps)]
    return PersistenceResult(filtration, p, max_degree, chains)


def compute_persistence(filtration: Filtration, modulus: int,
                        max_degree: Optional[int] = None) -> PersistenceResult:
    """Persistent homology of a filtration up to max_degree (default: dim of K),
    computed as persistence relative to the empty complex."""
    return _persistence(filtration, [EMPTY_COMPLEX] * len(filtration), modulus, max_degree)


def relative_persistence(X: SimplicialComplex, A: SimplicialComplex,
                         filtration: Filtration, modulus: int,
                         max_degree: Optional[int] = None) -> PersistenceResult:
    """Persistence of the quotient complexes C(X_u)/C(A_u).

    The filtration filters X; each step is paired with its intersection with A.
    """
    if filtration.complex != X:
        raise ValueError("filtration does not filter X")
    if not is_subcomplex(A, X):
        raise NotSubcomplexError("A is not a subcomplex of X")
    return _persistence(filtration, [intersect(step, A) for step in filtration.steps],
                        modulus, max_degree)


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
    """Interval decomposition in degree k.

    Multiplicities come from the rank function of the composed induced maps,
    read off the cached persistent groups, so by construction dim H^{u,v}
    equals the number of intervals containing [u, v]; the consistency is
    still asserted exhaustively in the test suite.
    """
    n = result.n_steps
    labels = result.labels()
    r = {(u, v): result.persistent_group(k, u, v).dim
         for u in range(n) for v in range(u, n)}

    def rk(u: int, v: int) -> int:
        return 0 if u < 0 else r[(u, v)]

    bars = []
    for b in range(n):
        for d in range(b + 1, n):
            mult = (rk(b, d - 1) - rk(b, d)) - (rk(b - 1, d - 1) - rk(b - 1, d))
            if mult < 0:
                raise AssertionError("negative interval multiplicity; rank function corrupt")
            bars.extend(Interval(b, d, labels[b], labels[d]) for _ in range(mult))
        mult = rk(b, n - 1) - rk(b - 1, n - 1)
        if mult < 0:
            raise AssertionError("negative interval multiplicity; rank function corrupt")
        bars.extend(Interval(b, None, labels[b], None) for _ in range(mult))
    bars.sort(key=lambda iv: (iv.birth, n + 1 if iv.death is None else iv.death))
    return Barcode(k, tuple(bars))


# ---------------------------------------------------------------------------
# graded persistence module

@dataclass(frozen=True)
class GradedElement:
    """One element of a graded module: a coordinate vector per step."""

    components: tuple[np.ndarray, ...]

    def is_zero(self) -> bool:
        return all(not c.any() for c in self.components)

    def __eq__(self, other):
        return (isinstance(other, GradedElement)
                and len(self.components) == len(other.components)
                and all(np.array_equal(a, b)
                        for a, b in zip(self.components, other.components)))


class GradedModule:
    """Direct sum of the per-step homologies with the degree-one shift action.

    shifts[u] maps component u into component u+1 for u < n-1; the shift at
    the top index is the identity, so multiplication folds the last component
    onto itself and survivor classes are never killed by the action.
    """

    __slots__ = ("modulus", "dims", "shifts")

    def __init__(self, modulus: int, dims: Sequence[int], shifts: Sequence[np.ndarray]):
        if len(shifts) != len(dims):
            raise ValueError("one shift matrix per component is required")
        for u, s in enumerate(shifts[:-1]):
            if s.shape != (dims[u + 1], dims[u]):
                raise ValueError(f"shift {u} has shape {s.shape}, expected "
                                 f"({dims[u + 1]}, {dims[u]})")
        top = shifts[-1]
        if top.shape != (dims[-1], dims[-1]) or not np.array_equal(
                top % modulus, np.eye(dims[-1], dtype=np.int64)):
            raise ValueError("the top-index shift must be the identity")
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "dims", tuple(dims))
        object.__setattr__(self, "shifts", tuple(shifts))

    def __setattr__(self, name, value):
        raise AttributeError("GradedModule is immutable")

    @property
    def n_steps(self) -> int:
        return len(self.dims)

    def element(self, components: Sequence) -> GradedElement:
        comps = []
        for u, c in enumerate(components):
            arr = np.asarray(c, dtype=np.int64) % self.modulus
            if arr.shape != (self.dims[u],):
                raise linalg.DimensionMismatchError(
                    f"component {u} must have length {self.dims[u]}")
            comps.append(arr)
        if len(comps) != self.n_steps:
            raise linalg.DimensionMismatchError("wrong number of components")
        return GradedElement(tuple(comps))

    def zero(self) -> GradedElement:
        return self.element([np.zeros(d, dtype=np.int64) for d in self.dims])

    def x_action(self, elem: GradedElement) -> GradedElement:
        """Multiply by the polynomial variable: shift every component up one
        index (component 0 receives 0), with the top component folding onto
        itself through the identity."""
        n = self.n_steps
        out = [np.zeros(d, dtype=np.int64) for d in self.dims]
        for u in range(n - 1):
            out[u + 1] = (out[u + 1] + linalg.mat_mul(
                self.shifts[u], elem.components[u].reshape(-1, 1), self.modulus)[:, 0]) % self.modulus
        out[n - 1] = (out[n - 1] + elem.components[n - 1]) % self.modulus
        return GradedElement(tuple(out))


def graded_module(result: PersistenceResult, k: int) -> GradedModule:
    n = result.n_steps
    dims = [result.dim(k, u) for u in range(n)]
    shifts = [result.step_map(k, u) for u in range(n - 1)]
    shifts.append(np.eye(dims[-1], dtype=np.int64))
    return GradedModule(result.modulus, dims, shifts)


def direct_sum(a: GradedModule, b: GradedModule) -> GradedModule:
    """Componentwise direct sum; shifts act block-diagonally."""
    if a.modulus != b.modulus or a.n_steps != b.n_steps:
        raise ValueError("modules are not compatible")
    dims = [da + db for da, db in zip(a.dims, b.dims)]
    shifts = [linalg.block_diag(sa, sb) for sa, sb in zip(a.shifts, b.shifts)]
    return GradedModule(a.modulus, dims, shifts)
