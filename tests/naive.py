"""Independent brute-force oracles for the test suite.

Everything here is deliberately written apart from the library's
bar-selection path: textbook row reduction on plain Python lists,
exhaustive vector enumeration, a from-scratch persistent dimension that
reduces the cycle-inclusion matrix directly instead of composing step maps,
the per-step homology basis choice written as three separate reductions,
the persistent sequence built from each term's block-diagonal vertical map,
step boundary matrices built from the simplices' own faces, the three
separate Morse scans (`naive_classify`) that one classification pass
replaced, that pass and the entry-step filtration on `Fraction` values and
rebuilt facets (`fraction_classify`, `fraction_filtration`), the path that
`int` values and the facet table replaced, each cell's value placed among
the thresholds by its own bisection (`bisect_filtration`), which placing
each threshold among f's ranked values replaced, the function as a value table keyed
by cell (`DictFunction`), which one rank array replaced, the classification
pass and the least-over-cofaces walk on simplex-keyed dicts (`dict_classify`,
`dict_least_over_cofaces`, and the file values it gave,
`dict_inherited_values`), which ranks compared over the complex's integer
index of its incidences replaced, the (step, simplex) pair sort of a
persistence build (`pair_sorted_cells`), which one stable sort of the
entry steps replaced, the validating constructor as it closed its cells
before comparing sizes (`closure_then_compare`), a file's values inherited by
every face of each valued simplex (`faces_inherited_values`), the walk
that one coface walk replaced, every value text parsed as a `Fraction`
(`fraction_rational`), the path integral text now skips, the vertex
checks of `Simplex` as generator scans (`naive_simplex`), the two-pass face
closure (`two_pass_closure`: every facet enumerated to close the generators,
then every cell's facets enumerated and looked up again to check closure and
write the facet table) that one enumeration writing the table replaced, the
membership file closed as a complex of its own and then checked cell by cell
against the main complex (`close_then_check_membership`), which closing
inside the main complex's facet table replaced, the closure of
generators inside K as a walk over sets of cells (`set_walk_closure`), the
sublevel complex closed from scratch (`closed_sublevel`) and the entry
steps of `Filtration(thresholds, steps)` built as a dict after pairwise
subcomplex checks (`dict_entry_steps`), which masks closed by the one
coface walk replaced, the intersection as a
set intersection with its table written again (`set_intersection`), which
restricting one table replaced, the per-step
views of a result selected eagerly, bar by bar, from its bar table
(`EagerSteps`), `DensePersistence`, the
dense per-step path that the bar-selection path replaced (one basis per
step with classes found by a dense solve, step maps from representatives
moved between step bases by `reindex_chains`, composed step maps,
persistent groups as images, the barcode by inclusion-exclusion over their
ranks), with `assert_matches_oracle` comparing the two on every basis-free
invariant, the relative barcodes as the reduced persistence of the cone
X ∪ cone(A) that the filtered quotient C(X)/C(A) replaced
(`cone_barcodes`), the simplex-keyed build and maps that one numbering per
system replaced (`SimplexKeyedResult`: each space's cells numbered afresh
and each facet hashed into a `Simplex`-keyed dict; `simplex_keyed_system`:
every map over bars from chains handed over as simplices, with the
boundary of `simplex_boundary` read off X's facet table), the X-position
build and maps that one numbering per filtration replaced
(`XPositionResult`: each space's cells numbered afresh by one stable
argsort and each column's rows read through a row map of len(X);
`x_position_system`: every map over bars from chains handed over as
{position in X: coefficient} dicts, with the boundary of
`position_boundary` rebuilding X's facet rows on every call), the column
reduction on {row: coefficient} dicts over every field (`dict_reduce`),
whose F_2 case one entry at a time the set arithmetic of the one kernel
replaced, that set arithmetic, which its int columns replaced, in the
kernel (`set_reduce`) and in the back-substitution (`set_coordinates`,
with `f2_rows` reading an int column bit by bit and each cell checked by
its position in X), the per-step map path that the maps over bars replaced
(`PerStepSystem`: every horizontal map built at every step from the step's
representatives, with the rank profiles of `_Level` and their leak bounds
and the scatter square check, and the connecting map over bars with A∩B
on the B side, `b_side_mv_connecting`), the per-call audit path before it
(each sequence sliced and audited by `audit` with fresh reductions, each
square multiplied out through block-diagonal verticals), the module level as the
ordinary audit of every step (`per_step_module_sequence`), which one
per-step count table replaced, with
`assert_audits_match_per_call_path` comparing the count audits with both on
every map and audit, and `tampered`, which adds an entry to a map over bars
so that the tests can see how the audits treat a faulty map. Last, the
load path that the array-held complex replaced: the file parsed line by
line into one `Simplex` per line (`line_parse`), the face closure on dicts
(`face_closure`), ordered and indexed by sorting simplices (`dict_complex`,
the former `_order`), the closure and the mask of a subcomplex by one
`_index` lookup per cell (`index_closure`, `index_mask`), and the loaders
made of them (`dict_load_complex`, `dict_load_membership`).
"""

import copy
import hashlib
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import partial, reduce
from itertools import combinations, product
from operator import itemgetter, lt

import numpy as np

from homaudit import linalg
from homaudit.cli import ParseError, _fraction
from homaudit.complexes import (EMPTY_COMPLEX, MalformedSimplexError, NotSubcomplexError,
                                Simplex, SimplicialComplex, _ids, _least_over_cofaces,
                                boundary_matrix, intersect, is_subcomplex,
                                relative_basis, relative_boundary_matrix)
from homaudit.linalg import DimensionMismatchError, dense_rank, mat_mul, solve_matrix
from homaudit.morse import Filtration, MorseFunction, MorseViolation, _exact
from homaudit.persistence import (BarMatrix, NotACycleError, PersistenceResult, _add_multiple,
                                  barcode, compute_persistence)
from homaudit.sequences import (MODULE, ORDINARY, PERSISTENT, LinearSequence,
                                MayerVietorisSystem, PositionAudit, RestrictionLeakError,
                                SequenceAudit, SequenceTerm, StepAudit, audit, check_squares,
                                module_sequence, ordinary_sequence, persistent_sequence)


def as_rows(m):
    arr = np.asarray(m, dtype=np.int64)
    return [[int(x) for x in row] for row in arr]


def block_diag(a, b):
    """The block matrix [[a, 0], [0, b]]."""
    out = np.zeros((a.shape[0] + b.shape[0], a.shape[1] + b.shape[1]), dtype=np.int64)
    out[:a.shape[0], :a.shape[1]] = a
    out[a.shape[0]:, a.shape[1]:] = b
    return out


def naive_rref(rows, p):
    """Gauss-Jordan on lists of lists; returns (rref rows, pivot columns)."""
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, nrows):
            if m[i][c] % p != 0:
                pivot = i
                break
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = pow(m[r][c] % p, -1, p)
        m[r] = [(x * inv) % p for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] % p != 0:
                coef = m[i][c] % p
                m[i] = [(a - coef * b) % p for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def naive_rank(m, p):
    rows = as_rows(m)
    if not rows or not rows[0]:
        return 0
    return len(naive_rref(rows, p)[1])


def naive_nullspace(m, p):
    """All-free-variables nullspace basis, as a list of column vectors."""
    rows = as_rows(m)
    if not rows:
        ncols = np.asarray(m, dtype=np.int64).shape[1]
        return [[1 if i == j else 0 for i in range(ncols)] for j in range(ncols)]
    ncols = len(rows[0])
    rref, pivots = naive_rref(rows, p)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [0] * ncols
        vec[fc] = 1
        for r, pc in enumerate(pivots):
            vec[pc] = (-rref[r][fc]) % p
        basis.append(vec)
    return basis


def naive_homology_basis(d_k, d_k1, p):
    """(representatives, boundaries) of one step by three separate reductions:
    the kernel basis of d_k, the pivot columns of d_k1 as boundaries, and the
    kernel cycles that stay pivots in the echelon form of [boundaries | cycles]."""
    kernel = naive_nullspace(d_k, p)
    cycles = np.array(kernel, dtype=np.int64).reshape(len(kernel), d_k.shape[1]).T
    bounds = d_k1[:, naive_rref(as_rows(d_k1), p)[1]]
    pivots = naive_rref(as_rows(np.hstack([bounds, cycles])), p)[1]
    nb = bounds.shape[1]
    return cycles[:, [c - nb for c in pivots if c >= nb]], bounds


def naive_class_of(representatives, boundaries, chains, p):
    """Class coordinates of cycle columns from one reduction of
    [boundaries | representatives | chains]; None when a chain is not a cycle."""
    basis = np.hstack([boundaries, representatives])
    n = basis.shape[1]
    rref, pivots = naive_rref(as_rows(np.hstack([basis, chains])), p)
    if pivots != list(range(n)):
        return None  # the chains leave the span, or the basis is dependent
    coords = np.array([row[n:] for row in rref[:n]], dtype=np.int64).reshape(n, chains.shape[1])
    return coords[boundaries.shape[1]:]


def enumerate_vectors(n, p):
    return product(range(p), repeat=n)


def kernel_by_enumeration(m, p):
    """All nonzero kernel vectors of a tiny matrix, found by exhaustion."""
    arr = np.asarray(m, dtype=np.int64)
    out = []
    for x in enumerate_vectors(arr.shape[1], p):
        if not any(x) or arr.shape[1] == 0:
            continue
        if not ((arr @ np.array(x)) % p).any():
            out.append(tuple(x))
    return out


def solutions_by_enumeration(m, v, p):
    arr = np.asarray(m, dtype=np.int64)
    target = np.asarray(v, dtype=np.int64) % p
    out = []
    for x in enumerate_vectors(arr.shape[1], p):
        if np.array_equal((arr @ np.array(x)) % p, target):
            out.append(tuple(x))
    return out


def span_size(columns, p):
    """Number of distinct vectors in the span of the given columns."""
    arr = np.asarray(columns, dtype=np.int64)
    seen = set()
    for coeffs in enumerate_vectors(arr.shape[1], p):
        seen.add(tuple(int(x) for x in (arr @ np.array(coeffs)) % p))
    return len(seen)


def naive_betti(K, p):
    """Betti numbers with the library's boundary matrices but this file's rank."""
    out = []
    for k in range(K.dim + 1):
        dk = boundary_matrix(K, k, p)
        dk1 = boundary_matrix(K, k + 1, p)
        kernel = dk.shape[1] - naive_rank(dk, p)
        out.append(kernel - naive_rank(dk1, p))
    return out


def _cofacet_table(K):
    table = {s: [] for s in K.simplices()}
    for s in K.simplices():
        for f in s.facets():
            table[f].append(s)
    return table


def naive_classify(K, f):
    """(violations, critical cells) by the separate Morse scans that the
    library's one classification pass replaced, each over its own cofacet
    table: validation, then the cells with no exceptional facet or cofacet,
    which runs whether or not f is a discrete Morse function."""
    cofacets = _cofacet_table(K)
    violations = []
    for s in K.simplices():
        up = tuple(t for t in cofacets[s] if f(t) <= f(s))
        down = tuple(n for n in s.facets() if f(n) >= f(s))
        if len(up) > 1:
            violations.append(MorseViolation(s, "excess_cofacets", up))
        if len(down) > 1:
            violations.append(MorseViolation(s, "excess_facets", down))
        if len(up) == 1 and len(down) == 1:
            violations.append(MorseViolation(s, "both_exceptional", up + down))
    cofacets = _cofacet_table(K)
    critical = []
    for s in K.simplices():
        if any(f(t) <= f(s) for t in cofacets[s]):
            continue
        if any(f(n) >= f(s) for n in s.facets()):
            continue
        critical.append(s)
    return tuple(violations), tuple(critical)


def fraction_classify(K, f):
    """(violations, critical cells) by the one classification
    pass, every value a `Fraction` and every cell's facets rebuilt by
    `Simplex.facets()`."""
    value = {s: Fraction(v) for s, v in f.items()}
    up, down = {}, {}
    for t in K.simplices():
        for n in t.facets():
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
    return tuple(violations), tuple(s for s in K.simplices() if s not in up and s not in down)


def fraction_filtration(K, f, thresholds):
    """(thresholds, entry steps) of the sublevel filtration, every value and
    threshold a `Fraction` and every cell's facets rebuilt."""
    value = {s: Fraction(v) for s, v in f.items()}
    ts = sorted({Fraction(t) for t in thresholds})
    if ts[-1] < max(value.values()):
        ts.append(max(value.values()))
    entry = {s: bisect_left(ts, value[s]) for s in K.simplices()}
    for s in reversed(K.simplices()):
        for n in s.facets():
            entry[n] = min(entry[n], entry[s])
    return tuple(ts), entry


def bisect_filtration(K, f, thresholds):
    """`sublevel_filtration` with each cell's value placed among the
    thresholds by its own `bisect_left`, before the least-over-cofaces walk."""
    ts = sorted({_exact(t) for t in thresholds})
    if ts[-1] < f.max_value:
        ts.append(f.max_value)
    step = np.array([bisect_left(ts, f(s)) for s in K.simplices()], dtype=np.intp)
    return Filtration._of(tuple(ts), K, _least_over_cofaces(K, step))


def faces_inherited_values(K, explicit, strict=False):
    """A complex file's values the way the parser first found them: every
    proper face of each explicitly valued simplex (`Simplex.faces()`)
    inherits the least such value, and the first cell of K with no value
    given, or none inheritable, is named as a `ValueError`."""
    inherited = {}
    for g, v in explicit.items():
        for s in g.faces():
            if s not in inherited or v < inherited[s]:
                inherited[s] = v
    values = {}
    for s in K.simplices():
        if s in explicit:
            values[s] = explicit[s]
        elif strict:
            raise ValueError(f"strict mode: no explicit value for {tuple(s)}")
        elif s in inherited:
            values[s] = inherited[s]
        else:
            raise ValueError(f"no value given or inheritable for {tuple(s)}")
    return values


class DictFunction:
    """A function held as a value table keyed by cell, each value exact, and
    its values in K's order, which one rank array in K's order replaced:
    `in_order` is the lookup of another complex's cells in the table that
    every Morse pass made, and `restrict` keeps the parent's values."""

    def __init__(self, K, values):
        self.complex = K
        self.values = {Simplex(s): _exact(v) for s, v in values.items()}
        self.ordered = [self.values[s] for s in K.simplices()]

    def __call__(self, s):
        return self.values[s]

    def items(self):
        return list(zip(self.complex.simplices(), self.ordered))

    @property
    def max_value(self):
        return max(self.ordered)

    def restrict(self, sub):
        return DictFunction(sub, {s: self.values[s] for s in sub.simplices()})

    def in_order(self, K):
        """The values of K's cells in K's order; a cell with none is named as a ValueError."""
        values = list(map(self.values.get, K.simplices()))
        if None in values:
            cell = K.simplices()[values.index(None)]
            raise ValueError(f"function not total on the complex: no value for {tuple(cell)}")
        return values


def dict_classify(K, f):
    """(violations, critical cells) of a `DictFunction` by the one
    classification pass over simplex-keyed dicts that the integer index
    replaced: every incidence of the facet table compared on f's values
    (checked total on K), the exceptional ones collected per cell in dicts."""
    value = dict(zip(K.simplices(), f.in_order(K)))
    facets, up, down = K.facet_table, {}, {}
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


def dict_least_over_cofaces(K, value):
    """Each cell's least value over itself and its valued cofaces, walked down
    the facet table from the top dimension over a simplex-keyed dict (cells
    with none are left out): the walk that one pass over the integer index
    replaced."""
    least, facets = dict(value), K.facet_table
    for s in reversed(K.simplices()):
        x = least.get(s)
        if x is not None:
            for n in facets[s]:
                if n not in least or x < least[n]:
                    least[n] = x
    return least


def dict_inherited_values(K, explicit, strict=False):
    """A complex file's values as the dict walk gave them: a cell with no
    explicit value inherits the least over its valued cofaces, and the first
    cell of K with no value given (strict mode) or none inheritable is named
    as a `ValueError`."""
    least = dict_least_over_cofaces(K, explicit)
    for s in K.simplices():
        if s in explicit:
            continue
        if strict:
            raise ValueError(f"strict mode: no explicit value for {tuple(s)}")
        if s not in least:
            raise ValueError(f"no value given or inheritable for {tuple(s)}")
    return {s: explicit.get(s, least[s]) for s in K.simplices()}


def pair_sorted_cells(filtration, A, top):
    """Per degree 0..top, the cells of the filtered complex not in A and their
    entry steps in filtration order, by sorting (step, simplex) pairs: the
    sort that one stable sort of the entry steps over the complex's order
    replaced."""
    blocks = [[] for _ in range(top + 1)]
    for s, u in filtration.entry.items():
        if s.dim <= top and s not in A:
            blocks[s.dim].append((u, s))
    for block in blocks:
        block.sort()
    return ([tuple(s for _, s in block) for block in blocks],
            [[u for u, _ in block] for block in blocks])


def _blocks(cells):
    """Cells sorted by length, cut into one block per dimension."""
    lengths = list(map(len, cells))
    ends = [bisect_right(lengths, k) for k in range(1, (lengths[-1] if cells else 0) + 1)]
    return [cells[a:b] for a, b in zip([0] + ends, ends)]


_face = partial(tuple.__new__, Simplex)  # a face of a valid simplex is valid


def face_closure(cells):
    """The facet table of the smallest complex containing the cells, one
    object per cell, as the dict path built it: walking down one dimension
    at a time, each cell's facets are enumerated once, column by column
    (column i deletes vertex i), and a facet not seen yet is built then."""
    levels = [dict(zip(block, block)) for block in _blocks(sorted(set(cells), key=len))]
    facets = {}
    for k in range(len(levels) - 1, 0, -1):
        above, below = list(levels[k]), levels[k - 1]
        vertex = [list(map(itemgetter(j), above)) for j in range(k + 1)]
        columns = [list(zip(*vertex[:i], *vertex[i + 1:])) for i in range(k + 1)]
        new = list(map(_face, set().union(*columns).difference(below)))
        below.update(zip(new, new))
        facets.update(zip(above, zip(*(map(below.__getitem__, c) for c in columns))))
    facets.update(dict.fromkeys(levels[0] if levels else (), ()))
    return facets


def dict_complex(facets):
    """The complex of a facet table as the dict path ordered it (`_order`):
    its cells sorted by dimension, then lexicographically, each one's
    position its place there, and the table itself. Its rows are written
    from that order one cell at a time, so that comparing it with a complex
    built on arrays compares the two orders, and its cells, positions and
    table are the dict path's own."""
    cells = sorted(sorted(facets), key=len)
    verts = [s[0] for s in cells if len(s) == 1]
    at = dict(zip(verts, range(len(verts))))
    K = SimplicialComplex._of(_ids(verts), tuple(
        np.array([[at[v] for v in s] for s in block], dtype=np.intp) for block in _blocks(cells)))
    K._built.update(cells=tuple(cells), index=dict(zip(cells, range(len(cells)))), table=facets)
    return K


def index_closure(K, generators):
    """`K.closure` as each generator's `_index` lookup gave it, closed by the
    coface walk; NotSubcomplexError at the first generator that is not a cell."""
    generators = list(generators)
    at = list(map(K._index.get, generators))
    if None in at:
        g = tuple(generators[at.index(None)])
        raise NotSubcomplexError(f"{g} is not a cell of the complex")
    outside = np.ones(len(K), dtype=np.intp)
    outside[at] = 0
    return K._sub(_least_over_cofaces(K, outside) == 0)


def index_mask(K, sub):
    """`K._mask(sub)` by one `_index` lookup per cell of sub; None when sub is
    not a subcomplex of K."""
    mask = np.zeros(len(K), dtype=bool)
    try:
        mask[list(map(K._index.__getitem__, sub.simplices()))] = True
    except KeyError:
        return None
    return mask


def line_parse(path, digests=None):
    """(line_no, Simplex, value or None) for each content line of a UTF-8
    file, read once, one line at a time: the parse of the dict path.
    `digests` as for `cli._parse_lines`."""
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise ParseError(path, 0, f"cannot read file: {exc}") from None
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:  # the bad byte's line: that of a character in its place
        line_no = len((data[:exc.start].decode("utf-8") + "?").splitlines())
        raise ParseError(path, line_no, f"not UTF-8 text: byte 0x{data[exc.start]:02x} "
                                        f"({exc.reason})") from None
    if digests is not None:
        digests[path] = hashlib.sha256(data).hexdigest()
    rows = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        head, sep, tail = raw.partition("#")[0].partition(":")
        try:
            verts = (*map(int, head.split()),)
        except ValueError:
            raise ParseError(path, line_no,
                             f"vertex ids must be integers: {head.strip()!r}") from None
        if not (verts and verts[0] >= 0 and all(map(lt, verts, verts[1:]))):
            if not (verts or sep):
                continue  # a blank or comment line
            try:
                Simplex(verts)  # raises: the vertices are not a simplex
            except MalformedSimplexError as exc:
                raise ParseError(path, line_no, str(exc)) from None
        rows.append((line_no, tuple.__new__(Simplex, verts),
                     _fraction(tail, path, line_no) if sep else None))
    return rows


def dict_load_complex(path, strict_values=False, digests=None):
    """`cli.load_complex` on the dict path: the file parsed line by line
    (`line_parse`), its explicit values kept in a dict keyed by simplex, the
    complex closed and ordered on dicts (`face_closure`, `dict_complex`),
    and the values inherited by the dict walk (`dict_inherited_values`)."""
    explicit, first_line, generators = {}, {}, []
    for line_no, simplex, value in line_parse(path, digests):
        generators.append(simplex)
        if value is None:
            continue
        if explicit.setdefault(simplex, value) != value:
            raise ParseError(path, line_no,
                             f"simplex {tuple(simplex)} given value {value}, but value "
                             f"{explicit[simplex]} on line {first_line[simplex]}")
        first_line.setdefault(simplex, line_no)
    K = dict_complex(face_closure(generators))
    if not explicit:
        return K, None
    try:
        return K, MorseFunction(K, dict_inherited_values(K, explicit, strict_values))
    except ValueError as exc:
        raise ParseError(path, 0, str(exc)) from None


def dict_load_membership(path, K, digests=None):
    """`cli.load_membership` on the dict path: the file parsed line by line,
    then closed inside K by `_index` lookups (`index_closure`)."""
    return index_closure(K, [s for _, s, _ in line_parse(path, digests)])


def closure_then_compare(simplices):
    """The validating constructor as it closed the given simplices first and
    compared sizes after: the complex, or the `ValueError` naming the first
    cell of the pool with a missing facet, and that facet."""
    pool = {s if isinstance(s, Simplex) else Simplex(s) for s in simplices}
    closed = dict_complex(face_closure(pool))
    if len(closed) > len(pool):
        s, f = next((s, f) for s in pool for f in closed.facet_table[s] if f not in pool)
        raise ValueError(f"not closed under faces: {s} present but {f} missing")
    return closed


def fraction_rational(text):
    """A value or label text as `cli._rational` read it when every text went
    through `Fraction`: exponents of more than 4 digits are refused first, an
    integral value is held as an `int`, and a numerator or denominator of more
    than 4,300 digits is refused. Raises ValueError or ZeroDivisionError."""
    text = text.strip()
    if len(text.lower().partition("e")[2].lstrip("+-")) > 4:
        raise ValueError(f"exponent too large: {text!r}")
    q = Fraction(text)
    value = int(q.numerator) if q.denominator == 1 else q
    if max(abs(value.numerator), value.denominator) >= 10 ** 4300:
        raise ValueError(f"too many digits: {text!r}")
    return value


def naive_simplex(vertices):
    """The vertex tuple `Simplex` holds, checked by generator scans in the
    order the library keeps: a vertex at all, none negative, strictly
    increasing; a failure is the same `MalformedSimplexError` message."""
    vs = tuple(int(v) for v in vertices)
    if not vs:
        raise MalformedSimplexError("a simplex needs at least one vertex")
    if any(v < 0 for v in vs):
        raise MalformedSimplexError(f"negative vertex id in {vs}")
    if any(a >= b for a, b in zip(vs, vs[1:])):
        raise MalformedSimplexError(f"vertices must be strictly increasing, got {vs}")
    return vs


def _ordered_table(cells):
    """(cells in dimension-major lexicographic order, facet table) of a
    face-closed set of simplices, the table written with one object per cell:
    each cell's facets in vertex-deletion order, the reverse of
    `combinations`' order."""
    own = {s: s for s in cells}
    table = {s: tuple(own[f] for f in reversed(list(combinations(s, len(s) - 1))))
             if len(s) > 1 else () for s in own}
    return tuple(sorted(own, key=lambda s: (len(s), s))), table


def two_pass_closure(generators):
    """The face closure of the generators as (ordered cells, facet table):
    every facet enumerated to close them, then every cell's facets enumerated
    again for the table."""
    cells = {g if isinstance(g, Simplex) else Simplex(g) for g in generators}
    todo = list(cells)
    while todo:
        s = todo.pop()
        for f in combinations(s, len(s) - 1):
            if f and f not in cells:
                f = Simplex(f)
                cells.add(f)
                todo.append(f)
    return _ordered_table(cells)


def close_then_check_membership(generators, K):
    """A membership file's simplices closed as a complex of their own, then
    checked cell by cell against K: (ordered cells, facet table), or
    NotSubcomplexError."""
    cells, table = two_pass_closure(generators)
    if not all(s in K for s in cells):
        raise NotSubcomplexError("not a subcomplex")
    return cells, table


def set_walk_closure(K, generators):
    """`K.closure` as a walk over sets of cells: the generators' cells put in
    one set per dimension, then each dimension's facets added to the one
    below, from the top down; the complex written from K's own cells and
    facet table entries. NotSubcomplexError at the first generator that is
    not a cell of K."""
    table, index, cells = K.facet_table, K._index, K.simplices()
    levels = [set() for _ in range(K.dim + 1)]
    for g in generators:
        i = index.get(g)
        if i is None:
            raise NotSubcomplexError(f"{tuple(g)} is not a cell of the complex")
        levels[len(g) - 1].add(cells[i])
    sub = {}
    for k in range(len(levels) - 1, -1, -1):
        rows = list(map(table.__getitem__, levels[k]))
        sub.update(zip(levels[k], rows))
        if k:
            levels[k - 1].update(*rows)
    return dict_complex(sub)


def closed_sublevel(K, f, u):
    """`morse.sublevel` as the face closure, from scratch, of every cell of K
    with value at most u."""
    u = Fraction(u)
    return dict_complex(face_closure([s for s in K.simplices() if f(s) <= u]))


def dict_entry_steps(steps):
    """The entry steps that `Filtration(thresholds, steps)` keeps, built as a
    dict: each consecutive pair of steps checked by `is_subcomplex`, then
    every cell keyed at the last step and updated with each earlier step,
    from the last one down; as an array in the last step's order."""
    for earlier, later in zip(steps, steps[1:]):
        if not is_subcomplex(earlier, later):
            raise ValueError("filtration steps are not nested")
    entry = dict.fromkeys(steps[-1].simplices(), len(steps) - 1)
    for u in reversed(range(len(steps) - 1)):
        entry.update(dict.fromkeys(steps[u].simplices(), u))
    return np.fromiter(entry.values(), dtype=np.intp, count=len(entry))


def set_intersection(A, B):
    """The cells common to A and B, with their table written again:
    (ordered cells, facet table)."""
    return _ordered_table(set(A.simplices()) & set(B.simplices()))


class EagerSteps:
    """The per-step views of a persistence result written out bar by bar
    from its bar table (`bars_alive(k)` and `representatives(k)`, the bars of
    positive length): the bars alive at step u are those with birth <= u <
    death, in table order, a bar alive at u and at v maps to itself, and the
    persistent group is the bars at v born by u. `alive` is every step's
    index, built up front the way each result once built it."""

    def __init__(self, result):
        self.result, self.n_steps = result, result.n_steps
        self.table = [result.bars_alive(k) for k in range(result.max_degree + 1)]
        self.alive = [[[i for i, (b, d) in enumerate(zip(*bars)) if b <= u < d]
                       for u in range(self.n_steps)] for bars in self.table]

    def _at(self, k, u):
        return self.alive[k][u] if k <= self.result.max_degree else []

    def dim(self, k, u):
        return len(self._at(k, u))

    def bars_alive(self, k, u):
        births, deaths = self.table[k] if k <= self.result.max_degree else ([], [])
        at = self._at(k, u)
        return (np.array([births[i] for i in at], dtype=np.int64),
                np.array([deaths[i] for i in at], dtype=np.int64))

    def representatives(self, k, u):
        chains = self.result.representatives(k)
        return [chains[i] for i in self._at(k, u)]

    def induced_matrix(self, k, u, v):
        at_u, at_v = self._at(k, u), self._at(k, v)
        return np.array([[int(a == b) for b in at_u] for a in at_v],
                        dtype=np.int64).reshape(len(at_v), len(at_u))

    def persistent_group(self, k, u, v):
        births = self.table[k][0] if k <= self.result.max_degree else []
        return np.array([i for i, a in enumerate(self._at(k, v)) if births[a] <= u],
                        dtype=np.intp)


def chain_boundary(result, k, u):
    """The boundary matrix d_k of step u on a result's own chain coordinates
    (`basis_simplices`), built from each simplex's facets. A facet outside
    the step's (k-1)-cells is dropped: for a relative result of either path,
    the bar table's or the dense one's, these are the cells of A, so d_k is
    that of C(X_u)/C(A_u)."""
    rows = {s: i for i, s in enumerate(result.basis_simplices(k - 1, u))}
    cols = result.basis_simplices(k, u)
    d = np.zeros((len(rows), len(cols)), dtype=np.int64)
    for j, s in enumerate(cols):
        for i, f in enumerate(s.facets()):  # deleting vertex i carries the sign (-1)^i
            if f in rows:
                d[rows[f], j] = (-1) ** i % result.modulus
    return d


def chain_columns(chains, cells):
    """{simplex: coefficient} chains as the columns of a dense matrix, one
    row per cell of `cells`."""
    pos = {s: i for i, s in enumerate(cells)}
    m = np.zeros((len(cells), len(chains)), dtype=np.int64)
    for j, chain in enumerate(chains):
        for s, x in chain.items():
            m[pos[s], j] = x
    return m


def naive_persistent_dim(result, k, u, v):
    """dim H_k^{u,v} straight from chain data: include a cycle basis of step u
    into step v and count independent classes modulo step-v boundaries."""
    p = result.modulus
    z_u = np.array(naive_nullspace(chain_boundary(result, k, u), p), dtype=np.int64).T
    if z_u.size == 0:
        z_u = z_u.reshape(len(result.basis_simplices(k, u)), 0)
    pos = {s: i for i, s in enumerate(result.basis_simplices(k, v))}
    included = np.zeros((len(pos), z_u.shape[1]), dtype=np.int64)
    for i, s in enumerate(result.basis_simplices(k, u)):
        j = pos.get(s)
        if j is not None:
            included[j] = z_u[i]
    d_next = chain_boundary(result, k + 1, v)
    stacked = np.hstack([d_next, included])
    return naive_rank(stacked, p) - naive_rank(d_next, p)


def naive_persistent_sequence(system, u, v):
    """(bases, maps) of the persistent sequence between steps u <= v, the
    direct way: each term's group is spanned by the pivot columns (textbook
    elimination) of its whole vertical map, block diagonal for A⊕B, and each
    arrow is the level-v map restricted by a solve in the target basis (None
    where an image leaves the target group)."""
    p = system.modulus
    bases = []
    for label, k in system._terms:
        vertical = system.vertical(label, k, u, v)
        bases.append(vertical[:, naive_rref(as_rows(vertical), p)[1]])
    maps = []
    for i, (gap, k) in enumerate(system._gaps):
        images = mat_mul(system.horizontal(gap, k, v), bases[i], p)
        maps.append(solve_matrix(bases[i + 1], images, p))
    return bases, maps


# ---------------------------------------------------------------------------
# the dense per-step path

@dataclass(frozen=True)
class StepHomology:
    """Homology of one filtration step in one degree.

    The columns of `basis` are a basis of the cycle space: first the
    `boundaries`, which span the boundary subspace, then the
    `representatives`, cycles whose classes form the chosen basis. So any
    cycle has unique coordinates (boundary part, class part). `free` lists,
    per column, a chain coordinate where that column is the last nonzero
    one (its low); the lows are distinct, so `basis[free]` is invertible
    and a cycle's coordinates are solved on these rows alone.
    """

    modulus: int
    basis: np.ndarray             # chain_dim x (number of boundaries + dim)
    n_boundaries: int
    free: np.ndarray              # (number of boundaries + dim) chain indices

    @property
    def chain_dim(self):
        return self.basis.shape[0]

    @property
    def boundaries(self):
        return self.basis[:, :self.n_boundaries]

    @property
    def representatives(self):
        return self.basis[:, self.n_boundaries:]

    @property
    def dim(self):
        return self.basis.shape[1] - self.n_boundaries

    def class_of(self, chains):
        """Homology coordinates of cycle columns (boundary summands discarded)."""
        chains = np.asarray(chains, dtype=np.int64) % self.modulus
        single = chains.ndim == 1
        if single:
            chains = chains.reshape(-1, 1)
        if chains.shape[0] != self.chain_dim:
            raise DimensionMismatchError("chain length differs from the step's chain space")
        # basis[free] is square and invertible; the chains are cycles exactly
        # when the solution rebuilds them on every row
        coords = solve_matrix(self.basis[self.free], chains[self.free], self.modulus)
        if not np.array_equal(mat_mul(self.basis, coords, self.modulus), chains):
            raise NotACycleError("chain is not a cycle of this step")
        out = coords[self.n_boundaries:, :]
        return out[:, 0] if single else out


@dataclass(frozen=True)
class _StepChains:
    """Chain-level data of one step: ordered bases and boundary matrices per degree."""

    bases: tuple[tuple[Simplex, ...], ...]
    boundaries: tuple[np.ndarray, ...]

    def basis(self, k):
        return self.bases[k] if 0 <= k < len(self.bases) else ()

    def boundary(self, k):
        if 0 <= k < len(self.boundaries):
            return self.boundaries[k]
        return np.zeros((len(self.basis(k - 1)), 0), dtype=np.int64)


def reindex_chains(chains, from_basis, to_basis):
    """Move chain columns, one row per simplex of from_basis, onto to_basis.

    Rows of simplices outside to_basis are dropped; the simplices whose
    dropped row is nonzero come back as the leaked list. Inclusions leak
    nothing; projections onto a quotient basis drop the rows of A.
    """
    pos = {s: i for i, s in enumerate(to_basis)}
    out = np.zeros((len(to_basis), chains.shape[1]), dtype=np.int64)
    leaked = []
    for i, s in enumerate(from_basis):
        j = pos.get(s)
        if j is not None:
            out[j] = chains[i]
        elif chains[i].any():
            leaked.append(s)
    return out, leaked


def _step_chains(x_step, a_step, max_degree, p):
    """Chains of the quotient complex C(X_u)/C(A_u), one degree beyond max_degree."""
    degrees = range(max_degree + 2)
    return _StepChains(tuple(relative_basis(x_step, a_step, k) for k in degrees),
                       tuple(relative_boundary_matrix(x_step, a_step, k, p) for k in degrees))


def kernel_from_rref(rref, pivots, p):
    """The all-free-variables kernel basis of a reduced matrix, and its free
    columns; the basis is the identity on the free columns."""
    cols = rref.shape[1]
    free = np.array([c for c in range(cols) if c not in pivots], dtype=np.intp)
    basis = np.zeros((cols, free.size), dtype=np.int64)
    basis[free, np.arange(free.size)] = 1
    basis[list(pivots)] = (-rref[:len(pivots), free]) % p
    return basis, free


def _step_homology(chain, max_degree, p):
    """Boundary and representative bases of one step in degrees 0..max_degree.

    Each d_k is reduced once: its kernel gives the degree-k cycles, its pivot
    columns the degree-(k-1) boundaries. Representatives are the kernel
    cycles that stay independent after the boundary columns, in kernel
    order: kernel column j is new exactly when row j of B = bounds[free] is
    in the span of the rows below it, that is, when column
    (len(free) - 1 - j) of B[::-1].T is not a pivot.
    """
    boundaries = [chain.boundary(k) for k in range(max_degree + 2)]
    reduced = [linalg.row_reduce(d, p) for d in boundaries]
    out = []
    for k in range(max_degree + 1):
        cycles, free = kernel_from_rref(*reduced[k], p)
        bounds = boundaries[k + 1][:, list(reduced[k + 1][1])]
        _, spanned = linalg.row_reduce(bounds[free][::-1].T, p)
        is_new = np.ones(free.size, dtype=bool)
        is_new[free.size - 1 - np.array(spanned, dtype=np.intp)] = False
        out.append(StepHomology(p, np.hstack([bounds, cycles[:, is_new]]),
                                bounds.shape[1], free))
    return out


class DensePersistence:
    """Persistence the dense per-step way, with the query interface of
    `PersistenceResult` that the sequences module reads. Each step's chains
    are the quotient C(X_u)/C(A_u); step maps are solved from included
    representatives, longer maps are their products, and a persistent group
    is the image of such a product, given by a basis of its columns."""

    def __init__(self, filtration, modulus, max_degree, A=None):
        self.filtration, self.modulus, self.max_degree = filtration, modulus, max_degree
        steps = filtration.steps
        self._a_steps = [EMPTY_COMPLEX if A is None else intersect(step, A) for step in steps]
        self._chains = [_step_chains(step, a_step, max_degree, modulus)
                        for step, a_step in zip(steps, self._a_steps)]
        self._homology, self._maps, self._composed, self._groups = {}, {}, {}, {}
        for u, chain in enumerate(self._chains):
            for k, hom in enumerate(_step_homology(chain, max_degree, modulus)):
                self._homology[(k, u)] = hom
                if u:
                    included, _ = reindex_chains(self._homology[(k, u - 1)].representatives,
                                                 self._chains[u - 1].basis(k), chain.basis(k))
                    self._maps[(k, u - 1)] = hom.class_of(included)

    @property
    def n_steps(self):
        return len(self._chains)

    def labels(self):
        return self.filtration.labels()

    def homology(self, k, u):
        if k > self.max_degree:
            return StepHomology(self.modulus, np.zeros((0, 0), dtype=np.int64), 0,
                                np.zeros(0, dtype=np.intp))
        return self._homology[(k, u)]

    def dim(self, k, u):
        return self.homology(k, u).dim

    def dims(self, k):
        return tuple(self.dim(k, u) for u in range(self.n_steps))

    def basis_simplices(self, k, u):
        return self._chains[u].basis(k)  # through max_degree + 1, as the library

    def representatives(self, k, u):
        cells = self.basis_simplices(k, u)
        return [{cells[i]: int(x) for i, x in enumerate(column) if x}
                for column in self.homology(k, u).representatives.T]

    def class_of(self, k, u, chains):
        """Class coordinates of {simplex: coefficient} cycles by a dense solve
        on the step's quotient chains: coefficients on cells of A_u are
        projected away, and any other cell outside the step is no cycle."""
        p, cells = self.modulus, self.basis_simplices(k, u)
        pos = {s: i for i, s in enumerate(cells)}
        dense = np.zeros((len(cells), len(chains)), dtype=np.int64)
        for j, chain in enumerate(chains):
            for s, x in chain.items():
                if s in pos:
                    dense[pos[s], j] = x % p
                elif x % p and s not in self._a_steps[u]:
                    raise NotACycleError(f"{tuple(s)} is not a {k}-cell of step {u}")
        return self.homology(k, u).class_of(dense)

    def step_map(self, k, u):
        return np.zeros((0, 0), dtype=np.int64) if k > self.max_degree else self._maps[(k, u)]

    def induced_matrix(self, k, u, v):
        key = (k, u, v)
        if key not in self._composed:
            if u == v:
                m = np.eye(self.dim(k, u), dtype=np.int64)
            else:
                m = mat_mul(self.step_map(k, v - 1), self.induced_matrix(k, u, v - 1),
                            self.modulus)
            self._composed[key] = m
        return self._composed[key]

    def persistent_group(self, k, u, v):
        """A basis of the image of the induced map: its pivot columns."""
        key = (k, u, v)
        if key not in self._groups:
            m = self.induced_matrix(k, u, v)
            pivots = linalg.row_reduce(m, self.modulus)[1] if m.size else ()
            self._groups[key] = m[:, list(pivots)]
        return self._groups[key]


# ---------------------------------------------------------------------------
# the cone path that the filtered quotient replaced

def cone_barcodes(X, A, filtration, modulus, max_degree):
    """The barcodes of the pairs (X_u, A_u) in degrees 0..max_degree as the
    reduced homology of X_u ∪ cone(A_u) (Cohen-Steiner-Edelsbrunner-Harer
    2009), built from the public API alone: the cone is a real complex whose
    apex, a new vertex, enters at step 0 and whose cone cells enter with
    their base cells, and its absolute barcode has one more bar [0, inf) in
    degree 0, the apex's component, which is dropped."""
    apex = (max(s[0] for s in X.simplices(0)) + 1,)
    entry = {Simplex(apex): 0, **filtration.entry}
    entry.update({Simplex(s + apex): filtration.entry[s] for s in A.simplices()})
    steps = [SimplicialComplex(s for s, e in entry.items() if e <= u)
             for u in range(len(filtration))]
    cone = compute_persistence(Filtration(filtration.thresholds, steps), modulus, max_degree)
    bars = [list(barcode(cone, k)) for k in range(max_degree + 1)]
    bars[0].remove(next(iv for iv in bars[0] if iv.birth == 0 and iv.death is None))
    return [tuple(b) for b in bars]


# ---------------------------------------------------------------------------
# the dict reduction that the F_2 set arithmetic of the one kernel replaced

def dict_reduce(columns, p, cycles=True):
    """`persistence._reduce` on {row: coefficient} dict columns over every
    F_p, F_2 included, one entry at a time: the same R, V (None without
    `cycles`) and pivots, with each nonzero R_j scaled so that its low is 1.
    A None column is skipped; the columns are reduced in place."""
    reduced, sources, pivot_of = [None] * len(columns), [None] * len(columns), {}
    for j, r in enumerate(columns):
        if r is None:
            continue
        v = {j: 1} if cycles else None
        while r:
            low = max(r)
            i = pivot_of.get(low)
            if i is None:
                inv = pow(r[low], -1, p)
                r = {row: x * inv % p for row, x in r.items()}
                if cycles:
                    v = {row: x * inv % p for row, x in v.items()}
                pivot_of[low] = j
                break
            c = p - r[low]
            _add_multiple(r, reduced[i], c, p)
            if cycles:
                _add_multiple(v, sources[i], c, p)
        reduced[j], sources[j] = r, v
    return reduced, sources if cycles else None, pivot_of


# ---------------------------------------------------------------------------
# the F_2 set columns that the int columns of the one kernel replaced

def f2_rows(column):
    """The rows of an F_2 column as `persistence._reduce` returns it: the
    column given, or the set bits of an int, read one bit at a time."""
    if type(column) is int:
        return {i for i in range(column.bit_length()) if column >> i & 1}
    return set(column)


def set_reduce(columns, cycles=True):
    """`persistence._reduce` over F_2 on set columns: R_j stays the column
    given (a list or dict of its rows; V_j the list [j]) while its low is
    free, becomes a set at its first addition, and each addition, to R and
    to V, is one symmetric difference, the low being the set's max. No
    column given is mutated."""
    reduced, sources, pivot_of = [None] * len(columns), [None] * len(columns), {}
    for j, r in enumerate(columns):
        if r is None:
            continue
        v = [j] if cycles else None
        while r:
            low = max(r)
            i = pivot_of.get(low)
            if i is None:
                pivot_of[low] = j
                break
            if type(r) is not set:  # its first addition: R_j and V_j become sets
                r, v = set(r), {j} if cycles else None
            r.symmetric_difference_update(reduced[i])
            if cycles:
                v.symmetric_difference_update(sources[i])
        reduced[j], sources[j] = r, v
    return reduced, sources if cycles else None, pivot_of


def set_coordinates(result, k, chains, u=None):
    """`PersistenceResult._coordinates` over F_2 by back-substitution on a
    set of rows, `max` finding each low, with the chains and the result's
    cycle columns read as row sets by `f2_rows`; each cell is checked by its
    position in X against the result's space and A masks and its entry
    step, and a chain that is not a cycle raises NotACycleError."""
    rows, last = result._bars(k, u), result.n_steps - 1 if u is None else u
    if rows is None or not chains:
        return BarMatrix((0 if rows is None else rows.size, len(chains)),
                         *np.zeros((3, 0), np.int64))
    F, space, A = result._filtration, result._space, result._A
    position, steps = F._numbering()[1][k][0].tolist(), F._steps
    cycles = [f2_rows(c) for c in result._cycle_table[0][k]]
    cycle_at = result._cycle_table[1][k]
    out = []
    for col, chain in enumerate(chains):
        r = set()
        for i in f2_rows(chain):
            s = position[i]
            if steps[s] > last or space is not None and not space[s]:
                raise NotACycleError(f"cell {s} is outside the space")
            if A is None or not A[s]:
                r.add(i)
        while r:
            j = cycle_at.get(max(r))
            if j is None:
                raise NotACycleError(f"a {k}-chain is not a cycle")
            r.symmetric_difference_update(cycles[j])
            out.append((j, col, 1))
    j, col, x = np.array(out, dtype=np.int64).reshape(-1, 3).T
    at = np.full(len(cycles), -1)
    at[rows] = np.arange(rows.size)
    row = at[j]
    return BarMatrix((rows.size, len(chains)), row[row >= 0], col[row >= 0], x[row >= 0])


# ---------------------------------------------------------------------------
# the simplex-keyed build and maps that one numbering per system replaced

def simplex_boundary(X, chains, keep=None):
    """The boundary of the part of each {simplex: coefficient} chain on the
    cells that `keep` accepts (all when None), read off X's facet table:
    facet i has the sign (-1)^i."""
    out = []
    for chain in chains:
        boundary = {}
        for s, x in chain.items():
            if keep is None or keep(s):
                for i, f in enumerate(X.facet_table[s]):
                    boundary[f] = boundary.get(f, 0) + (-x if i % 2 else x)
        out.append(boundary)
    return out


class SimplexKeyedResult:
    """The bar table of the space S of a filtration of X, relative to A,
    built the way each result once built it: S's cells not in A numbered
    afresh per degree by sorting (step, simplex) pairs, an `_index` dict per
    degree keyed by simplex, and each boundary column built by hashing every
    facet, read off S's own facet table, into the degree below. Chains leave
    it as {simplex: coefficient} dicts (`representatives`) and come back by
    hashing each simplex into `_index` (`coordinates`), over every bar of
    positive length."""

    def __init__(self, filtration, S, modulus, max_degree, A=EMPTY_COMPLEX):
        self.modulus, self.n_steps, self._A = modulus, len(filtration), A
        entry, top = filtration.entry, max_degree + 1
        blocks = [sorted((entry[s], s) for s in S.simplices(k) if s not in A)
                  for k in range(top + 1)]
        self._cells = [tuple(s for _, s in block) for block in blocks]
        self._entry = [[e for e, _ in block] for block in blocks]
        self._index = [{s: i for i, s in enumerate(cells)} for cells in self._cells]
        paired, above, tables = {}, [], []
        for k in range(top, -1, -1):
            rows = self._index[k - 1] if k else {}
            columns = []
            for j, s in enumerate(self._cells[k]):
                column = {}
                for i, f in enumerate(S.facet_table[s]):
                    if f in rows:
                        column[rows[f]] = (-1) ** i % modulus
                columns.append(None if j in paired else column)
            reduced, sources, pivot_of = dict_reduce(columns, modulus)
            if k < top:
                table = []  # (low, cycle column, birth, death) of each bar
                for j, r in enumerate(reduced):
                    if not r:
                        tau = paired.get(j)
                        table.append((j, sources[j] if tau is None else above[tau],
                                      self._entry[k][j],
                                      self.n_steps if tau is None else self._entry[k + 1][tau]))
                tables.insert(0, table)
            paired, above = pivot_of, reduced
        self._table = tables
        self._long = [[bar for bar in table if bar[2] < bar[3]] for table in tables]

    def bars(self, k):
        """Births and deaths of the bars of positive length, in table order."""
        bars = self._long[k] if k < len(self._long) else []
        return (np.array([b for _, _, b, _ in bars], dtype=np.int64),
                np.array([d for _, _, _, d in bars], dtype=np.int64))

    def representatives(self, k):
        if k >= len(self._long):
            return []
        cells = self._cells[k]
        return [{cells[i]: x for i, x in cycle.items()} for _, cycle, _, _ in self._long[k]]

    def coordinates(self, k, chains):
        """The classes of {simplex: coefficient} cycles on the bars of positive
        length, by back-substitution on the lows of all cycle columns; a cell
        of A is zero."""
        p = self.modulus
        table = self._table[k] if k < len(self._table) else []
        cycle_at = {low: j for j, (low, _, _, _) in enumerate(table)}
        rows = [j for j, (_, _, b, d) in enumerate(table) if b < d]
        index = self._index[k] if k < len(self._index) else {}
        out = np.zeros((len(table), len(chains)), dtype=np.int64)
        for col, chain in enumerate(chains):
            r = {}
            for s, x in chain.items():
                if x % p and s not in self._A:
                    r[index[s]] = x % p
            while r:
                low = max(r)
                j = cycle_at[low]
                x = r[low]
                _add_multiple(r, table[j][1], p - x, p)
                out[j, col] = x
        out = out[rows]
        at = out.nonzero()
        return BarMatrix(out.shape, at[0], at[1], out[at])


def simplex_keyed_system(system):
    """The spaces of a system as `SimplexKeyedResult`s, by name, and every
    map over bars, by (gap, degree), built from them the way the system once
    built it: with A∩B as the intersection of the complexes, and chains
    handed between spaces, and split between A and B, as simplices."""
    F, p, D, X, A = system.filtration, system.modulus, system.top_degree, system.X, system.A

    def space(S, rel=EMPTY_COMPLEX):
        return SimplexKeyedResult(F, S, p, D, rel)

    def inclusion(sub, sup, k):
        return sup.coordinates(k, sub.representatives(k))

    spaces, maps = {"X": space(X), "A": space(A)}, {}
    if system.kind == "pair":
        spaces["(X,A)"] = RXA = space(X, A)
        for k in range(D + 1):
            maps["delta", k] = spaces["A"].coordinates(
                k, simplex_boundary(X, RXA.representatives(k + 1)))
            maps["alpha", k] = inclusion(spaces["A"], spaces["X"], k)
            maps["beta", k] = inclusion(spaces["X"], RXA, k)
        return spaces, maps
    B = system.B
    spaces.update({"B": space(B), "A∩B": space(intersect(A, B))})
    RX, RA, RB, RAB = (spaces[name] for name in ("X", "A", "B", "A∩B"))
    for k in range(D + 1):
        maps["delta", k] = RAB.coordinates(k, simplex_boundary(
            X, RX.representatives(k + 1), lambda s: s in A.facet_table))
        s, t = inclusion(RAB, RA, k), inclusion(RAB, RB, k)
        maps["alpha", k] = BarMatrix((s.shape[0] + t.shape[0], s.shape[1]),
                                     np.append(s.rows, t.rows + s.shape[0]),
                                     np.append(s.cols, t.cols),
                                     np.append(s.values, -t.values % p))
        maps["beta", k] = RX.coordinates(k, RA.representatives(k) + RB.representatives(k))
    return spaces, maps


# ---------------------------------------------------------------------------
# the X-position path that one numbering per filtration replaced

class XPositionResult:
    """The bar table and cycle columns of one space of a filtration of X,
    built the way each result once built them: the space's cells (a mask
    over X's positions, all when None) not in the mask A numbered afresh per
    degree by one stable argsort of (degree, entry step) over X's order, a
    row map `_row_of` of len(X) (len(X) outside the space, -1 in A) reading
    each column's rows off X's facet index, and one `dict_reduce` per degree,
    top down, with clearing. Chains leave it as {position in X:
    coefficient} dicts (`chains`) and come back through `_row_of`
    (`position_coordinates`); `coordinates` reads {simplex: coefficient}
    chains at their positions in X."""

    def __init__(self, filtration, modulus, max_degree, space=None, A=None):
        self._filtration, self.modulus, self.n_steps = filtration, modulus, len(filtration)
        X, steps, p = filtration.complex, filtration._steps, modulus
        keep = space if A is None else ~A if space is None else space & ~A
        row_of = np.full(len(X), len(X), dtype=np.intp)
        ends = [sum(X.n_cells(j) for j in range(k + 1)) for k in range(max_degree + 2)]
        cells = np.arange(ends[-1]) if keep is None else keep[:ends[-1]].nonzero()[0]
        degree = np.searchsorted(ends, cells, side="right")
        order = cells[(degree * self.n_steps + steps[cells]).argsort(kind="stable")]
        cuts = np.searchsorted(degree, np.arange(len(ends) + 1))
        row_of[order] = np.arange(order.size) - cuts[degree]
        cuts, entry = cuts.tolist(), steps[order]
        self._order = [order[a:b].tolist() for a, b in zip(cuts, cuts[1:])]
        self._entry = [entry[a:b] for a, b in zip(cuts, cuts[1:])]
        if A is not None:
            row_of[A] = -1
        self._row_of = row_of.tolist()
        levels, top = X._facet_index()[2], max_degree + 1
        paired, above, births, deaths, columns_kept, cycle_at = {}, [], [], [], [], []
        for k in range(top, -1, -1):
            order = np.array(self._order[k], dtype=np.intp)
            if k and order.size:
                cells, facets = levels[k - 1]
                rows = row_of[facets.reshape(-1, k + 1)[order - cells[0]]].tolist()
            else:
                rows = [[] for _ in range(order.size)]
            signs = [(-1) ** i % p for i in range(k + 1)]
            columns = [None if j in paired else {i: x for i, x in zip(r, signs) if i >= 0}
                       for j, r in enumerate(rows)]
            reduced, sources, pivot_of = dict_reduce(columns, p)
            if k < top:
                lows, ends, kept, entry = [], [], [], self._entry[k + 1].tolist()
                for j, r in enumerate(reduced):
                    if not r:
                        tau = paired.get(j)
                        lows.append(j)
                        ends.append(self.n_steps if tau is None else entry[tau])
                        kept.append(sources[j] if tau is None else above[tau])
                births.insert(0, self._entry[k][np.array(lows, dtype=np.int64)])
                deaths.insert(0, np.array(ends, dtype=np.int64))
                columns_kept.insert(0, kept)
                cycle_at.insert(0, {low: j for j, low in enumerate(lows)})
            paired, above = pivot_of, reduced
        self._cycles, self._cycle_at = columns_kept, cycle_at
        self._births, self._deaths = births, deaths

    def _bars(self, k, u):
        """The cycle cells of the bars alive at u (of positive length when u is None)."""
        if k >= len(self._births):
            return None
        b, d = self._births[k], self._deaths[k]
        return ((b < d) if u is None else (b <= u) & (d > u)).nonzero()[0]

    def chains(self, k, u=None):
        """The cycle columns of the bars alive at u as {position in X: coefficient} dicts."""
        alive = self._bars(k, u)
        if alive is None:
            return []
        order = self._order[k]
        return [{order[i]: x for i, x in self._cycles[k][j].items()} for j in alive.tolist()]

    def coordinates(self, k, chains, u=None):
        """{simplex: coefficient} chains read at their positions in X."""
        index, p = self._filtration.complex._index, self.modulus
        at = []
        for chain in chains:
            out = {}
            for s, x in chain.items():
                if len(s) == k + 1 and s in index:
                    out[index[s]] = int(x)
                elif int(x) % p:
                    raise NotACycleError(f"{tuple(s)} is not a {k}-cell of X")
            at.append(out)
        return self.position_coordinates(k, at, u)

    def position_coordinates(self, k, chains, u=None):
        """Classes of {position in X: coefficient} cycles on the bars alive at
        u (of positive length when u is None), by back-substitution, each cell
        read through `_row_of`: a cell of A present at u is zero, and a cell
        outside the space, or entering after u, raises NotACycleError."""
        rows, p = self._bars(k, u), self.modulus
        last = self.n_steps - 1 if u is None else u
        if rows is None or not chains:
            return BarMatrix((0 if rows is None else rows.size, len(chains)),
                             *np.zeros((3, 0), np.int64))
        steps = self._filtration._steps
        n = int(np.searchsorted(self._entry[k], last, side="right"))
        cycles, cycle_at = self._cycles[k], self._cycle_at[k]
        out = []
        for col, chain in enumerate(chains):
            r = {}
            for s, x in chain.items():
                x %= p
                if x:
                    i = self._row_of[s]
                    if 0 <= i < n:
                        r[i] = x
                    elif i >= 0 or steps[s] > last:
                        raise NotACycleError(f"cell {s} is outside the space at {last}")
            while r:
                low = max(r)
                j = cycle_at.get(low)
                if j is None:
                    raise NotACycleError(f"a {k}-chain is not a cycle")
                x = r[low]
                _add_multiple(r, cycles[j], p - x, p)
                out.append((j, col, x))
        j, col, x = np.array(out, dtype=np.int64).reshape(-1, 3).T
        position = np.full(len(cycles), -1)
        position[rows] = np.arange(rows.size)
        row = position[j]
        return BarMatrix((rows.size, len(chains)), row[row >= 0], col[row >= 0], x[row >= 0])


def position_boundary(X, chains, k, p, keep=None):
    """The boundary over F_p of the part of each k-chain of positions in X on
    the cells that the mask `keep` marks (all when None), rebuilding X's facet
    rows from its facet index: facet i has the sign (-1)^i."""
    if not chains:
        return []
    cells, facets = X._facet_index()[2][k - 1]
    first, rows = int(cells[0]), list(zip(*facets.reshape(-1, k + 1).T.tolist()))
    out = []
    for chain in chains:
        boundary = {}
        for s, x in chain.items():
            if keep is None or keep[s]:
                for i, f in enumerate(rows[s - first]):
                    boundary[f] = boundary.get(f, 0) + (-x if i % 2 else x)
        out.append({f: y % p for f, y in boundary.items() if y % p})
    return out


def x_position_system(system):
    """The spaces of a system as `XPositionResult`s, by name, and every map
    over bars, by (gap, degree), built from them the way the system once
    built it: chains handed between spaces as {position in X: coefficient}
    dicts, and split between A and B by A's mask."""
    F, p, D, X = system.filtration, system.modulus, system.top_degree, system.X
    masks = {name: (R._space, R._A) for name, R in system.spaces.items()}
    spaces = {name: XPositionResult(F, p, D, *mask) for name, mask in masks.items()}
    RX, RA, maps = spaces["X"], spaces["A"], {}
    for k in range(D + 1):
        if system.kind == "pair":
            RXA = spaces["(X,A)"]
            maps["delta", k] = RA.position_coordinates(
                k, position_boundary(X, RXA.chains(k + 1), k + 1, p))
            maps["alpha", k] = RX.position_coordinates(k, RA.chains(k))
            maps["beta", k] = RXA.position_coordinates(k, RX.chains(k))
            continue
        RB, RAB = spaces["B"], spaces["A∩B"]
        maps["delta", k] = RAB.position_coordinates(k, position_boundary(
            X, RX.chains(k + 1), k + 1, p, system._masks[0]))
        s, t = RA.position_coordinates(k, RAB.chains(k)), RB.position_coordinates(k, RAB.chains(k))
        maps["alpha", k] = BarMatrix((s.shape[0] + t.shape[0], s.shape[1]),
                                     np.append(s.rows, t.rows + s.shape[0]),
                                     np.append(s.cols, t.cols),
                                     np.append(s.values, -t.values % p))
        maps["beta", k] = RX.position_coordinates(k, RA.chains(k) + RB.chains(k))
    return spaces, maps


# ---------------------------------------------------------------------------
# the per-step map path that the maps over bars replaced

class PerStepSystem:
    """A system's maps the per-step way, with the query interface the audit
    paths read: at each step u every horizontal map is built from the
    step's representatives and their classes at u (`map_at(gap, k, u)`),
    and kept; terms are read per step (`term_bars`, `term_dim`, `vertical`,
    `persistent_group`), and `level(v)` keeps the rank profile of the maps
    at v. It runs on the system's own spaces or on others with the same
    per-step queries (the dense twin)."""

    def __init__(self, system, spaces=None):
        self.kind, self.modulus, self.n_steps = system.kind, system.modulus, system.n_steps
        self.top_degree, self.filtration = system.top_degree, system.filtration
        self._terms, self._gaps = system._terms, system._gaps
        self.spaces = system.spaces if spaces is None else spaces
        self._maps, self._bars, self._levels = {}, {}, {}

    def _summands(self, label):
        return [self.spaces[name] for name in label.split("⊕")]

    def term_bars(self, label, k, u):
        """Births and deaths of the term's coordinates at step u."""
        key = (label, k, u)
        if key not in self._bars:
            parts = [R.bars_alive(k, u) for R in self._summands(label)]
            self._bars[key] = parts[0] if len(parts) == 1 else tuple(
                map(np.concatenate, zip(*parts)))
        return self._bars[key]

    def term_dim(self, label, k, u):
        return sum(R.dim(k, u) for R in self._summands(label))

    def vertical(self, label, k, u, v):
        return reduce(block_diag,
                      [R.induced_matrix(k, u, v) for R in self._summands(label)])

    def persistent_group(self, label, k, u, v):
        """The positions, among the term's coordinates at step v, of the bars
        born by u: the image of `vertical(label, k, u, v)`."""
        if not 0 <= u <= v < self.n_steps:
            raise IndexError(f"bad step pair ({u}, {v})")
        return (self.term_bars(label, k, v)[0] <= u).nonzero()[0]

    def horizontal(self, gap, k, u):
        key = (gap, k, u)
        if key not in self._maps:
            m = self.map_at(gap, k, u)
            m.setflags(write=False)
            self._maps[key] = m
        return self._maps[key]

    def level(self, v):
        """The rank profile of the maps at step v, kept while they are the
        maps `horizontal` gives."""
        maps = tuple(self.horizontal(gap, k, v) for gap, k in self._gaps)
        level = self._levels.get(v)
        if level is None or any(a is not b for a, b in zip(maps, level.maps)):
            level = self._levels[v] = _Level(self, v, maps)
        return level

    def map_at(self, gap, k, u):
        X, A, p = self.spaces["X"], self.spaces["A"], self.modulus
        if self.kind == "mayer-vietoris":
            B, AB = self.spaces["B"], self.spaces["A∩B"]
            if gap == "delta":
                return step_mv_connecting(self, k, u)
            if gap == "alpha":
                return np.vstack([step_inclusion(AB, A, k, u),
                                  (-step_inclusion(AB, B, k, u)) % p])
            return np.hstack([step_inclusion(A, X, k, u), step_inclusion(B, X, k, u)])
        XA = self.spaces["(X,A)"]
        if gap == "delta":
            return A.class_of(k, u, simplex_boundary(self.filtration.complex,
                                                     XA.representatives(k + 1, u)))
        if gap == "alpha":
            return step_inclusion(A, X, k, u)
        return step_inclusion(X, XA, k, u)  # the quotient map


def step_inclusion(R_sub, R_sup, k, u):
    """H_k(sub_u) -> H_k(sup_u): the classes, in the bigger step, of the
    smaller step's representatives."""
    return R_sup.class_of(k, u, R_sub.representatives(k, u))


def step_mv_connecting(system, k, u, assign_shared_to="A"):
    """H_{k+1}(X_u) -> H_k((A∩B)_u): the class of the boundary of the A-part
    of each representative, the cells of step u of A (or of A but not B)."""
    a_entry = system.spaces["A"].filtration.entry
    b_entry = system.spaces["B"].filtration.entry

    def in_a_part(s):
        in_a, in_b = a_entry.get(s, u + 1) <= u, b_entry.get(s, u + 1) <= u
        assert in_a or in_b, f"simplex {tuple(s)} lies in neither A nor B at step {u}"
        return in_a and (assign_shared_to == "A" or not in_b)

    return system.spaces["A∩B"].class_of(k, u, simplex_boundary(
        system.filtration.complex, system.spaces["X"].representatives(k + 1, u), in_a_part))


def b_side_mv_connecting(system, k):
    """`sequences.mv_connecting` over all bars with the simplices of A∩B on
    the B side: the class of the boundary of each cycle column's cells of A
    not in B."""
    a_entry, b_entry = system.RA.filtration.entry, system.RB.filtration.entry
    return system.RAB.coordinates(k, simplex_boundary(
        system.X, system.RX.representatives(k + 1), lambda s: s in a_entry and s not in b_entry))


class _Level:
    """The rank profile at step v: `births[j]` of term j's coordinates,
    `pivots[i]` the births of the pivot columns of maps[i] (term i -> term
    i + 1) with its columns in birth order, and `order2_until[j]` the birth
    from which order 2 fails at term j (n_steps: never)."""

    def __init__(self, system, v, maps):
        p = system.modulus
        self.maps = maps
        self.births = [system.term_bars(label, k, v)[0] for label, k in system._terms]
        self.pivots = []
        for m, births in zip(maps, self.births):
            pivots = []
            if m.any():  # a zero map has no pivots
                order = births.argsort(kind="stable")
                pivots = births[order[list(linalg.row_reduce(m[:, order], p)[1])]].tolist()
            self.pivots.append(pivots)
        self.order2_until = [system.n_steps] * len(self.births)
        for j in range(1, len(maps)):
            if self.pivots[j - 1] and self.pivots[j]:
                hit = mat_mul(maps[j], maps[j - 1], p).any(axis=0)
                if hit.any():
                    self.order2_until[j] = int(self.births[j - 1][hit].min())
        self._leaks = None

    def leak(self, u):
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

    def audit(self, system, level_name, u, dims):
        """The audit at (u, v) of the terms of dimensions `dims`, read off
        the profile: ranks by prefix counts, order 2 by the earliest births."""
        ranks = [bisect_right(pivots, u) for pivots in self.pivots] + [0]
        positions, im = [], 0
        for (label, k), dim, rank, until in zip(system._terms, dims, ranks,
                                                self.order2_until):
            ker, order2 = dim - rank, u < until
            positions.append(PositionAudit(label, k, dim, im, ker, order2,
                                           order2 and im == ker, ker - im))
            im = rank
        return SequenceAudit(level_name, system.kind, tuple(positions),
                             all(pos.order2 for pos in positions),
                             all(pos.exact for pos in positions))


def level_ordinary_sequence(system, u):
    """The ordinary sequence of step u and its audit by the rank profile."""
    level = system.level(u)
    terms = [SequenceTerm(label, k, births.size)
             for (label, k), births in zip(system._terms, level.births)]
    maps = list(level.maps) + [np.zeros((0, terms[-1].dim), dtype=np.int64)]
    seq = LinearSequence(ORDINARY, system.kind, tuple(terms), tuple(maps), system.modulus, u=u)
    return seq, level.audit(system, ORDINARY, u, [term.dim for term in terms])


def level_persistent_sequence(system, u, v):
    """The persistent sequence between u <= v: the level-v maps sliced to
    the groups, after the leak bounds, audited by the rank profile."""
    level = system.level(v)
    leak = level.leak(u) if u < v else None
    if leak is not None:
        gap, k = system._gaps[leak]
        raise RestrictionLeakError(f"{gap} at degree {k} left the target persistent group; "
                                   "the inclusion squares cannot commute")
    groups = [(births <= u).nonzero()[0] for births in level.births]
    terms = [SequenceTerm(label, k, group.size)
             for (label, k), group in zip(system._terms, groups)]
    maps = [m[groups[i + 1]][:, groups[i]] for i, m in enumerate(level.maps)]
    maps.append(np.zeros((0, terms[-1].dim), dtype=np.int64))
    seq = LinearSequence(PERSISTENT, system.kind, tuple(terms), tuple(maps), system.modulus,
                         u=u, v=v)
    return seq, level.audit(system, PERSISTENT, u, [term.dim for term in terms])


def _survivors(births_v, deaths_u, u, v):
    """The bars alive through [u, v], given the births of the coordinates at
    v and the deaths of those at u: their positions among the coordinates at
    u and among those at v, in one order."""
    return (deaths_u > v).nonzero()[0], (births_v <= u).nonzero()[0]


def scatter_check_squares(system, u, v):
    """Every inclusion square between u <= v: each side a selection of one
    map's entries, scattered into the (target at v, source at u) shape."""
    if u == v:
        return []
    kept = [_survivors(system.term_bars(label, k, v)[0], system.term_bars(label, k, u)[1], u, v)
            for label, k in system._terms]
    failures = []
    for i, (gap, k) in enumerate(system._gaps):
        m_u, m_v = system.horizontal(gap, k, u), system.horizontal(gap, k, v)
        if m_v.shape[0] == 0 or m_u.shape[1] == 0:
            continue
        (at_u, at_v), (target_at_u, target_at_v) = kept[i], kept[i + 1]
        left = np.zeros((m_v.shape[0], m_u.shape[1]), dtype=np.int64)
        right = left.copy()
        left[:, at_u] = m_v[:, at_v]
        right[target_at_v] = m_u[target_at_u]
        if not np.array_equal(left, right):
            failures.append(f"{gap} square at degree {k} between steps {u} and {v}")
    return failures


def with_entry(m, t, s, x, p):
    """A map over bars with x added to its entry (t, s) over F_p."""
    hit = (m.rows == t) & (m.cols == s)
    value = int(m.values[hit].sum() + x) % p
    rows, cols, values = m.rows[~hit], m.cols[~hit], m.values[~hit]
    if value:
        rows, cols, values = np.append(rows, t), np.append(cols, s), np.append(values, value)
    return BarMatrix(m.shape, rows, cols, values)


def fault_sites(system, i):
    """One entry (t, s) of map i over bars for each structural check it would
    fail where some step shows it: a target born after its source while the
    source lives, and a target dying after its source, born no later."""
    (sb, sd), (tb, td) = system._bars[i], system._bars[i + 1]
    checks = {"birth": lambda s: (tb > sb[s]) & (tb < sd[s]),
              "death": lambda s: (tb <= sb[s]) & (td > sd[s]) & (sd[s] < system.n_steps)}
    for check, fails in checks.items():
        site = next(((t, s) for s in range(sb.size) for t in fails(s).nonzero()[0].tolist()), None)
        if site is not None:
            yield check, site


def entry_sites(system, read):
    """Every (i, t, s) where an entry of map i over bars would fail a
    structural check: when `read`, those some group pair holds (the target
    born before the source dies); otherwise those no step or pair of steps
    reads (the target born no earlier than the source dies)."""
    for i in range(len(system._gaps)):
        (sb, sd), (tb, td) = system._bars[i], system._bars[i + 1]
        for s in range(sb.size):
            fails = ((tb > sb[s]) | (td > sd[s])) & (tb < sd[s]) if read else tb >= sd[s]
            yield from ((i, t, s) for t in fails.nonzero()[0].tolist())


def order2_sites(probe):
    """Every (j, t, s) where an entry added to map j over bars passes both
    structural checks but breaks order 2 at term j: t is born and dies no
    later than s, and alive after the earliest birth of a column of map j - 1
    reaching s."""
    gaps, bars, sites = probe._gaps, probe._bars, []
    for j in range(1, len(gaps)):
        before = probe.matrix(*gaps[j - 1])
        (sb, sd), (tb, td) = bars[j], bars[j + 1]
        for s in np.unique(before.rows).tolist():
            born = bars[j - 1][0][before.cols[before.rows == s]].min()
            sites += [(j, t, s) for t in
                      ((tb <= sb[s]) & (td <= sd[s]) & (td > born)).nonzero()[0].tolist()]
    return sites


def tampered(system, i, t, s, x=1):
    """A copy of a system whose map i over bars has x added at (t, s); the
    other maps are built as usual, and nothing is counted yet."""
    twin = copy.copy(system)
    twin.__dict__.pop("_profile", None)
    m = system.matrix(*system._gaps[i])
    twin._matrices = {**system._matrices, system._gaps[i]: with_entry(m, t, s, x, system.modulus)}
    return twin


def reading(system):
    """The per-step path on the maps a system selects from its maps over
    bars, so the oracles audit what the system audits."""
    old = PerStepSystem(system)
    old.horizontal = system.horizontal
    return old


# ---------------------------------------------------------------------------
# the per-call audit path

def per_call_ordinary_sequence(system, u):
    """The ordinary sequence of step u, audited by `audit`."""
    terms = [SequenceTerm(label, k, system.term_dim(label, k, u))
             for label, k in system._terms]
    maps = [system.horizontal(gap, k, u) for gap, k in system._gaps]
    maps.append(np.zeros((0, terms[-1].dim), dtype=np.int64))
    seq = LinearSequence(ORDINARY, system.kind, tuple(terms), tuple(maps), system.modulus, u=u)
    return seq, audit(seq)


def per_call_persistent_sequence(system, u, v):
    """The persistent sequence between steps u <= v, audited by `audit`: each
    term's group is its summands' groups side by side, each arrow the level-v
    map sliced to the groups, and a slice that drops a nonzero entry leaks."""
    if not 0 <= u <= v < system.n_steps:
        raise IndexError(f"bad step pair ({u}, {v})")
    schedule = system._terms
    groups = []
    for label, k in schedule:
        parts, offset = [], 0
        for R in system._summands(label):
            parts.append(R.persistent_group(k, u, v) + offset)
            offset += R.dim(k, v)
        groups.append(np.concatenate(parts))
    terms = [SequenceTerm(label, k, len(group)) for (label, k), group in zip(schedule, groups)]
    maps = []
    for i, (gap, k) in enumerate(system._gaps):
        columns = system.horizontal(gap, k, v)[:, groups[i]]
        restricted = columns[groups[i + 1]]
        if np.count_nonzero(restricted) != np.count_nonzero(columns):
            raise RestrictionLeakError(f"{gap} at degree {k} left the target persistent group")
        maps.append(restricted)
    maps.append(np.zeros((0, terms[-1].dim), dtype=np.int64))
    seq = LinearSequence(PERSISTENT, system.kind, tuple(terms), tuple(maps), system.modulus,
                         u=u, v=v)
    return seq, audit(seq)


def per_call_check_squares(system, u, v):
    """Every inclusion square between steps u <= v multiplied out: (map at v)
    ∘ vertical against vertical ∘ (map at u), with the verticals block
    diagonal."""
    schedule, p = system._terms, system.modulus
    verticals = [system.vertical(label, k, u, v) for label, k in schedule]
    failures = []
    for i, (gap, k) in enumerate(system._gaps):
        left = mat_mul(system.horizontal(gap, k, v), verticals[i], p)
        right = mat_mul(verticals[i + 1], system.horizontal(gap, k, u), p)
        if not np.array_equal(left, right):
            failures.append(f"{gap} square at degree {k} between steps {u} and {v}")
    return failures


def per_call_module_sequence(system):
    """The module audit as the per-call ordinary audit of every step, summed
    position by position, after checking the consecutive squares."""
    n = system.n_steps
    for u in range(n - 1):
        failures = per_call_check_squares(system, u, u + 1)
        if failures:
            raise ValueError(f"graded {failures[0]} does not commute with the shift action")
    auds = [per_call_ordinary_sequence(system, u)[1] for u in range(n)]
    positions = []
    for i, pos in enumerate(auds[0].positions):
        steps = tuple(StepAudit(u, q.dim, q.dim_image_in, q.dim_kernel_out, q.order2, q.exact,
                                q.defect)
                      for u, q in enumerate(aud.positions[i] for aud in auds))
        positions.append(PositionAudit(
            pos.term, pos.degree, sum(s.dim for s in steps),
            sum(s.dim_image_in for s in steps), sum(s.dim_kernel_out for s in steps),
            all(s.order2 for s in steps), all(s.exact for s in steps),
            sum(s.defect for s in steps), steps))
    return SequenceAudit(MODULE, system.kind, tuple(positions),
                         all(pos.order2 for pos in positions),
                         all(pos.exact for pos in positions))


def per_step_module_sequence(system):
    """The module sequence as the ordinary sequence of every step, each
    audited by `ordinary_sequence` and summed position by position, after
    checking the consecutive squares: the path that one per-step count
    table replaced."""
    n = system.n_steps
    for u in range(n - 1):
        failures = check_squares(system, u, u + 1)
        if failures:
            raise ValueError(f"graded {failures[0]} does not commute with the shift action")
    per_step = [ordinary_sequence(system, u)[1].positions for u in range(n)]
    terms, positions = [], []
    for i, (label, k) in enumerate(system._terms):
        steps = tuple(StepAudit(u, pos.dim, pos.dim_image_in, pos.dim_kernel_out,
                                pos.order2, pos.exact, pos.defect)
                      for u, pos in enumerate(step[i] for step in per_step))
        dims = tuple(s.dim for s in steps)
        terms.append(SequenceTerm(label, k, sum(dims), dims))
        positions.append(PositionAudit(
            label, k, sum(dims),
            sum(s.dim_image_in for s in steps), sum(s.dim_kernel_out for s in steps),
            all(s.order2 for s in steps), all(s.exact for s in steps),
            sum(s.defect for s in steps), steps))
    maps = [[system.horizontal(*system._gaps[i], u) if i < len(system._gaps) else
             np.zeros((0, terms[-1].dims_per_step[u]), dtype=np.int64) for u in range(n)]
            for i in range(len(terms))]
    seq = LinearSequence(MODULE, system.kind, tuple(terms), maps, system.modulus)
    return seq, SequenceAudit(MODULE, system.kind, tuple(positions),
                              all(pos.order2 for pos in positions),
                              all(pos.exact for pos in positions))


def _assert_same_sequence(seq, want, what):
    assert (seq.level, seq.kind, seq.terms, seq.modulus, seq.u, seq.v) == \
        (want.level, want.kind, want.terms, want.modulus, want.u, want.v), what
    assert len(seq.maps) == len(want.maps), what
    for got, expected in zip(seq.maps, want.maps):
        assert got.shape == expected.shape and np.array_equal(got, expected), what


def assert_audits_match_per_call_path(system, pairs=None, per_call=True):
    """The count audits of a system against the per-step path: every map at
    every step (as the ordinary sequences' maps), every ordinary (every u)
    and persistent (every u <= v, or the given `pairs`) sequence and audit
    against the rank profiles (`_Level`), every square check against the
    scatter check, and the module audit. With `per_call`, also against
    `audit` of the very sequences they come with and against the per-call
    path (slicing, fresh reductions, verticals multiplied out)."""
    n, old = system.n_steps, PerStepSystem(system)
    for u in range(n):
        seq, aud = ordinary_sequence(system, u)
        want_seq, want = level_ordinary_sequence(old, u)
        _assert_same_sequence(seq, want_seq, ("ordinary", u))
        assert aud == want, ("ordinary", u)
        if per_call:
            assert aud == audit(seq) == per_call_ordinary_sequence(old, u)[1], ("ordinary", u)
    for u, v in pairs or [(u, v) for u in range(n) for v in range(u, n)]:
        seq, aud = persistent_sequence(system, u, v)
        want_seq, want = level_persistent_sequence(old, u, v)
        _assert_same_sequence(seq, want_seq, ("persistent", u, v))
        assert aud == want, ("persistent", u, v)
        squares = check_squares(system, u, v)
        if per_call:
            call_seq, call_aud = per_call_persistent_sequence(old, u, v)
            _assert_same_sequence(seq, call_seq, ("persistent", u, v))
            assert aud == audit(seq) == call_aud, ("persistent", u, v)
            assert squares == per_call_check_squares(old, u, v), (u, v)
        else:
            assert squares == scatter_check_squares(old, u, v), (u, v)
    assert module_sequence(system)[1] == per_call_module_sequence(old)


def dense_bars(result, k):
    """(birth, death) of every bar in degree k, death None for essential
    bars, by inclusion-exclusion over the ranks of the persistent groups."""
    n = result.n_steps

    def rk(u, v):
        return 0 if u < 0 else result.persistent_group(k, u, v).shape[1]

    bars = []
    for b in range(n):
        for d in range(b + 1, n):
            mult = (rk(b, d - 1) - rk(b, d)) - (rk(b - 1, d - 1) - rk(b - 1, d))
            assert mult >= 0, "negative interval multiplicity"
            bars += [(b, d)] * mult
        mult = rk(b, n - 1) - rk(b - 1, n - 1)
        assert mult >= 0, "negative interval multiplicity"
        bars += [(b, None)] * mult
    return bars


def dense_twin(system):
    """The per-step path of a system on its spaces recomputed by the dense
    path, with no horizontal map computed yet; the per-call audit path runs
    on it as on the original."""
    filt, p, top = system.filtration, system.modulus, system.top_degree
    dense = {"X": DensePersistence(filt, p, top),
             "A": DensePersistence(filt.restrict_to(system.A), p, top)}
    if isinstance(system, MayerVietorisSystem):
        dense["B"] = DensePersistence(filt.restrict_to(system.B), p, top)
        dense["A∩B"] = DensePersistence(filt.restrict_to(intersect(system.A, system.B)), p, top)
    else:
        dense["(X,A)"] = DensePersistence(filt, p, top, system.A)
    return PerStepSystem(system, {name: dense[name] for name in system.spaces})


def dense_persistent_audit(twin, u, v):
    """The persistent audit the dense way: each term's group is the direct sum
    of its summands' images, each arrow the level-v map restricted by a solve
    in the target basis."""
    p = twin.modulus
    schedule = twin._terms
    groups = [reduce(block_diag, [R.persistent_group(k, u, v)
                                  for R in twin._summands(label)])
              for label, k in schedule]
    terms = [SequenceTerm(label, k, g.shape[1]) for (label, k), g in zip(schedule, groups)]
    maps = []
    for i, (gap, k) in enumerate(twin._gaps):
        images = mat_mul(twin.horizontal(gap, k, v), groups[i], p)
        maps.append(solve_matrix(groups[i + 1], images, p) if images.size else
                    np.zeros((groups[i + 1].shape[1], images.shape[1]), dtype=np.int64))
        assert maps[-1] is not None, f"{gap} at degree {k} leaves the persistent group"
    maps.append(np.zeros((0, terms[-1].dim), dtype=np.int64))
    return audit(LinearSequence(PERSISTENT, twin.kind, tuple(terms), tuple(maps), p, u=u, v=v))


def _assert_result_matches(result, dense, what):
    """Dims, induced-map ranks, group sizes and bars of one result."""
    p = result.modulus
    for k in range(result.max_degree + 1):
        assert result.dims(k) == dense.dims(k), (what, k)
        for u in range(result.n_steps):
            for v in range(u, result.n_steps):
                rank = dense.persistent_group(k, u, v).shape[1]
                assert dense_rank(result.induced_matrix(k, u, v), p) == rank, (what, k, u, v)
                assert len(result.persistent_group(k, u, v)) == rank, (what, k, u, v)
        assert [(iv.birth, iv.death) for iv in barcode(result, k)] == dense_bars(dense, k), \
            (what, k)


def assert_matches_oracle(subject, A=None):
    """Compare a result (relative to A, when given) or a system with the
    dense per-step path on every basis-free invariant: every dim, the rank
    of every induced map, every bar, and for a system every audit row of the
    ordinary (every u), persistent (every u <= v) and module levels."""
    if isinstance(subject, PersistenceResult):
        dense = DensePersistence(subject.filtration, subject.modulus, subject.max_degree, A)
        _assert_result_matches(subject, dense, "result")
        return
    twin = dense_twin(subject)
    for name, result in subject.spaces.items():
        _assert_result_matches(result, twin.spaces[name], name)
    n = subject.n_steps
    for u in range(n):
        assert ordinary_sequence(subject, u)[1] == per_call_ordinary_sequence(twin, u)[1], u
        for v in range(u, n):
            assert persistent_sequence(subject, u, v)[1] == dense_persistent_audit(twin, u, v), \
                (u, v)
    assert module_sequence(subject)[1] == per_call_module_sequence(twin)
