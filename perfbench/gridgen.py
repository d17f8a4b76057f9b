"""Linear-time perfect discrete Morse functions on n x n grid tori.

The torus is the n x n grid with wrap-around, each square cut along its
main diagonal: n^2 vertices, 3n^2 edges and 2n^2 triangles. Cells enter in
a tree-cotree build order, one clock tick per critical cell or gradient pair:

1. the root vertex (critical);
2. every other vertex with the edge to its parent in a BFS spanning tree,
   in BFS order;
3. the two edges that lie neither in the spanning tree nor in the dual
   spanning tree (critical);
4. every non-root triangle with the edge to its parent in a BFS spanning
   tree of the dual graph (triangles adjacent across non-tree edges), in
   reverse BFS order, so each triangle's other edges are already present;
5. the root triangle (critical).

A pair shares its value, so the gradient is exactly the set of equal-valued
face/coface couples and the function is perfect: 4 critical cells, Betti
numbers (1, 2, 1). The seed picks the two roots and the neighbour order of
both searches.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class GridTorus:
    n: int
    values: dict            # vertex tuple -> int clock value
    critical: tuple         # the 4 critical cells, in entry order
    triangles: tuple        # every triangle, sorted

    def critical_values(self) -> tuple[int, ...]:
        return tuple(self.values[c] for c in self.critical)

    def band(self, first_col: int, width: int) -> list[tuple]:
        """Triangles of the squares in `width` consecutive columns."""
        n = self.n
        out = []
        for i in range(n):
            for dj in range(width):
                j = (first_col + dj) % n
                out.extend(_square_triangles(n, i, j))
        return sorted(out)


def _vid(n: int, i: int, j: int) -> int:
    return n * (i % n) + (j % n)


def _edge(a: int, b: int) -> tuple:
    return (a, b) if a < b else (b, a)


def _square_triangles(n: int, i: int, j: int) -> list[tuple]:
    a, b = _vid(n, i, j), _vid(n, i, j + 1)
    c, d = _vid(n, i + 1, j), _vid(n, i + 1, j + 1)
    return [tuple(sorted((a, b, d))), tuple(sorted((a, c, d)))]


def grid_torus(n: int, seed: int) -> GridTorus:
    if n < 3:
        raise ValueError("a simplicial grid torus needs n >= 3")
    rng = random.Random(seed)
    triangles = sorted(t for i in range(n) for j in range(n)
                       for t in _square_triangles(n, i, j))
    edges_of: dict[tuple, list[tuple]] = {}   # edge -> its two triangles
    nbrs: dict[int, list[int]] = {v: [] for v in range(n * n)}
    for t in triangles:
        for e in ((t[0], t[1]), (t[0], t[2]), (t[1], t[2])):
            edges_of.setdefault(e, []).append(t)
    for a, b in edges_of:
        nbrs[a].append(b)
        nbrs[b].append(a)
    for v in nbrs:
        nbrs[v].sort()
        rng.shuffle(nbrs[v])

    values: dict[tuple, int] = {}
    clock = 0
    root = rng.randrange(n * n)
    values[(root,)] = clock
    critical = [(root,)]
    tree_edges = set()
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for w in nbrs[v]:
            if (w,) in values:
                continue
            clock += 1
            e = _edge(v, w)
            values[(w,)] = values[e] = clock
            tree_edges.add(e)
            queue.append(w)

    root_tri = triangles[rng.randrange(len(triangles))]
    order = [root_tri]
    parent_edge: dict[tuple, tuple] = {}
    seen = {root_tri}
    cotree_edges = set()
    queue = deque([root_tri])
    while queue:
        t = queue.popleft()
        t_edges = [(t[0], t[1]), (t[0], t[2]), (t[1], t[2])]
        rng.shuffle(t_edges)
        for e in t_edges:
            if e in tree_edges:
                continue
            other = next(s for s in edges_of[e] if s != t)
            if other in seen:
                continue
            seen.add(other)
            parent_edge[other] = e
            cotree_edges.add(e)
            order.append(other)
            queue.append(other)

    leftover = sorted(e for e in edges_of if e not in tree_edges and e not in cotree_edges)
    if len(leftover) != 2 or len(order) != len(triangles):
        raise AssertionError("tree-cotree decomposition of the torus went wrong")
    for e in leftover:
        clock += 1
        values[e] = clock
        critical.append(e)
    for t in reversed(order[1:]):
        clock += 1
        values[t] = values[parent_edge[t]] = clock
    clock += 1
    values[root_tri] = clock
    critical.append(root_tri)
    return GridTorus(n, values, tuple(critical), tuple(triangles))


def thresholds(grid: GridTorus) -> list[Fraction]:
    """The critical values plus one label halfway through the triangle pairs."""
    crit = grid.critical_values()
    mid = (crit[2] + crit[3]) // 2
    return sorted({Fraction(v) for v in crit} | {Fraction(mid)})


def _line(s: tuple, value=None) -> str:
    body = " ".join(str(v) for v in s)
    return body if value is None else f"{body} : {value}"


def explicit_lines(grid: GridTorus) -> list[str]:
    """A complex file that gives every cell its value."""
    cells = sorted(grid.values, key=lambda s: (len(s), s))
    return [f"# {grid.n}x{grid.n} grid torus, every value explicit"] + [
        _line(s, grid.values[s]) for s in cells]


def inherited_lines(grid: GridTorus) -> list[str]:
    """A complex file that values only the triangles; faces inherit."""
    return [f"# {grid.n}x{grid.n} grid torus, values on triangles only"] + [
        _line(t, grid.values[t]) for t in grid.triangles]


def inherited_values(grid: GridTorus) -> dict[tuple, int]:
    """What inheritance should give: each face takes the least value of the
    triangles containing it (computed here by one pass over the triangles)."""
    out: dict[tuple, int] = {}
    for t in grid.triangles:
        v = grid.values[t]
        faces = [t, (t[0], t[1]), (t[0], t[2]), (t[1], t[2]), (t[0],), (t[1],), (t[2],)]
        for f in faces:
            if f not in out or v < out[f]:
                out[f] = v
    return out


def expanded_lines(grid: GridTorus) -> list[str]:
    """The inherited function written out cell by cell (the check's oracle)."""
    vals = inherited_values(grid)
    cells = sorted(vals, key=lambda s: (len(s), s))
    return [f"# {grid.n}x{grid.n} grid torus, inherited values written out"] + [
        _line(s, vals[s]) for s in cells]


def membership_lines(triangles: list[tuple], title: str) -> list[str]:
    return [f"# {title}"] + [_line(t) for t in triangles]
