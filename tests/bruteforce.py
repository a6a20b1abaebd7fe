"""Independent brute-force oracles used only by the tests.

Everything here deliberately avoids the package's enumeration kernels:
subsets come from itertools.combinations, acyclicity from a throwaway
union-find, and ranks and determinants from Gaussian elimination over
fractions.Fraction.
"""

from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import combinations


def _vertex_index(g):
    return {v: i for i, v in enumerate(g.vertices)}


def edge_endpoint_indices(g) -> tuple[list[int], list[int]]:
    """Endpoints of every edge as vertex indices, in edge input order: the
    kernels' edge lists for tests that index the edges by input order."""
    v_index = _vertex_index(g)
    us = [v_index[u] for _, (u, _) in g.edges]
    vs = [v_index[w] for _, (_, w) in g.edges]
    return us, vs


def _pairs(g):
    vi = _vertex_index(g)
    return {eid: (vi[u], vi[w]) for eid, (u, w) in g.edges}


def is_forest(g, edge_ids) -> bool:
    pairs = _pairs(g)
    parent = list(range(g.n_vertices))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for eid in edge_ids:
        u, w = pairs[eid]
        ru, rw = find(u), find(w)
        if ru == rw:
            return False
        parent[ru] = rw
    return True


def spans(g, edge_ids) -> bool:
    """True when the edge subset connects every vertex of the graph."""
    pairs = _pairs(g)
    parent = list(range(g.n_vertices))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for eid in edge_ids:
        u, w = pairs[eid]
        parent[find(u)] = find(w)
    return len({find(i) for i in range(g.n_vertices)}) == 1


def spanning_trees(g) -> set[frozenset]:
    ids = g.edge_ids()
    want = g.n_vertices - 1
    return {
        frozenset(combo) for combo in combinations(ids, want) if is_forest(g, combo)
    }


def kirchhoff_count(g) -> int:
    """The number of spanning trees by the matrix-tree theorem (Kirchhoff).

    The determinant of the Laplacian with vertex 0 removed, by exact
    elimination that always takes a vertex of least degree next; a
    parallel class is one off-diagonal entry of weight s.  Eliminating a
    pendant or degree-2 vertex raises no degree, so a uni-cyclic graph
    costs time linear in its vertices, whatever its number of trees.
    """
    n = g.n_vertices
    weight = [{} for _ in range(n)]  # weight[u][w]: minus the Laplacian's (u, w) entry
    diag = [Fraction(0)] * n
    for u, w in _pairs(g).values():
        weight[u][w] = weight[u].get(w, 0) + 1
        weight[w][u] = weight[w].get(u, 0) + 1
        diag[u] += 1
        diag[w] += 1
    for w in weight[0]:
        del weight[w][0]
    heap = [(len(weight[v]), v) for v in range(1, n)]
    heapify(heap)
    done, det = set(), Fraction(1)
    while heap:
        degree, v = heappop(heap)
        if v in done or degree != len(weight[v]):
            continue  # a stale entry: v is gone or its degree has changed
        done.add(v)
        pivot = diag[v]
        det *= pivot
        row = list(weight[v].items())
        for w, a in row:
            del weight[w][v]
        # the Schur complement: each pair of v's neighbours gains a*b/pivot
        for w, a in row:
            diag[w] -= a * a / pivot
            for x, b in row:
                if x != w:
                    weight[w][x] = weight[w].get(x, 0) + a * b / pivot
            heappush(heap, (len(weight[w]), w))
    assert det.denominator == 1
    return int(det)


def forest_counts(g) -> tuple[int, ...]:
    ids = g.edge_ids()
    counts = []
    for k in range(1, g.n_edges + 1):
        c = sum(1 for combo in combinations(ids, k) if is_forest(g, combo))
        counts.append(c)
    while counts and counts[-1] == 0:
        counts.pop()
    return tuple(counts)


def minimal_covers(facets) -> set[frozenset]:
    """All minimal transversals, by exhaustive subset scan in size order."""
    facet_sets = [set(f) for f in facets]
    universe = sorted({e for f in facet_sets for e in f})
    found: set[frozenset] = set()
    for size in range(1, len(universe) + 1):
        for combo in combinations(universe, size):
            s = set(combo)
            if any(not (s & fs) for fs in facet_sets):
                continue
            fz = frozenset(combo)
            if any(prev < fz for prev in found):
                continue
            found.add(fz)
    return found


def rank_over_rationals(rows) -> int:
    """Plain Gaussian elimination over exact fractions."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m or not m[0]:
        return 0
    n_rows, n_cols = len(m), len(m[0])
    rank = 0
    row = 0
    for col in range(n_cols):
        piv = next((r for r in range(row, n_rows) if m[r][col]), None)
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        inv = Fraction(1) / m[row][col]
        m[row] = [x * inv for x in m[row]]
        for r in range(n_rows):
            if r != row and m[r][col]:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[row])]
        rank += 1
        row += 1
        if row == n_rows:
            break
    return rank


def dense(columns, n_rows) -> list[list[int]]:
    """A boundary map's sparse columns as a dense list of rows, for the
    reference ranks."""
    rows = [[0] * len(columns) for _ in range(n_rows)]
    for c, col in enumerate(columns):
        for r, val in col.items():
            rows[r][c] = val
    return rows
