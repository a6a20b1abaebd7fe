"""The computational kernels: forest, spanning-tree and bridge enumeration.

Pure Python with arbitrary-precision arithmetic; each edge subset is one
int bitmask over the edge indices.  ``forest_grades`` lists every face of
the complex by size, each size sorted in descending mask order: it walks
only the arcs of the class quotient that are not its bridges, one edge
per arc, and expands the other parallel members and the bridge classes
afterwards.  ``spanning_tree_masks`` lists only the facets, the
spanning trees, with no detour through the other forests.
``bridge_mask`` finds the bridges, the coloops of the cycle matroid, by
one depth-first search from the edge endpoints alone; every spanning
tree holds them and each is a bond on its own, so the tree and bond
oracles contract them (``contract_bridges``) and branch only on the
rest, and recognition takes the non-bridge arcs of the class quotient
as its cycle.

``EDGE_BUDGET`` is the one enumeration limit: ``require_budget`` gates
every enumeration stage by its edge count, and nothing sets it.  A
pendant edge doubles the faces to list, so larger graphs take the closed
forms alone (``analyze --no-oracle``).  A tree mask is an int of any
width, but ``_grow`` recurses once per core edge, so a core longer than the
recursion limit raises ``RecursionError``; ``forest_grades`` checks the budget.

``_flood`` is the one connectivity test, for ``build_multigraph``,
``spanning_tree_masks`` and the bonds in ``ideal``.  The last two build
its neighbour masks with ``_neighbour_masks``; ``build_multigraph`` ORs
them in while it validates the edges.  Both stay private, so the
benchmark's tracer does not time every call.

``pyref`` holds only ``matrix_rank``, the tests' dense reference rank.
It stays because the benchmark's tracer (``perfbench/spans.py``) wraps
it on every ``--trace 1`` run, and ``BACKEND`` and ``_corex`` stay
because the harness records them.  They go when the benchmark reads an
in-package trace instead (ROADMAP item 4).
"""

from ..errors import BudgetExceededError

BACKEND = "python"
_corex = None

EDGE_BUDGET = 24


def require_budget(n_edges: int, stage: str) -> None:
    """Raise ``BudgetExceededError`` when ``n_edges`` exceeds ``EDGE_BUDGET``."""
    if n_edges > EDGE_BUDGET:
        raise BudgetExceededError(stage, n_edges, EDGE_BUDGET)


def forest_grades(us, vs, n_vertices):
    """Bitmasks of every non-empty acyclic edge subset (forest), by size.

    Edge i joins vertex indices ``us[i]`` and ``vs[i]``.  Returns
    ``n_vertices - 1`` lists: list k holds the forests of k + 1 edges, in
    descending mask order.  A forest takes at most one edge of each
    parallel class, and a class whose arc is a bridge of the class
    quotient never closes a cycle: the cycle matroid is a direct sum,
    with parallel copies as parallel elements (Whitney, "2-isomorphic
    graphs", 1933; Oxley, *Matroid Theory*, ch. 4).  So the union-find
    walk runs only on the other arcs, each one represented by its highest
    edge, and the other members and the bridge classes are expanded
    afterwards.
    """
    n = len(us)
    if n > EDGE_BUDGET:
        raise ValueError(f"forest enumeration supports at most {EDGE_BUDGET} edges")
    arcs = {}  # endpoint pair -> member bits, highest first
    for e in range(n - 1, -1, -1):
        u, v = us[e], vs[e]
        arcs.setdefault((u, v) if u < v else (v, u), []).append(1 << e)
    ends, members = list(arcs), list(arcs.values())
    bridges = bridge_mask([u for u, _ in ends], [v for _, v in ends], n_vertices)
    core = [a for a in range(len(ends)) if not bridges >> a & 1]
    # grade k holds the forests of k edges, from the empty one to the
    # spanning trees, of n_vertices - 1 edges; there is no grade past them
    grades = [[0]] + [[] for _ in range(n_vertices - 1)]
    _walk(
        0, 0, 1, [members[a][0] for a in core], [ends[a][0] for a in core],
        [ends[a][1] for a in core], list(range(n_vertices)), grades,
    )
    # the other core members first, before the bridge classes multiply
    # the grades they must scan
    for a in core:
        b0, *others = members[a]
        if others:
            for gr in grades:
                gr += [m ^ b0 | b for m in gr if m & b0 for b in others]
    for a in range(len(ends)):
        if bridges >> a & 1:
            # none or one member: grade k + 1 gains grade k with one more edge
            for k in range(n_vertices - 2, -1, -1):
                grades[k + 1] += [m | b for m in grades[k] for b in members[a]]
    for gr in grades:
        gr.sort(reverse=True)
    return grades[1:]


def _walk(j, mask, size, bits, us, vs, parent, grades):
    """Append to ``grades[size]`` every forest that adds one of the edges
    >= j to ``mask``, and recurse for the larger ones below the top grade:
    a forest of ``len(grades) - 1`` edges spans, so no edge extends it.

    Edge i joins ``us[i]`` and ``vs[i]`` and is the bit ``bits[i]``; the
    bits descend, so the walk appends each grade in descending mask
    order, which leaves ``forest_grades``'s final sort little to do.
    Union-find with rollback: no path compression, so a single parent
    write per union is enough to undo it.  A module-level function, not
    a closure, so no reference cycle keeps ``grades`` alive after the call.
    """
    out = grades[size]
    deeper = size + 1 < len(grades)
    for i in range(j, len(bits)):
        ru = us[i]
        while parent[ru] != ru:
            ru = parent[ru]
        rv = vs[i]
        while parent[rv] != rv:
            rv = parent[rv]
        if ru == rv:
            continue
        parent[ru] = rv
        m = mask | bits[i]
        out.append(m)
        if deeper:
            _walk(i + 1, m, size + 1, bits, us, vs, parent, grades)
        parent[ru] = ru


def spanning_tree_masks(us, vs, n_vertices):
    """Bitmasks of every spanning tree, unsorted.

    Edge i joins vertex indices ``us[i]`` and ``vs[i]``.  A disconnected
    graph has none.  Every tree holds every bridge, so the bridges are
    contracted first and only the edges left, the core, are branched on.
    Only spanning trees are visited, not every forest (Read & Tarjan,
    "Bounds on backtrack algorithms for listing cycles, paths, and
    spanning trees", 1975).
    """
    nbrs = _neighbour_masks(n_vertices, us, vs, removed=())
    if _flood(nbrs, 1, -1) != (1 << n_vertices) - 1:
        return []
    bridges = bridge_mask(us, vs, n_vertices)
    core, cus, cvs, k = contract_bridges(us, vs, n_vertices, bridges)
    out = []
    bits = [1 << e for e in core]
    _grow(0, bridges, k - 1, bits, cus, cvs, list(range(k)), out)
    return out


def _grow(i, mask, need, bits, us, vs, parent, out):
    """Append every spanning tree that adds ``need`` edges >= i to ``mask``.

    Edge i joins ``us[i]`` and ``vs[i]`` and is the bit ``bits[i]`` of a
    mask.  Invariant: ``mask`` is a forest, and ``mask`` plus the edges
    >= i span the graph, so every call appends at least one tree.  Edge i
    is taken only if it joins two components of ``mask`` (union-find with
    rollback, as in ``_walk``), and left out only if it is not a bridge
    of ``mask`` plus the edges after i.  A module-level function, not a
    closure, so no reference cycle keeps ``out`` alive after the call.
    """
    if need == 0:
        out.append(mask)
        return
    ru = us[i]
    while parent[ru] != ru:
        ru = parent[ru]
    rv = vs[i]
    while parent[rv] != rv:
        rv = parent[rv]
    if ru != rv:
        parent[ru] = rv
        _grow(i + 1, mask | bits[i], need - 1, bits, us, vs, parent, out)
        parent[ru] = ru
        comp = _suffix_components(parent, us, vs, i + 1)
        if _root(comp, ru) != _root(comp, rv):
            return  # edge i is a bridge of what is left: every tree here uses it
    _grow(i + 1, mask, need, bits, us, vs, parent, out)


def bridge_mask(us, vs, n_vertices):
    """Bitmask of the bridges: the edges on no cycle, which every spanning
    tree holds.

    Edge i joins vertex indices ``us[i]`` and ``vs[i]``.  One depth-first
    search with low links (Tarjan, "A note on finding the bridges of a
    graph", 1974), on an explicit stack, so a long path needs no deep
    recursion.  A tree edge is a bridge when nothing below it reaches
    above it by another edge; the edge into a vertex is skipped by its
    index, not its endpoint, so a parallel copy is never a bridge.
    """
    adj = [[] for _ in range(n_vertices)]
    for e in range(len(us)):
        adj[us[e]].append((vs[e], e))
        adj[vs[e]].append((us[e], e))
    order = [0] * n_vertices  # discovery time, from 1; 0 while unvisited
    low = [0] * n_vertices
    bridges = 0
    t = 0
    for root in range(n_vertices):
        if order[root]:
            continue
        t += 1
        order[root] = low[root] = t
        stack = [(root, -1, iter(adj[root]))]
        while stack:
            v, via, edges = stack[-1]
            for w, e in edges:
                if e == via:
                    continue
                if not order[w]:
                    t += 1
                    order[w] = low[w] = t
                    stack.append((w, e, iter(adj[w])))
                    break
                if order[w] < low[v]:
                    low[v] = order[w]
            else:
                stack.pop()
                if stack:
                    p = stack[-1][0]
                    if low[v] < low[p]:
                        low[p] = low[v]
                    if low[v] > order[p]:
                        bridges |= 1 << via
    return bridges


def contract_bridges(us, vs, n_vertices, bridges):
    """The graph with the edges of the mask ``bridges`` contracted.

    Returns ``(core, cus, cvs, k)``: ``core`` lists the other edge
    indices ascending, and core edge j joins ``cus[j]`` and ``cvs[j]`` of
    the k contracted vertices.  Vertices are numbered by their first
    original vertex, so vertex 0 stays in vertex 0.
    """
    comp = list(range(n_vertices))
    for e in range(len(us)):
        if bridges >> e & 1:
            comp[_root(comp, us[e])] = _root(comp, vs[e])
    label = {}
    new = [label.setdefault(_root(comp, x), len(label)) for x in range(n_vertices)]
    core = [e for e in range(len(us)) if not bridges >> e & 1]
    return core, [new[us[e]] for e in core], [new[vs[e]] for e in core], len(label)


def _suffix_components(parent, us, vs, start):
    """Union-find of the forest in ``parent`` plus the edges >= start."""
    comp = parent[:]
    for j in range(start, len(us)):
        ru = _root(comp, us[j])
        rv = _root(comp, vs[j])
        if ru != rv:
            comp[ru] = rv
    return comp


def _root(comp, x):
    """Root of x in ``comp``, halving the path on the way (``comp`` is a copy)."""
    while comp[x] != x:
        comp[x] = comp[comp[x]]
        x = comp[x]
    return x


def _neighbour_masks(n: int, us, vs, removed) -> list[int]:
    nbrs = [0] * n
    for e, (u, v) in enumerate(zip(us, vs)):
        if e not in removed:
            nbrs[u] |= 1 << v
            nbrs[v] |= 1 << u
    return nbrs


def _flood(nbrs: list[int], seen: int, allowed: int) -> int:
    """The vertices of ``allowed`` reachable from the mask ``seen``, with ``seen``."""
    frontier = seen
    while frontier:
        grown = 0
        while frontier:
            low = frontier & -frontier
            grown |= nbrs[low.bit_length() - 1]
            frontier ^= low
        frontier = grown & allowed & ~seen
        seen |= frontier
    return seen
