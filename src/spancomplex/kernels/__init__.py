"""The computational kernels: forest, spanning-tree and bridge enumeration.

Pure Python with arbitrary-precision arithmetic; each edge subset is one
int bitmask over the edge indices.  The cycle matroid is a direct sum in
which parallel copies are parallel elements, so every list here factors
over the parallel classes: ``_quotient`` builds the class quotient, one
arc per class, and marks its bridge arcs, the classes on no cycle.
``forest_grades`` lists every face of the complex by size, each size
sorted in descending mask order: it walks only the quotient's other
arcs, one edge per arc, and expands the other parallel members and the
bridge classes afterwards.  ``spanning_tree_masks`` lists only the
facets, the spanning trees, with no detour through the other forests,
in two steps: ``_contracted_quotient`` builds the quotient with its
bridge arcs contracted (``contract_bridges``), and ``_tree_masks``
branches on the arcs left, one edge per arc, and swaps the other
members in afterwards.  The bond walk in ``ideal`` runs on the same
contracted quotient and ORs each bond's arcs' member bits into one edge
mask, so every generic cover list decodes as the trees do, and
``ideal.facet_ideal_generic`` builds the quotient once for the trees
and the bonds.  ``bridge_mask`` finds the bridges by one
depth-first search from the edge endpoints alone; recognition takes the
quotient's non-bridge arcs as its cycle.

``EDGE_BUDGET`` is the one enumeration limit: ``require_budget`` gates
every enumeration stage by its edge count, and nothing sets it.  A
pendant edge doubles the faces to list, so larger graphs take the closed
forms alone (``analyze --no-oracle``).  A tree mask is an int of any
width; ``forest_grades`` checks the budget.

``_flood`` is the one connectivity test, for graph validation in
``multigraph``, the tree lister and the bonds in ``ideal``.
``_contracted_quotient`` builds its neighbour masks on the contracted
vertices, and the bond checks on the whole graph, with
``_neighbour_masks``; graph validation ORs them in while it checks the
edges.  These helpers stay private, so the benchmark's tracer does not
time every call.

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
    quotient (``_quotient``) never closes a cycle: the cycle matroid is a
    direct sum, with parallel copies as parallel elements (Whitney,
    "2-isomorphic graphs", 1933; Oxley, *Matroid Theory*, ch. 4).  So the
    union-find walk runs only on the other arcs, each one represented by
    its highest edge, and the other members and the bridge classes are
    expanded afterwards.
    """
    n = len(us)
    if n > EDGE_BUDGET:
        raise ValueError(f"forest enumeration supports at most {EDGE_BUDGET} edges")
    aus, avs, members, bridges = _quotient(us, vs, n_vertices)
    core = [a for a in range(len(members)) if not bridges >> a & 1]
    # grade k holds the forests of k edges, from the empty one to the
    # spanning trees, of n_vertices - 1 edges; there is no grade past them
    grades = [[0]] + [[] for _ in range(n_vertices - 1)]
    _walk(
        0, 0, 1, [members[a][0] for a in core], [aus[a] for a in core],
        [avs[a] for a in core], list(range(n_vertices)), grades,
    )
    # the other core members first, before the bridge classes multiply
    # the grades they must scan
    for a in core:
        b0, *others = members[a]
        if others:
            for gr in grades:
                gr += [m ^ b0 | b for m in gr if m & b0 for b in others]
    for a in range(len(members)):
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
    graph has none.  Two steps: ``_contracted_quotient`` builds the class
    quotient with its bridge arcs contracted, and ``_tree_masks``
    branches on what is left.
    """
    return _tree_masks(_contracted_quotient(us, vs, n_vertices))


def _contracted_quotient(us, vs, n_vertices):
    """The class quotient (``_quotient``) with its bridge arcs contracted
    (``contract_bridges``): the one structure that the tree lister and
    the bond walk in ``ideal`` both run on.

    Returns ``(members, bridges, core, cus, cvs, nbrs)``: ``members`` and
    ``bridges`` as ``_quotient`` gives them; core arc j is the quotient
    arc ``core[j]`` and joins ``cus[j]`` and ``cvs[j]`` of the
    ``len(nbrs)`` contracted vertices, whose neighbour masks are
    ``nbrs``.  Contraction keeps connectivity, so the graph is connected
    exactly when its contracted vertices are.
    """
    aus, avs, members, bridges = _quotient(us, vs, n_vertices)
    core, cus, cvs, k = contract_bridges(aus, avs, n_vertices, bridges)
    return members, bridges, core, cus, cvs, _neighbour_masks(k, cus, cvs, removed=0)


def _tree_masks(quotient):
    """Bitmasks of every spanning tree, unsorted, branching on the
    contracted class quotient of ``_contracted_quotient``.

    A tree takes one member of each parallel class, and one of every
    class whose arc is a bridge of the class quotient, so the lister
    branches only on the core arcs, one highest member per arc, and
    swaps the other members in afterwards, as ``forest_grades`` does.
    Only spanning trees are visited, not every forest (Read & Tarjan,
    "Bounds on backtrack algorithms for listing cycles, paths, and
    spanning trees", 1975).

    A branch (i, mask, need) adds ``need`` core arcs >= i to the forest
    ``mask``, which with the arcs >= i spans the graph, so every branch
    yields a tree.  Arc i is taken only if it joins two components of
    ``mask`` (union-find with rollback, as in ``_walk``), and left out
    only if it is not a bridge of ``mask`` plus the arcs after i.  An
    explicit stack, as in ``bridge_mask``, so a long core needs no deep
    recursion: the undo entry under a branch that takes arc i splits the
    union again before arc i is left out.
    """
    members, bridges, core, cus, cvs, nbrs = quotient
    k = len(nbrs)
    if _flood(nbrs, 1, -1) != (1 << k) - 1:
        return []
    # branch by ascending edge, not in the quotient's descending order: the
    # order sets the search's size, and on K7 descending needs 27,375
    # suffix union-finds against 25,343
    core, cus, cvs = core[::-1], cus[::-1], cvs[::-1]
    bits = [members[a][0] for a in core]
    held = 0  # every tree holds a member of each bridge class
    for a in range(len(members)):
        if bridges >> a & 1:
            held |= members[a][0]
    parent = list(range(k))
    out = []
    # (i, mask, need, ru, rv); ru >= 0 marks the undo entry of the union ru -> rv
    stack = [(0, held, k - 1, -1, -1)]
    while stack:
        i, mask, need, ru, rv = stack.pop()
        if ru >= 0:
            parent[ru] = ru
            comp = _suffix_components(parent, cus, cvs, i + 1)
            # a bridge of what is left is in every tree here: no branch leaves it out
            if _root(comp, ru) == _root(comp, rv):
                stack.append((i + 1, mask, need, -1, -1))
        elif need == 0:
            out.append(mask)
        else:
            ru = cus[i]
            while parent[ru] != ru:
                ru = parent[ru]
            rv = cvs[i]
            while parent[rv] != rv:
                rv = parent[rv]
            if ru == rv:
                stack.append((i + 1, mask, need, -1, -1))
            else:
                parent[ru] = rv
                stack.append((i, mask, need, ru, rv))
                stack.append((i + 1, mask | bits[i], need - 1, -1, -1))
    for b0, *others in members:
        if others:
            out += [m ^ b0 | b for m in out if m & b0 for b in others]
    return out


def _quotient(us, vs, n_vertices):
    """The class quotient of the edge list: one arc per parallel class.

    Returns ``(aus, avs, members, bridges)``: arc a joins ``aus[a] <
    avs[a]``, ``members[a]`` lists its edges' bits, highest first, and
    the arcs go by their highest edge, descending.  ``bridges`` is the
    mask of the arcs that are bridges of the quotient (``bridge_mask`` on
    one edge per arc): such a class lies on no cycle of the graph, so a
    forest takes any one of its members, or none, and a bond holds all
    of them or none.
    """
    arcs = {}  # endpoint pair -> member bits, highest first
    for e in range(len(us) - 1, -1, -1):
        u, v = us[e], vs[e]
        arcs.setdefault((u, v) if u < v else (v, u), []).append(1 << e)
    aus = [u for u, _ in arcs]
    avs = [v for _, v in arcs]
    return aus, avs, list(arcs.values()), bridge_mask(aus, avs, n_vertices)


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


def _neighbour_masks(n: int, us, vs, removed: int) -> list[int]:
    """Neighbour masks of the n vertices, without the edges of the mask ``removed``."""
    nbrs = [0] * n
    for e, (u, v) in enumerate(zip(us, vs)):
        if not removed >> e & 1:
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
