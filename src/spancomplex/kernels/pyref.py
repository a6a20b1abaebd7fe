"""Pure Python kernels, in arbitrary-precision arithmetic.

``forest_masks`` keeps each forest as one int bitmask over the edge
indices; ``matrix_rank`` never overflows, whatever the entries.
"""

from math import gcd

# Widest edge list forest_masks accepts, and so the largest enumeration
# budget; no enumeration of 2**62 subsets would finish anyway.
MAX_EDGES = 62


def forest_masks(n_edges, us, vs, n_vertices):
    """Bitmasks of every non-empty acyclic edge subset (forest).

    Edge i joins vertex indices ``us[i]`` and ``vs[i]``.  The result is
    sorted ascending.
    """
    if n_edges > MAX_EDGES:
        raise ValueError(f"forest enumeration supports at most {MAX_EDGES} edges")
    out = []
    _extend(0, 0, n_edges, us, vs, list(range(n_vertices)), out)
    out.sort()
    return out


def _extend(idx, mask, n_edges, us, vs, parent, out):
    """Append every forest that adds edges >= idx to ``mask``.

    Union-find with rollback: no path compression, so a single parent
    write per union is enough to undo it.  A module-level function, not
    a closure, so no reference cycle keeps ``out`` alive after the call.
    """
    for i in range(idx, n_edges):
        ru = us[i]
        while parent[ru] != ru:
            ru = parent[ru]
        rv = vs[i]
        while parent[rv] != rv:
            rv = parent[rv]
        if ru == rv:
            continue
        parent[ru] = rv
        m = mask | (1 << i)
        out.append(m)
        _extend(i + 1, m, n_edges, us, vs, parent, out)
        parent[ru] = ru


def matrix_rank(rows):
    """Exact rank over the rationals of an integer matrix.

    Fraction-free row elimination: replacing a row by
    (p/g)*row - (a/g)*pivot_row keeps every entry an exact integer, and
    each updated row is divided by its content gcd to bound growth.  The
    pivot is the entry of smallest absolute value, which keeps the
    multipliers near 1 on incidence-like matrices.
    """
    work = [list(r) for r in rows if any(r)]
    rank = 0
    while work:
        best = None
        for i, row in enumerate(work):
            for j, val in enumerate(row):
                if val:
                    key = (abs(val), i, j)
                    if best is None or key < best:
                        best = key
            if best is not None and best[0] == 1:
                break
        _, pi, pj = best
        piv_row = work.pop(pi)
        p = piv_row[pj]
        rank += 1
        nxt = []
        for row in work:
            a = row[pj]
            if a:
                g = gcd(p, a)
                pp, aa = p // g, a // g
                row = [pp * x - aa * y for x, y in zip(row, piv_row)]
                gg = 0
                for x in row:
                    gg = gcd(gg, x)
                if gg == 0:
                    continue  # row became zero
                if gg > 1:
                    row = [x // gg for x in row]
            nxt.append(row)
        work = nxt
    return rank
