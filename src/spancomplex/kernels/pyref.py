"""Pure Python reference kernels.

These are the semantic ground truth for the compiled extension in
``_corex.pyx``; both implementations must return identical results on
identical inputs.  Arithmetic here is arbitrary precision, so this path
never overflows and serves as the fallback when the compiled kernel hits
its 64-bit magnitude guard.
"""

from math import gcd

# Widest edge list forest_masks accepts.  The compiled kernel keeps each
# mask in one 64-bit word and enforces the same limit.
MAX_EDGES = 62


def forest_masks(n_edges, us, vs, n_vertices):
    """Bitmasks of every non-empty acyclic edge subset (forest).

    Edge i joins vertex indices ``us[i]`` and ``vs[i]``.  The result is
    sorted ascending, which both backends guarantee.
    """
    if n_edges > MAX_EDGES:
        raise ValueError(f"forest enumeration supports at most {MAX_EDGES} edges")
    parent = list(range(n_vertices))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    out = []

    def extend(idx, mask):
        # union-find with rollback: no path compression, so a single
        # parent write per union is enough to undo it
        for i in range(idx, n_edges):
            ru, rv = find(us[i]), find(vs[i])
            if ru == rv:
                continue
            parent[ru] = rv
            m = mask | (1 << i)
            out.append(m)
            extend(i + 1, m)
            parent[ru] = ru

    extend(0, 0)
    out.sort()
    return out


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
