"""The dense reference rank: exact rank over the rationals of an integer matrix."""

from math import gcd


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
