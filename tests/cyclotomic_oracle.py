"""Per-character reference for symbol kernel dimensions: cyclotomic minors.

At a rational character of order d the symbol entries become integer
polynomials modulo the d-th cyclotomic polynomial, and the rank over
Q(zeta_d) is the size of the largest minor with nonzero determinant.  The
enumeration is exponential in the matrix size, so it serves only as an
oracle that shares no code with the library's modular-rank path.
"""

from functools import lru_cache
from itertools import combinations
from math import lcm
from typing import Dict, List, Tuple


def _poly_mul(a: List[int], b: List[int]) -> List[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _poly_mod(a: List[int], mod: List[int]) -> List[int]:
    """Remainder of a modulo a monic integer polynomial."""
    a = list(a)
    d = len(mod) - 1
    while len(a) > d:
        lead = a[-1]
        if lead:
            off = len(a) - 1 - d
            for i, c in enumerate(mod):
                a[off + i] -= lead * c
        a.pop()
    while a and a[-1] == 0:
        a.pop()
    return a


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> Tuple[int, ...]:
    """Coefficients (ascending) of the m-th cyclotomic polynomial."""
    if m == 1:
        return (-1, 1)
    poly = [0] * m + [1]
    poly[0] = -1  # x^m - 1
    for d in range(1, m):
        if m % d == 0:
            div = list(cyclotomic_polynomial(d))
            # exact division of integer polynomials
            q = [0] * (len(poly) - len(div) + 1)
            rem = list(poly)
            for k in range(len(q) - 1, -1, -1):
                coef = rem[k + len(div) - 1] // div[-1]
                q[k] = coef
                if coef:
                    for i, c in enumerate(div):
                        rem[k + i] -= coef * c
            assert not any(rem), "cyclotomic division failed"
            poly = q
    return tuple(poly)


def kernel_dimension_by_minors(m, char) -> int:
    """Rows minus the rank over Q(zeta_d) of the symbol at the character."""
    a = m.nrows
    if a == 0:
        return 0
    order = lcm(*(x.denominator for x in char))
    phi_poly = list(cyclotomic_polynomial(order))
    numerators = [int(x * order) for x in char]

    entries: List[List[Tuple[int, ...]]] = []
    for i in range(a):
        row = []
        for j in range(m.ncols):
            coeffs = [0] * order
            for e, c in m.entries[i][j].terms.items():
                t = sum(v * numerators[k] for k, v in enumerate(e)) % order
                coeffs[t] += int(c)
            row.append(tuple(_poly_mod(coeffs, phi_poly)))
        entries.append(row)

    def mulmod(p, q):
        if not p or not q:
            return ()
        return tuple(_poly_mod(_poly_mul(list(p), list(q)), phi_poly))

    def accumulate(p, q, sign):
        out = [0] * max(len(p), len(q))
        for i, c in enumerate(p):
            out[i] += c
        for i, c in enumerate(q):
            out[i] += sign * c
        while out and out[-1] == 0:
            out.pop()
        return tuple(out)

    dets: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], Tuple[int, ...]] = {}

    def det(rows: Tuple[int, ...], cols: Tuple[int, ...]) -> Tuple[int, ...]:
        if not rows:
            return (1,)
        key = (rows, cols)
        if key in dets:
            return dets[key]
        acc: Tuple[int, ...] = ()
        r = rows[0]
        for pos, c in enumerate(cols):
            e = entries[r][c]
            if e:
                term = mulmod(e, det(rows[1:], cols[:pos] + cols[pos + 1:]))
                acc = accumulate(acc, term, 1 if pos % 2 == 0 else -1)
        dets[key] = acc
        return acc

    for r in range(min(a, m.ncols), 0, -1):
        for rows in combinations(range(a), r):
            for cols in combinations(range(m.ncols), r):
                if det(rows, cols):
                    return a - r
    return a
