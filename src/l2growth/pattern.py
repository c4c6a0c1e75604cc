"""Character-lattice machinery for free abelian deck groups.

For Gamma = Z^n the cover Laplacian block-diagonalizes over the characters of
the quotient: the Betti number is the sum over lattice characters of the
kernel dimension of the evaluated symbol matrix.  Each kernel dimension is
exact: the symbols at all characters are evaluated modulo primes l = 1 (mod
the quotient's exponent), where every character value is an integer, and the
rank over the cyclotomic field is the largest modular rank over the
character's Galois orbit once the primes multiply past a Hadamard bound.

The work is numpy's, not a Python loop over characters or terms: the
exponent of every term at every character is one matrix, formed once; each
prime's symbols are one gather from the powers of a primitive root of unity
and one sum per matrix entry; Galois orbits are labelled one orbit at a
time; and a report builds its kernel characters as fractions only when read.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm, prod
from typing import Dict, List, Optional, Tuple

import numpy as np

from .caps import DEFAULT_CAPS, Caps
from .covers import CoverInstance
from .errors import (CrossCheckMismatch, DimensionOutOfRange, NonIntegralCoefficient,
                     NotAbelian, NotRankOne, SizeCapExceeded)
from .exact import _primes_one_mod, check_bytes, ranks_modp
from .group_ring import EquivariantChainComplex, GroupRingMatrix, laplacian
from .groups import AbelianQuotient, FreeAbelian, LatticeSubgroup, check_quotient_of

Character = Tuple[Fraction, ...]


def _require_abelian(group) -> FreeAbelian:
    if not isinstance(group, FreeAbelian):
        raise NotAbelian("operation requires a free abelian deck group")
    return group


# ---------------------------------------------------------------------------
# Characters of finite abelian quotients
# ---------------------------------------------------------------------------

def _require_abelian_quotient(quot) -> AbelianQuotient:
    if not isinstance(quot, AbelianQuotient):
        raise NotAbelian("character lattice requires an abelian quotient")
    return quot


def _character_numerators(quot: AbelianQuotient) -> Tuple[np.ndarray, int]:
    """All characters of Z^n trivial on the subgroup as numerators X over the exponent e.

    Row y (element order) sends generator k to exp(2 pi i X[y, k] / e): X[y] =
    sum_i y_i g_i mod e over the rows g_i = (e / d_i) u_i of the Smith moduli
    d_i, so the characters kill the subgroup if the rows do.
    """
    e = max(_require_abelian_quotient(quot).moduli)
    gens = [[(e // d) * (x % e) % e for x in row] for d, row in zip(quot.moduli, quot.u)]
    if any(sum(g * c for g, c in zip(row, col)) % e
           for row in gens for col in quot.subgroup.columns()):
        raise CrossCheckMismatch(
            "character does not kill a subgroup generator")  # pragma: no cover
    chars = np.zeros((quot.order, quot.group.rank), dtype=np.int64)
    for coords, row in zip(quot._coords, gens):
        chars += np.multiply.outer(coords, np.array(row, dtype=np.int64))
        chars %= e
    rows = chars[np.lexsort(chars.T)]
    if (rows[1:] == rows[:-1]).all(axis=1).any():
        raise CrossCheckMismatch("characters are not distinct")  # pragma: no cover
    return chars, e


def character_lattice(quot: AbelianQuotient) -> List[Character]:
    """All characters of Z^n trivial on the subgroup, as rational points."""
    chars, e = _character_numerators(quot)
    return [tuple(Fraction(v, e) for v in row) for row in chars.tolist()]


def evaluate_matrix_at_characters(m: GroupRingMatrix,
                                  points: np.ndarray) -> np.ndarray:
    """Evaluate the symbol matrix at many characters: (L, a, a) complex array.

    ``points`` has shape (L, n); row x represents the character sending the
    k-th generator to exp(2*pi*i*x_k).
    """
    _require_abelian(m.group)
    L = points.shape[0]
    a = m.nrows
    out = np.zeros((L, a, m.ncols), dtype=complex)
    for i in range(a):
        for j in range(m.ncols):
            for e, c in m.entries[i][j].terms.items():
                out[:, i, j] += float(c) * np.exp(2j * np.pi * (points @ np.asarray(e, dtype=float)))
    return out


# ---------------------------------------------------------------------------
# Exact symbol ranks: modular ranks, one maximum per Galois orbit
# ---------------------------------------------------------------------------
# Gal(Q(zeta_d)/Q) = (Z/d)^* sends a character x of order d to k*x, so the
# symbol has one rank over Q(zeta_d) on the orbit {k*x}.  For a prime
# l = 1 (mod e), zeta_e -> omega reduces modulo one prime above l, and the
# symbol at k*x there is the symbol at x modulo another; none of these ranks
# exceeds the true one.  If all fell short, a nonzero minor mu of the true
# size would lie in l*Z[zeta_d], so l^phi(d) <= |N(mu)| <= H^phi(d), where
# Hadamard's H = prod_i max(1, |row_i|_2) over the rows of entry L1 norms.
# Once the primes used multiply past H, the orbit's largest modular rank is
# the exact rank.

@lru_cache(maxsize=256)
def _prime_divisors(e: int) -> Tuple[int, ...]:
    """The primes dividing e, by trial division."""
    primes, p = [], 2
    while p * p <= e:
        if e % p == 0:
            primes.append(p)
            while e % p == 0:
                e //= p
        p += 1
    return tuple(primes + [e] if e > 1 else primes)


def _root_powers(e: int, ell: int) -> np.ndarray:
    """omega^t mod ell for t < e, with omega a primitive e-th root of unity mod ell.

    omega is w = h^((ell - 1)/e) for the first h = 1, 2, ... whose w has order
    e, that is w^(e/p) != 1 for every prime p dividing e (w^e = h^(ell-1) = 1).
    Both w and its powers w^(e/p) are multiplicative in h, so they are powered
    out at prime h only, and multiplied from the least prime factor and its
    cofactor at composite h.
    """
    cofactors = [e // p for p in _prime_divisors(e)]
    found: Dict[int, Tuple[int, List[int]]] = {}  # h -> (w, [w^(e/p) for each p])
    primes: List[int] = []
    for h in range(1, ell):
        factor = next((p for p in primes if h % p == 0), None)  # its least prime
        if factor is None:  # h is 1 or a prime
            w = pow(h, (ell - 1) // e, ell)
            symbols = [pow(w, c, ell) for c in cofactors]
            if h > 1:
                primes.append(h)
        else:
            (u, s), (v, t) = found[factor], found[h // factor]
            w, symbols = u * v % ell, [a * b % ell for a, b in zip(s, t)]
        found[h] = w, symbols
        if 1 not in symbols:
            break
    else:
        raise CrossCheckMismatch(f"{ell} is not a prime = 1 (mod {e})")  # pragma: no cover
    powers, step = np.ones(e, dtype=np.int64), 1
    while step < e:
        powers[step:2 * step] = powers[:min(step, e - step)] * pow(w, step, ell) % ell
        step *= 2
    return powers


def _symbol_bytes(m: GroupRingMatrix, count: int) -> int:
    """Bytes ``_orbit_ranks`` may hold at once for ``count`` characters.

    The (count, terms) exponents stay whole, with one more such array while
    a stack is filled; ``ranks_modp`` peaks at about 3.6 times the int64
    stack it is given, which comes on top.
    """
    terms = sum(len(el.terms) for row in m.entries for el in row)
    return 8 * count * (5 * m.nrows * m.ncols + 2 * terms)


def _symbol_stack(exponents: np.ndarray, slots: np.ndarray, coefficients: List[int],
                  powers: np.ndarray, ell: int, shape: Tuple[int, int]) -> np.ndarray:
    """The symbols at every character mod ell, shape (count, rows, cols).

    Term k sits in slot ``slots[k]`` (row * cols + col, in order) and is
    c_k * omega^exponents[:, k]; the terms of each slot are summed mod ell.
    """
    count = len(exponents)
    values = powers[exponents]
    values *= np.array([c % ell for c in coefficients], dtype=np.int64)
    values %= ell
    starts = np.flatnonzero(np.diff(slots, prepend=-1))
    stack = np.zeros((count, shape[0] * shape[1]), dtype=np.int64)
    stack[:, slots[starts]] = np.add.reduceat(values, starts, axis=1) % ell
    return stack.reshape(count, *shape)


def _orbit_ranks(m: GroupRingMatrix, chars: np.ndarray, e: int,
                 labels: np.ndarray) -> np.ndarray:
    """Exact symbol rank on each Galois orbit 0, 1, ...

    ``chars`` holds numerators over e covering each orbit; ``labels`` is the
    orbit of each row.  The exponent of every term at every character is
    formed once, mod e a coordinate at a time; at each prime the stack of
    symbols is one gather from the root's powers and one sum per entry.
    What that holds (``_symbol_bytes``) is refused past the byte budget
    before it is built.
    """
    check_bytes(_symbol_bytes(m, len(chars)), "symbol ranks")
    slots, exponents, coefficients = [], [], []
    for i, row in enumerate(m.entries):
        for j, el in enumerate(row):
            for g, c in el.terms.items():
                if c != int(c):
                    raise NonIntegralCoefficient(
                        f"character ranks require integer coefficients, got {c}")
                slots.append(i * m.ncols + j)
                # exponents mod e in Python ints first: they may pass int64
                exponents.append([x % e for x in g])
                coefficients.append(int(c))
    by_term = np.array(exponents, dtype=np.int64).reshape(len(exponents), chars.shape[1])
    # each product reduced mod e, then the sum (below n * e, as a sum of
    # residues): no value passes e^2 or n * e
    t = np.zeros((len(chars), len(exponents)), dtype=np.int64)
    for k in range(chars.shape[1]):
        term = np.multiply.outer(chars[:, k], by_term[:, k])
        term %= e
        t += term
    t %= e
    slots = np.array(slots, dtype=np.int64)
    h_squared = prod(max(1, sum(sum(map(abs, el.terms.values())) ** 2 for el in row))
                     for row in m.entries)
    ranks, product, primes = np.zeros(labels.max() + 1, dtype=np.int64), 1, _primes_one_mod(e)
    while product * product <= h_squared:
        ell = next(primes, None)
        if ell is None:
            raise SizeCapExceeded(f"primes = 1 (mod {e}) below 2^31 stay under the Hadamard bound")
        stack = _symbol_stack(t, slots, coefficients, _root_powers(e, ell), ell,
                              (m.nrows, m.ncols))
        np.maximum.at(ranks, labels, ranks_modp(stack, ell))
        product *= ell
    return ranks


@lru_cache(maxsize=256)
def _units(d: int) -> np.ndarray:
    k = np.arange(1, max(d, 2))
    return k[np.gcd(k, d) == 1]


def _galois_orbits(quot: AbelianQuotient) -> np.ndarray:
    """Label each element y, and so its character, by its orbit {k*y : k unit mod ord(y)}.

    Orbits are numbered by their first element.  Each is walked once, from
    that element; the next unlabelled element is found by scanning forward
    in windows that double, so all scans take O(order + 64 * orbits).
    """
    coords, moduli = quot._coords, np.array(quot.moduli)[:, None]
    # element index of coordinates c: their row-major code over the moduli
    strides = np.cumprod((quot.moduli[1:] + (1,))[::-1])[::-1]
    orders = quot.element_orders().tolist()
    labels, count, j = np.full(quot.order, -1, dtype=np.int64), 0, 0
    while j < quot.order:
        labels[strides @ (coords[:, j:j + 1] * _units(orders[j]) % moduli)] = count
        count += 1
        width = 64
        while True:
            free = labels[j:j + width] < 0
            k = int(free.argmax())
            if free[k] or j + width >= quot.order:
                break
            j, width = j + width, 2 * width
        j = j + k if free[k] else quot.order
    return labels


def exact_kernel_dimension(m: GroupRingMatrix, char: Character) -> int:
    """Rows minus the rank of the symbol at a rational character, exactly.

    The rank over the cyclotomic field of the character's order is the
    largest modular rank over its Galois orbit (see above).
    """
    _require_abelian(m.group)
    if m.nrows == 0:
        return 0
    d = lcm(*(x.denominator for x in char))
    orbit = _units(d)[:, None] * np.array([int(x * d) % d for x in char]) % d
    return m.nrows - int(_orbit_ranks(m, orbit, d, np.zeros(len(orbit), dtype=np.int64))[0])


# ---------------------------------------------------------------------------
# Betti numbers through characters
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class PatternReport:
    """Characters on the pattern with their exact kernel dimensions.

    The characters with a nontrivial kernel are kept as rows of numerators
    over ``exponent``, beside their kernel dimensions; ``kernel_characters``
    builds them as rational points when it is first read.
    """

    a: int
    lattice_size: int
    exponent: int
    kernel_numerators: np.ndarray
    kernel_dims: np.ndarray
    betti: int = 0
    exact_betti: Optional[int] = None

    @property
    def pattern_count(self) -> int:
        """|Lambda intersect K|: characters with nontrivial kernel."""
        return len(self.kernel_dims)

    @cached_property
    def kernel_characters(self) -> List[Tuple[Character, int]]:
        e = self.exponent
        return [(tuple(Fraction(v, e) for v in row), d) for row, d in
                zip(self.kernel_numerators.tolist(), self.kernel_dims.tolist())]


def betti_by_characters(cx: EquivariantChainComplex, quot: AbelianQuotient,
                        q: int, caps: Caps = DEFAULT_CAPS,
                        cross_check: bool = True) -> Tuple[int, PatternReport]:
    """Betti number of the cover as a sum of character kernel dimensions.

    Each kernel dimension is exact: the symbol's rank at a character is the
    largest of its modular ranks over the character's Galois orbit (see
    ``_orbit_ranks``), and no floating-point value decides anything.  The
    total is cross-checked against the rank-based Betti number; on mismatch
    a diagnostic is raised.
    """
    _require_abelian(cx.group)
    check_quotient_of(cx.group, quot)
    lap = laplacian(cx, q)
    a = cx.cells[q]
    chars, e = _character_numerators(quot)
    labels = _galois_orbits(quot)
    dims = a - _orbit_ranks(lap, chars, e, labels)[labels]
    kernel = np.flatnonzero(dims)
    total = int(dims.sum())
    report = PatternReport(a=a, lattice_size=len(chars), exponent=e,
                           kernel_numerators=chars[kernel], kernel_dims=dims[kernel],
                           betti=total)
    if cross_check:
        report.exact_betti = CoverInstance(cx, quot, caps).betti(q)
        if report.exact_betti != total:
            raise CrossCheckMismatch(
                f"character betti {total} != rank betti {report.exact_betti}")
    return total, report


@dataclass
class SandwichReport:
    pattern_count: int
    betti: int
    a: int
    holds: bool


def sandwich_check(cx: EquivariantChainComplex, quot: AbelianQuotient, q: int,
                   caps: Caps = DEFAULT_CAPS) -> SandwichReport:
    """Verify |Lambda cap K| <= b(X') <= a * |Lambda cap K|."""
    if cx.cells[q] < 1:
        raise DimensionOutOfRange("sandwich check needs at least one cell in the dimension")
    total, report = betti_by_characters(cx, quot, q, caps)
    k = report.pattern_count
    holds = k <= total <= report.a * k
    return SandwichReport(pattern_count=k, betti=total, a=report.a, holds=holds)


def _symbol_grid(m: GroupRingMatrix) -> Tuple[int, ...]:
    """N_k = 1 + the sum over the rows of each row's exponent span in variable k."""
    spans = (np.ptp([g for el in row for g in el.terms], axis=0) for row in m.entries
             if any(el.terms for el in row))
    return tuple((1 + sum(spans, np.zeros(m.group.rank, dtype=np.int64))).tolist())


def l2_betti(cx: EquivariantChainComplex, q: int) -> int:
    """Exact b^(2)_q of a complex over Z^n: a minus the symbol's generic rank.

    The generic rank is the largest exact symbol rank over the characters of
    Z^n / diag(N_k) (``_symbol_grid``).  An s-minor's exponent span in
    variable k is at most the sum of its rows' spans, so below N_k (entry
    spans would not do: a determinant's terms sit in different exponent
    windows).  A nonzero Laurent polynomial with all spans below N_k does not
    vanish on the whole grid of N_k-th roots of unity (induct on the
    variables: a polynomial of degree below N has fewer than N roots).  The
    largest rank over all characters is the largest over the Galois orbits,
    so they are ranked as one group.  A grid past the byte budget is refused
    with ``SizeCapExceeded`` before it is built.
    """
    group = _require_abelian(cx.group)
    lap = laplacian(cx, q)
    grid = _symbol_grid(lap)
    order = prod(grid)
    # the quotient's coordinates, numerators and labels take under 8 (4n + 8) B a character
    check_bytes(_symbol_bytes(lap, order) + 8 * order * (4 * group.rank + 8), "character grid")
    quot = AbelianQuotient(group, LatticeSubgroup(np.diag(grid).tolist()), Caps(order=order))
    chars, e = _character_numerators(quot)
    return lap.nrows - int(_orbit_ranks(lap, chars, e, np.zeros(len(chars), dtype=np.int64))[0])


@dataclass
class DichotomyResult:
    kind: str                      # "linear_growth" or "bounded"
    bound: Optional[int] = None    # valid when kind == "bounded"

    @property
    def is_linear(self) -> bool:
        return self.kind == "linear_growth"


def z_dichotomy(cx: EquivariantChainComplex, q: int) -> DichotomyResult:
    """Over Z: linear Betti growth iff b^(2)_q > 0 (``l2_betti``).

    Otherwise det Delta(t) is a nonzero Laurent polynomial, and the kernel at
    a root of unity is at most its multiplicity as a root of the determinant.
    So every cyclic cover has b_q <= span(det) <= the sum of the Laplacian's
    row spans, reported as ``bound``.
    """
    if _require_abelian(cx.group).rank != 1:
        raise NotRankOne("dichotomy requires deck group Z")
    if l2_betti(cx, q):
        return DichotomyResult(kind="linear_growth")
    return DichotomyResult(kind="bounded", bound=_symbol_grid(laplacian(cx, q))[0] - 1)
