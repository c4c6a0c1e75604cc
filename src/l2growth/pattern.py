"""Character-lattice machinery for free abelian deck groups.

For Gamma = Z^n the cover Laplacian block-diagonalizes over the characters of
the quotient: the Betti number is the sum over lattice characters of the
kernel dimension of the evaluated symbol matrix.  Each kernel dimension is
exact: the symbols at all characters are evaluated modulo primes l = 1 (mod
the quotient's exponent), where every character value is an integer, and the
rank over the cyclotomic field is the largest modular rank over the
character's Galois orbit once the primes multiply past a Hadamard bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import lcm, prod
from typing import List, Optional, Tuple

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

def _character_numerators(quot: AbelianQuotient) -> Tuple[np.ndarray, int]:
    """All characters of Z^n trivial on the subgroup as numerators X over the exponent e.

    Row y (element order) sends generator k to exp(2 pi i X[y, k] / e), where
    X[y, k] = sum_i y_i u_ik e / d_i over the Smith moduli d_i.
    """
    if not isinstance(quot, AbelianQuotient):
        raise NotAbelian("character lattice requires an abelian quotient")
    e = max(quot.moduli)
    u = (np.array(quot.u, dtype=object) % e).astype(np.int64)
    chars = np.zeros((quot.order, quot.group.rank), dtype=np.int64)
    for i, d in enumerate(quot.moduli):
        chars = (chars + (quot._coords[i] * (e // d))[:, None] * u[i]) % e
    rows = chars[np.lexsort(chars.T)]
    if (rows[1:] == rows[:-1]).all(axis=1).any():
        raise CrossCheckMismatch("characters are not distinct")  # pragma: no cover
    for col in quot.subgroup.columns():
        if np.any(chars @ (np.array(col, dtype=object) % e).astype(np.int64) % e):
            raise CrossCheckMismatch(
                "character does not kill a subgroup generator")  # pragma: no cover
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

def _root_powers(e: int, ell: int) -> np.ndarray:
    """omega^t mod ell for t < e, with omega a primitive e-th root of unity mod ell."""
    for h in range(1, ell):
        w, powers, step = pow(h, (ell - 1) // e, ell), np.ones(e, dtype=np.int64), 1
        while step < e:
            powers[step:2 * step] = powers[:min(step, e - step)] * pow(w, step, ell) % ell
            step *= 2
        if np.count_nonzero(powers == 1) == 1:
            return powers
    raise CrossCheckMismatch(f"{ell} is not a prime = 1 (mod {e})")  # pragma: no cover


def _orbit_ranks(m: GroupRingMatrix, chars: np.ndarray, e: int,
                 labels: np.ndarray) -> np.ndarray:
    """Exact symbol rank on each Galois orbit 0, 1, ...

    ``chars`` holds numerators over e covering each orbit; ``labels`` is the
    orbit of each row.  The int64 stack of symbols is refused past the byte
    budget before it is built: ``ranks_modp`` peaks at about 3.6 times the
    stack it is given, which comes on top.
    """
    check_bytes(5 * 8 * len(chars) * m.nrows * m.ncols, "symbol ranks")
    h_squared = prod(max(1, sum(sum(map(abs, el.terms.values())) ** 2 for el in row))
                     for row in m.entries)
    ranks, product, primes = np.zeros(labels.max() + 1, dtype=np.int64), 1, _primes_one_mod(e)
    while product * product <= h_squared:
        ell = next(primes, None)
        if ell is None:
            raise SizeCapExceeded(f"primes = 1 (mod {e}) below 2^31 stay under the Hadamard bound")
        powers = _root_powers(e, ell)
        stack = np.zeros((len(chars), m.nrows, m.ncols), dtype=np.int64)
        for i, row in enumerate(m.entries):
            for j, el in enumerate(row):
                for g, c in el.terms.items():
                    if c != int(c):
                        raise NonIntegralCoefficient(
                            f"character ranks require integer coefficients, got {c}")
                    # exponents mod e in Python ints first: they may pass int64
                    t = (chars * np.array([x % e for x in g], dtype=np.int64) % e).sum(axis=1) % e
                    stack[:, i, j] = (stack[:, i, j] + int(c) % ell * powers[t]) % ell
        np.maximum.at(ranks, labels, ranks_modp(stack, ell))
        product *= ell
    return ranks


@lru_cache(maxsize=256)
def _units(d: int) -> np.ndarray:
    k = np.arange(1, max(d, 2))
    return k[np.gcd(k, d) == 1]


def _galois_orbits(quot: AbelianQuotient) -> np.ndarray:
    """Label each element y, and so its character, by its orbit {k*y : k unit mod ord(y)}.

    Each orbit is walked once, from its first element: O(order) work.
    """
    coords, moduli = quot._coords, np.array(quot.moduli)[:, None]
    orders = quot.element_orders()
    labels, count = np.full(quot.order, -1, dtype=np.int64), 0
    for j, d in enumerate(orders.tolist()):
        if labels[j] < 0:
            orbit = coords[:, j:j + 1] * _units(d) % moduli
            labels[np.ravel_multi_index(orbit, quot.moduli)] = count
            count += 1
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

@dataclass
class PatternReport:
    """Characters on the pattern with their exact kernel dimensions."""

    a: int
    lattice_size: int
    kernel_characters: List[Tuple[Character, int]] = field(default_factory=list)
    betti: int = 0
    exact_betti: Optional[int] = None

    @property
    def pattern_count(self) -> int:
        """|Lambda intersect K|: characters with nontrivial kernel."""
        return len(self.kernel_characters)


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
    report = PatternReport(a=a, lattice_size=len(chars))
    labels = _galois_orbits(quot)
    dims = a - _orbit_ranks(lap, chars, e, labels)[labels]
    for idx in np.flatnonzero(dims).tolist():
        ch = tuple(Fraction(v, e) for v in chars[idx].tolist())
        report.kernel_characters.append((ch, int(dims[idx])))
    report.betti = total = int(dims.sum())
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
    variables: a polynomial of degree below N has fewer than N roots).  A
    grid past the byte budget is refused with ``SizeCapExceeded`` before it
    is built.
    """
    group = _require_abelian(cx.group)
    lap = laplacian(cx, q)
    grid = _symbol_grid(lap)
    order = prod(grid)
    # the quotient's coordinates, numerators and orbit labels take under 8 (4n + 8) B a character
    check_bytes(8 * order * (5 * lap.nrows * lap.ncols + 4 * group.rank + 8), "character grid")
    quot = AbelianQuotient(group, LatticeSubgroup(np.diag(grid).tolist()), Caps(order=order))
    chars, e = _character_numerators(quot)
    return lap.nrows - int(_orbit_ranks(lap, chars, e, _galois_orbits(quot)).max())


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
