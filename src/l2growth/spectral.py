"""Spectral density estimation and the sublinear Betti bound machinery.

The spectral density F counts, per deck-group trace, the Laplacian spectrum
up to lambda; its rescaling mu(x) = F(K*x)/a is a probability measure on
[0, 1].  All bounds share one engine: a shifted Chebyshev polynomial that is
1 at 0 and tiny on [z, 1] combined with a trace identity valid for degrees
below short/R, giving

    b_q(cover) <= a * index * (mu(z) + 4 * exp(-2 n sqrt(z))).

The gap, power-decay, and logarithmic-decay regimes differ only in the
choice of z and in how mu(z) is controlled.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import count, islice
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .caps import DEFAULT_CAPS, Caps
from .covers import CoverInstance, eigvalsh_error
from .errors import (BadArgument, DegenerateZ, FamilyNotLogUniform, GapNotVerified,
                     HypothesisUnverified, InsufficientGrid, LambdaAboveGap,
                     NotAbelian, ShortTooSmall)
from .exact import _is_prime, check_bytes
from .group_ring import EquivariantChainComplex, laplacian, norm_bound, support_radius
from .groups import FreeAbelian, check_quotient_of, quotient as make_quotient, short_length
from .pattern import (_character_numerators, _require_abelian_quotient,
                      evaluate_matrix_at_characters, l2_betti)
from .polynomials import Poly, chebyshev_coefficients

__all__ = [
    "DensityEstimate", "Provenance", "density_zn", "density_by_quotients",
    "chebyshev", "luck_polynomial", "LuckPolynomial", "j_bound", "JBound",
    "BoundReport", "betti_bound_general", "gap_bound", "eig_count_bound",
    "ns_bound", "sublog_bound", "estimate_ns", "NsEstimate",
    "uniform_gap_exponent", "UniformGapReport", "certify_gap", "GapCertificate",
    "cosine_density_closed_form",
]


# ---------------------------------------------------------------------------
# Density estimates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Provenance:
    kind: str        # "closed_form" | "torus_quadrature" | "quotient_approximation"
    detail: Optional[int] = None   # sample count / quotient order

    def __str__(self):
        return self.kind if self.detail is None else f"{self.kind}({self.detail})"


class DensityEstimate:
    """Nondecreasing estimate of the spectral density F on [0, K].

    Values lie in [0, a].  Backed either by eigenvalue samples with a
    per-sample weight, or by a closed-form function.  The estimate takes
    ownership of a samples array: it sorts it in place, flattened, and keeps
    it without a copy.
    """

    def __init__(self, K: float, a: int, provenance: Provenance,
                 samples: Optional[np.ndarray] = None,
                 weight: Optional[float] = None,
                 fn: Optional[Callable[[np.ndarray], np.ndarray]] = None):
        if (samples is None) == (fn is None):
            raise BadArgument("exactly one of samples/fn must be given")
        self.K = float(K)
        self.a = int(a)
        self.provenance = provenance
        self._samples = None
        if samples is not None:
            self._samples = np.asarray(samples, dtype=float).reshape(-1)
            self._samples.sort()
        self._weight = float(weight) if weight is not None else None
        self._fn = fn
        self.members: List[Tuple[int, "DensityEstimate"]] = []

    # -- constructors --------------------------------------------------------
    @classmethod
    def from_samples(cls, eigenvalues, n_points: int, K: float, a: int,
                     provenance: Provenance) -> "DensityEstimate":
        return cls(K, a, provenance, samples=eigenvalues, weight=1.0 / n_points)

    @classmethod
    def from_function(cls, fn: Callable, K: float, a: int) -> "DensityEstimate":
        return cls(K, a, Provenance("closed_form"), fn=fn)

    # -- evaluation ----------------------------------------------------------
    def F(self, lam):
        """Estimated spectral density at lambda (vectorized)."""
        if self._fn is not None:
            return self._fn(lam)
        lam_arr = np.asarray(lam, dtype=float)
        counts = np.searchsorted(self._samples, lam_arr + 1e-12, side="right")
        out = counts * self._weight
        return float(out) if np.isscalar(lam) or lam_arr.ndim == 0 else out

    def mu(self, x):
        """Rescaled probability distribution mu(x) = F(K x) / a; 0 when a = 0, where F is 0."""
        return self.F(np.multiply(x, self.K)) / max(self.a, 1)

    def mass_strictly_below(self, lam: float) -> float:
        if self._fn is not None:
            return float(self._fn(np.nextafter(lam, -np.inf)))
        count = np.searchsorted(self._samples, lam - 1e-12, side="left")
        return float(count * self._weight)

    def integrate(self, func: Callable[[np.ndarray], np.ndarray]) -> float:
        """Integral of func against d(mu), the rescaled spectral measure."""
        if self._samples is not None:
            vals = func(self._samples / self.K)
            return float(np.sum(vals) * self._weight / max(self.a, 1))
        xs = np.linspace(0.0, 1.0, 20001)
        fvals = np.asarray(self._fn(xs * self.K), dtype=float) / self.a
        mids = func(0.5 * (xs[:-1] + xs[1:]))
        return float(np.sum(mids * np.diff(fvals)))

    def to_grid(self, grid) -> np.ndarray:
        return np.asarray(self.F(np.asarray(grid, dtype=float)), dtype=float)

    def __repr__(self):
        return (f"DensityEstimate(K={self.K}, a={self.a}, "
                f"provenance={self.provenance})")


def cosine_density_closed_form(diag: float, off: float) -> DensityEstimate:
    """Exact density for a 1x1 symbol diag - off*(g + g^{-1}) over Z: a point
    mass at diag when off = 0."""
    k = diag + 2 * abs(off)

    def fn(lam):
        lams = np.asarray(lam, dtype=float)
        if off:
            out = np.arccos(np.clip((diag - lams) / (2 * abs(off)), -1.0, 1.0)) / np.pi
        else:
            out = (lams >= diag).astype(float)
        return float(out) if np.isscalar(lam) else out

    return DensityEstimate.from_function(fn, K=k, a=1)


# Scrambled Halton points (Owen, "A randomized Halton algorithm in R",
# arXiv:1706.02808), reproducing scipy.stats.qmc.Halton(d, scramble=True,
# seed=seed).random(n) bit for bit: the same permutation draws, and every
# point's digit terms summed in the same order from 0.0.
_HALTON_HEAD = 4096     # largest lookup table of leading-digit partial sums


# (head, row terms, tail constants) of one scrambled van der Corput sequence
_DigitTable = Tuple[np.ndarray, List[np.ndarray], np.ndarray]


def _digit_split(n: int, base: int) -> Tuple[int, int]:
    """(digits, k): the base-``base`` digits of points below n, and how many
    leading ones one head table of at most ``_HALTON_HEAD`` entries covers."""
    digits = 0
    while base ** digits < n:
        digits += 1
    k = 0
    while k < digits and base ** (k + 1) <= _HALTON_HEAD:
        k += 1
    return digits, k


def _van_der_corput_table(n: int, base: int, perms: np.ndarray) -> _DigitTable:
    """Tables of points 0..n-1 of the base-``base`` sequence scrambled by ``perms``.

    Point i is sum_j perms[j, digit_j(i)] * base^-(j+1), accumulated over j
    in order.  The first k digits come from one head table of partial sums
    over i mod base^k; each later varying digit is constant along a row of
    base^k consecutive points; past the last digit of n - 1 every digit is
    0, so each further term is one constant.  Returns the head, the row
    terms (one value per row) and the tail of constants, each in order.

    In base 2 every partial sum is a multiple of 2^-53 below 1, so it is
    exact and the order of addition changes no bit: the row terms and the
    tail are summed into one row term.
    """
    count = perms.shape[0]
    b2r = np.empty(count)
    r = 1.0 / base
    for j in range(count):
        b2r[j] = r
        r /= base
    terms = perms * b2r[:, None]     # terms[j, digit]
    digits, k = _digit_split(n, base)
    width = base ** k
    lo = np.arange(width)
    head = np.zeros(width)
    for j in range(k):
        head += terms[j, (lo // base ** j) % base]
    hi = np.arange(-(-n // width))
    rows = [terms[j, (hi // base ** (j - k)) % base] for j in range(k, digits)]
    tail = terms[digits:, 0]
    if base == 2:
        return head, [sum(rows, np.full(hi.size, tail.sum()))], tail[:0]
    return head, rows, tail


def _read_van_der_corput(table: _DigitTable, s: int, e: int) -> np.ndarray:
    """Points s..e-1 of the table's sequence, the same bits as when read whole.

    Each point sums its terms in the table's order whatever the range: the
    rows covering [s, e) start from the head and add each row term, then
    each tail constant, in turn.
    """
    head, rows, tail = table
    width = head.size
    first, last = s // width, -(-e // width)
    block = np.empty((last - first, width))
    block[:] = head
    for row in rows:
        block += row[first:last, None]
    for t in tail:
        block += t
    return block.ravel()[s - first * width:e - first * width]


def _scrambled_digits(base: int) -> int:
    """How many digits of a base-``base`` point scipy scrambles."""
    return math.ceil(54 / math.log2(base)) - 1


def _halton_tables(d: int, n: int, seed: int) -> List[_DigitTable]:
    """Digit tables of scipy's first n scrambled Halton points in d dimensions."""
    rng = np.random.default_rng(seed)
    tables = []
    for base in islice(filter(_is_prime, count(2)), d):
        perms = np.repeat(np.arange(base)[None], _scrambled_digits(base), axis=0)
        for row in perms:
            rng.shuffle(row)
        tables.append(_van_der_corput_table(n, base, perms))
    return tables


def _halton_table_bytes(d: int, n: int) -> int:
    """Bytes of ``_halton_tables(d, n, seed)`` and of the permutations and digit
    terms each table is built from: a head, then a row of each later digit."""
    total = 0
    for base in islice(filter(_is_prime, count(2)), d):
        digits, k = _digit_split(n, base)
        width = base ** k
        total += 8 * (2 * _scrambled_digits(base) * base + width + (digits - k) * -(-n // width))
    return total


def _halton_points(tables: List[_DigitTable], s: int, e: int) -> np.ndarray:
    """Points s..e-1 as an (e - s, d) array, stored a coordinate at a time as scipy's."""
    out = np.empty((len(tables), e - s))
    for i, table in enumerate(tables):
        out[i] = _read_van_der_corput(table, s, e)
    return out.T


def _check_integer(**args) -> None:
    """Refuse a point count or seed that is not an integer, before numpy does."""
    for name, value in args.items():
        if not isinstance(value, numbers.Integral) or isinstance(value, bool):
            raise BadArgument(f"{name} must be an integer, got {value!r}")


def _is_diagonal(lap) -> bool:
    """Whether the symbol has no off-diagonal entry (a scalar one among them)."""
    return all(lap.entries[i][j].is_zero
               for i in range(lap.nrows) for j in range(lap.nrows) if i != j)


def _check_quadrature_budget(count: int, n: int, lap, held: int = 0) -> None:
    """Raise before allocating when the quadrature arrays could pass the budget.

    Charges what is held whole: the samples (count x a floats) and ``held``
    bytes the caller keeps beside them.  Points and symbols live one
    ``_BLOCK`` at a time (``_symbol_eigenvalues``), so one block is charged
    on top: 8 (4n + 2a) bytes a point for the points, their index and
    cosine arrays and the eigenvalues, and for a symbol with an off-diagonal
    entry 32 a^2 more for its complex symbols and the solver's copy.
    """
    a = lap.nrows
    per_point = 8 * (4 * n + 2 * a) + (0 if _is_diagonal(lap) else 32 * a * a)
    check_bytes(8 * count * a + held + min(count, _BLOCK) * per_point,
                f"quadrature over {count} characters with {a} cells")


def _cos_symbol(entry, points: np.ndarray, out: np.ndarray) -> None:
    """Add a self-adjoint symbol entry's values, sum_e c_e cos(2 pi <x, e>), into ``out``.

    ``out`` holds zeros, one per point.  Terms are added in ``entry.terms``
    order; the e = 0 term adds c, and cos(2 pi <x, -e>) is reused from the
    term at e, which is bit-exact.
    """
    unpaired = {}
    for e, c in entry.terms.items():
        if not any(e):
            out += float(c)
            continue
        cos_e = unpaired.pop(tuple(-v for v in e), None)
        if cos_e is None:
            cos_e = np.cos(2 * np.pi * (points @ np.asarray(e, dtype=float)))
            unpaired[e] = cos_e
        out += float(c) * cos_e


_BLOCK = 2 ** 15   # points per block of the quadrature loop; its arrays stay in cache


def _symbol_eigenvalues(lap, count: int, points: Callable[[int, int], np.ndarray]) -> np.ndarray:
    """Eigenvalues of the symbol of ``lap`` at points 0..count-1, shape (count, a).

    ``points(s, e)`` returns points s..e-1 as an (e - s, n) array.  They are
    evaluated ``_BLOCK`` at a time into their rows of one samples array, the
    only array held whole.  A symbol with no off-diagonal entry (a scalar
    one among them) has its diagonal entries' cosine sums (``_cos_symbol``)
    as eigenvalues, unsorted, each added into its column.  Any other symbol
    is evaluated at the characters and handed to ``eigvalsh``.  A point's
    eigenvalues depend on its own coordinates only, not on its block.
    """
    diagonal = _is_diagonal(lap)
    samples = np.zeros((count, lap.nrows))
    for s in range(0, count, _BLOCK):
        e = min(s + _BLOCK, count)
        block, out = points(s, e), samples[s:e]
        if diagonal:
            for i in range(lap.nrows):
                _cos_symbol(lap.entries[i][i], block, out[:, i])
        else:
            out[:] = np.linalg.eigvalsh(evaluate_matrix_at_characters(lap, block))
    return samples


def density_zn(cx: EquivariantChainComplex, q: int, sample_count: int = 4096,
               seed: int = 0) -> DensityEstimate:
    """Quasi-random character quadrature for the density of a Z^n complex.

    The characters are Owen-scrambled Halton points generated in-house,
    bit-identical to ``scipy.stats.qmc.Halton(n, scramble=True, seed=seed)``,
    so the estimate is deterministic for a fixed seed.  Points and symbol
    are evaluated one block at a time (``_symbol_eigenvalues``) into a single
    (sample_count, a) array, which the estimate sorts in place and keeps:
    the peak memory is about that array.  Raises ``BadArgument`` for a
    sample count or seed that is not an integer, and ``SizeCapExceeded``
    before allocating when the quadrature would exceed the 1 GiB byte
    budget of ``exact.check_bytes`` (``_check_quadrature_budget``).
    """
    if not isinstance(cx.group, FreeAbelian):
        raise NotAbelian("torus quadrature requires a free abelian deck group")
    _check_integer(sample_count=sample_count, seed=seed)
    if sample_count < 1000:
        raise BadArgument("sample_count must be at least 1000")
    if seed < 0:
        raise BadArgument(f"seed must be nonnegative, got {seed}")
    lap = laplacian(cx, q)
    a = cx.cells[q]
    n = cx.group.rank
    _check_quadrature_budget(sample_count, n, lap, _halton_table_bytes(n, sample_count))
    k = float(norm_bound(lap))
    tables = _halton_tables(n, sample_count, seed)
    samples = _symbol_eigenvalues(lap, sample_count, lambda s, e: _halton_points(tables, s, e))
    return DensityEstimate.from_samples(samples, sample_count, k, a,
                                        Provenance("torus_quadrature", sample_count))


def density_by_quotients(cx: EquivariantChainComplex, q: int,
                         quotients: Sequence) -> DensityEstimate:
    """Density approximation from the spectra of a family of finite abelian covers.

    A cover's spectrum is the symbol's eigenvalues at its quotient's
    characters (``_symbol_eigenvalues``), so no cover is built.  Returns the
    estimate from the largest member; the per-member sequence is attached
    as ``.members`` to exhibit convergence.
    """
    lap = laplacian(cx, q)
    a = cx.cells[q]
    k = float(norm_bound(lap))
    members = []
    for quot in sorted(quotients, key=lambda qq: qq.order):
        check_quotient_of(cx.group, quot)
        n = _require_abelian_quotient(quot).group.rank
        # the numerators, and while they are built and checked one more such array and two columns
        _check_quadrature_budget(quot.order, n, lap, 8 * quot.order * (2 * n + 2))
        chars, e = _character_numerators(quot)
        samples = _symbol_eigenvalues(lap, quot.order, lambda s, t: chars[s:t] / e)
        est = DensityEstimate.from_samples(samples, quot.order, k, a,
                                           Provenance("quotient_approximation", quot.order))
        members.append((quot.order, est))
    if not members:
        raise BadArgument("at least one quotient required")
    result = members[-1][1]
    result.members = members
    return result


# ---------------------------------------------------------------------------
# Chebyshev engine
# ---------------------------------------------------------------------------

def chebyshev(n: int, x):
    """First-kind Chebyshev value T_n(x); recurrence inside [-1, 1], closed
    form 0.5*((x + s)^n + (x - s)^n) with s = sqrt(x^2 - 1) outside."""
    if n < 0:
        raise BadArgument("n must be nonnegative")
    x_arr = np.asarray(x, dtype=float)
    out = np.empty_like(x_arr)
    inside = np.abs(x_arr) <= 1.0
    if np.any(inside):
        out[inside] = np.cos(n * np.arccos(x_arr[inside]))
    if np.any(~inside):
        y = x_arr[~inside]
        s = np.sqrt(y * y - 1.0)
        out[~inside] = 0.5 * ((y + s) ** n + (y - s) ** n)
    return float(out) if np.isscalar(x) or x_arr.ndim == 0 else out


def _log_t_plus_1(n: int, y):
    """log(T_n(y) + 1) for y >= 1, stable for huge T_n."""
    t = n * np.arccosh(np.asarray(y, dtype=float))
    return t + 2.0 * np.log1p(np.exp(-t)) - math.log(2.0)


def _tail(n: int, z: float) -> float:
    """4 exp(-2 n sqrt(z)): the degree-n comparison polynomial's bound on [z, 1]."""
    return 4.0 * math.exp(-2.0 * n * math.sqrt(z))


class LuckPolynomial:
    """The degree-n comparison polynomial p(x) = (T_n(l(x)) + 1)/(T_n(l(0)) + 1).

    l maps [z, 1] onto [-1, 1] with l(0) = (1+z)/(1-z) > 1, so p(0) = 1, p is
    nonnegative on [0, 1], and p is exponentially small on [z, 1].
    """

    def __init__(self, n: int, z):
        if n < 1:
            raise BadArgument("degree must be at least 1")
        zf = float(z)
        if not 0.0 < zf < 1.0:
            raise DegenerateZ(f"z={z} outside (0, 1)")
        self.n = n
        self.z = zf
        self.z_exact = Fraction(z)
        self.l0 = (1.0 + zf) / (1.0 - zf)
        self._log_denom = float(_log_t_plus_1(n, self.l0))

    def _l(self, x):
        return (-2.0 / (1.0 - self.z)) * np.asarray(x, dtype=float) + self.l0

    def log_value(self, x) -> float:
        """log p(x); -inf where p vanishes.  Defined for x in [0, 1].

        Each branch of T_n runs only on its own points: cos(n arccos) on
        [-1, 1], the stable arccosh form above 1."""
        # rounding can push l(1) infinitesimally below -1; clamp
        lx = np.asarray(np.maximum(self._l(x), -1.0))
        out = np.empty_like(lx)
        above = lx > 1.0
        out[above] = _log_t_plus_1(self.n, lx[above])
        inside = ~above
        with np.errstate(divide="ignore"):
            out[inside] = np.log(np.cos(self.n * np.arccos(lx[inside])) + 1.0)
        out -= self._log_denom
        return float(out) if np.isscalar(x) or np.asarray(x).ndim == 0 else out

    def value(self, x):
        out = np.exp(self.log_value(x))
        return float(out) if np.isscalar(x) or np.asarray(x).ndim == 0 else out

    def coefficients(self) -> Poly:
        """Exact rational coefficients (z taken exactly as given)."""
        z = self.z_exact
        l_poly = Poly([Fraction(1 + z, 1 - z), Fraction(-2, 1 - z)])
        t_of_l = chebyshev_coefficients(self.n).compose(l_poly)
        return (t_of_l + Poly([1])) / (t_of_l(Fraction(0)) + 1)

    def tail_bound(self) -> float:
        """p(z) <= 2/(T_n(l(0)) + 1) <= 4 exp(-2 n sqrt(z))."""
        return _tail(self.n, self.z)


def luck_polynomial(n: int, z) -> LuckPolynomial:
    """Comparison polynomial for the window [z, 1]."""
    return LuckPolynomial(n, z)


@dataclass
class JBound:
    bound: float              # mu(z) + 4 exp(-2 n sqrt(z))
    mu_z: float
    tail: float
    direct_integral: float    # integral of p_n against the measure


def j_bound(n: int, density: DensityEstimate, z: float) -> JBound:
    """Upper bound for the extremal polynomial integral at window z."""
    if not 0.0 < float(z) < 1.0:
        raise DegenerateZ(f"z={z} outside (0, 1)")
    mu_z = float(density.mu(z))
    tail = _tail(n, float(z))
    if n >= 1:
        p = LuckPolynomial(n, z)
        direct = density.integrate(p.value)
    else:
        direct = density.integrate(lambda x: np.ones_like(np.asarray(x, dtype=float)))
    return JBound(bound=mu_z + tail, mu_z=mu_z, tail=tail, direct_integral=direct)


# ---------------------------------------------------------------------------
# Gap verification
# ---------------------------------------------------------------------------

@dataclass
class GapCertificate:
    certified_level: float
    grid_minimum: float
    lipschitz: float
    grid_per_dim: int


def certify_gap(cx: EquivariantChainComplex, q: int, grid_per_dim: int = 4096) -> GapCertificate:
    """Certified lower bound for the bottom of the symbol spectrum (abelian).

    Minimizes the smallest eigenvalue of the evaluated symbol over a uniform
    character grid and subtracts a Lipschitz slack derived from the
    coefficient l1 norms and a float64 rounding term, so the returned level
    is a true lower bound for the whole torus.  The grid goes through the
    quadrature's block loop (``_symbol_eigenvalues``).  Raises
    ``BadArgument`` for a ``grid_per_dim`` that is not a positive integer,
    and ``SizeCapExceeded`` before allocating when the grid arrays would
    exceed the byte budget of ``exact.check_bytes``.
    """
    if not isinstance(cx.group, FreeAbelian):
        raise NotAbelian("gap certification requires a free abelian deck group")
    _check_integer(grid_per_dim=grid_per_dim)
    if grid_per_dim < 1:  # no grid point: the minimum over none is +inf, no floor
        raise BadArgument(f"grid_per_dim must be at least 1, got {grid_per_dim}")
    n = cx.group.rank
    lap = laplacian(cx, q)
    a = cx.cells[q]
    per_dim = grid_per_dim if n == 1 else max(8, int(round(grid_per_dim ** (1.0 / n))))
    _check_quadrature_budget(per_dim ** n, n, lap)
    shape = (per_dim,) * n
    samples = _symbol_eigenvalues(lap, per_dim ** n, lambda s, e: np.stack(
        np.unravel_index(np.arange(s, e), shape), axis=-1) / per_dim)
    grid_min = float(samples.min(initial=math.inf))
    sq_sum = 0.0
    for row in lap.entries:
        for e in row:
            s = sum(abs(c) * sum(abs(v) for v in g) for g, c in e.terms.items())
            sq_sum += float(s) ** 2
    lipschitz = 2 * math.pi * math.sqrt(sq_sum)
    # float64 rounding of the a x a symbol blocks, formed from their cosine sums
    level = grid_min - lipschitz * 0.5 / per_dim - eigvalsh_error(a, float(norm_bound(lap)))
    return GapCertificate(certified_level=level, grid_minimum=grid_min,
                          lipschitz=lipschitz, grid_per_dim=per_dim)


def _verify_gap(lambda0: float, density: Optional[DensityEstimate],
                certificate: Optional[GapCertificate]) -> str:
    """Return the verification mode, or raise GapNotVerified."""
    if certificate is not None and certificate.certified_level >= lambda0:
        return "certified"
    if density is not None:
        mass = density.mass_strictly_below(lambda0)
        if mass == 0.0:
            return str(density.provenance)
    if certificate is not None:
        raise GapNotVerified(
            f"certified spectral floor {certificate.certified_level:.6g} "
            f"is below lambda0={lambda0}")
    if density is None:
        raise GapNotVerified(f"no density or gap certificate was given for lambda0={lambda0}")
    raise GapNotVerified(f"density has mass below lambda0={lambda0}")


# ---------------------------------------------------------------------------
# Bound reports
# ---------------------------------------------------------------------------

@dataclass
class BoundReport:
    regime: str
    constants: dict
    bound: float
    betti: int
    satisfied: bool

    def lines(self) -> List[str]:
        parts = [f"regime={self.regime}"]
        for k, v in self.constants.items():
            if isinstance(v, float):
                parts.append(f"{k}={v:.6g}")
            else:
                parts.append(f"{k}={v}")
        parts.append(f"bound={self.bound:.6g}")
        parts.append(f"betti={self.betti}")
        parts.append("SATISFIED" if self.satisfied else "VIOLATED")
        return parts


_UNBOUNDED_DEGREE = 50
"""Usable degree when the trace identity holds in every degree.

That is the case for a scalar symbol (R = 0) and for a cover whose kernel
has no nontrivial element (short = inf).  Any degree is then valid; a fixed
one keeps the reported constants finite and reproducible.
"""


def _chain_degree(short: float, radius: int) -> int:
    """Largest integer strictly below short/radius (the usable degree)."""
    if radius == 0 or math.isinf(short):
        return _UNBOUNDED_DEGREE
    return max(math.ceil(short / radius) - 1, 0)


def _symbol_constants(cx: EquivariantChainComplex, q: int, caps: Caps,
                      density: Optional[DensityEstimate]):
    """(a, K, R): cell count, norm bound and support radius of the q-Laplacian.
    A density for another operator, whose K or a differs, is refused."""
    lap = laplacian(cx, q)
    a, k = cx.cells[q], float(norm_bound(lap))
    if density is not None and (density.K, density.a) != (k, a):
        raise HypothesisUnverified(f"density for K={density.K:g}, a={density.a} given for "
                                   f"a Laplacian with K={k:g}, a={a}")
    return a, k, support_radius(lap, caps)


def _constants(cx: EquivariantChainComplex, quot, q: int, caps: Caps,
               density: Optional[DensityEstimate]) -> dict:
    """The constants every bound report starts with, in report order."""
    a, k, r = _symbol_constants(cx, q, caps, density)
    s = short_length(cx.group, quot.subgroup, caps=caps)
    return {"a": a, "index": quot.order, "short": s, "R": r, "K": k}


def _check_gap_level(lambda0: float) -> None:
    """Refuse a non-finite or negative lambda0: M = (2/R) sqrt(lambda0/K) needs lambda0 >= 0."""
    _check_finite(lambda0=lambda0)
    if lambda0 < 0:
        raise BadArgument(f"lambda0 must be nonnegative, got {lambda0}")


def _gap_rate(lambda0: float, k: float, r: int) -> float:
    """M = (2/R) sqrt(lambda0/K): the decay rate in short under a spectral gap."""
    return (2.0 / r) * math.sqrt(lambda0 / k) if r else math.inf


def _check_finite(**args: Optional[float]) -> None:
    """Refuse a NaN or infinite bound argument: a NaN passes every ``<`` and ``<=`` check."""
    for name, value in args.items():
        if value is not None and not math.isfinite(value):
            raise BadArgument(f"{name} must be finite, got {value}")


def _report(regime: str, cx: EquivariantChainComplex, quot, q: int, caps: Caps,
            constants: dict, bound: float, lam: Optional[float] = None) -> BoundReport:
    """Compare a bound with the exact value on the cover.

    The exact value is b_q, or with ``lam`` the number of eigenvalues <= lam.
    """
    cover = CoverInstance(cx, quot, caps)
    b = cover.betti(q) if lam is None else cover.count_eigs_below(q, lam)
    return BoundReport(regime=regime, constants=constants, bound=bound, betti=b,
                       satisfied=b <= bound)


def betti_bound_general(cx: EquivariantChainComplex, quot, q: int,
                        density: DensityEstimate, z: float,
                        caps: Caps = DEFAULT_CAPS) -> BoundReport:
    """Raw comparison-polynomial bound b_q <= a * index * J(n, mu) at window z."""
    c = _constants(cx, quot, q, caps, density)
    a, index, s, r, _k = c.values()
    n = _chain_degree(s, r)
    jb = j_bound(n, density, z)
    return _report("raw", cx, quot, q, caps,
                   {**c, "n": n, "z": float(z), "mu_z": jb.mu_z, "tail": jb.tail,
                    "direct_integral": jb.direct_integral},
                   a * index * jb.bound)


def gap_bound(cx: EquivariantChainComplex, quot, q: int, lambda0: float,
              density: Optional[DensityEstimate] = None,
              certificate: Optional[GapCertificate] = None,
              caps: Caps = DEFAULT_CAPS) -> BoundReport:
    """Exponential bound 4a * index * exp(-M short), M = (2/R) sqrt(lambda0/K)."""
    _check_gap_level(lambda0)
    c = _constants(cx, quot, q, caps, density)
    a, index, s, r, k = c.values()
    mode = _verify_gap(lambda0, density, certificate)
    m = _gap_rate(lambda0, k, r)
    return _report("gap", cx, quot, q, caps,
                   {**c, "lambda0": lambda0, "M": m, "gap_mode": mode},
                   4.0 * a * index * math.exp(-m * s))


def eig_count_bound(cx: EquivariantChainComplex, quot, q: int, lam: float,
                    lambda0: float,
                    density: Optional[DensityEstimate] = None,
                    certificate: Optional[GapCertificate] = None,
                    caps: Caps = DEFAULT_CAPS) -> BoundReport:
    """Bound the number of cover eigenvalues <= lam under a spectral gap.

    The guarantee needs lam < lambda0 (the comparison polynomial is monotone
    there); larger lam still yields a finite comparison value, reported with
    ``lambda_below_gap`` False.
    """
    _check_finite(lam=lam)
    _check_gap_level(lambda0)
    c = _constants(cx, quot, q, caps, density)
    _a, index, s, r, k = c.values()
    mode = _verify_gap(lambda0, density, certificate)
    if lam >= k:
        raise LambdaAboveGap(f"lam={lam} is not below the spectral bound K={k}")
    if lam < 0:
        raise BadArgument("lam must be nonnegative")
    n = _chain_degree(s, r)
    if n < 1:
        raise ShortTooSmall("short/R leaves no usable polynomial degree")
    z = lambda0 / k
    p = LuckPolynomial(n, z)
    log_ratio = p.log_value(z) - p.log_value(lam / k)
    return _report("eig_count", cx, quot, q, caps,
                   {**c, "lambda": lam, "lambda0": lambda0, "n": n, "z": z,
                    "gap_mode": mode, "lambda_below_gap": lam < lambda0},
                   index * float(np.exp(log_ratio)), lam=lam)


def ns_bound(cx: EquivariantChainComplex, quot, q: int, beta: float,
             c_density: Optional[float], density: DensityEstimate,
             caps: Caps = DEFAULT_CAPS) -> BoundReport:
    """Power-decay bound C1 * index * (log(short)/short)^(2 beta).

    Requires the verified density hypothesis F(lambda) <= C * lambda^beta on
    a grid up to K and at the window K*z, which lies below K: with
    r = n/beta > 1, z = (log(r)/r)^2 <= e^-2.  The constant C1 is assembled
    from the explicit inequality chain, never fitted.  With
    ``c_density=None`` the density constant C is fitted as
    1.05 * max F(lambda)/lambda^beta over [1e-6 K, K] and reported as
    ``C_density_mode=fitted``; that check is circular, since C comes from
    the density it is checked against.  A given C is reported as ``given``.
    A dimension without cells (a = 0) has no density term and bound 0.
    """
    _check_finite(beta=beta, c_density=c_density)
    mode = "given"
    if c_density is None:
        grid = np.geomspace(density.K * 1e-6, density.K, 200)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = density.to_grid(grid) / grid ** beta
        c_density, mode = float(np.nanmax(ratios)) * 1.05 + 1e-12, "fitted"
    if beta <= 0 or c_density <= 0:
        raise HypothesisUnverified("beta and C must be positive")
    c = _constants(cx, quot, q, caps, density)
    a, index, s, r, k = c.values()
    n = _chain_degree(s, r)
    if n / beta <= 1.0:
        raise ShortTooSmall(
            f"degree n={n} is too small for decay exponent beta={beta}")
    ratio = n / beta
    z = (math.log(ratio) / ratio) ** 2
    # F <= C lambda^beta on a log grid up to K and at the window point
    grid = np.sort(np.append(np.geomspace(max(1e-9, k * 1e-7), k, 200), k * z))
    vals, lim = np.asarray(density.F(grid), dtype=float), c_density * grid ** beta
    bad = vals > lim  # non-strict domination is all the bound chain needs
    if np.any(bad):
        i = int(np.argmax(bad))
        raise HypothesisUnverified(f"F({grid[i]:.6g}) = {vals[i]:.6g} is not below "
                                   f"C*lambda^beta = {lim[i]:.6g}")
    c_mu = c_density * (k ** beta) / a if a else 0.0
    j_val = c_mu * z ** beta + _tail(n, z)
    # C1 * (log(short)/short)^(2 beta) = a * J; that factor is 0 at short = inf
    c1 = a * j_val / ((math.log(s) / s) ** (2 * beta)) if 1 < s < math.inf else math.inf
    return _report("ns", cx, quot, q, caps,
                   {**c, "beta": beta, "C_density": c_density,
                    "C_density_mode": mode, "n": n, "z": z, "C1": c1},
                   a * index * j_val)


def sublog_bound(cx: EquivariantChainComplex, quot, q: int,
                 density: Optional[DensityEstimate] = None,
                 caps: Caps = DEFAULT_CAPS) -> BoundReport:
    """Logarithmic-decay bound C * index / log(short).

    Uses the universal estimate F(lambda) <= a log(K) / (-log lambda), a
    theorem for integer Laplacians (Lueck, GAFA 4, 1994; on a cover, m nonzero
    eigenvalues in (0, t] and the rest at most K multiply to a nonzero integer,
    so m log(1/t) <= a * index * log K), and so reads no density.  It needs no
    mass at zero: over Z^n b^(2)_q = 0, exactly (``l2_betti``), and elsewhere
    F(0) = 0 of the Laplacian's density, refused when none is given.
    """
    c = _constants(cx, quot, q, caps, None if isinstance(cx.group, FreeAbelian) else density)
    a, index, s, r, k = c.values()
    if s < 3:
        raise ShortTooSmall(f"short={s} must be at least 3")
    n = _chain_degree(s, r)
    if n < 2:
        raise ShortTooSmall(f"degree n={n} leaves no usable window")
    if isinstance(cx.group, FreeAbelian):
        b2 = l2_betti(cx, q)
        if b2:
            raise HypothesisUnverified(f"b^(2)_{q} = {b2} > 0: nonzero harmonic mass")
    elif density is None or density.F(0.0) > 0:
        raise HypothesisUnverified("F(0) = 0 is not shown: no density, or an atom at zero")
    z = (math.log(math.log(n)) / n) ** 2
    kz = k * z
    if kz >= 1.0:
        raise ShortTooSmall(f"window K*z = {kz:.6g} is not below 1")
    j_val = math.log(k) / (-math.log(kz)) + _tail(n, z)
    return _report("sublog", cx, quot, q, caps,
                   {**c, "n": n, "z": z, "C_prime": j_val * math.log(n),
                    "C": a * j_val * math.log(s)},
                   a * index * j_val)


# ---------------------------------------------------------------------------
# Decay estimation
# ---------------------------------------------------------------------------

@dataclass
class NsEstimate:
    alpha_hat: Optional[float]
    gap_detected: bool
    window: Optional[Tuple[float, float]] = None


def estimate_ns(density: DensityEstimate) -> NsEstimate:
    """Log-log decay rate of F near zero: alpha = 2 * fitted slope.

    F is read at 61 geometric grid points of the window [1e-6, 1e-2]; sampled
    estimates ignore those whose increment over F(0) is below 4 samples, to
    keep quadrature noise out of the fit.  A density that does not rise over
    the window, F(1e-2) = F(0), has a gap (``gap_detected``).  One that
    rises, but past the floor at no point or over less than two decades,
    raises ``InsufficientGrid``, which names the density's provenance (a
    sample count too small for the fit shows there).
    """
    grid = np.geomspace(1e-6, 1e-2, 61)
    vals = np.asarray(density.F(grid), dtype=float) - float(density.F(0.0))
    if vals[-1] == 0.0:
        return NsEstimate(alpha_hat=None, gap_detected=True,
                          window=(float(grid[0]), float(grid[-1])))
    usable = vals > (4 * density._weight if density._samples is not None else 0.0)
    if not np.any(usable):
        raise InsufficientGrid(f"none of {grid[0]:.3g}..{grid[-1]:.3g} usable in "
                               f"{density.provenance}: F rises {vals[-1]:.3g}, within 4 "
                               "samples; need two decades")
    xs = grid[usable]
    ys = vals[usable]
    if xs.max() / xs.min() < 100.0:
        raise InsufficientGrid(f"only {xs.min():.3g}..{xs.max():.3g} usable in "
                               f"{density.provenance}; need two decades")
    slope = np.polyfit(np.log(xs), np.log(ys), 1)[0]
    return NsEstimate(alpha_hat=2.0 * float(slope), gap_detected=False,
                      window=(float(xs.min()), float(xs.max())))


# ---------------------------------------------------------------------------
# Uniform families under a gap
# ---------------------------------------------------------------------------

@dataclass
class UniformGapReport:
    exponent: float
    d_fit: float
    c_fit: float
    m_const: float
    spread: float
    members: List[dict] = field(default_factory=list)

    @property
    def all_satisfied(self) -> bool:
        return all(m["satisfied"] for m in self.members)


def uniform_gap_exponent(group, family: Sequence, lambda0: float,
                         cx: EquivariantChainComplex, q: int,
                         density: Optional[DensityEstimate] = None,
                         certificate: Optional[GapCertificate] = None,
                         caps: Caps = DEFAULT_CAPS) -> UniformGapReport:
    """Sub-linear index exponent for a log-uniform family under a gap.

    Fits D = min short/log(index) over the family; the family is rejected
    (FamilyNotLogUniform) when the ratios spread by more than a factor 4,
    which is what happens for polynomial-growth directions.  Verifies
    b_q <= 4a * index^(1 - M*D) per member.
    """
    _check_gap_level(lambda0)
    data = []
    for sub in family:
        s = short_length(group, sub, caps=caps)
        quot = make_quotient(group, sub, caps)
        if quot.order < 2:
            continue
        data.append((sub, quot, s))
    if len(data) < 2:
        raise FamilyNotLogUniform("need at least two members of index >= 2")
    ratios = [s / math.log(quot.order) for _sub, quot, s in data]
    spread = max(ratios) / min(ratios)
    if spread > 4.0:
        raise FamilyNotLogUniform(
            f"short/log(index) ratios spread by {spread:.3g} > 4; "
            "family does not track logarithmic growth")
    d_fit = min(ratios)
    a, k, r = _symbol_constants(cx, q, caps, density)
    mode = _verify_gap(lambda0, density, certificate)
    m_const = _gap_rate(lambda0, k, r)
    exponent = 1.0 - m_const * d_fit
    c_fit = 4.0 * a
    report = UniformGapReport(exponent=exponent, d_fit=d_fit, c_fit=c_fit,
                              m_const=m_const, spread=spread, members=[])
    for sub, quot, s in data:
        rep = _report("gap", cx, quot, q, caps, {}, c_fit * quot.order ** exponent)
        report.members.append({
            "index": quot.order, "short": s, "betti": rep.betti,
            "bound": rep.bound, "satisfied": rep.satisfied, "gap_mode": mode,
        })
    return report
