"""Randomized cross-check suites.

Each suite generates independent random instances, computes one quantity two
ways (or checks a theorem bound against exact values), and reports pass/fail
counts.  The generators are deliberately restricted to the regime where every
involved method is exact: free abelian deck groups of rank <= 2, few cells,
small coefficient support.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Tuple

import numpy as np

from .caps import DEFAULT_CAPS, Caps
from .covers import CoverInstance, verify_trace_equality
from .errors import BadArgument, FamilyNotLogUniform
from .group_ring import (EquivariantChainComplex, GroupRingElement,
                         GroupRingMatrix, laplacian, support_radius)
from .groups import (FreeAbelian, IntegralMatrixGroup, LatticeSubgroup,
                     CongruenceSubgroup, quotient, short_length)
from .pattern import sandwich_check
from .polynomials import Poly
from .spectral import (cosine_density_closed_form, estimate_ns,
                       eig_count_bound, gap_bound, j_bound, ns_bound,
                       sublog_bound, uniform_gap_exponent, DensityEstimate)
from .stripes import StripeSpec, glue_stripe, product_with_circle, \
    stripe_bound_check, stripe_prediction, torus_complex, two_cell_complex

DEFAULT_SEED = 1729


@dataclass
class SuiteResult:
    name: str
    total: int = 0
    passed: int = 0
    failures: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.passed == self.total and not self.failures

    def record(self, ok: bool, message: str = "") -> None:
        self.total += 1
        if ok:
            self.passed += 1
        else:
            self.failures.append(message or f"check {self.total} failed")

    def summary(self) -> str:
        return f"{self.name}: {self.passed}/{self.total} pass"


# ---------------------------------------------------------------------------
# Random generators
# ---------------------------------------------------------------------------

def _random_element(rng):
    c = 0
    while c == 0:
        c = int(rng.integers(-3, 4))
    return c


def _random_exponent(rng, n: int, max_norm: int = 2) -> Tuple[int, ...]:
    while True:
        v = tuple(int(x) for x in rng.integers(-max_norm, max_norm + 1, size=n))
        if sum(abs(x) for x in v) <= max_norm:
            return v


def _random_entry(rng, group: FreeAbelian) -> GroupRingElement:
    acc = GroupRingElement.zero(group)
    for _ in range(int(rng.integers(0, 4))):
        acc = acc + GroupRingElement.monomial(
            group, _random_exponent(rng, group.rank), _random_element(rng))
    return acc


def random_complex(rng) -> EquivariantChainComplex:
    """Random small abelian complex (rank <= 2, <= 3 cells per dimension)."""
    kind = rng.choice(["one_boundary", "circle_product", "stripe"])
    if kind == "one_boundary":
        n = int(rng.integers(1, 3))
        group = FreeAbelian(n)
        a0 = int(rng.integers(1, 4))
        a1 = int(rng.integers(1, 4))
        d1 = GroupRingMatrix(group, [[_random_entry(rng, group) for _ in range(a1)]
                                     for _ in range(a0)], shape=(a0, a1))
        return EquivariantChainComplex(group, [a0, a1], {1: d1})
    if kind == "circle_product":
        group = FreeAbelian(1)
        a0 = int(rng.integers(1, 3))
        a1 = 3 - a0 if a0 == 2 else int(rng.integers(1, 3))
        d1 = GroupRingMatrix(group, [[_random_entry(rng, group) for _ in range(a1)]
                                     for _ in range(a0)], shape=(a0, a1))
        base = EquivariantChainComplex(group, [a0, a1], {1: d1})
        return product_with_circle(base)
    n = int(rng.integers(1, 3))
    group = FreeAbelian(n)
    d1 = GroupRingMatrix(group, [[_random_entry(rng, group)]], shape=(1, 1))
    base = EquivariantChainComplex(group, [1, 1], {1: d1})
    gamma = _random_exponent(rng, n)
    while not any(gamma):
        gamma = _random_exponent(rng, n)
    return glue_stripe(StripeSpec(base=base, gamma=gamma, dim=2))


def random_quotient(rng, group: FreeAbelian, max_index: int = 200,
                    min_short: int = 1, caps: Caps = DEFAULT_CAPS):
    """Random finite-index subgroup realized as a quotient."""
    n = group.rank
    while True:
        if n == 1:
            lo = max(1, min_short)
            i = int(np.exp(rng.uniform(np.log(lo), np.log(max_index + 1))))
            i = min(max(i, lo), max_index)
            sub = LatticeSubgroup([[i]])
        elif rng.random() < 0.5:
            m = int(rng.integers(min_short, 15))
            k = int(rng.integers(min_short, max(min_short + 1, max_index // max(m, 1) + 1)))
            sub = LatticeSubgroup([[m, 0], [0, k]])
        else:
            mat = rng.integers(-6, 7, size=(2, 2))
            sub = LatticeSubgroup(mat.tolist())
        if sub.det == 0 or sub.index > max_index:
            continue
        if min_short > 1 and short_length(group, sub, caps=caps) < min_short:
            continue
        return quotient(group, sub, caps)


def _random_poly(rng, max_degree: int = 3) -> Poly:
    deg = int(rng.integers(0, max_degree + 1))
    coeffs = []
    for k in range(deg + 1):
        num = int(rng.integers(-3, 4))
        den = int(rng.integers(1, 3))
        coeffs.append(Fraction(num, den))
    if deg and coeffs[-1] == 0:
        coeffs[-1] = Fraction(1)
    return Poly(coeffs)


def _rng(seed: int) -> np.random.Generator:
    if seed < 0:
        raise BadArgument(f"seed must be nonnegative, got {seed}")
    return np.random.default_rng(seed)


def _dims_with_cells(cx: EquivariantChainComplex) -> List[int]:
    return [q for q, a in enumerate(cx.cells) if a >= 1]


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------

def suite_traces(trials: int = 500, seed: int = DEFAULT_SEED,
                 caps: Caps = DEFAULT_CAPS) -> SuiteResult:
    """Exact trace equality whenever deg(p) < short/R, plus one violation case."""
    rng = _rng(seed)
    result = SuiteResult("traces")
    while result.total < trials:
        cx = random_complex(rng)
        q = int(rng.choice(_dims_with_cells(cx)))
        p = _random_poly(rng)
        radius = support_radius(laplacian(cx, q))
        need = p.degree * max(radius, 1) + 1
        quot = random_quotient(rng, cx.group, max_index=60 if cx.group.rank == 1
                               else 180, min_short=min(need, 8), caps=caps)
        s = short_length(cx.group, quot.subgroup, caps=caps)
        if radius and not (p.degree < s / radius):
            continue
        rep = verify_trace_equality(cx, quot, q, p, caps=caps)
        result.record(rep.condition_met and rep.equal,
                      f"trace mismatch: {rep}")
    # the deliberate condition violation: circle over the trivial quotient
    circle = torus_complex(1)
    qt = quotient(FreeAbelian(1), LatticeSubgroup([[1]]), caps)
    rep = verify_trace_equality(circle, qt, 0, Poly([0, 1]), caps=caps)
    violation_ok = (not rep.condition_met) and rep.lhs == 2 and rep.rhs == 0
    result.record(violation_ok, f"expected-inequality case broke: {rep}")
    result.notes.append(
        "includes the constructed condition-violating case (trivial quotient, "
        f"2 vs 0): expected-inequality {'pass' if violation_ok else 'FAIL'}")
    return result


def suite_sandwich(trials: int = 200, seed: int = DEFAULT_SEED,
                   caps: Caps = DEFAULT_CAPS, max_index: int = 200) -> SuiteResult:
    """Dual-oracle Betti equality, the pattern sandwich, and Euler characteristic."""
    rng = _rng(seed)
    result = SuiteResult("sandwich")
    while result.total < trials:
        cx = random_complex(rng)
        q = int(rng.choice(_dims_with_cells(cx)))
        quot = random_quotient(rng, cx.group, max_index=max_index, caps=caps)
        # the character total is cross-checked against the cover's b_q inside,
        # raising CrossCheckMismatch on any disagreement
        sw = sandwich_check(cx, quot, q, caps)
        euler = CoverInstance(cx, quot, caps).euler_characteristic()
        chi = sum((-1) ** d * a for d, a in enumerate(cx.cells))
        ok = sw.holds and euler == quot.order * chi
        result.record(ok, f"betti {sw.betti}, sandwich {sw}, "
                          f"euler {euler} vs {quot.order * chi}")
    return result


def suite_stripes(trials: int = 300, seed: int = DEFAULT_SEED,
                  caps: Caps = DEFAULT_CAPS) -> SuiteResult:
    """Stripe closed form vs chain model, bound check, low dims untouched."""
    rng = _rng(seed)
    result = SuiteResult("stripes")
    while result.total < trials:
        n = int(rng.integers(1, 3))
        group = FreeAbelian(n)
        if rng.random() < 0.3 and n == 2:
            base = torus_complex(2)
        else:
            a0 = int(rng.integers(1, 3))
            a1 = int(rng.integers(1, 3))
            d1 = GroupRingMatrix(group, [[_random_entry(rng, group) for _ in range(a1)]
                                         for _ in range(a0)], shape=(a0, a1))
            base = EquivariantChainComplex(group, [a0, a1], {1: d1})
        gamma = _random_exponent(rng, n, max_norm=3)
        if not any(gamma):
            continue
        q = max(2, base.top_dim + 1) + int(rng.integers(0, 2))
        spec = StripeSpec(base=base, gamma=gamma, dim=q)
        glued = glue_stripe(spec)
        quot = random_quotient(rng, group, max_index=300, caps=caps)
        cover = CoverInstance(glued, quot, caps)
        pred = stripe_prediction(spec, quot)
        ok = pred == cover.betti(q)
        rep = stripe_bound_check(spec, quot, caps)
        ok = ok and rep.holds
        base_cover = CoverInstance(base, quot, caps)
        for j in range(base.top_dim):
            ok = ok and cover.betti(j) == base_cover.betti(j)
        result.record(ok, f"stripe gamma={gamma} dim={q} index={quot.order}: "
                          f"pred={pred} betti={cover.betti(q)}")
    return result


def suite_bounds(seed: int = DEFAULT_SEED, caps: Caps = DEFAULT_CAPS) -> SuiteResult:
    """Theorem bounds dominate exact Betti numbers / eigenvalue counts."""
    rng = _rng(seed)
    result = SuiteResult("bounds")
    z_one = FreeAbelian(1)
    z_two = FreeAbelian(2)
    circle = torus_complex(1)
    gap_cx = two_cell_complex(z_one, GroupRingElement(z_one, {(0,): 2, (1,): -1}))
    circle_density = cosine_density_closed_form(2, 1)
    gap_density = cosine_density_closed_form(5, 2)

    for i in (3, 7, 20, 60, 150):
        quot = quotient(z_one, LatticeSubgroup([[i]]), caps)
        rep = gap_bound(gap_cx, quot, 1, 1.0, density=gap_density, caps=caps)
        result.record(rep.satisfied, f"gap bound violated at i={i}: {rep}")
    for i, lam in ((4, 0.5), (12, 2.0), (60, 4.0)):
        quot = quotient(z_one, LatticeSubgroup([[i]]), caps)
        rep = eig_count_bound(gap_cx, quot, 1, lam, 1.0, density=gap_density, caps=caps)
        result.record(rep.satisfied, f"eig count bound violated i={i} lam={lam}")
    for i in (5, 40, 300):
        quot = quotient(z_one, LatticeSubgroup([[i]]), caps)
        rep = ns_bound(circle, quot, 1, beta=0.5, c_density=0.5,
                       density=circle_density, caps=caps)
        result.record(rep.satisfied, f"ns bound violated at i={i}")
        rep2 = sublog_bound(circle, quot, 1, circle_density, caps=caps)
        result.record(rep2.satisfied, f"sublog bound violated at i={i}")
    # raw J bound dominates the direct integral on random windows
    for _ in range(20):
        n = int(rng.integers(1, 30))
        z = float(rng.uniform(0.02, 0.9))
        density = circle_density if rng.random() < 0.5 else gap_density
        jb = j_bound(n, density, z)
        result.record(jb.direct_integral <= jb.bound + 1e-9,
                      f"J bound {jb.bound} below integral {jb.direct_integral}")
    # synthetic decay recovery
    for beta in (0.25, 0.5, 1.0, 1.5):
        fn = (lambda b: lambda lam: np.clip(np.asarray(lam, dtype=float), 0.0, 1.0) ** b)(beta)
        est = estimate_ns(DensityEstimate.from_function(fn, K=1.0, a=1))
        result.record(abs(est.alpha_hat - 2 * beta) < 0.05,
                      f"alpha_hat {est.alpha_hat} for beta={beta}")
    # uniform congruence family under a gap
    mat_group = IntegralMatrixGroup(2, [[[1, 2], [0, 1]], [[1, 0], [2, 1]]])
    gap_mat = two_cell_complex(
        mat_group, GroupRingElement(mat_group, {mat_group.identity: 2,
                                                mat_group.generators[0]: -1}))
    rep = uniform_gap_exponent(mat_group, [CongruenceSubgroup(m) for m in (3, 5, 7)],
                               1.0, gap_mat, 1, density=gap_density, caps=caps)
    result.record(rep.exponent < 1 and rep.all_satisfied,
                  f"uniform gap family failed: {rep}")
    # a polynomial-growth family must be rejected
    gap2 = two_cell_complex(z_two, GroupRingElement(z_two, {(0, 0): 2, (1, 0): -1}))
    try:
        uniform_gap_exponent(z_two, [LatticeSubgroup([[i, 0], [0, i]])
                                     for i in (2, 8, 60)],
                             1.0, gap2, 1, density=gap_density, caps=caps)
        result.record(False, "polynomial-growth family was not rejected")
    except FamilyNotLogUniform:
        result.record(True)
    return result


SUITES = {
    "traces": suite_traces,
    "sandwich": suite_sandwich,
    "stripes": suite_stripes,
    "bounds": suite_bounds,
}
