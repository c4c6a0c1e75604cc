"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings inline.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from l2growth import (chebyshev, cosine_density_closed_form, density_by_quotients,
                      density_zn, eig_count_bound, estimate_ns, gap_bound,
                      instantiate, luck_polynomial, ns_bound, short_length,
                      stripe_prediction, sublog_bound, torus_complex, z_dichotomy)
from l2growth.polynomials import chebyshev_coefficients
from l2growth.stripes import StripeSpec, glue_stripe
from l2growth.verify import suite_sandwich, suite_traces
from conftest import cyclic_quotient, diag_quotient


def _report(number, label, ok, elapsed):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} {label}: {status} ({elapsed:.1f}s)")
    assert ok, f"criterion {number} failed"


@pytest.fixture(scope="module")
def sandwich_suite():
    start = time.monotonic()
    result = suite_sandwich(trials=200)
    result.elapsed = time.monotonic() - start
    return result


def test_criterion_01_dual_oracle_betti(sandwich_suite):
    ok = (sandwich_suite.total >= 200 and sandwich_suite.ok
          and sandwich_suite.elapsed < 300.0)
    _report(1, "dual-oracle Betti equality (200 randomized complexes)",
            ok, sandwich_suite.elapsed)


def test_criterion_02_tight_stripe_example(stripe_spec, stripe_complex, z_two):
    start = time.monotonic()
    ok = True
    for m, n in [(2, 3), (3, 5), (4, 4), (7, 2)]:
        quot = diag_quotient(m, n)
        cover = instantiate(stripe_complex, quot)
        ok = ok and cover.betti(3) == n
        ok = ok and stripe_prediction(stripe_spec, quot) == n
        ok = ok and short_length(z_two, quot.subgroup) == min(m, n)
    _report(2, "tight stripe family: b_3 = n and short = min(m, n)",
            ok, time.monotonic() - start)


def test_criterion_03_trace_equality():
    start = time.monotonic()
    result = suite_traces(trials=500)
    ok = result.total >= 500 and result.ok
    # the constructed violation case is part of the suite; double-check here
    from l2growth import verify_trace_equality
    from l2growth.polynomials import Poly
    rep = verify_trace_equality(torus_complex(1), cyclic_quotient(1), 0,
                                Poly([0, 1]))
    ok = ok and not rep.condition_met and rep.lhs == 2 and rep.rhs == 0
    _report(3, "trace equality (500 triples + violation case)",
            ok, time.monotonic() - start)


def test_criterion_04_sandwich(sandwich_suite):
    ok = sandwich_suite.ok and sandwich_suite.total >= 200
    _report(4, "pattern sandwich |L∩K| <= b <= a|L∩K| on the randomized suite",
            ok, sandwich_suite.elapsed)


def test_criterion_05_zn_constant(z_two, stripe_spec, stripe_complex):
    start = time.monotonic()
    ok = True

    def family_max_ratio(cx, quots, dim):
        best = Fraction(0)
        for quot in quots:
            b = instantiate(cx, quot).betti(dim)
            s = short_length(cx.group, quot.subgroup)
            best = max(best, Fraction(b * s, quot.order))
        return best

    # tight stripe family along (1, 0): constant 1 = |gamma| * a
    quots = [diag_quotient(m, m + 1) for m in range(2, 51, 5)]
    quots += [diag_quotient(m + 1, m) for m in range(2, 51, 5)]
    quots += [diag_quotient(50, 51), diag_quotient(51, 50)]
    ratio = family_max_ratio(stripe_complex, quots, 3)
    ok = ok and len(quots) >= 20 and ratio <= 1

    # diagonal stripe along (1, 1): constant 2 = |gamma| * a
    spec2 = StripeSpec(base=torus_complex(2), gamma=(1, 1), dim=3)
    w2 = glue_stripe(spec2)
    quots2 = [diag_quotient(k, k) for k in range(2, 26)]
    ratio2 = family_max_ratio(w2, quots2, 3)
    ok = ok and len(quots2) >= 20 and ratio2 <= 2

    # circle tower: constant 1
    circle = torus_complex(1)
    quots3 = [cyclic_quotient(i) for i in range(2, 51, 2)]
    ratio3 = family_max_ratio(circle, quots3, 1)
    ok = ok and len(quots3) >= 20 and ratio3 <= 1

    # torus in the middle dimension: constant a = 2
    torus = torus_complex(2)
    quots4 = [diag_quotient(m, n) for m in (2, 3, 5, 9) for n in (2, 4, 7, 11, 13)]
    ratio4 = family_max_ratio(torus, quots4, 1)
    ok = ok and len(quots4) >= 20 and ratio4 <= 2

    _report(5, "per-complex constant for b*short/index over quotient families",
            ok, time.monotonic() - start)


def test_criterion_06_gap_regime(gap_complex):
    start = time.monotonic()
    density = cosine_density_closed_form(5, 2)
    ok = True
    for i in range(1, 201):
        rep = gap_bound(gap_complex, cyclic_quotient(i), 1, 1.0, density=density)
        ok = ok and rep.betti == 0
        ok = ok and rep.satisfied and rep.constants["M"] == pytest.approx(2 / 3)
    for i in (4, 12, 60):
        for lam in (0.5, 2.0, 4.0):
            rep = eig_count_bound(gap_complex, cyclic_quotient(i), 1, lam, 1.0,
                                  density=density)
            ok = ok and rep.satisfied
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60.0
    _report(6, "gap regime: zero Betti, gap_bound, eigenvalue counts (i <= 200)",
            ok, elapsed)


def test_criterion_07_novikov_shubin_estimates(torus2):
    start = time.monotonic()
    circle = torus_complex(1)
    t0 = time.monotonic()
    d1 = density_zn(circle, 0, sample_count=131072, seed=101)
    est1 = estimate_ns(d1)
    t1 = time.monotonic() - t0
    ok = est1.alpha_hat is not None and 0.8 <= est1.alpha_hat <= 1.2 and t1 < 120
    t0 = time.monotonic()
    d2 = density_zn(torus2, 0, sample_count=2_000_000, seed=102)
    est2 = estimate_ns(d2)
    t2 = time.monotonic() - t0
    ok = ok and est2.alpha_hat is not None and 1.6 <= est2.alpha_hat <= 2.4 and t2 < 120
    print(f"  alpha(circle)={est1.alpha_hat:.3f} ({t1:.1f}s), "
          f"alpha(torus)={est2.alpha_hat:.3f} ({t2:.1f}s)")
    _report(7, "decay-rate estimates for circle and torus", ok,
            time.monotonic() - start)


def test_criterion_08_sublog_and_ns_domination(stripe_complex):
    start = time.monotonic()
    circle = torus_complex(1)
    closed = cosine_density_closed_form(2, 1)
    # the closed form is consistent with quadrature where both are defined
    quad = density_zn(circle, 1, sample_count=65536, seed=103)
    grid = np.geomspace(1e-4, 4.0, 60)
    ok = bool(np.all(np.abs(quad.to_grid(grid) - closed.to_grid(grid)) < 0.02))
    indices = sorted({int(i) for i in np.geomspace(4, 1000, 20)})
    for i in indices:
        quot = cyclic_quotient(i)
        rep_ns = ns_bound(circle, quot, 1, beta=0.5, c_density=0.5, density=closed)
        rep_sl = sublog_bound(circle, quot, 1, closed)
        ok = ok and rep_ns.satisfied and rep_sl.satisfied
    # stripe families: the symbol in the stripe dimension has the circle law
    stripe_density = cosine_density_closed_form(2, 1)
    for m, n in [(4, 5), (6, 11), (9, 8), (12, 13), (5, 7)]:
        quot = diag_quotient(m, n)
        rep_ns = ns_bound(stripe_complex, quot, 3, beta=0.5, c_density=0.5,
                          density=stripe_density)
        rep_sl = sublog_bound(stripe_complex, quot, 3, stripe_density)
        ok = ok and rep_ns.satisfied and rep_sl.satisfied
    _report(8, "ns and sublog bounds dominate exact Betti numbers", ok,
            time.monotonic() - start)


def test_criterion_09_z_dichotomy(zero_complex):
    start = time.monotonic()
    circle = torus_complex(1)
    d = z_dichotomy(circle, 1)
    ok = d.kind == "bounded"
    for i in range(1, 101):
        ok = ok and instantiate(circle, cyclic_quotient(i)).betti(1) == 1
    dz = z_dichotomy(zero_complex, 1)
    ok = ok and dz.is_linear
    for i in range(1, 51):
        ok = ok and instantiate(zero_complex, cyclic_quotient(i)).betti(1) == i
    _report(9, "rank-one dichotomy: bounded circle tower vs linear growth",
            ok, time.monotonic() - start)


def test_criterion_10_density_convergence():
    start = time.monotonic()
    circle = torus_complex(1)
    closed = cosine_density_closed_form(2, 1)
    density = density_by_quotients(circle, 0, [cyclic_quotient(1000)])
    grid = np.arange(0.1, 3.9 + 1e-9, 0.005)
    sup_err = float(np.max(np.abs(density.to_grid(grid) - closed.to_grid(grid))))
    ok = sup_err <= 0.01
    for i in (1, 4, 25, 100, 1000):
        b = instantiate(circle, cyclic_quotient(i)).betti(1)
        ok = ok and Fraction(b, i) <= Fraction(1, i)
    print(f"  sup error at order 1000: {sup_err:.4f}")
    _report(10, "cover density converges to the closed form", ok,
            time.monotonic() - start)


def test_criterion_11_chebyshev_engine():
    start = time.monotonic()
    ok = True
    for n in range(0, 41):
        poly = chebyshev_coefficients(n)
        for x in np.linspace(1.0, 10.0, 10):
            exact_val = float(poly(Fraction(float(x))))
            ok = ok and abs(chebyshev(n, float(x)) - exact_val) <= 1e-10 * abs(exact_val)
    rng = np.random.default_rng(104)
    for theta in rng.uniform(0.0, math.pi, 100):
        n = int(rng.integers(0, 31))
        ok = ok and abs(chebyshev(n, math.cos(theta)) - math.cos(n * theta)) < 1e-10
    for n, z in [(1, Fraction(1, 2)), (6, Fraction(2, 5)), (15, Fraction(1, 9)),
                 (9, 0.35)]:
        p = luck_polynomial(n, z)
        ok = ok and p.coefficients()(Fraction(0)) == 1
    _report(11, "Chebyshev recurrence/closed form/normalization checks", ok,
            time.monotonic() - start)
