import numpy as np
import pytest

from l2growth import (FreeAbelian, GroupRingElement, GroupRingMatrix,
                      LatticeSubgroup, element_order, instantiate, quotient,
                      stripe_prediction, torus_complex)
from l2growth.errors import CrossCheckMismatch, DimensionTooLow, RankOutOfRange
from l2growth.group_ring import EquivariantChainComplex
from l2growth.stripes import (StripeSpec, glue_stripe, product_with_circle,
                              stripe_bound_check)
from conftest import cyclic_quotient, diag_quotient


def test_torus_cell_counts():
    from math import comb
    for n in range(1, 5):
        cx = torus_complex(n)
        assert cx.cells == [comb(n, q) for q in range(n + 1)]
    with pytest.raises(RankOutOfRange):
        torus_complex(5)
    with pytest.raises(RankOutOfRange):
        torus_complex(0)


def test_torus_betti(torus2):
    from math import comb
    for n, mats in [(1, [[[4]]]), (2, [[[2, 0], [0, 3]], [[3, 1], [0, 2]]])]:
        cx = torus_complex(n)
        group = FreeAbelian(n)
        for mat in mats:
            quot = quotient(group, LatticeSubgroup(mat))
            cover = instantiate(cx, quot)
            for q in range(n + 1):
                assert cover.betti(q) == comb(n, q)


def test_torus3_trivial_cover_betti():
    cx = torus_complex(3)
    quot = quotient(FreeAbelian(3), LatticeSubgroup(np.eye(3, dtype=int).tolist()))
    cover = instantiate(cx, quot)
    assert [cover.betti(q) for q in range(4)] == [1, 3, 3, 1]


def test_product_with_circle_keeps_boundaries_composable(z_one):
    rng = np.random.default_rng(3)
    for _ in range(20):
        a0, a1 = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        entries = [[GroupRingElement(z_one, {(int(rng.integers(-2, 3)),):
                                             int(rng.integers(-3, 4))})
                    for _ in range(a1)] for _ in range(a0)]
        base = EquivariantChainComplex(
            z_one, [a0, a1], {1: GroupRingMatrix(z_one, entries, shape=(a0, a1))})
        prod = product_with_circle(base)  # constructor checks d o d = 0
        assert prod.cells == [a0, a0 + a1, a1]


def test_stripe_spec_guards(torus2):
    with pytest.raises(ValueError):
        StripeSpec(base=torus2, gamma=(0, 0), dim=3)
    with pytest.raises(DimensionTooLow):
        StripeSpec(base=torus2, gamma=(1, 0), dim=2)


def test_glue_stripe_shape(stripe_spec, stripe_complex):
    assert stripe_complex.cells == [1, 2, 1, 1, 1]
    d4 = stripe_complex.boundaries[4]
    assert d4.entries[0][0] == GroupRingElement(
        stripe_complex.group, {(1, 0): 1, (0, 0): -1})
    # stripe two dimensions above the base leaves an empty dimension
    high = glue_stripe(StripeSpec(base=torus_complex(1), gamma=(1,), dim=3))
    assert high.cells == [1, 1, 0, 1, 1]
    assert instantiate(high, cyclic_quotient(4)).betti(3) == 1


def test_tight_example(stripe_spec, stripe_complex, z_two):
    from l2growth import short_length
    for m, n in [(2, 3), (3, 5), (4, 4), (7, 2)]:
        quot = diag_quotient(m, n)
        cover = instantiate(stripe_complex, quot)
        assert cover.betti(3) == n
        assert stripe_prediction(stripe_spec, quot) == n
        assert short_length(z_two, quot.subgroup) == min(m, n)
        rep = stripe_bound_check(stripe_spec, quot)
        assert rep.holds
        if n > m:
            assert rep.prediction == rep.bound  # the bound is achieved
        if m > n:
            assert rep.prediction < rep.bound   # strict slack


def test_trivial_cover_betti_is_one(stripe_complex):
    cover = instantiate(stripe_complex, diag_quotient(1, 1))
    assert cover.betti(3) == 1


def test_circle_base_stripe(circle):
    spec = StripeSpec(base=circle, gamma=(2,), dim=2)
    glued = glue_stripe(spec)
    quot = cyclic_quotient(6)
    assert element_order(quot, (2,)) == 3
    assert stripe_prediction(spec, quot) == 2
    assert instantiate(glued, quot).betti(2) == 2


def test_stripe_prediction_rejects_an_order_not_dividing_the_quotient(circle, monkeypatch):
    quot = cyclic_quotient(6)
    monkeypatch.setattr(quot, "element_orders", lambda: np.full(quot.order, 4))  # a broken quotient
    with pytest.raises(CrossCheckMismatch):
        stripe_prediction(StripeSpec(base=circle, gamma=(2,), dim=2), quot)


def test_no_growth_family_prediction(z_two):
    # kernel of Z^2 -> Z/(2*5*11) x Z/(3*7): coprime orders force order lcm
    a, b = 2 * 5 * 11, 3 * 7
    sub = LatticeSubgroup([[a, 0], [0, b]])
    quot = quotient(z_two, sub)
    spec = StripeSpec(base=torus_complex(2), gamma=(1, 1), dim=3)
    assert element_order(quot, (1, 1)) == a * b
    assert stripe_prediction(spec, quot) == 1


def test_diagonal_family_bound(z_two):
    spec = StripeSpec(base=torus_complex(2), gamma=(1, 1), dim=3)
    for k in (2, 3, 5, 8):
        quot = diag_quotient(k, k)
        assert stripe_prediction(spec, quot) == k
        rep = stripe_bound_check(spec, quot)
        assert rep.holds and rep.bound == pytest.approx(2 * k)


def test_gluing_preserves_low_dimensions(torus2, stripe_complex, z_two):
    for mat in ([[2, 0], [0, 3]], [[3, 1], [1, 3]]):
        quot = quotient(z_two, LatticeSubgroup(mat))
        base_cover = instantiate(torus2, quot)
        glued_cover = instantiate(stripe_complex, quot)
        for j in range(torus2.top_dim):
            assert glued_cover.betti(j) == base_cover.betti(j)
