from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from l2growth import (EquivariantChainComplex, FreeAbelian, GroupRingElement,
                      GroupRingMatrix, IntegralMatrixGroup, evaluate_polynomial, gamma_trace,
                      laplacian, norm_bound, support_radius)
from l2growth.errors import (BadChainComplex, DimensionOutOfRange, L2GrowthError,
                             NotSquare, RankOutOfRange, ShapeMismatch)
from l2growth.polynomials import Poly


def _random_element(rng, group, max_terms=4):
    terms = {}
    for _ in range(int(rng.integers(0, max_terms + 1))):
        g = tuple(int(x) for x in rng.integers(-2, 3, size=group.rank))
        c = int(rng.integers(-4, 5))
        terms[g] = terms.get(g, 0) + c
    return GroupRingElement(group, terms)


def _naive_product(x, y):
    # independent convolution oracle
    acc = Counter()
    for g, a in x.terms.items():
        for h, b in y.terms.items():
            acc[tuple(gi + hi for gi, hi in zip(g, h))] += a * b
    return GroupRingElement(x.group, dict(acc))


def test_ring_ops_against_naive_oracle():
    rng = np.random.default_rng(2)
    group = FreeAbelian(2)
    for _ in range(200):
        x = _random_element(rng, group)
        y = _random_element(rng, group)
        assert (x * y) == _naive_product(x, y)
        s = x + y
        for g in set(x.terms) | set(y.terms):
            assert s.coefficient(g) == x.coefficient(g) + y.coefficient(g)


def test_involution_is_an_anti_automorphism():
    rng = np.random.default_rng(3)
    group = FreeAbelian(2)
    for _ in range(100):
        x = _random_element(rng, group)
        y = _random_element(rng, group)
        assert (x * y).star() == y.star() * x.star()
        assert x.star().star() == x


def test_no_zero_coefficients_stored():
    group = FreeAbelian(1)
    x = GroupRingElement(group, {(1,): 2, (0,): 0})
    assert (0,) not in x.terms
    y = x - x
    assert y.is_zero and not y.terms


def test_matrix_product_against_instantiation_oracle(z_two):
    # instantiate(A @ B) == instantiate(A) @ instantiate(B) on a quotient
    from l2growth import LatticeSubgroup, quotient
    from l2growth.covers import CoverInstance

    rng = np.random.default_rng(4)
    quot = quotient(z_two, LatticeSubgroup([[3, 1], [0, 4]]))
    for _ in range(20):
        a = GroupRingMatrix(z_two, [[_random_element(rng, z_two) for _ in range(2)]
                                    for _ in range(2)])
        b = GroupRingMatrix(z_two, [[_random_element(rng, z_two) for _ in range(2)]
                                    for _ in range(2)])
        cx_a = EquivariantChainComplex(z_two, [2, 2], {1: a})
        cx_b = EquivariantChainComplex(z_two, [2, 2], {1: b})
        cx_ab = EquivariantChainComplex(z_two, [2, 2], {1: a @ b})
        inst_a = CoverInstance(cx_a, quot).boundary(1).toarray()
        inst_b = CoverInstance(cx_b, quot).boundary(1).toarray()
        inst_ab = CoverInstance(cx_ab, quot).boundary(1).toarray()
        assert (inst_ab == inst_a @ inst_b).all()


def test_adjoint_is_an_involution():
    rng = np.random.default_rng(5)
    group = FreeAbelian(2)
    m = GroupRingMatrix(group, [[_random_element(rng, group) for _ in range(3)]
                                for _ in range(2)])
    assert m.adjoint().adjoint() == m
    assert m.adjoint().shape == (3, 2)


def test_laplacian_examples(circle, gap_complex, z_one):
    d0 = laplacian(circle, 0)
    assert d0.entries[0][0] == GroupRingElement(z_one, {(0,): 2, (1,): -1, (-1,): -1})
    g1 = laplacian(gap_complex, 1)
    assert g1.entries[0][0] == GroupRingElement(z_one, {(0,): 5, (1,): -2, (-1,): -2})
    empty = EquivariantChainComplex(z_one, [0, 0], {})
    assert laplacian(empty, 0).shape == (0, 0)
    with pytest.raises(DimensionOutOfRange):
        laplacian(circle, 5)


def test_boundary_composition_enforced(z_one):
    d1 = GroupRingMatrix(z_one, [[GroupRingElement(z_one, {(1,): 1, (0,): -1})]])
    d2 = GroupRingMatrix(z_one, [[GroupRingElement.one(z_one)]])
    with pytest.raises(ValueError, match=r"d_1 o d_2"):
        EquivariantChainComplex(z_one, [1, 1, 1], {1: d1, 2: d2})


def test_support_radius_examples(circle, torus2, z_one):
    assert support_radius(laplacian(circle, 0)) == 1
    assert support_radius(GroupRingMatrix.identity(z_one, 3)) == 0
    assert support_radius(laplacian(torus2, 1)) == 1


def test_support_radius_submultiplicative(circle):
    d0 = laplacian(circle, 0)
    r = support_radius(d0)
    power = d0
    for n in range(2, 6):
        power = power @ d0
        assert support_radius(power) <= n * r


def test_norm_bound_examples(circle, gap_complex, z_one):
    assert norm_bound(laplacian(circle, 0)) == 4
    assert norm_bound(GroupRingMatrix.zero(z_one, 2, 2)) == 2
    assert norm_bound(laplacian(gap_complex, 1)) == 9


def test_gamma_trace_examples(circle, z_one):
    d0 = laplacian(circle, 0)
    assert gamma_trace(d0) == 2
    assert gamma_trace(GroupRingMatrix.identity(z_one, 7)) == 7
    assert gamma_trace(d0 @ d0) == 6


def test_evaluate_polynomial_examples(circle, z_one):
    d0 = laplacian(circle, 0)
    sq = evaluate_polynomial(Poly([0, 0, 1]), d0)
    assert sq.entries[0][0] == GroupRingElement(
        z_one, {(0,): 6, (1,): -4, (-1,): -4, (2,): 1, (-2,): 1})
    shifted = evaluate_polynomial(Poly([-2, 1]), d0)
    assert shifted.entries[0][0] == GroupRingElement(z_one, {(1,): -1, (-1,): -1})
    const = evaluate_polynomial(Poly([1]), GroupRingMatrix.zero(z_one, 2, 2))
    assert const == GroupRingMatrix.identity(z_one, 2)


def test_gamma_trace_fourier_consistency(circle, torus2):
    # trace against the group equals the character average of the matrix trace
    from l2growth.pattern import evaluate_matrix_at_characters

    rng = np.random.default_rng(6)
    for cx, q in [(circle, 0), (circle, 1), (torus2, 1), (torus2, 0)]:
        lap = laplacian(cx, q)
        p = Poly([Fraction(rng.integers(-3, 4)) for _ in range(4)])
        symbolic = gamma_trace(evaluate_polynomial(p, lap))
        n = cx.group.rank
        grid_1d = 100 if n == 2 else 10000
        axes = [np.arange(grid_1d) / grid_1d] * n
        mesh = np.meshgrid(*axes, indexing="ij")
        points = np.stack([m.ravel() for m in mesh], axis=-1)
        blocks = evaluate_matrix_at_characters(lap, points)
        eigs = np.linalg.eigvalsh(blocks)
        numeric = float(np.mean(np.sum(p(eigs), axis=1)))
        assert abs(float(symbolic) - numeric) < 1e-8


def test_exact_rational_coefficients(circle):
    d0 = laplacian(circle, 0)
    p = Poly([Fraction(1, 3), Fraction(-1, 7)])
    val = evaluate_polynomial(p, d0)
    assert val.entries[0][0].coefficient((0,)) == Fraction(1, 3) - Fraction(2, 7)
    assert gamma_trace(val) == Fraction(1, 3) - Fraction(2, 7)


def test_every_group_ring_refusal_is_a_library_value_error(z_one):
    one = GroupRingElement.one(z_one)
    g_minus_1 = GroupRingElement(z_one, {(1,): 1, (0,): -1})
    row, col = GroupRingMatrix(z_one, [[one, one]]), GroupRingMatrix(z_one, [[one], [one]])
    sites = [
        (ShapeMismatch, "ragged matrix", lambda: GroupRingMatrix(z_one, [[one, one], [one]])),
        (ShapeMismatch, "shape mismatch", lambda: row + col),
        (ShapeMismatch, "shape mismatch", lambda: row - col),
        (ShapeMismatch, "shape mismatch in product", lambda: row @ row),
        (BadChainComplex, "negative cell count",
         lambda: EquivariantChainComplex(z_one, [1, -1], {})),
        (ShapeMismatch, r"boundary 1 has shape \(1, 2\), expected \(1, 1\)",
         lambda: EquivariantChainComplex(z_one, [1, 1], {1: row})),
        (BadChainComplex, r"d_1 o d_2 != 0 at entry \(0, 0\)",
         lambda: EquivariantChainComplex(z_one, [1, 1, 1],
                                         {1: GroupRingMatrix(z_one, [[g_minus_1]]),
                                          2: GroupRingMatrix(z_one, [[one]])})),
        (NotSquare, "norm bound requires a square matrix", lambda: norm_bound(row)),
        (NotSquare, "trace requires a square matrix", lambda: gamma_trace(row)),
        (NotSquare, "polynomial evaluation requires a square matrix",
         lambda: evaluate_polynomial(Poly([1]), row)),
    ]
    for cls, message, call in sites:
        with pytest.raises(cls, match=f"^{message}$") as info:
            call()
        assert isinstance(info.value, L2GrowthError) and isinstance(info.value, ValueError)


def _one_boundary_complex(group, el):
    d1 = GroupRingMatrix(group, [[GroupRingElement(group, {el: 1, group.identity: -1})]])
    return EquivariantChainComplex(group, [1, 1], {1: d1})


@pytest.mark.parametrize("rank, el", [(1, (1, 0)), (2, (1,)), (2, (1, 0, 0)), (2, (1.5, 0)),
                                      (2, "ab")])
def test_complex_refuses_an_element_not_in_z_n(rank, el):
    with pytest.raises(RankOutOfRange, match=r"is not an element of FreeAbelian\(%d\)" % rank):
        _one_boundary_complex(FreeAbelian(rank), el)


@pytest.mark.parametrize("el", [((1, 2),), ((1, 2), (0, 1), (0, 0)), ((1, 2, 0), (0, 1, 0)),
                                ((1, 2), (0,)), ((1, 0.5), (0, 1)), (1, 0)])
def test_complex_refuses_an_element_not_a_k_by_k_integer_matrix(el):
    group = IntegralMatrixGroup(2, [[[1, 2], [0, 1]], [[1, 0], [2, 1]]])
    with pytest.raises(RankOutOfRange, match="is not an element of IntegralMatrixGroup"):
        _one_boundary_complex(group, el)
