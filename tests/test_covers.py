import functools
import gc
import math
import weakref
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from l2growth import (CongruenceSubgroup, CoverInstance, EquivariantChainComplex,
                      FreeAbelian, GroupRingElement, GroupRingMatrix, IntegralMatrixGroup,
                      LatticeSubgroup, cosine_density_closed_form, eig_count_bound,
                      instantiate, quotient, short_length, two_cell_complex,
                      verify_trace_equality)
from l2growth import covers, exact, verify
from l2growth.caps import Caps
from l2growth.group_ring import evaluate_polynomial, gamma_trace, laplacian, support_radius
from l2growth.covers import (_equivariant_eigenvalues, _gram_table, _instantiate_matrix,
                             _left_orbits)
from l2growth.errors import (AmbiguousCount, CrossCheckMismatch, ForeignQuotient, L2GrowthError,
                             NonIntegralCoefficient, SizeCapExceeded)
from l2growth.polynomials import Poly
from conftest import cyclic_quotient, diag_quotient


def _laplacian(cover, q):
    """The oracle: the cover Laplacian d_q^T d_q + d_(q+1) d_(q+1)^T, formed from
    the instantiated boundaries (the library forms none)."""
    n = cover.cx.cells[q] * cover.order
    lap = sp.csr_matrix((n, n), dtype=np.int64)
    down, up = cover.boundary(q), cover.boundary(q + 1)
    if down is not None:
        lap = lap + down.T @ down
    if up is not None:
        lap = lap + up @ up.T
    return lap.tocsr()


def test_instantiation_circulant(circle):
    cover = instantiate(circle, cyclic_quotient(3))
    lap = _laplacian(cover, 0).toarray()
    assert (np.diag(lap) == 2).all()
    assert lap.sum() == 0
    assert (lap == lap.T).all()


def test_instantiation_trivial_quotient_is_augmentation(circle, stripe_complex):
    cover = instantiate(circle, cyclic_quotient(1))
    assert _laplacian(cover, 0).toarray() == np.array([[0]])
    cover2 = instantiate(stripe_complex, diag_quotient(1, 1))
    # every entry collapses to its coefficient sum
    d4 = cover2.boundary(4).toarray()
    assert d4 == np.array([[0]])


def test_instantiation_torus_symmetric(torus2):
    cover = instantiate(torus2, diag_quotient(2, 3))
    lap = _laplacian(cover, 1).toarray()
    assert lap.shape == (12, 12)
    assert (lap == lap.T).all()


def test_betti_circle_covers(circle):
    for i in (1, 2, 5, 17, 50):
        cover = instantiate(circle, cyclic_quotient(i))
        assert cover.betti(0) == 1
        assert cover.betti(1) == 1


def test_betti_torus_covers(torus2, z_two):
    for mat in ([[2, 0], [0, 3]], [[3, 1], [0, 2]], [[4, 0], [0, 4]], [[1, 0], [0, 1]]):
        quot = quotient(z_two, LatticeSubgroup(mat))
        cover = instantiate(torus2, quot)
        assert [cover.betti(i) for i in range(3)] == [1, 2, 1]


def test_betti_stripe_cover(stripe_complex, z_two):
    quot = diag_quotient(2, 3)
    assert CoverInstance(stripe_complex, quot).betti(3) == 3


def test_eigenvalues_examples(circle, gap_complex, zero_complex):
    gc = instantiate(gap_complex, cyclic_quotient(4))
    assert np.allclose(gc.eigenvalues(1), [1, 5, 5, 9])
    cc = instantiate(circle, cyclic_quotient(2))
    assert np.allclose(cc.eigenvalues(0), [0, 4])
    zc = instantiate(zero_complex, cyclic_quotient(5))
    assert np.allclose(zc.eigenvalues(1), np.zeros(5))


def test_count_eigs_below(circle, gap_complex):
    gc = instantiate(gap_complex, cyclic_quotient(4))
    assert gc.count_eigs_below(1, 2.0) == 1
    assert gc.count_eigs_below(1, 0.5) == 0
    # the spectrum is {1, 5, 5, 9}: at 9 itself rounding could give 3 or 4, so
    # the count is refused; a step of 1e-6 to either side decides it
    with pytest.raises(AmbiguousCount, match=r"^eigenvalue 9 lies within the solver error "):
        gc.count_eigs_below(1, 9.0)
    assert gc.count_eigs_below(1, 9.0 - 1e-6) == 3
    assert gc.count_eigs_below(1, 9.0 + 1e-6) == 4
    cc = instantiate(circle, cyclic_quotient(2))
    assert cc.count_eigs_below(0, 0.0) == 1


def test_counts_at_certified_zeros_and_clear_of_the_error(sanov_group):
    # the congruence covers' counts: the presentation complex's zeros at 0 are
    # the certified Betti numbers, and the gap complex's eigenvalue 1 lies
    # 2e-9 from 1 - 2e-9, far past the solver error
    g = sanov_group
    quot = quotient(g, CongruenceSubgroup(5))
    gap = two_cell_complex(g, GroupRingElement(g, {g.identity: 2, g.generators[0]: -1}))
    d1 = GroupRingMatrix(g, [[GroupRingElement(g, {h: 1, g.identity: -1})
                              for h in g.generators]], shape=(1, 2))
    presentation = EquivariantChainComplex(g, [1, 2], {1: d1})
    for q in range(2):
        cover = CoverInstance(presentation, quot)
        assert cover.count_eigs_below(q, 0.0) == cover.betti(q)
        cover = CoverInstance(gap, quot)
        assert cover.count_eigs_below(q, 1 - 2e-9) == 0
        assert cover._eig_errors[q] < 1e-11
        assert np.min(np.abs(cover.eigenvalues(q) - 1)) < 1e-12


def test_eigenvalue_size_cap(circle):
    quot = cyclic_quotient(60)
    cover = CoverInstance(circle, quot, Caps(eig=10))
    with pytest.raises(SizeCapExceeded):
        cover.eigenvalues(0)
    # the cap holds on every cover, whether another one solved the Gram already or not
    CoverInstance(circle, quot).eigenvalues(0)
    with pytest.raises(SizeCapExceeded, match=r"^Gram matrix size 60 of boundary 1 exceeds "
                                              r"eigensolver cap 10$"):
        CoverInstance(circle, quot, Caps(eig=10)).eigenvalues(1)


def test_zeros_of_a_large_circle_cover_are_counted_by_betti(circle):
    # the circle's first nonzero eigenvalue 2 - 2cos(2 pi/20000) is about 9.9e-8
    cover = CoverInstance(circle, cyclic_quotient(20000), Caps(order=10 ** 6, eig=10 ** 6))
    eigs = cover.eigenvalues(0)
    assert int(np.count_nonzero(eigs == 0.0)) == 1 == cover.betti(0)
    assert 9e-8 < eigs[1] < 1e-7


def test_zeros_not_separated_by_the_solver_error_raise(circle, monkeypatch):
    solve = covers._equivariant_eigenvalues
    monkeypatch.setattr(covers, "_equivariant_eigenvalues",
                        lambda *args: solve(*args) + 1e-9)
    with pytest.raises(CrossCheckMismatch, match="not separated"):
        instantiate(circle, cyclic_quotient(5)).eigenvalues(0)


def test_instantiation_order_cap(torus2):
    from l2growth.errors import OrderCapExceeded
    with pytest.raises(OrderCapExceeded):
        CoverInstance(torus2, diag_quotient(6, 6), Caps(order=50))


def test_normalized_trace_examples(circle):
    c3 = instantiate(circle, cyclic_quotient(3))
    assert c3.normalized_trace(Poly([0, 1]), 0) == 2
    assert c3.normalized_trace(Poly([1]), 0) == 1
    c1 = instantiate(circle, cyclic_quotient(1))
    assert c1.normalized_trace(Poly([0, 1]), 0) == 0


def test_trace_equality_reports(circle, gap_complex):
    rep = verify_trace_equality(circle, cyclic_quotient(3), 0, Poly([0, 1]))
    assert rep.condition_met and rep.equal and rep.lhs == 2
    rep1 = verify_trace_equality(circle, cyclic_quotient(1), 0, Poly([0, 1]))
    assert not rep1.condition_met and not rep1.equal
    assert rep1.lhs == 2 and rep1.rhs == 0
    rep7 = verify_trace_equality(gap_complex, cyclic_quotient(7), 1, Poly([0, 0, 1]))
    assert rep7.condition_met and rep7.equal and rep7.lhs == 33


def test_trace_equality_matrix_group(sanov_group):
    # nonabelian path: R = 1, short(mod 3) = 3, so degree 2 still qualifies
    gap_mat = two_cell_complex(
        sanov_group,
        GroupRingElement(sanov_group, {sanov_group.identity: 2,
                                       sanov_group.generators[0]: -1}))
    quot = quotient(sanov_group, CongruenceSubgroup(3))
    rep = verify_trace_equality(gap_mat, quot, 1, Poly([0, 0, 1]))
    assert rep.condition_met and rep.equal and rep.lhs == 33


def test_trace_equality_zero_support(zero_complex):
    # zero boundary: the symbol has empty support, so every degree qualifies
    rep = verify_trace_equality(zero_complex, cyclic_quotient(5), 1,
                                Poly([2, 3, 1]))
    assert rep.radius == 0 and rep.condition_met and rep.equal
    assert rep.lhs == 2  # p(0) times one cell


def test_trace_exact_rationals(gap_complex):
    cover = instantiate(gap_complex, cyclic_quotient(7))
    p = Poly([Fraction(1, 2), Fraction(-2, 3), Fraction(1, 6)])
    val = cover.normalized_trace(p, 1)
    assert isinstance(val, Fraction)
    # eigenvalues 5 - 4cos(2 pi k/7): mean = 5, mean of squares = 33
    assert val == Fraction(1, 2) - Fraction(2, 3) * 5 + Fraction(1, 6) * 33


def _whole_matrix_traces(m: sp.csr_matrix, deg: int):
    """[tr(M^0), ..., tr(M^deg)] exactly: whole sparse int64 powers, switching to
    dense object products when the next power could overflow int64."""
    n = m.shape[0]
    traces = [n]
    if deg <= 0 or n == 0:
        return traces + [0] * max(0, deg)
    max_a = int(abs(m).max()) if m.nnz else 0
    power = m.copy()
    traces.append(int(power.diagonal().sum()))
    max_p = max_a
    obj = None
    for _ in range(deg - 1):
        if obj is None:
            if n * max_p * max_a < 2 ** 62:
                power = power @ m
                max_p = int(abs(power).max()) if power.nnz else 0
                traces.append(int(power.diagonal().sum()))
                continue
            obj = power.toarray().astype(object)
            dense_m = m.toarray().astype(object)
        obj = obj @ dense_m
        traces.append(int(np.trace(obj)))
    return traces


def _assert_trace_is_the_whole_matrix_one(cover, q, p):
    traces = _whole_matrix_traces(_laplacian(cover, q), p.degree)
    whole = sum(Fraction(c) * t for c, t in zip(p.coeffs, traces))
    val = cover.normalized_trace(p, q)
    assert isinstance(val, Fraction) and val == Fraction(whole, cover.order)


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(st.integers(0, 2 ** 32 - 1))
def test_trace_at_one_element_is_the_whole_matrix_trace(seed):
    rng = np.random.default_rng(seed)
    cx = verify.random_complex(rng)
    cover = CoverInstance(cx, verify.random_quotient(rng, cx.group))
    for q in range(cx.top_dim + 1):
        _assert_trace_is_the_whole_matrix_one(cover, q, verify._random_poly(rng, 4))


@pytest.mark.parametrize("m", [3, 5, 7])
def test_congruence_trace_at_one_element_is_the_whole_matrix_trace(sanov_group, m):
    quot = quotient(sanov_group, CongruenceSubgroup(m))
    rng = np.random.default_rng(m)
    for cx in _matrix_group_complexes(sanov_group):
        cover = instantiate(cx, quot)
        for q in range(2):
            _assert_trace_is_the_whole_matrix_one(cover, q, verify._random_poly(rng, 4))


def test_zero_laplacian_trace_builds_no_dense_matrix(zero_complex, monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("dense copy of a sparse matrix")

    for cls in (sp.csr_matrix, sp.csc_matrix, sp.coo_matrix):
        monkeypatch.setattr(cls, "toarray", refuse)
    cover = instantiate(zero_complex, cyclic_quotient(2000))
    # p(0) = 1 on the one cell of each element
    assert cover.normalized_trace(Poly([1, -2, 3, 5]), 1) == 1


def test_fractional_coefficient_is_refused(z_one):
    half_g_minus_one = GroupRingElement(z_one, {(1,): Fraction(1, 2), (0,): -1})
    with pytest.raises(NonIntegralCoefficient):
        CoverInstance(two_cell_complex(z_one, half_g_minus_one), cyclic_quotient(3))
    assert issubclass(NonIntegralCoefficient, L2GrowthError)
    assert issubclass(NonIntegralCoefficient, ValueError)


def test_boundaries_that_could_pass_int64_are_refused(z_one):
    # 2^62 (g + g^2 + g^3 + g^4) on Z/1 sums to 2^64, which int64 wraps to 0
    wraps = GroupRingElement(z_one, {(k,): 2 ** 62 for k in (1, 2, 3, 4)})
    for d1 in (wraps, GroupRingElement(z_one, {(1,): 2 ** 63})):
        with pytest.raises(SizeCapExceeded):
            CoverInstance(two_cell_complex(z_one, d1), cyclic_quotient(1))
    assert issubclass(SizeCapExceeded, L2GrowthError)
    # the bound is on row and column L1 norms: below 2^31 instantiates, at 2^31 not
    g = GroupRingElement(z_one, {(1,): 2 ** 30})
    column = EquivariantChainComplex(z_one, [2, 1], {1: GroupRingMatrix(z_one, [[g], [g]])})
    with pytest.raises(SizeCapExceeded):
        CoverInstance(column, cyclic_quotient(3))
    below = GroupRingElement(z_one, {(1,): 2 ** 30, (2,): 2 ** 30 - 1})
    assert _instantiate_matrix(GroupRingMatrix(z_one, [[below]]), cyclic_quotient(1))[0].data \
        == [2 ** 31 - 1]


def test_a_table_that_is_no_group_action_fails_the_composition_check(torus2):
    # on Z/2 x Z/3 = Z/6, (1, 0) given a table that moves every element, as
    # (1, 0) does, but no longer commutes with (0, 1): d_1 d_2 = [x - 1, y - 1]
    # [1 - y; x - 1] = yx - xy is not zero on the cover
    # here xy and yx agree at element 0 but not elsewhere
    quot = diag_quotient(2, 3)
    act = quot.right_mult_indices
    moved = np.array([3, 4, 5, 1, 2, 0])
    quot.right_mult_indices = lambda g: moved if g == (1, 0) else act(g)
    with pytest.raises(CrossCheckMismatch, match="^composed tables meet at "
                                                 "element 0 and differ: no group action$"):
        CoverInstance(torus2, quot)
    # with this table they differ at every cell, so each product group is one
    # table, and the groups sum to yx - xy
    quot = diag_quotient(2, 3)
    act = quot.right_mult_indices
    moved = np.array([1, 0, 4, 2, 5, 3])
    quot.right_mult_indices = lambda g: moved if g == (1, 0) else act(g)
    with pytest.raises(CrossCheckMismatch, match="^instantiated boundaries 1,2 do not "
                                                 "compose to zero$"):
        CoverInstance(torus2, quot)
    # a table that swaps elements 0 and 1 only meets the identity's in x - 1
    quot = diag_quotient(2, 3)
    act = quot.right_mult_indices
    swap = np.array([1, 0, 2, 3, 4, 5])
    quot.right_mult_indices = lambda g: swap if g == (1, 0) else act(g)
    with pytest.raises(CrossCheckMismatch, match="^two tables of one entry meet at a cell: "
                                                 "no group action$"):
        CoverInstance(torus2, quot)
    assert CoverInstance(torus2, diag_quotient(2, 3)).betti(1) == 2


def test_instantiation_stores_no_zeros(circle, z_two):
    # g - 1 cancels where g lies in the subgroup: on Z/1, and (2, 0) in 2Z x 3Z
    g_minus_one = GroupRingElement(z_two, {(2, 0): 1, (0, 0): -1})
    for cx, quot in ((circle, cyclic_quotient(1)),
                     (two_cell_complex(z_two, g_minus_one), diag_quotient(2, 3))):
        d1 = _instantiate_matrix(cx.boundaries[1], quot)[0]
        assert d1.nnz == d1.count_nonzero() == 0


def presentation_complex(group):
    """One vertex and an edge per generator g, with boundary g - 1."""
    e = group.identity
    row = [GroupRingElement(group, {g: 1, e: -1}) for g in group.generators]
    return EquivariantChainComplex(group, [1, len(row)], {
        1: GroupRingMatrix(group, [row], shape=(1, len(row)))})


def tree_closed_walks(length, degree=4):
    """W_0, ..., W_length: the closed walks of each length at a vertex of the
    degree-regular tree, counted by distance from the start (Kesten, Trans.
    AMS 92, 1959): from the start every step leads out, elsewhere one leads
    back and degree - 1 lead out."""
    by_distance, walks = [1], [1]
    for _ in range(length):
        nxt = [0] * (len(by_distance) + 1)
        for r, c in enumerate(by_distance):
            if r:
                nxt[r - 1] += c
            nxt[r + 1] += (degree - 1 if r else degree) * c
        by_distance = nxt
        walks.append(by_distance[0])
    return walks


@pytest.mark.parametrize("k", [2, 3])
def test_presentation_traces_meet_the_tree_below_short(k):
    # On the presentation complex of the free Sanov group, Delta_0 = 4 - sum g^(+-1),
    # so tr(Delta_0^j) / order = sum_i C(j, i) 4^(j - i) (-1)^i W_i, W_i the closed
    # walks of the quotient's Cayley graph.  They are the tree's for i < short, as no
    # kernel word is shorter, and a kernel word of length short adds closed walks
    # the tree lacks: an oracle for short that shares no code with its search.
    group = IntegralMatrixGroup(2, [[[1, k], [0, 1]], [[1, 0], [k, 1]]])
    cx = presentation_complex(group)
    for m in (3, 5, 7, 9, 11, 13):
        sub = CongruenceSubgroup(m)
        s = short_length(group, sub)
        cover = CoverInstance(cx, quotient(group, sub))
        walks = tree_closed_walks(s)
        for j in range(1, s + 1):
            tree = sum(math.comb(j, i) * 4 ** (j - i) * (-1) ** i * walks[i]
                       for i in range(j + 1))
            assert (cover.normalized_trace([0] * j + [1], 0) == tree) == (j < s), (m, j)


@pytest.mark.parametrize("k", [2, 3])
def test_trace_equality_on_random_sanov_complexes(k):
    # Two-cell complexes whose boundary is a few short words of the Sanov group,
    # on covers mod 3-13: below deg p < short / R the group trace of p(Delta) is
    # the cover's normalized trace, and the cover's Euler characteristic is
    # index * chi (chi = 0 here).
    group = IntegralMatrixGroup(2, [[[1, k], [0, 1]], [[1, 0], [k, 1]]])
    gens = group.symmetric_generators()
    rng = np.random.default_rng(100 + k)
    quotients, met = {}, 0
    for _ in range(40):
        terms = {}
        for _ in range(int(rng.integers(1, 4))):
            word = [gens[i] for i in rng.integers(0, len(gens), size=int(rng.integers(0, 3)))]
            el = functools.reduce(group.mul, word, group.identity)
            terms[el] = terms.get(el, 0) + int(rng.choice([-2, -1, 1, 2]))
        if not any(terms.values()):
            continue
        cx = two_cell_complex(group, GroupRingElement(group, terms))
        m = int(rng.integers(3, 14))
        if m not in quotients:
            quotients[m] = (quotient(group, CongruenceSubgroup(m)),
                            short_length(group, CongruenceSubgroup(m)))
        quot, s = quotients[m]
        cover = CoverInstance(cx, quot)
        assert cover.euler_characteristic() == 0
        q = int(rng.integers(0, 2))
        p = verify._random_poly(rng)
        lap = laplacian(cx, q)
        radius = support_radius(lap)
        if radius == 0 or p.degree < s / radius:
            met += 1
            assert gamma_trace(evaluate_polynomial(p, lap)) == cover.normalized_trace(p, q)
    assert met >= 20, met


def test_quotient_of_a_smaller_free_abelian_group_is_refused(torus2):
    with pytest.raises(ForeignQuotient):
        CoverInstance(torus2, cyclic_quotient(5))  # Z/5 under Z^2
    assert issubclass(ForeignQuotient, L2GrowthError)
    assert issubclass(ForeignQuotient, ValueError)
    # groups compare by value: a separate Z^2 object is the same group
    assert CoverInstance(torus2, diag_quotient(5, 5)).betti(1) == 2


def test_quotient_of_a_larger_free_abelian_group_is_refused(circle):
    with pytest.raises(ForeignQuotient):
        CoverInstance(circle, diag_quotient(5, 5))  # Z^2/5Z^2 under Z


def test_quotient_of_another_matrix_group_is_refused(sanov_group):
    ts = IntegralMatrixGroup(2, [[[1, 1], [0, 1]], [[0, -1], [1, 0]]])
    quot = quotient(sanov_group, CongruenceSubgroup(3))
    with pytest.raises(ForeignQuotient):
        CoverInstance(presentation_complex(ts), quot)
    # a separate group object with the same generators is the same group
    same = IntegralMatrixGroup(2, sanov_group.generators)
    cover = CoverInstance(presentation_complex(same), quot)
    assert (cover.betti(0), cover.betti(1)) == (1, quot.order + 1)


def test_euler_characteristic_multiplicative(torus2, stripe_complex, z_two):
    for mat in ([[2, 0], [0, 3]], [[3, 1], [1, 2]]):
        quot = quotient(z_two, LatticeSubgroup(mat))
        assert instantiate(torus2, quot).euler_characteristic() == 0
        chi_w = sum((-1) ** q * a for q, a in enumerate(stripe_complex.cells))
        cover = instantiate(stripe_complex, quot)
        assert cover.euler_characteristic() == quot.order * chi_w
    # congruence covers of the presentation complex (chi = -1) and the gap complex (chi = 0)
    for k in (2, 3):
        group = IntegralMatrixGroup(2, [[[1, k], [0, 1]], [[1, 0], [k, 1]]])
        for m in (3, 5, 7, 11, 13):
            quot = quotient(group, CongruenceSubgroup(m))
            for cx in _matrix_group_complexes(group):
                chi = sum((-1) ** q * a for q, a in enumerate(cx.cells))
                assert instantiate(cx, quot).euler_characteristic() == quot.order * chi


def test_luck_limit_shadow(circle, zero_complex):
    # normalized Betti numbers of the circle tower vanish like 1/i
    prev = None
    for i in (1, 2, 4, 8, 16, 32):
        cover = instantiate(circle, cyclic_quotient(i))
        ratio = Fraction(cover.betti(1), i)
        assert ratio == Fraction(1, i)
        if prev is not None:
            assert ratio < prev
        prev = ratio
    # zero Laplacian: linear growth regime
    for i in (1, 5, 20, 50):
        cover = instantiate(zero_complex, cyclic_quotient(i))
        assert cover.betti(1) == i


def test_betti_equals_nullity_and_eigcount(z_two):
    rng = np.random.default_rng(12)
    from l2growth.verify import random_complex, random_quotient
    from l2growth import exact
    for _ in range(25):
        cx = random_complex(rng)
        quot = random_quotient(rng, cx.group, max_index=60)
        cover = instantiate(cx, quot)
        for q in range(cx.top_dim + 1):
            if cx.cells[q] == 0:
                continue
            b = cover.betti(q)
            null = exact.kernel_certified(_laplacian(cover, q))[0]
            assert b == null
            eigs = cover.eigenvalues(q)
            assert int(np.count_nonzero(np.abs(eigs) < 1e-7)) == b


def _matrix_group_complexes(group):
    """The presentation complex of <g1, g2> and the gap complex 2 - g1."""
    g1, g2 = group.generators
    e = group.identity
    el = lambda terms: GroupRingElement(group, terms)  # noqa: E731
    presentation = EquivariantChainComplex(group, [1, 2], {1: GroupRingMatrix(
        group, [[el({g1: 1, e: -1}), el({g2: 1, e: -1})]], shape=(1, 2))})
    gap = two_cell_complex(group, el({e: 2, g1: -1}))
    return presentation, gap


def _assert_dense_spectrum(eigs, lap):
    """``eigs`` is the dense ``eigvalsh`` spectrum of ``lap`` within the solvers' rounding.

    Each solver returns the eigenvalues of a matrix within p(N) * eps * ||L||_2
    of L (LAPACK Users' Guide, 3rd ed., sec. 4.7, p(N) = N), ||L||_2 is at most
    the largest absolute row sum, and both solvers are charged: the term
    ``certify_gap`` uses, at the size N of the whole Laplacian.
    """
    norm = float(abs(lap).sum(axis=1).max()) if lap.nnz else 0.0
    bound = 2 * lap.shape[0] * math.ulp(1.0) * norm
    dense = np.linalg.eigvalsh(lap.toarray().astype(float))
    assert eigs.shape == dense.shape
    assert np.abs(eigs - dense).max(initial=0.0) <= bound


@pytest.mark.parametrize("m", [5, 7])
def test_component_eigenvalues_match_dense(sanov_group, m):
    quot = quotient(sanov_group, CongruenceSubgroup(m))
    presentation, gap = _matrix_group_complexes(sanov_group)
    h, r = quot.max_order_element()
    assert r == 2 * m  # minus a unipotent element
    for cx in (presentation, gap):
        cover = instantiate(cx, quot)
        for q in range(2):
            _assert_dense_spectrum(cover.eigenvalues(q), _laplacian(cover, q))
        # d_1's Gram on its smaller side, the vertices: one cell per element
        assert cover.spectrum_blocks == {1: (r, quot.order // r)}


def test_component_eigenvalues_zero_complex(zero_complex):
    cover = instantiate(zero_complex, cyclic_quotient(7))
    eigs = cover.eigenvalues(1)
    assert eigs.tolist() == [0.0] * 7
    assert cover.spectrum_blocks == {1: (7, 1)}  # d_1 = 0, still solved as 7 blocks
    _assert_dense_spectrum(eigs, _laplacian(cover, 1))


def test_connected_laplacian_spectrum_is_the_dense_one(circle):
    # the circle's Laplacians are connected, and the cyclic quotient splits them
    # into 1 x 1 blocks; the spectrum is the dense one within rounding
    for n in (1, 5, 300):
        cover = instantiate(circle, cyclic_quotient(n))
        for q in range(2):
            _assert_dense_spectrum(cover.eigenvalues(q), _laplacian(cover, q))
        assert cover.spectrum_blocks == {1: (n, 1)}


def test_component_eigenvalues_mixed_block_sizes(z_two):
    # a hand-made boundary on Z^2/(2Z x 4Z), two cells on either side: entry
    # (i, j) is the sum of C_g[i, j] g, with a duplicate element among the g
    quot = diag_quotient(2, 4)
    rng = np.random.default_rng(5)
    zero = GroupRingElement.zero(z_two)
    entries = [[zero, zero], [zero, zero]]
    for g in ((0, 0), (1, 0), (0, 1), (1, 3), (0, 1)):
        for (i, j), c in np.ndenumerate(rng.integers(-3, 4, size=(2, 2))):
            entries[i][j] = entries[i][j] + GroupRingElement(z_two, {g: int(c)})
    cx = EquivariantChainComplex(z_two, [2, 2], {1: GroupRingMatrix(z_two, entries,
                                                                      shape=(2, 2))})
    orbit, offset, r = _left_orbits(quot)
    assert r == 4 and orbit.max() + 1 == 2
    cover = instantiate(cx, quot)
    for q in range(2):
        _assert_dense_spectrum(cover.eigenvalues(q), _laplacian(cover, q))
    assert cover.spectrum_blocks == {1: (4, 4)}


def test_component_eigenvalues_empty():
    empty = (np.zeros(0, dtype=np.int64),) * 3 + (np.zeros((0, 3), dtype=np.intp),)
    table, norm = _gram_table(empty, (0, 0), *_left_orbits(cyclic_quotient(3)))
    assert table.shape == (0, 0, 3) and norm == 0
    assert _equivariant_eigenvalues(table).shape == (0,)


def _sl2_cases():
    for k in (2, 3):
        for m in (3, 5, 7, 9):
            for name in ("presentation", "gap"):
                yield pytest.param(("sl2", k, m, name), id=f"sl2_k{k}_mod{m}_{name}")


def _cover_case(case, circle, torus2, stripe_complex):
    kind = case[0]
    if kind == "sl2":
        _, k, m, name = case
        group = IntegralMatrixGroup(2, [[[1, k], [0, 1]], [[1, 0], [k, 1]]])
        presentation, gap = _matrix_group_complexes(group)
        cx = presentation if name == "presentation" else gap
        return instantiate(cx, quotient(group, CongruenceSubgroup(m)))
    if kind == "lattice":
        return instantiate(torus2, quotient(FreeAbelian(2), LatticeSubgroup(case[1])))
    if kind == "circle":
        return instantiate(circle, cyclic_quotient(case[1]))
    if kind == "stripe":
        return instantiate(stripe_complex, diag_quotient(2, 3))
    return instantiate(stripe_complex, diag_quotient(1, 1))  # the trivial quotient


@pytest.mark.parametrize("case", [
    *_sl2_cases(),
    pytest.param(("lattice", [[3, 1], [0, 2]]), id="lattice_3_1_0_2"),
    pytest.param(("lattice", [[4, 2], [1, 3]]), id="lattice_4_2_1_3"),
    pytest.param(("lattice", [[2, 1], [-1, 3]]), id="lattice_2_1_m1_3"),
    pytest.param(("lattice", [[4, 2], [2, 4]]), id="lattice_4_2_2_4"),
    *[pytest.param(("circle", n), id=f"circle_{n}") for n in (1, 2, 5, 300)],
    pytest.param(("trivial",), id="trivial_stripe"),
    # boundaries 1 x 2, 2 x 1 and 1 x 1: Grams on both sides, and Laplacians
    # with one part, two parts or none
    pytest.param(("stripe",), id="stripe_2_3"),
])
def test_block_spectrum_is_the_dense_one(case, circle, torus2, stripe_complex):
    cover = _cover_case(case, circle, torus2, stripe_complex)
    for q in range(cover.cx.top_dim + 1):
        eigs = cover.eigenvalues(q)
        _assert_dense_spectrum(eigs, _laplacian(cover, q))
        assert int(np.count_nonzero(eigs == 0.0)) == cover.betti(q)
    # every boundary's Gram was solved on its smaller side
    assert set(cover.spectrum_blocks) == set(cover.cx.boundaries)
    for j, (r, size) in cover.spectrum_blocks.items():
        assert r == cover.quotient.max_order_element()[1]
        assert r * size == min(cover.boundary(j).shape)


@pytest.mark.parametrize("kind", ["abelian", "congruence"])
def test_left_action_commutes_with_right_action_and_laplacian(kind, torus2, sanov_group):
    if kind == "abelian":
        quot = quotient(FreeAbelian(2), LatticeSubgroup([[4, 2], [1, 3]]))
        cx, gens = torus2, [(1, 0), (0, 1), (2, -1)]
    else:
        quot = quotient(sanov_group, CongruenceSubgroup(5))
        cx, gens = _matrix_group_complexes(sanov_group)[0], sanov_group.symmetric_generators()
    cover = instantiate(cx, quot)
    n = quot.order
    for h in (quot.max_order_element()[0], 1, n - 1):
        left = quot.left_mult_indices(h)
        assert left[0] == h  # h * identity
        for g in gens:
            right = quot.right_mult_indices(g)
            assert left[right[0]] == right[h]  # h * image(g), from either side
            assert np.array_equal(right[left], left[right])
        for q in range(cx.top_dim + 1):
            lap = _laplacian(cover, q)
            perm = (np.arange(cx.cells[q])[:, None] * n + left).ravel()
            assert (lap[perm][:, perm] != lap).nnz == 0


def test_sl2_mod_11_spectrum_runs_as_blocks(sanov_group):
    quot = quotient(sanov_group, CongruenceSubgroup(11))
    presentation, _ = _matrix_group_complexes(sanov_group)
    cover = instantiate(presentation, quot)
    assert _laplacian(cover, 0).shape == (1320, 1320)
    assert int(np.count_nonzero(cover.eigenvalues(0) == 0.0)) == 1
    # d_1 d_1^T runs as r = 22 blocks of 60, not one 1320 x 1320 solve
    assert cover.spectrum_blocks == {1: (22, 60)}
    # Delta_1 (2640 x 2640) is past the default eig cap of 2000, but its one term
    # d_1^T d_1 has the nonzero spectrum of the Gram d_1 d_1^T that Delta_0 solved
    below, above = cover.eigenvalues(0), cover.eigenvalues(1)
    assert cover.betti(1) == 1321 == int(np.count_nonzero(above == 0.0))
    assert np.array_equal(above, np.concatenate([np.zeros(1321), below[1:]]))


@pytest.mark.parametrize("case", [
    pytest.param(("sl2", 2, 5, "presentation"), id="sl2_mod5_presentation"),
    pytest.param(("sl2", 2, 5, "gap"), id="sl2_mod5_gap"),
    pytest.param(("lattice", [[4, 2], [1, 3]]), id="torus2_4_2_1_3"),
])
def test_spectra_build_no_laplacian(case, circle, torus2, stripe_complex):
    cover = _cover_case(case, circle, torus2, stripe_complex)
    assert not hasattr(cover, "laplacian")
    for q in range(cover.cx.top_dim + 1):
        assert len(cover.eigenvalues(q)) == cover.cx.cells[q] * cover.order
        assert cover.count_eigs_below(q, 0.0) == cover.betti(q)


def test_laplacian_spectra_share_the_gram_spectrum(sanov_group):
    # Delta_0 = d_1 d_1^T and Delta_1 = d_1^T d_1 have one nonzero spectrum
    presentation, _ = _matrix_group_complexes(sanov_group)
    cover = instantiate(presentation, quotient(sanov_group, CongruenceSubgroup(5)))
    below, above = cover.eigenvalues(0), cover.eigenvalues(1)
    b0, b1 = cover.betti(0), cover.betti(1)
    assert b1 == cover.order + 1
    assert np.array_equal(above, np.concatenate([np.zeros(b1), below[b0:]]))


def test_gram_zeros_not_separated_raise(gap_complex):
    # 2 - g has no root of unity as a root, so its cover boundary has full rank 4;
    # claiming rank 3 asks the Gram for a zero its lowest eigenvalue 1 cannot give
    cover = instantiate(gap_complex, cyclic_quotient(4))
    cover._entries[1][2] = 3
    with pytest.raises(CrossCheckMismatch, match=r"^the 1 lowest Gram eigenvalues of "
                                                 r"boundary 1 \(exact rank 3\) are not separated"):
        cover.eigenvalues(0)


def test_gram_spectra_are_solved_once_per_quotient(sanov_group, gap_complex, monkeypatch):
    calls = []
    solve = covers._equivariant_eigenvalues
    monkeypatch.setattr(covers, "_equivariant_eigenvalues",
                        lambda table: calls.append(table.shape) or solve(table))
    # three eigenvalue-count bounds on one quotient: one Gram solve
    quot = cyclic_quotient(60)
    density = cosine_density_closed_form(5, 2)
    for lam in (0.5, 2.0, 1.0 - 1e-9):
        eig_count_bound(gap_complex, quot, 1, lam, 1.0, density=density)
    assert calls == [(1, 1, 60)]  # 1 x 1 blocks under an element of order 60
    # two covers of one quotient, both Laplacians each: d_1's Gram on the vertices
    calls.clear()
    presentation, _ = _matrix_group_complexes(sanov_group)
    quot = quotient(sanov_group, CongruenceSubgroup(5))
    for _ in range(2):
        cover = instantiate(presentation, quot)
        for q in range(2):
            cover.eigenvalues(q)
    assert calls == [(12, 12, 10)]  # 12 x 12 blocks under an element of order 10


def test_instantiation_one_permutation_per_element(sanov_group, monkeypatch):
    quot = quotient(sanov_group, CongruenceSubgroup(5))
    presentation, _ = _matrix_group_complexes(sanov_group)
    calls = []
    act = quot.right_mult_indices
    monkeypatch.setattr(quot, "right_mult_indices", lambda g: calls.append(g) or act(g))
    instantiate(presentation, quot)
    # d1 = [g1 - e, g2 - e]: e occurs twice but is acted out once
    assert len(calls) == 3


def test_covers_of_one_quotient_certify_a_shared_boundary_once(monkeypatch, torus2,
                                                                stripe_complex):
    shapes = []
    certified = exact.rank_certified

    def counting(a):
        shapes.append(a.shape)
        return certified(a)

    monkeypatch.setattr(exact, "rank_certified", counting)
    quot = diag_quotient(4, 6)
    glued = instantiate(stripe_complex, quot)
    base = instantiate(torus2, quot)
    # the stripe is glued onto the torus's own boundary objects
    assert glued.boundary(1) is base.boundary(1) and glued.boundary(2) is base.boundary(2)
    assert [glued.betti(j) for j in range(2)] == [base.betti(j) for j in range(2)] == [1, 2]
    assert shapes == [(24, 48), (48, 24)]  # d_1 and d_2 of the torus, each once
    # another quotient object of the same lattice shares nothing
    assert instantiate(torus2, diag_quotient(4, 6)).betti(1) == 2
    assert shapes[2:] == [(24, 48), (48, 24)]


def test_shared_boundaries_leave_with_their_quotient(circle):
    quot = cyclic_quotient(7)
    assert instantiate(circle, quot).betti(1) == 1
    ref = weakref.ref(quot)
    assert len(covers._SHARED[quot]) == 1
    del quot
    gc.collect()
    assert ref() is None


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(st.integers(0, 2 ** 32 - 1))
def test_a_second_cover_has_the_betti_numbers_of_fresh_instantiations(seed):
    rng = np.random.default_rng(seed)
    cx = verify.random_complex(rng)
    quot = verify.random_quotient(rng, cx.group)
    dims = range(cx.top_dim + 1)
    first = [CoverInstance(cx, quot).betti(q) for q in dims]
    ranks = {q: exact.rank_certified(_instantiate_matrix(d, quot)[0])
             for q, d in cx.boundaries.items()}
    fresh = [cx.cells[q] * quot.order - ranks.get(q, 0) - ranks.get(q + 1, 0) for q in dims]
    assert [CoverInstance(cx, quot).betti(q) for q in dims] == fresh == first
