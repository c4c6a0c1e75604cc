import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st
from sympy.polys.matrices import DomainMatrix

from l2growth import (EquivariantChainComplex, FreeAbelian, GroupRingElement,
                      GroupRingMatrix, LatticeSubgroup, betti_by_characters,
                      character_lattice, element_order, exact_kernel_dimension,
                      instantiate, l2_betti, laplacian, quotient, sandwich_check,
                      short_length, torus_complex, two_cell_complex, z_dichotomy)
from l2growth import exact, pattern
from l2growth.errors import (DimensionOutOfRange, ForeignQuotient, L2GrowthError,
                             NonIntegralCoefficient, NotAbelian, NotRankOne,
                             SizeCapExceeded)
from l2growth.stripes import StripeSpec, glue_stripe
from l2growth.verify import _random_entry, random_complex, random_quotient
from conftest import cyclic_quotient, diag_quotient
from cyclotomic_oracle import cyclotomic_polynomial, kernel_dimension_by_minors


def _laurent(el, xs):
    """A group-ring element over Z^n as a sympy Laurent polynomial in xs."""
    return sum((int(c) * sympy.Mul(*(x ** e for x, e in zip(xs, g)))
                for g, c in el.terms.items()), sympy.Integer(0))


def _sympy_matrix(m, xs):
    return sympy.Matrix(m.nrows, m.ncols, lambda i, j: _laurent(m[i, j], xs))


def _generic_nullity(d, q):
    """a minus the rank over QQ(x) of d d* (q = 0) or d* d (q = 1), built in sympy."""
    xs = sympy.symbols(f"x0:{d.group.rank}")
    m = _sympy_matrix(d, xs)
    star = m.T.subs({x: 1 / x for x in xs}, simultaneous=True)
    lap = m * star if q == 0 else star * m
    return lap.rows - DomainMatrix.from_Matrix(lap).convert_to(sympy.QQ.frac_field(*xs)).rank()


def laurent_entries(n):
    return st.dictionaries(st.tuples(*[st.integers(-2, 2)] * n), st.integers(-3, 3),
                           max_size=3)


@st.composite
def one_boundaries(draw):
    """An a0 x a1 boundary over Z^n, n <= 2 and a0, a1 <= 3, of random Laurent entries."""
    group = FreeAbelian(draw(st.integers(1, 2)))
    a0, a1 = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    entries = laurent_entries(group.rank)
    return GroupRingMatrix(group, [[GroupRingElement(group, draw(entries)) for _ in range(a1)]
                                   for _ in range(a0)], shape=(a0, a1))


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(one_boundaries())
def test_l2_betti_is_the_generic_nullity(d):
    cx = EquivariantChainComplex(d.group, [d.nrows, d.ncols], {1: d})
    assert [l2_betti(cx, q) for q in (0, 1)] == [_generic_nullity(d, q) for q in (0, 1)]


def test_character_path_refuses_fractional_coefficients(z_one):
    # d_1 = (1 + g)/2 on Z: truncating each coefficient read the Laplacian as 0 and
    # gave b_1 = 4 on Z/4, where b_1 is 1; cover instantiation refuses it too
    cx = two_cell_complex(z_one, GroupRingElement(z_one, {(0,): Fraction(1, 2),
                                                          (1,): Fraction(1, 2)}))
    message = "^character ranks require integer coefficients, got 1/2$"
    with pytest.raises(NonIntegralCoefficient, match=message):
        betti_by_characters(cx, cyclic_quotient(4), 1, cross_check=False)
    with pytest.raises(NonIntegralCoefficient, match=message):
        exact_kernel_dimension(laplacian(cx, 1), (Fraction(1, 2),))
    with pytest.raises(NonIntegralCoefficient):
        instantiate(cx, cyclic_quotient(4))


def test_character_lattice_examples(z_one, z_two):
    chars = character_lattice(diag_quotient(2, 3))
    assert set(chars) == {(Fraction(j, 2), Fraction(k, 3))
                          for j in range(2) for k in range(3)}
    chars5 = character_lattice(cyclic_quotient(5))
    assert set(chars5) == {(Fraction(k, 5),) for k in range(5)}
    q = quotient(z_two, LatticeSubgroup([[2, 1], [0, 3]]))
    chars6 = character_lattice(q)
    assert len(chars6) == 6 and len(set(chars6)) == 6
    # closed under componentwise addition mod 1
    charset = set(chars6)
    for x in charset:
        for y in charset:
            s = tuple((a + b) % 1 for a, b in zip(x, y))
            assert s in charset
    # kills every subgroup generator
    for col in q.subgroup.columns():
        for x in charset:
            assert sum(xk * ck for xk, ck in zip(x, col)).denominator == 1


def test_betti_by_characters_refuses_a_quotient_of_another_group(torus2):
    with pytest.raises(ForeignQuotient):
        betti_by_characters(torus2, cyclic_quotient(5), 1, cross_check=False)


def test_betti_by_characters_examples(circle, torus2, stripe_complex, zero_complex):
    for i in (1, 2, 7, 30):
        b, rep = betti_by_characters(circle, cyclic_quotient(i), 0)
        assert b == 1 and rep.pattern_count == 1
    b, rep = betti_by_characters(torus2, diag_quotient(2, 3), 1)
    assert b == 2 and rep.pattern_count == 1
    assert rep.kernel_characters[0][0] == (Fraction(0), Fraction(0))
    b3, _ = betti_by_characters(stripe_complex, diag_quotient(2, 3), 3)
    assert b3 == 3
    for i in (3, 8):
        b, rep = betti_by_characters(zero_complex, cyclic_quotient(i), 1)
        assert b == i and rep.pattern_count == i


def test_betti_by_characters_on_a_dimension_without_cells(torus2):
    cx = glue_stripe(StripeSpec(torus2, (1, 0), 4))
    assert cx.cells == [1, 2, 1, 0, 1, 1]
    b, rep = betti_by_characters(cx, diag_quotient(3, 4), 3)
    assert (b, rep.kernel_characters, rep.exact_betti) == (0, [], 0)


def test_sandwich_examples(circle, torus2, zero_complex):
    sw = sandwich_check(torus2, diag_quotient(4, 5), 1)
    assert sw.holds and sw.pattern_count == 1 and sw.betti == 2 and sw.a == 2
    sw2 = sandwich_check(circle, cyclic_quotient(7), 0)
    assert sw2.holds and (sw2.pattern_count, sw2.betti, sw2.a) == (1, 1, 1)
    for i in (4, 9):
        sw3 = sandwich_check(zero_complex, cyclic_quotient(i), 1)
        assert sw3.holds and sw3.pattern_count == sw3.betti == i


def test_z_dichotomy(circle, zero_complex, gap_complex, torus2):
    d = z_dichotomy(circle, 1)
    assert d.kind == "bounded" and d.bound == 2
    for i in range(1, 40):
        assert instantiate(circle, cyclic_quotient(i)).betti(1) <= d.bound
    dz = z_dichotomy(zero_complex, 1)
    assert dz.is_linear
    for i in (1, 10, 25):
        assert instantiate(zero_complex, cyclic_quotient(i)).betti(1) == i
    dg = z_dichotomy(gap_complex, 1)
    assert dg.kind == "bounded"
    for i in range(1, 40):
        assert instantiate(gap_complex, cyclic_quotient(i)).betti(1) == 0
    with pytest.raises(NotRankOne):
        z_dichotomy(torus2, 1)
    # nine circles side by side, then with a tenth cell of zero boundary: past
    # the eight cells where a symbolic determinant was capped
    z_one = circle.group
    nine = [[circle.boundaries[1][0, 0] if i == j else GroupRingElement.zero(z_one)
             for j in range(9)] for i in range(9)]
    circles = EquivariantChainComplex(z_one, [9, 9], {1: GroupRingMatrix(z_one, nine)})
    assert z_dichotomy(circles, 1) == z_dichotomy(circles, 0)
    assert (z_dichotomy(circles, 1).kind, z_dichotomy(circles, 1).bound) == ("bounded", 18)
    wider = [row + [GroupRingElement.zero(z_one)] for row in nine]
    linear = EquivariantChainComplex(z_one, [9, 10], {1: GroupRingMatrix(z_one, wider)})
    assert z_dichotomy(linear, 1).is_linear and l2_betti(linear, 1) == 1
    assert instantiate(linear, cyclic_quotient(6)).betti(1) == 9 + 6


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    # degree is Euler phi
    from math import gcd
    for m in range(1, 40):
        phi = sum(1 for k in range(1, m + 1) if gcd(k, m) == 1)
        assert len(cyclotomic_polynomial(m)) - 1 == phi


def test_exact_kernel_dimension(circle, z_one):
    lap = laplacian(circle, 0)
    assert exact_kernel_dimension(lap, (Fraction(0),)) == 1
    assert exact_kernel_dimension(lap, (Fraction(1, 3),)) == 0
    # symbol 2 + g + g^{-1} vanishes exactly at the half-turn character
    cx = two_cell_complex(z_one, GroupRingElement(z_one, {(1,): 1, (0,): 1}))
    lap2 = laplacian(cx, 0)
    assert exact_kernel_dimension(lap2, (Fraction(1, 2),)) == 1
    assert exact_kernel_dimension(lap2, (Fraction(1, 4),)) == 0
    b, rep = betti_by_characters(cx, cyclic_quotient(4), 0)
    assert b == 1 and rep.kernel_characters[0][0] == (Fraction(1, 2),)
    b2, _ = betti_by_characters(cx, cyclic_quotient(5), 0)
    assert b2 == 0


def test_z_dichotomy_on_random_rank_one_complexes():
    # linear iff sympy's determinant of the Laplacian vanishes; then every cover
    # has b_q >= index * b^(2), and otherwise b_q <= the reported bound
    rng = np.random.default_rng(7)
    (t,) = xs = sympy.symbols("x0:1")
    pairs = bounded = 0
    while pairs < 60:
        cx = random_complex(rng)
        if cx.group.rank != 1:
            continue
        found = [(q, z_dichotomy(cx, q), l2_betti(cx, q)) for q, a in enumerate(cx.cells) if a]
        covers = [instantiate(cx, cyclic_quotient(i)) for i in range(1, 41)]
        for q, d, b2 in found:
            det = _sympy_matrix(laplacian(cx, q), xs).det(method="berkowitz")
            assert d.is_linear == (sympy.expand(det) == 0) == (b2 > 0)
            for i, cover in enumerate(covers, 1):
                b = cover.betti(q)
                assert b >= i * b2 if d.is_linear else b <= d.bound
            pairs += 1
            bounded += not d.is_linear
    assert 10 <= bounded <= pairs - 10


def test_covers_have_at_least_index_times_l2_betti():
    # a character's rank is at most the generic rank, so each of the index
    # characters has kernel dimension at least b^(2)
    rng = np.random.default_rng(26)
    positive = 0
    for _ in range(40):
        cx = random_complex(rng)
        quot = random_quotient(rng, cx.group, max_index=60)
        cover = instantiate(cx, quot)
        for q in range(cx.top_dim + 1):
            b2 = l2_betti(cx, q)
            assert cover.betti(q) >= quot.order * b2
            positive += b2 > 0
    assert positive >= 5


def test_l2_betti_past_the_byte_budget_is_refused_before_it_builds_the_grid(z_two):
    # Laplacian 2 - x^K y^K - x^-K y^-K, K = 2000: a grid of 4001^2 characters
    far = two_cell_complex(z_two, GroupRingElement(z_two, {(2000, 2000): 1, (0, 0): -1}))
    tracemalloc.start()
    try:
        with pytest.raises(SizeCapExceeded, match="^character grid needs"):
            l2_betti(far, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_symbol_ranks_past_the_byte_budget_are_refused(monkeypatch, torus2):
    # 400 characters of a 2 x 2 symbol charge 64000 bytes
    monkeypatch.setattr(exact, "_DENSE_BYTES", 63999)
    with pytest.raises(SizeCapExceeded, match="^symbol ranks needs 64000 bytes"):
        betti_by_characters(torus2, diag_quotient(20, 20), 1, cross_check=False)
    monkeypatch.setattr(exact, "_DENSE_BYTES", 64000)
    assert betti_by_characters(torus2, diag_quotient(20, 20), 1, cross_check=False)[0] == 2


def test_coset_count_bound(z_two):
    # characters trivial on a cyclic subgroup are at most |g| index / short
    rng = np.random.default_rng(10)
    for _ in range(30):
        mat = rng.integers(-5, 6, size=(2, 2))
        sub = LatticeSubgroup(mat.tolist())
        if sub.det == 0 or sub.index > 150:
            continue
        quot = quotient(z_two, sub)
        s = short_length(z_two, sub)
        g = tuple(int(x) for x in rng.integers(-3, 4, size=2))
        if g == (0, 0):
            continue
        norm = sum(abs(x) for x in g)
        count = sum(1 for ch in character_lattice(quot)
                    if sum(xk * gk for xk, gk in zip(ch, g)).denominator == 1)
        assert count == quot.order // element_order(quot, g)
        assert count <= norm * quot.order / s


def _random_lattice(rng, n):
    """A finite-index subgroup of Z^n of index <= 64: a random integer basis,
    or a diagonal one times a unimodular shear (non-cyclic quotients)."""
    hi = (64, 9, 4)[n - 1]
    while True:
        if rng.random() < 0.5:
            mat = rng.integers(-hi, hi + 1, size=(n, n))
        else:
            shear = np.eye(n, dtype=np.int64)
            shear[np.triu_indices(n, 1)] = rng.integers(-3, 4, size=n * (n - 1) // 2)
            mat = np.diag(rng.integers(1, hi + 1, size=n)) @ shear.T
        sub = LatticeSubgroup(mat.tolist())
        if sub.det != 0 and sub.index <= 64:
            return sub


def test_character_kernels_match_minor_oracle_and_cover_ranks():
    rng = np.random.default_rng(2718)
    cases = [(torus_complex(3), 1), (torus_complex(2), 1)]
    for trial in range(45):
        group = FreeAbelian(1 + trial % 3)
        a0, a1 = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        d1 = GroupRingMatrix(group, [[_random_entry(rng, group) for _ in range(a1)]
                                     for _ in range(a0)], shape=(a0, a1))
        cases.append((EquivariantChainComplex(group, [a0, a1], {1: d1}), trial % 2))
    nonzero = 0
    for cx, q in cases:
        quot = quotient(cx.group, _random_lattice(rng, cx.group.rank))
        lap = laplacian(cx, q)
        want = {ch: kernel_dimension_by_minors(lap, ch) for ch in character_lattice(quot)}
        # betti_by_characters cross-checks its total against the cover's rank
        b, rep = betti_by_characters(cx, quot, q)
        assert b == sum(want.values()) == rep.exact_betti
        assert rep.kernel_characters == [(ch, d) for ch, d in want.items() if d]
        for ch, d in want.items():
            assert exact_kernel_dimension(lap, ch) == d
        nonzero += b > 0
    assert nonzero >= 15


def test_hadamard_bound_past_one_prime(monkeypatch, z_one):
    # Laplacian 10^10 (2 - g - g^-1): H = 4 * 10^10 > 2^31, so one prime is not enough
    big = two_cell_complex(z_one, GroupRingElement(z_one, {(1,): 10 ** 5, (0,): -10 ** 5}))
    drawn = []
    source = pattern._primes_one_mod

    def recording(e):
        for ell in source(e):
            drawn.append(ell)
            yield ell

    monkeypatch.setattr(pattern, "_primes_one_mod", recording)
    for q in (0, 1):
        b, rep = betti_by_characters(big, cyclic_quotient(7), q)
        assert b == 1 and rep.kernel_characters == [((Fraction(0),), 1)]
    assert len(drawn) == 4
    assert exact_kernel_dimension(laplacian(big, 0), (Fraction(2, 7),)) == 0


def test_prime_dividing_every_coefficient_is_outvoted(monkeypatch, z_one):
    # boundary 29 (g - 1): every symbol vanishes mod 29 = 1 (mod 7); H = 3364
    cx = two_cell_complex(z_one, GroupRingElement(z_one, {(1,): 29, (0,): -29}))
    monkeypatch.setattr(pattern, "_primes_one_mod", lambda e: iter([29, 43, 71]))
    b, rep = betti_by_characters(cx, cyclic_quotient(7), 0)
    assert b == 1 and rep.pattern_count == 1
    monkeypatch.setattr(pattern, "_primes_one_mod", lambda e: iter([29, 43]))
    with pytest.raises(SizeCapExceeded):
        betti_by_characters(cx, cyclic_quotient(7), 0, cross_check=False)


def test_prime_source():
    from sympy import isprime
    assert [n for n in range(20000) if exact._is_prime(n)] == \
        [n for n in range(20000) if isprime(n)]
    # strong pseudoprimes to base 2, to bases 2 and 3, to bases 2, 3 and 5
    assert not any(exact._is_prime(n) for n in (2047, 1373653, 25326001))
    for n in (2 ** 31 - 1, 2 ** 31 - 19, 2 ** 31 - 21):
        assert exact._is_prime(n) == isprime(n)
    assert pattern._primes_one_mod is exact._primes_one_mod  # one source for both engines
    for e in (1, 2, 45, 997, 30030):
        first = list(itertools.islice(exact._primes_one_mod(e), 3))
        assert all(isprime(ell) and (ell - 1) % e == 0 and ell < 2 ** 31 for ell in first)
        assert first == sorted(first, reverse=True)
        assert not any(isprime(ell) for ell in range(first[0] + e, 2 ** 31, e))


def test_rank_is_the_orbit_maximum(monkeypatch, torus2):
    # At l = 181 the symbol at a single character can lose rank modulo one
    # prime above l; summing per-character kernels would give 50, not 2.
    monkeypatch.setattr(pattern, "_primes_one_mod", lambda e: iter([181]))
    b, rep = betti_by_characters(torus2, diag_quotient(45, 45), 1, cross_check=False)
    assert b == 2 and rep.kernel_characters == [((Fraction(0), Fraction(0)), 2)]


def test_exponents_past_int64_are_reduced_before_the_character_ranks(z_one):
    # t^(2^70) - 1 on Z/6: 2^70 = 4 mod 6, and w^4 = 1 for the sixth roots w = +-1
    cx = two_cell_complex(z_one, GroupRingElement(z_one, {(2 ** 70,): 1, (0,): -1}))
    quot = cyclic_quotient(6)
    assert instantiate(cx, quot).betti(1) == 2
    assert betti_by_characters(cx, quot, 1)[0] == 2
    lap = laplacian(cx, 1)
    assert sum(exact_kernel_dimension(lap, ch) for ch in character_lattice(quot)) == 2


def test_pattern_errors_are_library_errors(z_one, sanov_group):
    with pytest.raises(NotAbelian):
        l2_betti(two_cell_complex(sanov_group, GroupRingElement.one(sanov_group)), 0)
    no_edges = EquivariantChainComplex(z_one, [1, 0], {})
    with pytest.raises(DimensionOutOfRange):
        sandwich_check(no_edges, cyclic_quotient(3), 1)
    assert issubclass(NotAbelian, L2GrowthError) and issubclass(DimensionOutOfRange, L2GrowthError)
