import math
import os
import pathlib
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.stats import qmc

import l2growth
from l2growth import (CongruenceSubgroup, CoverInstance, DensityEstimate,
                      EquivariantChainComplex, FreeAbelian, GroupRingElement, GroupRingMatrix,
                      LatticeSubgroup, LuckPolynomial, betti_bound_general,
                      certify_gap, chebyshev, cosine_density_closed_form,
                      density_by_quotients, density_zn, eig_count_bound,
                      estimate_ns, gap_bound, j_bound, laplacian,
                      luck_polynomial, norm_bound, ns_bound, quotient, sublog_bound,
                      two_cell_complex, uniform_gap_exponent, uniformity_check)
from l2growth import cli, exact, spectral, verify
from l2growth.covers import eigvalsh_error
from l2growth.document import parse_complex
from l2growth.errors import (BadArgument, BadGroup, DegenerateZ, FamilyNotLogUniform,
                             ForeignQuotient, GapNotVerified, HypothesisUnverified,
                             InsufficientGrid, L2GrowthError, LambdaAboveGap, NotAbelian,
                             ShortTooSmall, SizeCapExceeded, UnsupportedGroup)
from l2growth.pattern import evaluate_matrix_at_characters
from l2growth.polynomials import Poly, chebyshev_coefficients
from l2growth.stripes import StripeSpec, product_with_circle
from conftest import COMPLEXES, cyclic_quotient, diag_quotient


# -- chebyshev ---------------------------------------------------------------

def test_chebyshev_values():
    assert chebyshev(2, 0.3) == pytest.approx(-0.82, abs=1e-12)
    for n in range(31):
        assert chebyshev(n, 1.0) == pytest.approx(1.0, abs=1e-12)
    rng = np.random.default_rng(0)
    for theta in rng.uniform(0, np.pi, 100):
        n = int(rng.integers(0, 31))
        assert abs(chebyshev(n, math.cos(theta)) - math.cos(n * theta)) < 1e-10


def test_chebyshev_closed_form_matches_coefficients():
    for n in (1, 2, 7, 20, 40):
        poly = chebyshev_coefficients(n)
        for x in np.linspace(1.0, 10.0, 19):
            exact_val = float(poly(float(x)))
            assert chebyshev(n, float(x)) == pytest.approx(exact_val, rel=1e-10)


def test_chebyshev_explicit_coefficients():
    assert chebyshev_coefficients(0).coeffs == (1,)
    assert chebyshev_coefficients(1).coeffs == (0, 1)
    assert chebyshev_coefficients(2).coeffs == (-1, 0, 2)
    assert chebyshev_coefficients(3).coeffs == (0, -3, 0, 4)


# -- comparison polynomial ---------------------------------------------------

def test_luck_polynomial_degree_one():
    p = luck_polynomial(1, 0.5)
    assert p.coefficients() == Poly([1, -1])
    assert p.value(0.5) == pytest.approx(0.5)


def test_luck_polynomial_normalization_exact():
    for n, z in [(1, Fraction(1, 2)), (5, Fraction(1, 4)), (12, Fraction(3, 7)),
                 (8, 0.25)]:
        p = luck_polynomial(n, z)
        assert p.coefficients()(Fraction(0)) == 1


def test_luck_polynomial_nonnegative_and_small_on_window():
    rng = np.random.default_rng(1)
    for _ in range(20):
        n = int(rng.integers(1, 25))
        z = float(rng.uniform(0.05, 0.9))
        p = luck_polynomial(n, z)
        xs = np.linspace(0, 1, 201)
        vals = p.value(xs)
        assert np.all(vals >= -1e-12)
        assert p.value(0.0) == pytest.approx(1.0, abs=1e-9)
        window = vals[xs >= z]
        assert np.all(window <= p.value(z) + 1e-12)
        assert p.value(z) <= p.tail_bound() + 1e-12


def test_luck_polynomial_tail_example():
    p = luck_polynomial(8, 0.25)
    assert p.value(0.25) <= 4.0 * 3.0 ** -8 + 1e-12


def test_luck_polynomial_guards():
    with pytest.raises(DegenerateZ):
        luck_polynomial(4, 1.5)
    with pytest.raises(DegenerateZ):
        luck_polynomial(4, 0.0)


# -- j bound -----------------------------------------------------------------

def test_j_bound_formula():
    density = DensityEstimate.from_function(
        lambda lam: np.clip(np.asarray(lam, float) / 4.0, 0, 1), K=4.0, a=1)
    jb = j_bound(10, density, 0.25)
    assert jb.bound == pytest.approx(density.mu(0.25) + 4 * math.exp(-10.0))
    jb0 = j_bound(0, density, 0.3)
    assert jb0.bound == pytest.approx(density.mu(0.3) + 4.0)
    assert jb0.direct_integral == pytest.approx(1.0, abs=1e-3)


def test_j_bound_gap_density():
    gap_density = cosine_density_closed_form(5, 2)
    z = 1.0 / 9 - 1e-6
    jb = j_bound(7, gap_density, z)
    assert jb.mu_z == 0.0
    assert jb.bound == pytest.approx(4 * math.exp(-14 * math.sqrt(z)))


def test_j_bound_dominates_direct_integral(circle, gap_complex):
    rng = np.random.default_rng(2)
    densities = [cosine_density_closed_form(2, 1), cosine_density_closed_form(5, 2),
                 density_zn(circle, 0, 4096, seed=7)]
    for _ in range(30):
        n = int(rng.integers(0, 30))
        z = float(rng.uniform(0.02, 0.95))
        density = densities[int(rng.integers(0, len(densities)))]
        jb = j_bound(n, density, z)
        assert jb.direct_integral <= jb.bound + 1e-9


# -- densities ---------------------------------------------------------------

def test_density_zn_examples(circle, gap_complex):
    d = density_zn(circle, 0, sample_count=32768, seed=1)
    assert d.F(2.0) == pytest.approx(0.5, abs=0.02)
    assert d.F(4.0) == 1.0
    dg = density_zn(gap_complex, 1, sample_count=4096, seed=1)
    assert dg.F(0.9) == 0.0


def test_density_zn_guards(circle, sanov_group):
    with pytest.raises(ValueError):
        density_zn(circle, 0, sample_count=10)
    mat_cx = two_cell_complex(sanov_group, GroupRingElement.one(sanov_group))
    with pytest.raises(NotAbelian):
        density_zn(mat_cx, 0)


def test_density_zn_deterministic(circle):
    d1 = density_zn(circle, 0, sample_count=2048, seed=9)
    d2 = density_zn(circle, 0, sample_count=2048, seed=9)
    grid = np.linspace(0, 4, 17)
    assert np.array_equal(d1.to_grid(grid), d2.to_grid(grid))


# -- quadrature points and samples against scipy and the per-term loop ---------

@pytest.mark.parametrize("d", [1, 2, 3])
def test_scrambled_halton_matches_scipy_bit_for_bit(d):
    # 2187 = 3^7 and 4096 = 2^12 are the lookup-table widths; one past
    # each adds the first row-constant digit
    for n in (1000, 2187, 2188, 4096, 4097, 65536, 200000, 1_200_000):
        for seed in (0, 7, 123456789):
            expected = qmc.Halton(d=d, scramble=True, seed=seed).random(n)
            got = spectral._scrambled_halton(d, n, seed)
            assert got.strides == expected.strides
            assert np.array_equal(got.view(np.int64), expected.view(np.int64)), (d, n, seed)


def _cos_loop(entry, points):
    """One cos evaluation per term, in term order: the reference for _cos_symbol."""
    vals = np.zeros(points.shape[0])
    for e, c in entry.terms.items():
        vals += float(c) * np.cos(2 * np.pi * (points @ np.asarray(e, dtype=float)))
    return vals


def _samples_reference(lap, points):
    """Sorted symbol eigenvalues over all points at once: the per-term cos
    loop for one cell, ``eigvalsh`` of the evaluated blocks otherwise."""
    if lap.nrows == 1:
        return np.sort(_cos_loop(lap.entries[0][0], points))
    blocks = evaluate_matrix_at_characters(lap, points)
    return np.sort(np.linalg.eigvalsh(blocks).ravel())


def _density_samples_reference(cx, q, sample_count, seed):
    """The quadrature with scipy's points and the per-term cos loop."""
    points = qmc.Halton(d=cx.group.rank, scramble=True, seed=seed).random(sample_count)
    return _samples_reference(laplacian(cx, q), points)


def _z2_complex(cells, d1_rows):
    """A Z^2 complex with one boundary d_1, its entries given as term dicts."""
    z2 = FreeAbelian(2)
    d1 = GroupRingMatrix(z2, [[GroupRingElement(z2, t) for t in row] for row in d1_rows])
    return EquivariantChainComplex(z2, cells, {1: d1})


G1_MINUS_1 = {(1, 0): 1, (0, 0): -1}
# d_1 = [g1 - 1, g2 - 1]: Delta_1 = d_1^* d_1 holds (g1^-1 - 1)(g2 - 1) off the diagonal
OFF_DIAGONAL = _z2_complex([1, 2], [[G1_MINUS_1, {(0, 1): 1, (0, 0): -1}]])
# d_1 = diag(g1 - 1, 3 - g2): Delta_0 and Delta_1 are diagonal with different entries
DISTINCT_DIAGONAL = _z2_complex([2, 2], [[G1_MINUS_1, {}], [{}, {(0, 0): 3, (0, 1): -1}]])
# the 3-torus: its third Halton coordinate is in base 5
Z3 = FreeAbelian(3)
TORUS3 = EquivariantChainComplex(Z3, [1, 3], {1: GroupRingMatrix(Z3, [[
    GroupRingElement(Z3, {g: 1, (0, 0, 0): -1}) for g in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]])})


def _is_diagonal(lap):
    return all(lap.entries[i][j].is_zero for i in range(lap.nrows)
               for j in range(lap.ncols) if i != j)


def test_density_zn_samples_match_reference(torus2, circle, gap_complex, stripe_complex):
    cases = [(torus2, 0), (torus2, 1), (circle, 0), (circle, 1), (gap_complex, 1),
             (stripe_complex, 3)]
    # the eigvalsh branch, and a diagonal whose entries differ
    assert not _is_diagonal(laplacian(OFF_DIAGONAL, 1))
    diagonal = [laplacian(DISTINCT_DIAGONAL, q) for q in (0, 1)]
    assert all(_is_diagonal(lap) and lap[0, 0] != lap[1, 1] for lap in diagonal)
    cases += [(OFF_DIAGONAL, 1), (DISTINCT_DIAGONAL, 0), (DISTINCT_DIAGONAL, 1)]
    for cx, q in cases:
        for sample_count, seed in ((4096, 1), (65536, 3), (200000, 123456789)):
            got = density_zn(cx, q, sample_count, seed=seed)._samples
            expected = _density_samples_reference(cx, q, sample_count, seed)
            assert np.array_equal(got.view(np.int64), expected.view(np.int64)), (q, seed)


def test_samples_are_unchanged_across_block_boundaries(torus2):
    # 100003 is a multiple of neither table width, 2187 = 3^7 nor 4096 = 2^12
    block = spectral._BLOCK
    cases = [(torus2, 0), (torus2, 1), (OFF_DIAGONAL, 1), (TORUS3, 0), (TORUS3, 1)]
    for cx, q in cases:
        for sample_count in (block - 1, block, block + 1, 100003):
            got = density_zn(cx, q, sample_count, seed=5)._samples
            expected = _density_samples_reference(cx, q, sample_count, 5)
            assert np.array_equal(got.view(np.int64), expected.view(np.int64)), (q, sample_count)


def test_quotient_spectra_and_gap_grids_are_unchanged_across_block_boundaries(torus2, circle):
    # references: the characters and the grid evaluated whole, in one pass
    for cx, dims in ((torus2, (0, 1)), (OFF_DIAGONAL, (1,))):
        for rows in ([[200, 0], [0, 300]], [[1, 0], [0, 40000]], [[4, 0], [0, 6]]):
            quot = quotient(FreeAbelian(2), LatticeSubgroup(rows))
            chars, e = spectral._character_numerators(quot)
            for q in dims:
                got = density_by_quotients(cx, q, [quot])._samples
                expected = _samples_reference(laplacian(cx, q), chars / e)
                assert np.array_equal(got.view(np.int64), expected.view(np.int64)), (rows, q)
    for cx, q, grid_per_dim in ((torus2, 0, 200000), (torus2, 1, 40000), (OFF_DIAGONAL, 1, 40000),
                                (circle, 0, 100003), (TORUS3, 0, 10 ** 6)):
        cert = certify_gap(cx, q, grid_per_dim=grid_per_dim)
        per_dim, n = cert.grid_per_dim, cx.group.rank
        assert per_dim ** n > spectral._BLOCK
        mesh = np.meshgrid(*[np.arange(per_dim) / per_dim] * n, indexing="ij")
        points = np.stack([m.ravel() for m in mesh], axis=-1)
        assert cert.grid_minimum == _samples_reference(laplacian(cx, q), points)[0]


def test_cos_symbol_unpaired_terms_and_constant_mid_order(z_two):
    # e = 0 after other terms, (2, 1) without its negative, (-1, 0) after (1, 0)
    entry = GroupRingElement(z_two, {(1, 0): 3, (0, 0): 2, (2, 1): 5, (-1, 0): -1,
                                     (0, -1): Fraction(1, 3)})
    points = spectral._scrambled_halton(2, 5000, 11)
    got = np.zeros(points.shape[0])
    spectral._cos_symbol(entry, points, got)
    assert np.array_equal(got.view(np.int64), _cos_loop(entry, points).view(np.int64))


def test_diagonal_symbols_never_reach_eigvalsh(monkeypatch, torus2, circle):
    def refuse(_blocks):
        raise AssertionError("eigvalsh called")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    # a scalar symbol, and 2x2 diagonals with equal and with different entries
    for cx, q in ((circle, 0), (torus2, 1), (DISTINCT_DIAGONAL, 0), (DISTINCT_DIAGONAL, 1)):
        density_zn(cx, q, 4096, seed=1)
        certify_gap(cx, q, grid_per_dim=256)
    with pytest.raises(AssertionError, match="eigvalsh called"):
        density_zn(OFF_DIAGONAL, 1, 4096, seed=1)


def test_certify_gap_on_the_torus_diagonal_is_unchanged(torus2):
    # pinned from eigvalsh on the evaluated 2x2 blocks; the diagonal path gives the same
    assert certify_gap(torus2, 1) == spectral.GapCertificate(
        certified_level=-0.277680183634905, grid_minimum=0.0,
        lipschitz=35.54306350526693, grid_per_dim=64)


def test_certify_gap_on_a_dimension_without_cells():
    # level inf, and the grid actually used: 4096 points over Z, 64 per axis over Z^2
    for n, per_dim in ((1, 4096), (2, 64)):
        cx = EquivariantChainComplex(FreeAbelian(n), [1, 0], {})
        assert certify_gap(cx, 1) == spectral.GapCertificate(
            certified_level=math.inf, grid_minimum=math.inf, lipschitz=0.0,
            grid_per_dim=per_dim)


def test_quadrature_budget_charges_blocks_only_for_off_diagonal_symbols(monkeypatch, torus2):
    # at 1000 points a 2x2 symbol of Z^2 takes 32,000 bytes of points and
    # samples, and its complex blocks 64,000 more: only the off-diagonal one
    # builds them, so only it passes a 64,000-byte budget
    monkeypatch.setattr(exact, "_DENSE_BYTES", 64_000)
    assert _is_diagonal(laplacian(torus2, 1))
    assert density_zn(torus2, 1, sample_count=1000)._samples.size == 2000
    with pytest.raises(SizeCapExceeded, match=r"needs 96000 bytes"):
        density_zn(OFF_DIAGONAL, 1, sample_count=1000)


def _log_value_two_branch(p, x):
    """Both branches of T_n over every point, then chosen by np.where: the
    reference for LuckPolynomial.log_value."""
    lx = np.maximum(p._l(x), -1.0)
    num = np.where(np.abs(lx) <= 1.0, np.cos(p.n * np.arccos(np.clip(lx, -1, 1))) + 1.0,
                   np.nan)
    with np.errstate(divide="ignore"):
        log_num = np.where(lx > 1.0, spectral._log_t_plus_1(p.n, np.maximum(lx, 1.0)),
                           np.log(num))
    out = log_num - p._log_denom
    return float(out) if np.isscalar(x) or np.asarray(x).ndim == 0 else out


def _bits(v):
    return np.asarray(v, dtype=float).view(np.int64)


@pytest.mark.parametrize("n, z", [(1, 0.5), (11, 0.25), (50, 0.01), (5000, 0.01)])
def test_luck_log_value_matches_the_two_branch_formula(n, z):
    p = LuckPolynomial(n, z)
    if n == 5000:  # T_n(l(0)) = cosh(n arccosh l(0)) is past the float64 range
        assert n * math.acosh(p.l0) > math.log(2.0) + math.log(sys.float_info.max)
    rng = np.random.default_rng(n)
    edges = [0.0, z, 1.0, np.nextafter(z, 0.0), np.nextafter(z, 1.0)]
    xs = np.concatenate([edges, rng.uniform(0.0, z, 500), rng.uniform(z, 1.0, 500)])
    for x in (xs, xs.reshape(5, -1), xs[::-1].copy()):
        got = p.log_value(x)
        assert got.shape == x.shape
        assert np.array_equal(_bits(got), _bits(_log_value_two_branch(p, x)))
    for x in [*edges, 0.5 * z, 0.5 * (1.0 + z), np.float64(0.3), np.array(0.7)]:
        got = p.log_value(x)
        assert type(got) is float
        assert _bits(got) == _bits(_log_value_two_branch(p, x)), x
    if n == 1:  # p(1) = (l(1) + 1)/(l(0) + 1) = 0
        assert p.log_value(1.0) == -math.inf


def _peak_bytes(fn):
    """fn's result and the traced peak of the allocations made while it ran."""
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def _peak_bytes_while_raising(fn):
    return _peak_bytes(lambda: pytest.raises(SizeCapExceeded, fn))[1]


def test_quadrature_refuses_past_byte_budget_before_allocating(circle, torus2):
    # 10^10 points of one coordinate (80 GB), 10^8 2x2 complex symbol blocks
    # (6.4 GB), and a 10^6 x 10^6 certification grid
    assert 8 * 10 ** 10 > exact._DENSE_BYTES
    for fn in (lambda: density_zn(circle, 0, sample_count=10 ** 10),
               lambda: density_zn(torus2, 1, sample_count=10 ** 8),
               lambda: certify_gap(torus2, 0, grid_per_dim=10 ** 12),
               lambda: certify_gap(circle, 0, grid_per_dim=10 ** 10)):
        assert _peak_bytes_while_raising(fn) < 4 * 2 ** 20


def test_quadrature_holds_only_the_samples_whole(torus2):
    # points and symbol temporaries live one block at a time; an off-diagonal
    # symbol adds one block of complex 2 x 2 symbols
    d, peak = _peak_bytes(lambda: density_zn(torus2, 0, 1_200_000))
    assert peak <= 1.25 * d._samples.nbytes
    d, peak = _peak_bytes(lambda: density_zn(OFF_DIAGONAL, 1, 1_200_000))
    assert peak <= 1.25 * d._samples.nbytes + 16 * 2 * 2 * spectral._BLOCK


def test_import_does_not_load_scipy_stats():
    src = pathlib.Path(l2growth.__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, l2growth; print('scipy.stats' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_density_by_quotients_examples(circle, gap_complex, zero_complex):
    quots = [cyclic_quotient(i) for i in (10, 100, 1000)]
    d = density_by_quotients(circle, 0, quots)
    assert d.F(2.0) == pytest.approx(0.5, abs=0.05)
    assert [order for order, _ in d.members] == [10, 100, 1000]
    dg = density_by_quotients(gap_complex, 1, [cyclic_quotient(100)])
    assert dg.F(0.5) == 0.0
    dz = density_by_quotients(zero_complex, 1, [cyclic_quotient(9)])
    assert dz.F(0.0) == 1.0


QUOTIENT_BASES = ([[4, 0], [0, 6]], [[3, 1], [0, 5]], [[6, 2], [0, 10]], [[2, 0], [0, 2]])


def test_density_by_quotients_samples_are_the_cover_spectra(torus2):
    # the cover spectra, from the instantiated Laplacians, are the oracle
    stripe = parse_complex(COMPLEXES / "stripe_t2_q3.json")
    for cx, dims in ((torus2, range(3)), (stripe, range(1, 5))):
        for rows in QUOTIENT_BASES:
            quot = quotient(FreeAbelian(2), LatticeSubgroup(rows))
            for q in dims:
                got = density_by_quotients(cx, q, [quot])._samples
                want = CoverInstance(cx, quot).eigenvalues(q)
                error = eigvalsh_error(len(want), float(norm_bound(laplacian(cx, q))))
                assert got.shape == want.shape and np.max(np.abs(got - want)) <= error


def test_density_by_quotients_builds_no_cover(monkeypatch, capsys, circle, torus2):
    def refuse(*_args, **_kwargs):
        raise AssertionError("cover or certified rank used")

    monkeypatch.setattr(CoverInstance, "__init__", refuse)
    monkeypatch.setattr(exact, "rank_certified", refuse)
    monkeypatch.setattr(exact, "kernel_certified", refuse)
    d = density_by_quotients(torus2, 1, [diag_quotient(4, 6), diag_quotient(2, 2)])
    assert [order for order, _ in d.members] == [4, 24]
    argv = ["density", str(COMPLEXES / "circle.json"), "--dim", "0", "--quotients", "10,100"]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.startswith("lambda,F\n")


def test_density_by_quotients_refuses_other_quotients(circle, sanov_group):
    gap = two_cell_complex(sanov_group, GroupRingElement(
        sanov_group, {sanov_group.identity: 2, sanov_group.generators[0]: -1}))
    congruence = quotient(sanov_group, CongruenceSubgroup(3))
    with pytest.raises(NotAbelian, match=r"^character lattice requires an abelian quotient$"):
        density_by_quotients(gap, 1, [congruence])
    for cx, quot in ((circle, diag_quotient(2, 3)), (circle, congruence),
                     (gap, cyclic_quotient(5))):
        with pytest.raises(ForeignQuotient):
            density_by_quotients(cx, 0, [quot])


def test_density_by_quotients_converges_to_closed_form(circle):
    closed = cosine_density_closed_form(2, 1)
    for i in (20, 80, 320):
        d = density_by_quotients(circle, 0, [cyclic_quotient(i)])
        grid = np.linspace(0.1, 3.9, 77)
        err = np.max(np.abs(d.to_grid(grid) - closed.to_grid(grid)))
        assert err <= 2.0 / i + 1e-12


def test_constant_symbol_density_is_a_point_mass():
    # off = 0 divides by zero in the arccos form, which reads nan at lam = diag
    point = cosine_density_closed_form(5, 0)
    assert [point.F(lam) for lam in (0.0, 4.9, 5.0, 5.1)] == [0.0, 0.0, 1.0, 1.0]
    assert point.F(np.array([4.0, 5.0, 6.0])).tolist() == [0.0, 1.0, 1.0]


# -- gap regime ---------------------------------------------------------------

def test_gap_bound_constants(gap_complex):
    dg = cosine_density_closed_form(5, 2)
    for i in (3, 12, 30):
        rep = gap_bound(gap_complex, cyclic_quotient(i), 1, 1.0, density=dg)
        assert rep.constants["M"] == pytest.approx(2.0 / 3)
        assert rep.bound == pytest.approx(4 * i * math.exp(-2 * i / 3))
        assert rep.betti == 0 and rep.satisfied
    rep3 = gap_bound(gap_complex, cyclic_quotient(3), 1, 1.0, density=dg)
    assert rep3.bound == pytest.approx(1.624, abs=1e-3)


def test_gap_bound_vacuous_at_zero(gap_complex):
    dg = cosine_density_closed_form(5, 2)
    rep = gap_bound(gap_complex, cyclic_quotient(5), 1, 1e-12, density=dg)
    assert rep.bound == pytest.approx(4 * 5, rel=1e-4)  # 4 a index, vacuous
    rep = gap_bound(gap_complex, cyclic_quotient(5), 1, 0.0, density=dg)
    assert rep.constants["M"] == 0.0 and rep.bound == 4 * 5  # lambda0 = 0 is allowed


def test_gap_not_verified(circle):
    d = cosine_density_closed_form(2, 1)
    with pytest.raises(GapNotVerified):
        gap_bound(circle, cyclic_quotient(5), 0, 1.0, density=d)


def test_gap_regime_without_evidence_says_none_was_given(gap_complex, z_one):
    calls = [
        lambda: gap_bound(gap_complex, cyclic_quotient(6), 1, 1.0),
        lambda: eig_count_bound(gap_complex, cyclic_quotient(6), 1, 0.5, 1.0),
        lambda: uniform_gap_exponent(z_one, [LatticeSubgroup([[i]]) for i in (5, 7)], 1.0,
                                     gap_complex, 1),
    ]
    for call in calls:
        with pytest.raises(GapNotVerified,
                           match=r"^no density or gap certificate was given for lambda0=1\.0$"):
            call()


def test_certify_gap(gap_complex, circle):
    cert = certify_gap(gap_complex, 1, grid_per_dim=4096)
    assert 0.99 <= cert.certified_level < 1.0
    rep = gap_bound(gap_complex, cyclic_quotient(6), 1, 0.9, certificate=cert)
    assert rep.constants["gap_mode"] == "certified"
    cert_c = certify_gap(circle, 0, grid_per_dim=512)
    assert cert_c.certified_level <= 0.0


def test_certify_gap_charges_float_rounding(gap_complex, torus2):
    # below the Lipschitz level by at least a * eps * K: a = 1, K = 9 and a = 2, K = 8
    for cx, q, a, k in ((gap_complex, 1, 1, 9.0), (torus2, 1, 2, 8.0)):
        cert = certify_gap(cx, q, grid_per_dim=4096)
        lipschitz_level = cert.grid_minimum - cert.lipschitz * 0.5 / cert.grid_per_dim
        assert lipschitz_level - cert.certified_level >= a * math.ulp(1.0) * k


def test_eig_count_bound(gap_complex):
    dg = cosine_density_closed_form(5, 2)
    rep = eig_count_bound(gap_complex, cyclic_quotient(12), 1, 2.0, 1.0, density=dg)
    assert rep.betti == 3 and rep.satisfied
    assert not rep.constants["lambda_below_gap"]
    rep2 = eig_count_bound(gap_complex, cyclic_quotient(4), 1, 0.5, 1.0, density=dg)
    assert rep2.betti == 0 and rep2.satisfied
    assert rep2.constants["lambda_below_gap"]
    # lam just below the gap: ratio tends to one, bound to the index
    rep3 = eig_count_bound(gap_complex, cyclic_quotient(10), 1, 1.0 - 1e-9, 1.0,
                           density=dg)
    assert rep3.bound == pytest.approx(10.0, rel=1e-3)
    with pytest.raises(LambdaAboveGap):
        eig_count_bound(gap_complex, cyclic_quotient(10), 1, 9.5, 1.0, density=dg)


# -- power / log decay regimes ------------------------------------------------

def test_ns_bound_circle(circle):
    closed = cosine_density_closed_form(2, 1)
    for i in (5, 40, 500):
        rep = ns_bound(circle, cyclic_quotient(i), 1, beta=0.5, c_density=0.5,
                       density=closed)
        assert rep.satisfied and rep.betti == 1
        assert rep.bound >= 1.0


def test_ns_bound_torus(torus2):
    density = density_zn(torus2, 1, sample_count=65536, seed=3)
    grid = np.geomspace(8e-6, 8.0, 200)
    c = float(np.max(density.to_grid(grid) / grid)) * 1.05
    for mat in ([[3, 0], [0, 3]], [[5, 0], [0, 4]], [[7, 1], [0, 6]]):
        quot = quotient(torus2.group, LatticeSubgroup(mat))
        rep = ns_bound(torus2, quot, 1, beta=1.0, c_density=c, density=density)
        assert rep.satisfied and rep.betti == 2


def test_ns_bound_hypothesis_rejected(circle):
    closed = cosine_density_closed_form(2, 1)
    with pytest.raises(HypothesisUnverified):
        ns_bound(circle, cyclic_quotient(9), 1, beta=2.0, c_density=0.01,
                 density=closed)


def test_ns_bound_short_guard(torus2):
    density = density_zn(torus2, 1, sample_count=4096, seed=4)
    quot = quotient(torus2.group, LatticeSubgroup([[1, 0], [0, 9]]))
    with pytest.raises(ShortTooSmall):
        ns_bound(torus2, quot, 1, beta=1.0, c_density=1.0, density=density)


def test_sublog_bound(circle, stripe_complex):
    closed = cosine_density_closed_form(2, 1)
    rep = sublog_bound(circle, cyclic_quotient(100), 1, closed)
    assert rep.satisfied and rep.betti == 1 and rep.bound >= 1
    with pytest.raises(ShortTooSmall):
        sublog_bound(circle, cyclic_quotient(2), 1, closed)
    dw = density_zn(stripe_complex, 3, sample_count=8192, seed=5)
    rep_w = sublog_bound(stripe_complex, diag_quotient(5, 7), 3, dw)
    assert rep_w.betti == 7 and rep_w.satisfied


def test_sublog_rejects_vanishing_determinant(zero_complex):
    dz = DensityEstimate.from_function(
        lambda lam: np.ones_like(np.asarray(lam, float)), K=2.0, a=1)
    with pytest.raises(HypothesisUnverified):
        sublog_bound(zero_complex, cyclic_quotient(50), 1, dz)


def test_sublog_reads_l2_betti_past_eight_cells(circle):
    # nine cells of zero boundary: b^(2)_1 = 9, which a density without an atom
    # at 0 does not show; read from it, the report was a violated bound
    z_one, zero = circle.group, GroupRingElement.zero(circle.group)
    lattice = quotient(z_one, LatticeSubgroup([[50]]))
    flat = EquivariantChainComplex(z_one, [9, 9], {1: GroupRingMatrix(
        z_one, [[zero] * 9 for _ in range(9)])})
    with pytest.raises(HypothesisUnverified, match=r"^b\^\(2\)_1 = 9 > 0: nonzero harmonic mass$"):
        sublog_bound(flat, lattice, 1, cosine_density_closed_form(2, 1))
    # nine circles side by side have b^(2) = 0 and nine times the circle's density
    loop = circle.boundaries[1][0, 0]
    circles = EquivariantChainComplex(z_one, [9, 9], {1: GroupRingMatrix(
        z_one, [[loop if i == j else zero for j in range(9)] for i in range(9)])})
    one = cosine_density_closed_form(2, 1)
    rep = sublog_bound(circles, lattice, 1,
                       DensityEstimate.from_function(lambda lam: 9 * one.F(lam), K=4.0, a=9))
    assert rep.satisfied and rep.betti == 9


def test_betti_bound_general_stripe(stripe_complex):
    d = density_zn(stripe_complex, 3, sample_count=4096, seed=6)
    rep = betti_bound_general(stripe_complex, diag_quotient(2, 3), 3, d, z=0.25)
    assert rep.betti == 3 and rep.satisfied


# -- decay estimation ----------------------------------------------------------

def test_estimate_ns_synthetic():
    for beta in (0.25, 0.5, 1.0, 1.5):
        fn = (lambda b: lambda lam: np.clip(np.asarray(lam, float), 0, 1) ** b)(beta)
        est = estimate_ns(DensityEstimate.from_function(fn, K=1.0, a=1))
        assert est.alpha_hat == pytest.approx(2 * beta, abs=0.05)


def test_estimate_ns_gap_detected(gap_complex):
    d = density_zn(gap_complex, 1, sample_count=4096, seed=7)
    est = estimate_ns(d)
    assert est.gap_detected and est.alpha_hat is None


def test_estimate_ns_reports_no_gap_where_the_density_rises(torus2):
    # F(1e-2) - F(0) = 0.004: four samples inside the window, none usable
    d = density_zn(torus2, 1, sample_count=1000, seed=0)
    assert d.F(1e-2) - d.F(0.0) == pytest.approx(0.004)
    with pytest.raises(InsufficientGrid, match=r"^none of 1e-06\.\.0\.01 usable in "
                       r"torus_quadrature\(1000\): F rises 0\.004, within 4 samples; "
                       r"need two decades$"):
        estimate_ns(d)


def test_estimate_ns_guards():
    # F rises above F(0) only past 1e-3: one usable decade of the fixed window
    fn = lambda lam: np.clip(np.asarray(lam, float) - 1e-3, 0, 1)
    with pytest.raises(InsufficientGrid,
                       match=r"^only 0\.00117\.\.0\.01 usable in closed_form; need two decades$"):
        estimate_ns(DensityEstimate.from_function(fn, K=1.0, a=1))
    # past 1e-5 three decades remain, and the fit runs on them
    fn = lambda lam: np.clip(np.asarray(lam, float) - 1e-5, 0, 1)
    est = estimate_ns(DensityEstimate.from_function(fn, K=1.0, a=1))
    assert not est.gap_detected and est.window[1] / est.window[0] > 100


# -- uniform families ----------------------------------------------------------

def test_uniform_gap_exponent_matrix_family(sanov_group):
    gap_mat = two_cell_complex(
        sanov_group, GroupRingElement(sanov_group, {sanov_group.identity: 2,
                                                    sanov_group.generators[0]: -1}))
    dg = cosine_density_closed_form(5, 2)
    rep = uniform_gap_exponent(sanov_group,
                               [CongruenceSubgroup(m) for m in (3, 5, 7)],
                               1.0, gap_mat, 1, density=dg)
    assert 0 < rep.exponent < 1
    assert rep.all_satisfied
    assert all(m["betti"] == 0 for m in rep.members)


def test_uniform_gap_exponent_rejects_polynomial_growth(z_two):
    gap2 = two_cell_complex(z_two, GroupRingElement(z_two, {(0, 0): 2, (1, 0): -1}))
    dg = cosine_density_closed_form(5, 2)
    with pytest.raises(FamilyNotLogUniform):
        uniform_gap_exponent(z_two, [LatticeSubgroup([[i, 0], [0, i]])
                                     for i in (2, 8, 60)],
                             1.0, gap2, 1, density=dg)


# -- refusals ------------------------------------------------------------------

@pytest.mark.parametrize("cls, base, message, call", [
    (BadArgument, ValueError, "exactly one of samples/fn must be given",
     lambda o: DensityEstimate(2.0, 1, spectral.Provenance("closed_form"))),
    (BadArgument, ValueError, "sample_count must be at least 1000",
     lambda o: density_zn(o.circle, 0, sample_count=999)),
    (BadArgument, ValueError, "at least one quotient required",
     lambda o: density_by_quotients(o.circle, 0, [])),
    (BadArgument, ValueError, "n must be nonnegative", lambda o: chebyshev(-1, 0.5)),
    (BadArgument, ValueError, "degree must be at least 1", lambda o: luck_polynomial(0, 0.5)),
    (BadArgument, ValueError, "lam must be nonnegative",
     lambda o: eig_count_bound(o.gap, cyclic_quotient(4), 1, -0.5, 1.0,
                               density=cosine_density_closed_form(5, 2))),
    (BadArgument, ValueError, "degree must be nonnegative", lambda o: chebyshev_coefficients(-1)),
    # a NaN passes every comparison check, so it is refused as not finite (and
    # inf with it): count_eigs_below would count all 4 eigenvalues below nan
    (BadArgument, ValueError, "lam must be finite, got nan",
     lambda o: eig_count_bound(o.gap, cyclic_quotient(4), 1, math.nan, 1.0,
                               density=cosine_density_closed_form(5, 2))),
    (BadArgument, ValueError, "lambda0 must be finite, got nan",
     lambda o: eig_count_bound(o.gap, cyclic_quotient(4), 1, 0.5, math.nan,
                               density=cosine_density_closed_form(5, 2))),
    (BadArgument, ValueError, "lambda0 must be finite, got inf",
     lambda o: gap_bound(o.gap, cyclic_quotient(4), 1, math.inf,
                         density=cosine_density_closed_form(5, 2))),
    # the gap rate (2/R) sqrt(lambda0/K) has no value below 0, and a density has
    # no mass below a negative lambda0 to refuse it
    (BadArgument, ValueError, "lambda0 must be nonnegative, got -1.0",
     lambda o: gap_bound(o.gap, cyclic_quotient(4), 1, -1.0,
                         density=cosine_density_closed_form(5, 2))),
    # refused before the gap is verified, not as z = lambda0/K outside (0, 1)
    (BadArgument, ValueError, "lambda0 must be nonnegative, got -1.0",
     lambda o: eig_count_bound(o.gap, cyclic_quotient(4), 1, 0.5, -1.0,
                               density=cosine_density_closed_form(5, 2))),
    (BadArgument, ValueError, "lambda0 must be nonnegative, got -0.5",
     lambda o: uniform_gap_exponent(FreeAbelian(1), [LatticeSubgroup([[i]]) for i in (5, 7)],
                                    -0.5, o.gap, 1, density=cosine_density_closed_form(5, 2))),
    # no grid point: over Z the minimum over none would certify +inf, or divide by 0
    (BadArgument, ValueError, "grid_per_dim must be at least 1, got 0",
     lambda o: certify_gap(o.gap, 1, grid_per_dim=0)),
    (BadArgument, ValueError, "grid_per_dim must be at least 1, got -4",
     lambda o: certify_gap(o.gap, 1, grid_per_dim=-4)),
    (BadArgument, ValueError, "grid_per_dim must be at least 1, got -3",
     lambda o: certify_gap(o.torus2, 1, grid_per_dim=-3)),
    (BadArgument, ValueError, "seed must be nonnegative, got -1",
     lambda o: density_zn(o.circle, 0, seed=-1)),
    # not numpy's or SeedSequence's TypeError
    (BadArgument, ValueError, "sample_count must be an integer, got 5000.0",
     lambda o: density_zn(o.circle, 0, sample_count=5000.0)),
    (BadArgument, ValueError, "seed must be an integer, got 1.5",
     lambda o: density_zn(o.circle, 0, seed=1.5)),
    # not numpy's TypeError from the grid's index shape
    (BadArgument, ValueError, "grid_per_dim must be an integer, got 4096.0",
     lambda o: certify_gap(o.circle, 0, grid_per_dim=4096.0)),
    (BadArgument, ValueError, "beta must be finite, got nan",
     lambda o: ns_bound(o.circle, cyclic_quotient(7), 1, math.nan, 0.5,
                        cosine_density_closed_form(2, 1))),
    (BadArgument, ValueError, "c_density must be finite, got nan",
     lambda o: ns_bound(o.circle, cyclic_quotient(7), 1, 0.5, math.nan,
                        cosine_density_closed_form(2, 1))),
    (BadArgument, ValueError, "lam must be finite, got nan",
     lambda o: CoverInstance(o.gap, cyclic_quotient(4)).count_eigs_below(1, math.nan)),
    (UnsupportedGroup, TypeError, "product construction is implemented for free abelian groups",
     lambda o: product_with_circle(two_cell_complex(o.sanov, GroupRingElement.one(o.sanov)))),
    (BadGroup, ValueError, "stripe loop must not be the identity",
     lambda o: StripeSpec(o.torus2, (0, 0), 4)),
    # not numpy's "expected non-negative integer", which the CLI would print as its error
    *[(BadArgument, ValueError, "seed must be nonnegative, got -1",
       (lambda name: lambda o: verify.SUITES[name](seed=-1))(name))
      for name in sorted(verify.SUITES)],
    # not the ValueError or OverflowError of floor(c * short)
    (BadArgument, ValueError, "c must be finite, got nan",
     lambda o: uniformity_check(FreeAbelian(1), [LatticeSubgroup([[3]])], math.nan)),
    (BadArgument, ValueError, "c must be finite, got inf",
     lambda o: uniformity_check(FreeAbelian(1), [LatticeSubgroup([[3]])], math.inf)),
], ids=lambda v: v if isinstance(v, str) else None)
def test_every_argument_refusal_is_a_library_error(circle, gap_complex, torus2, sanov_group,
                                                   cls, base, message, call):
    o = SimpleNamespace(circle=circle, gap=gap_complex, torus2=torus2, sanov=sanov_group)
    with pytest.raises(cls, match=f"^{re.escape(message)}$") as info:
        call(o)
    assert isinstance(info.value, L2GrowthError) and isinstance(info.value, base)
