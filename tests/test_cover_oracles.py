"""Cover instantiation against its earlier COO builder and sparse-product check.

The references below are the plain versions the term-level code replaced:
every term of every entry laid out as COO triples, converted to CSR with the
duplicates summed and the zeros dropped, and d_q d_(q+1) = 0 read off the
sparse product.  The new CSR must equal the reference's bit for bit (shape,
``indices``, ``indptr``, int64 ``data``, canonical format, no stored zeros),
and a cover must refuse exactly the boundaries whose product is nonzero.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from l2growth import (CongruenceSubgroup, CoverInstance, EquivariantChainComplex,
                      FreeAbelian, GroupRingElement, GroupRingMatrix, IntegralMatrixGroup,
                      LatticeSubgroup, quotient, torus_complex, two_cell_complex)
from l2growth.covers import _instantiate_matrix, _terms_compose_to_zero
from l2growth.errors import CrossCheckMismatch
from l2growth.stripes import product_with_circle
from l2growth.verify import random_complex, random_quotient
from conftest import cyclic_quotient, diag_quotient


def _coo_reference(m, quot):
    """The integer matrix of m on the quotient: every term's rows, columns and
    values as COO, summed and stripped of zeros by ``tocsr``."""
    n = quot.order
    rows, cols, vals = [], [], []
    base = np.arange(n, dtype=np.intp)
    distinct = {el for row in m.entries for entry in row for el in entry.terms}
    perms = {el: quot.right_mult_indices(el) for el in distinct}
    for i in range(m.nrows):
        for j in range(m.ncols):
            for el, coeff in m.entries[i][j].terms.items():
                rows.append(i * n + base)
                cols.append(j * n + perms[el])
                vals.append(np.full(n, int(coeff), dtype=np.int64))
    shape = (m.nrows * n, m.ncols * n)
    if not rows:
        return sp.csr_matrix(shape, dtype=np.int64)
    out = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=shape, dtype=np.int64).tocsr()
    out.eliminate_zeros()
    return out


def _product_is_zero_reference(a, b):
    return not np.any((a @ b).data)


def _assert_same_csr(new, old):
    assert new.format == old.format == "csr"
    assert new.shape == old.shape
    for name in ("indices", "indptr", "data"):
        x, y = getattr(new, name), getattr(old, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), name
    assert new.data.dtype == np.int64
    assert new.has_canonical_format and old.has_canonical_format
    assert new.data.all()


def _assert_cover_matches_references(cx, quot):
    """Every boundary equals its COO reference, and the cover raises exactly
    when some instantiated product d_q d_(q+1) is nonzero."""
    built = {q: _instantiate_matrix(d, quot) for q, d in cx.boundaries.items()}
    for q, d in cx.boundaries.items():
        _assert_same_csr(built[q][0], _coo_reference(d, quot))
    nonzero = False
    for q in built:
        if q + 1 in built:
            zero = _product_is_zero_reference(built[q][0], built[q + 1][0])
            if _terms_compose_to_zero(built[q][1], built[q + 1][1]):
                assert zero  # the terms never pass a nonzero product
            nonzero = nonzero or not zero
    if nonzero:
        with pytest.raises(CrossCheckMismatch, match="do not compose to zero"):
            CoverInstance(cx, quot)
    else:
        CoverInstance(cx, quot)
    return nonzero


def _random_lattice(rng, n, max_index=60):
    while True:
        sub = LatticeSubgroup(rng.integers(-4, 5, size=(n, n)).tolist())
        if sub.det and sub.index <= max_index:
            return sub


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(st.integers(0, 2 ** 32 - 1))
def test_random_complexes_match_the_coo_builder(seed):
    rng = np.random.default_rng(seed)
    cx = random_complex(rng)
    if cx.group.rank == 2 and rng.random() < 0.5:
        cx = product_with_circle(cx)  # over Z^3
    if cx.group.rank == 3:
        quot = quotient(cx.group, _random_lattice(rng, 3))
    else:
        quot = random_quotient(rng, cx.group, max_index=80)
    assert not _assert_cover_matches_references(cx, quot)


def test_the_random_complexes_reach_z_z2_and_z3():
    ranks = set()
    for seed in range(40):
        rng = np.random.default_rng(seed)
        cx = random_complex(rng)
        ranks.add(cx.group.rank)
        ranks.add(product_with_circle(cx).group.rank)
    assert ranks == {1, 2, 3}


@pytest.mark.parametrize("m", range(3, 14))
def test_sl2_presentation_and_gap_complexes_match_the_coo_builder(m):
    group = IntegralMatrixGroup(2, [[[1, 2], [0, 1]], [[1, 0], [2, 1]]])
    g1, g2 = group.generators
    e = group.identity
    el = lambda terms: GroupRingElement(group, terms)  # noqa: E731
    presentation = EquivariantChainComplex(group, [1, 2], {1: GroupRingMatrix(
        group, [[el({g1: 1, e: -1}), el({g2: 1, e: -1})]], shape=(1, 2))})
    gap = two_cell_complex(group, el({e: 2, g1: -1}))
    quot = quotient(group, CongruenceSubgroup(m))
    for cx in (presentation, gap):
        assert not _assert_cover_matches_references(cx, quot)


def test_cancelling_terms_and_zero_boundaries_match_the_coo_builder(z_one, z_two):
    # g - 1 cancels where g lies in the subgroup: on Z/1, and (2, 0) in 2Z x 3Z
    g_minus_one = GroupRingElement(z_two, {(2, 0): 1, (0, 0): -1})
    zero = GroupRingElement.zero(z_two)
    cases = [(torus_complex(1), cyclic_quotient(1)),
             (two_cell_complex(z_two, g_minus_one), diag_quotient(2, 3)),
             (two_cell_complex(z_one, GroupRingElement.zero(z_one)), cyclic_quotient(5)),
             (EquivariantChainComplex(z_two, [2, 3], {
                 1: GroupRingMatrix(z_two, [[zero] * 3] * 2, shape=(2, 3))}), diag_quotient(2, 2)),
             (torus_complex(3), quotient(FreeAbelian(3), LatticeSubgroup(
                 [[2, 0, 0], [0, 1, 0], [0, 0, 1]])))]
    for cx, quot in cases:
        assert not _assert_cover_matches_references(cx, quot)
    csr, (rows, cols, coeffs, tables) = _instantiate_matrix(cases[1][0].boundaries[1],
                                                            cases[1][1])
    assert csr.nnz == 0 and rows.size == cols.size == coeffs.size == 0
    assert tables.shape == (0, 6)


def _patched(quot, tables):
    """The quotient with ``right_mult_indices`` read from ``tables`` where it
    names the element (a map that need not be a group action)."""
    act = quot.right_mult_indices
    quot.right_mult_indices = lambda g: np.array(tables[g]) if g in tables else act(g)
    return quot


def test_colliding_tables_are_summed_as_the_coo_builder_sums_them(z_one):
    # on Z/6, g acts as x + 1; g^2 is given a table that meets g's at cells 0 and 3
    g, g2 = GroupRingElement.monomial(z_one, (1,)), GroupRingElement.monomial(z_one, (2,))
    collide = {(2,): [1, 3, 4, 4, 0, 1]}
    for entry in (g + g2, g - g2, g * 3 - g2, g - g2 + GroupRingElement.one(z_one)):
        cx = two_cell_complex(z_one, entry)
        quot = _patched(cyclic_quotient(6), collide)
        csr, _ = _instantiate_matrix(cx.boundaries[1], quot)
        _assert_same_csr(csr, _coo_reference(cx.boundaries[1], quot))
    # in g - g^2 + 1, g - g^2 cancels at the two shared cells and leaves 1 there
    assert np.array_equal(np.diff(csr.indptr), [1, 3, 3, 1, 3, 3])


def test_a_table_equal_to_another_elements_merges_with_it(z_one):
    # g^2 given g's table: g - g^2 then vanishes as a whole
    cx = two_cell_complex(z_one, GroupRingElement(z_one, {(1,): 1, (2,): -1}))
    quot = _patched(cyclic_quotient(6), {(2,): [1, 2, 3, 4, 5, 0]})
    csr, (rows, _, _, _) = _instantiate_matrix(cx.boundaries[1], quot)
    _assert_same_csr(csr, _coo_reference(cx.boundaries[1], quot))
    assert csr.nnz == 0 and rows.size == 0


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(st.integers(0, 2 ** 32 - 1))
def test_random_maps_in_place_of_the_action_are_refused_as_the_product_refuses(seed):
    # maps of Z/2 x Z/3 into itself, permutations or not, for some elements
    rng = np.random.default_rng(seed)
    tables = {g: (rng.permutation(6) if rng.random() < 0.5 else rng.integers(0, 6, size=6)).tolist()
              for g in ((0, 0), (1, 0), (0, 1)) if rng.random() < 0.5}
    cx = torus_complex(2) if rng.random() < 0.5 else product_with_circle(torus_complex(1))
    _assert_cover_matches_references(cx, _patched(diag_quotient(2, 3), tables))


def test_broken_tables_reach_both_answers_of_the_product():
    z_two = FreeAbelian(2)
    swap = {(1, 0): [1, 0, 2, 3, 4, 5]}  # no translation: it moves only 0 and 1
    commuting = {(1, 0): [3, 4, 5, 0, 1, 2], (0, 1): [0, 0, 0, 3, 3, 3]}
    assert _assert_cover_matches_references(torus_complex(2), _patched(diag_quotient(2, 3), swap))
    assert not _assert_cover_matches_references(torus_complex(2),
                                                _patched(diag_quotient(2, 3), commuting))


def test_a_product_zero_only_across_merged_groups_is_left_to_the_product():
    # four maps of two points: [0,0] + [1,1] and [0,1] + [1,0] are both the all-ones
    # matrix, so the product is zero although no two composed tables are equal
    identity = (np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64),
                np.ones(1, dtype=np.int64), np.array([[0, 1]]))
    maps = (np.zeros(4, dtype=np.int64), np.zeros(4, dtype=np.int64),
            np.array([1, 1, -1, -1]), np.array([[0, 0], [1, 1], [0, 1], [1, 0]]))
    assert not _terms_compose_to_zero(identity, maps)
    # sum of coeff times the matrix of the map x -> t[x]
    assert not sum(c * np.eye(2, dtype=np.int64)[t] for c, t in zip(maps[2], maps[3])).any()


def test_a_table_outside_the_quotient_is_refused(z_one):
    # the reference read such a table into a neighbouring block or refused it in
    # scipy's index check; the terms also index tables with it, so it is refused
    cx = two_cell_complex(z_one, GroupRingElement(z_one, {(1,): 1, (0,): -1}))
    for bad in ([1, 2, 3, 4, 5, 6], [1, 2, 3, 4, 5, -1], [1, 2, 3]):
        with pytest.raises(CrossCheckMismatch, match="does not map the quotient into itself"):
            CoverInstance(cx, _patched(cyclic_quotient(6), {(1,): bad}))
