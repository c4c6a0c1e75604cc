"""Cover instantiation and spectra against their earlier sparse-matrix versions.

The references below are the plain versions the term-level code replaced:
every term of every entry laid out as COO triples, converted to CSR with the
duplicates summed and the zeros dropped, and d_q d_(q+1) = 0 read off the
sparse product.  The new CSR must equal the reference's bit for bit (shape,
``indices``, ``indptr``, int64 ``data``, canonical format, no stored zeros),
and a cover must refuse exactly the boundaries whose product is nonzero.

Spectra are checked against the sparse Gram d^T d or d d^T: its rows at the
orbit representatives gathered from its COO form into the block table, its
norm the largest absolute row sum over all its rows, and the orbits labelled
by a sort of their least elements.  Every spectrum, solver error and block
shape must equal the reference's bit for bit.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from l2growth import (CongruenceSubgroup, CoverInstance, EquivariantChainComplex,
                      FreeAbelian, GroupRingElement, GroupRingMatrix, IntegralMatrixGroup,
                      LatticeSubgroup, quotient, torus_complex, two_cell_complex)
from l2growth.covers import (_instantiate_matrix, _left_orbits, _multiply_terms,
                             eigvalsh_error)
from l2growth.errors import CrossCheckMismatch
from l2growth.stripes import product_with_circle
from l2growth.verify import _random_element, _random_entry, random_complex, random_quotient
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
            if not _multiply_terms(built[q][1], built[q + 1][1])[2].size:
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


def _sl2_complexes(k):
    """<[[1, k], [0, 1]], [[1, 0], [k, 1]]>, its presentation complex and the gap complex 2 - g1."""
    group = IntegralMatrixGroup(2, [[[1, k], [0, 1]], [[1, 0], [k, 1]]])
    g1, g2 = group.generators
    e = group.identity
    el = lambda terms: GroupRingElement(group, terms)  # noqa: E731
    presentation = EquivariantChainComplex(group, [1, 2], {1: GroupRingMatrix(
        group, [[el({g1: 1, e: -1}), el({g2: 1, e: -1})]], shape=(1, 2))})
    return group, (presentation, two_cell_complex(group, el({e: 2, g1: -1})))


@pytest.mark.parametrize("m", range(3, 14))
def test_sl2_presentation_and_gap_complexes_match_the_coo_builder(m):
    group, complexes = _sl2_complexes(2)
    quot = quotient(group, CongruenceSubgroup(m))
    for cx in complexes:
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


def test_colliding_tables_are_refused_as_no_group_action(z_one):
    # on Z/6, g acts as x + 1; g^2 is given a permutation that meets g's table at
    # cells 0 and 3, which no two right multiplications do
    g, g2 = GroupRingElement.monomial(z_one, (1,)), GroupRingElement.monomial(z_one, (2,))
    collide = {(2,): [1, 0, 5, 4, 3, 2]}
    for entry in (g + g2, g - g2, g * 3 - g2, g - g2 + GroupRingElement.one(z_one)):
        cx = two_cell_complex(z_one, entry)
        with pytest.raises(CrossCheckMismatch, match="meet at a cell: no group action$"):
            CoverInstance(cx, _patched(cyclic_quotient(6), collide))
    # a table that meets no other table of its entry is not refused here
    quot = _patched(cyclic_quotient(6), collide)
    d = two_cell_complex(z_one, g2).boundaries[1]
    _assert_same_csr(_instantiate_matrix(d, quot)[0], _coo_reference(d, quot))
    # one that is no permutation is refused whatever it meets
    for entry in (g2, g + g2):
        with pytest.raises(CrossCheckMismatch, match="no permutation of the quotient: "
                                                     "no group action$"):
            _instantiate_matrix(two_cell_complex(z_one, entry).boundaries[1],
                                _patched(cyclic_quotient(6), {(2,): [1, 3, 4, 4, 0, 1]}))


def test_a_table_equal_to_another_elements_merges_with_it(z_one):
    # g^2 given g's table: g - g^2 then vanishes as a whole
    cx = two_cell_complex(z_one, GroupRingElement(z_one, {(1,): 1, (2,): -1}))
    quot = _patched(cyclic_quotient(6), {(2,): [1, 2, 3, 4, 5, 0]})
    csr, (rows, _, _, _) = _instantiate_matrix(cx.boundaries[1], quot)
    _assert_same_csr(csr, _coo_reference(cx.boundaries[1], quot))
    assert csr.nnz == 0 and rows.size == 0


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(st.integers(0, 2 ** 32 - 1))
def test_random_maps_in_place_of_the_action_never_pass_a_nonzero_product(seed):
    # maps of Z/2 x Z/3 into itself, permutations or not, for some elements: the
    # cover refuses them, or builds the reference's boundaries with zero products
    rng = np.random.default_rng(seed)
    tables = {g: (rng.permutation(6) if rng.random() < 0.5 else rng.integers(0, 6, size=6)).tolist()
              for g in ((0, 0), (1, 0), (0, 1)) if rng.random() < 0.5}
    cx = torus_complex(2) if rng.random() < 0.5 else product_with_circle(torus_complex(1))
    quot = _patched(diag_quotient(2, 3), tables)
    try:
        cover = CoverInstance(cx, quot)
    except CrossCheckMismatch:
        return
    for q, d in cx.boundaries.items():
        _assert_same_csr(cover.boundary(q), _coo_reference(d, quot))
        if q + 1 in cx.boundaries:
            assert _product_is_zero_reference(cover.boundary(q), cover.boundary(q + 1))


def test_broken_tables_are_refused_whatever_their_product():
    swap = {(1, 0): [1, 0, 2, 3, 4, 5]}  # no translation: it moves only 0 and 1
    commuting = {(1, 0): [3, 4, 5, 0, 1, 2], (0, 1): [0, 0, 0, 3, 3, 3]}
    for tables, zero in ((swap, False), (commuting, True)):
        quot = _patched(diag_quotient(2, 3), tables)
        d1, d2 = (_coo_reference(torus_complex(2).boundaries[q], quot) for q in (1, 2))
        assert _product_is_zero_reference(d1, d2) == zero
        with pytest.raises(CrossCheckMismatch, match="no group action$"):
            CoverInstance(torus_complex(2), quot)


def test_a_product_zero_only_across_merged_groups_is_refused(z_one):
    # four maps of two points: [0,0] + [1,1] and [0,1] + [1,0] are both the all-ones
    # matrix, so the product is zero although no two composed tables are equal
    identity = (np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64),
                np.ones(1, dtype=np.int64), np.array([[0, 1]]))
    maps = (np.zeros(4, dtype=np.int64), np.zeros(4, dtype=np.int64),
            np.array([1, 1, -1, -1]), np.array([[0, 0], [1, 1], [0, 1], [1, 0]]))
    with pytest.raises(CrossCheckMismatch, match="meet at element 0 and differ: no group action$"):
        _multiply_terms(identity, maps)
    # sum of coeff times the matrix of the map x -> t[x]
    assert not sum(c * np.eye(2, dtype=np.int64)[t] for c, t in zip(maps[2], maps[3])).any()
    # the same product from a chain complex over Z on Z/2, one term an entry so that
    # no two tables meet: d_1 d_2 = x^5 + x^8 - x^5 - x^8 = 0, and the d_2 terms'
    # patched tables compose with d_1's to the four maps above; two of those
    # tables are no permutation, so the cover refuses them as it instantiates
    el = lambda k, c=1: GroupRingElement(z_one, {(k,): c})  # noqa: E731
    cx = EquivariantChainComplex(z_one, [1, 4, 1], {
        1: GroupRingMatrix(z_one, [[el(1), el(2), el(7), el(9)]]),
        2: GroupRingMatrix(z_one, [[el(4)], [el(6)], [el(-2, -1)], [el(-1, -1)]])})
    quot = _patched(cyclic_quotient(2), {(4,): [0, 0], (6,): [1, 1], (-2,): [1, 0],
                                         (-1,): [0, 1]})
    d1, d2 = (_coo_reference(cx.boundaries[q], quot) for q in (1, 2))
    assert _product_is_zero_reference(d1, d2)
    with pytest.raises(CrossCheckMismatch, match="no permutation of the quotient: "
                                                 "no group action$"):
        CoverInstance(cx, quot)


def test_a_table_outside_the_quotient_is_refused(z_one):
    # the reference read such a table into a neighbouring block or refused it in
    # scipy's index check; the terms also index tables with it, so it is refused
    # with the tables that are no permutation
    cx = two_cell_complex(z_one, GroupRingElement(z_one, {(1,): 1, (0,): -1}))
    for bad in ([1, 2, 3, 4, 5, 6], [1, 2, 3, 4, 5, -1], [1, 2, 3]):
        with pytest.raises(CrossCheckMismatch, match="no permutation of the quotient"):
            CoverInstance(cx, _patched(cyclic_quotient(6), {(1,): bad}))


# -- products of merged terms -------------------------------------------------
# Instantiation is a ring homomorphism, so the product of two instantiated
# matrices' terms must be the instantiation of their group-ring product.

def _sorted_terms(terms):
    rows, cols, _, tables = terms
    order = np.lexsort((tables[:, 0], cols, rows))
    return [x[order] for x in terms]


def _assert_products_match_the_group_ring(a, b, quot):
    """The terms of a b, of a* a and of a a* (a* the adjoint), from the
    instantiated terms of a and b, equal those of the group-ring products
    instantiated; the Gram products also read at the orbit representatives."""
    ta, tb = _instantiate_matrix(a, quot)[1], _instantiate_matrix(b, quot)[1]
    rows, cols, coeffs, tables = ta
    adjoint = (cols, rows, coeffs, np.argsort(tables, axis=1))  # the inverse tables
    reps = np.flatnonzero(_left_orbits(quot)[1] == 0)
    for got, want in ((_multiply_terms(ta, tb), a @ b),
                      (_multiply_terms(adjoint, ta), a.adjoint() @ a),
                      (_multiply_terms(ta, adjoint), a @ a.adjoint()),
                      (_multiply_terms(adjoint, ta, reps), a.adjoint() @ a),
                      (_multiply_terms(ta, adjoint, reps), a @ a.adjoint())):
        want = _instantiate_matrix(want, quot)[1]
        if got[3].shape[1] < quot.order:
            want = want[:3] + (want[3][:, reps],)
        for x, y in zip(_sorted_terms(got), _sorted_terms(want)):
            assert x.dtype == y.dtype and np.array_equal(x, y)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.integers(0, 2 ** 32 - 1))
def test_products_of_terms_match_the_group_ring_over_z_and_z2(seed):
    rng = np.random.default_rng(seed)
    group = FreeAbelian(int(rng.integers(1, 3)))
    p, q, r = rng.integers(1, 4, size=3)
    a, b = (GroupRingMatrix(group, [[_random_entry(rng, group) for _ in range(cols)]
                                    for _ in range(rows)], shape=(rows, cols))
            for rows, cols in ((p, q), (q, r)))
    _assert_products_match_the_group_ring(a, b, random_quotient(rng, group, max_index=60))


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("m", range(3, 8))
def test_products_of_terms_match_the_group_ring_over_sl2(k, m):
    group, _ = _sl2_complexes(k)
    quot = quotient(group, CongruenceSubgroup(m))
    rng = np.random.default_rng(100 * k + m)
    letters = list(group.generators) + [group.inv(g) for g in group.generators]

    def entry():  # up to three terms, coefficients in -3..3, words of length <= 3
        acc = GroupRingElement.zero(group)
        for _ in range(int(rng.integers(0, 4))):
            word = group.identity
            for i in rng.integers(0, 4, size=int(rng.integers(0, 4))):
                word = group.mul(word, letters[i])
            acc = acc + GroupRingElement(group, {word: _random_element(rng)})
        return acc

    for _ in range(9):
        p, q, r = rng.integers(1, 4, size=3)
        a, b = (GroupRingMatrix(group, [[entry() for _ in range(cols)] for _ in range(rows)],
                                shape=(rows, cols)) for rows, cols in ((p, q), (q, r)))
        _assert_products_match_the_group_ring(a, b, quot)


# -- spectra ------------------------------------------------------------------

def _left_orbits_reference(quot):
    """(orbit, offset, r) by walking each element's whole orbit h^t x: the least
    element is the representative, orbits are numbered by a sort of their
    representatives, and x = h^offset[x] times its representative."""
    h, r = quot.max_order_element()
    step = quot.left_mult_indices(h)
    walk = [np.arange(quot.order)]
    for _ in range(r - 1):
        walk.append(step[walk[-1]])
    walk = np.array(walk)  # walk[t, x] = h^t x
    orbit = np.unique(walk.min(axis=0), return_inverse=True)[1]
    return orbit, -walk.argmin(axis=0) % r, r


def _gram_part_reference(cover, j):
    """(sorted Gram eigenvalues, norm, (r, block size)) of boundary j from the
    sparse Gram on its smaller side: the rows at the representatives gathered
    from its COO form, the norm its largest absolute row sum."""
    d = cover.boundary(j)
    gram = d.T @ d if d.shape[1] <= d.shape[0] else d @ d.T
    orbit, offset, r = _left_orbits_reference(cover.quotient)
    n = len(orbit)
    k = n // r
    size = gram.shape[0] // n * k
    coo = gram.tocoo()
    cell, x = np.divmod(coo.row, n)
    rep = offset[x] == 0
    cell_col, y = np.divmod(coo.col[rep], n)
    flat = (((cell[rep] * k + orbit[x[rep]]) * size + cell_col * k + orbit[y]) * r
            + offset[y])
    table = np.bincount(flat, coo.data[rep].astype(float), size * size * r)
    blocks = np.fft.rfft(table.reshape(size, size, r), axis=-1)
    eigs = np.linalg.eigvalsh(np.moveaxis(blocks, -1, 0))
    eigs = np.sort(np.concatenate([eigs.ravel(), eigs[1:(r + 1) // 2].ravel()]))
    return eigs, float(abs(gram).sum(axis=1).A1.max(initial=0)), (r, size)


def _assert_spectra_match_the_sparse_gram(cover):
    """Every spectrum, solver error and block shape of the cover equals the
    sparse Gram reference's, bit for bit."""
    parts = {}
    for j in cover.cx.boundaries:
        eigs, norm, blocks = _gram_part_reference(cover, j)
        zeros = len(eigs) - cover._rank(j)
        parts[j] = eigs[zeros:], eigvalsh_error(len(eigs), norm), blocks
    for q in range(cover.cx.top_dim + 1):
        near = [parts[j] for j in (q, q + 1) if j in parts]
        want = np.sort(np.concatenate([np.zeros(cover.betti(q))] + [p[0] for p in near]))
        assert cover.eigenvalues(q).tobytes() == want.tobytes()
        assert cover._eig_errors[q] == max((p[1] for p in near), default=0.0)
    assert cover.spectrum_blocks == {j: p[2] for j, p in parts.items()}


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("m", range(3, 12))
def test_sl2_spectra_match_the_sparse_gram(k, m):
    group, complexes = _sl2_complexes(k)
    quot = quotient(group, CongruenceSubgroup(m))
    for orbits, want in zip(_left_orbits(quot), _left_orbits_reference(quot)):
        assert np.array_equal(orbits, want)
    for cx in complexes:
        _assert_spectra_match_the_sparse_gram(CoverInstance(cx, quot))


def test_abelian_spectra_match_the_sparse_gram(circle, torus2, stripe_complex, zero_complex):
    lattices = ([[3, 1], [0, 2]], [[4, 2], [1, 3]], [[2, 1], [-1, 3]], [[4, 2], [2, 4]])
    cases = [(torus2, quotient(FreeAbelian(2), LatticeSubgroup(b))) for b in lattices]
    cases += [(circle, cyclic_quotient(n)) for n in (1, 2, 5, 300)]
    # boundaries 1 x 2, 2 x 1 and 1 x 1: Grams on both sides
    cases += [(stripe_complex, diag_quotient(2, 3)), (stripe_complex, diag_quotient(1, 1)),
              (zero_complex, cyclic_quotient(7))]
    for cx, quot in cases:
        for orbits, want in zip(_left_orbits(quot), _left_orbits_reference(quot)):
            assert np.array_equal(orbits, want)
        _assert_spectra_match_the_sparse_gram(CoverInstance(cx, quot))


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(st.integers(0, 2 ** 32 - 1))
def test_random_spectra_match_the_sparse_gram(seed):
    rng = np.random.default_rng(seed)
    cx = random_complex(rng)
    _assert_spectra_match_the_sparse_gram(
        CoverInstance(cx, random_quotient(rng, cx.group, max_index=80)))


def test_gram_entries_past_2_53_are_summed_exactly(z_one):
    # L1 norm below 2^31, but the Gram's diagonal c0^2 + c1^2 is odd and past
    # 2^53, and the two squares rounded to float one by one sum to another float
    c0, c1 = 2 ** 30 + 11, 2 ** 29 + 6
    assert c0 + c1 < 2 ** 31 and (c0 ** 2 + c1 ** 2) % 2 and c0 ** 2 + c1 ** 2 > 2 ** 53
    assert float(c0 ** 2) + float(c1 ** 2) != float(c0 ** 2 + c1 ** 2)
    cx = two_cell_complex(z_one, GroupRingElement(z_one, {(0,): c0, (1,): c1}))
    for n in (3, 5, 8):
        _assert_spectra_match_the_sparse_gram(CoverInstance(cx, cyclic_quotient(n)))


def test_a_table_that_is_no_permutation_is_refused_before_a_spectrum(gap_complex):
    # 2 - g has one boundary, so no composition check sees g's table map two
    # cells to one, and it meets the identity's at no cell; instantiation
    # refuses it, so no Betti number is read from the broken matrix
    for bad in ([1, 0, 0, 1], [2, 2, 0, 0]):
        with pytest.raises(CrossCheckMismatch, match="no permutation of the quotient"):
            CoverInstance(gap_complex, _patched(cyclic_quotient(4), {(1,): bad}))


def test_spectra_form_no_sparse_gram(torus2, monkeypatch):
    calls = []

    def counted(name, method):
        return lambda *args, **kwargs: calls.append(name) or method(*args, **kwargs)

    group, (presentation, _) = _sl2_complexes(2)
    covers = [CoverInstance(presentation, quotient(group, CongruenceSubgroup(7))),
              CoverInstance(torus2, diag_quotient(4, 6))]
    for cover in covers:  # the certified ranks read COO; the spectra must not
        for q in range(cover.cx.top_dim + 1):
            cover.betti(q)
    for cls in (sp.csr_matrix, sp.csc_matrix, sp.coo_matrix):
        for name in ("_matmul_dispatch", "_rmatmul_dispatch", "tocoo"):
            monkeypatch.setattr(cls, name, counted(name, getattr(cls, name)))
    for cover in covers:
        for q in range(cover.cx.top_dim + 1):
            cover.eigenvalues(q)
    assert calls == []
    _gram_part_reference(covers[1], 1)  # the wrapping sees the reference's product
    assert "_matmul_dispatch" in calls and "tocoo" in calls
