import functools
import itertools
import re
import tracemalloc
from math import gcd, prod

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
import sympy
from hypothesis import given, strategies as st
from sympy.matrices.normalforms import invariant_factors
from sympy.polys.matrices import DomainMatrix
from fractions import Fraction

from l2growth import (CongruenceSubgroup, CoverInstance,
                      EquivariantChainComplex, FreeAbelian, GroupRingElement,
                      GroupRingMatrix, IntegralMatrixGroup, LatticeSubgroup,
                      exact, quotient, torus_complex, verify)
from l2growth.document import parse_complex
from l2growth.errors import L2GrowthError, SizeCapExceeded, UnsupportedMatrix
from conftest import COMPLEXES
from test_groups import PROPERTY_SETTINGS

FIRST_PRIME = next(exact._primes_one_mod(1))


def _rref_modp_sparse_quadratic(rows, ncols, p, fill_cap):
    """The sparse RREF before holder lists: back-substitution visits every
    earlier pivot row for each pivot, and the kernel basis looks up every
    pivot row for each free column.  Kept as the oracle for the new one."""
    echelon = []
    pivot_of = {}
    stored = 0
    for row in rows:
        r = {c: v % p for c, v in row.items() if v % p}
        while r:
            c = min(r)
            idx = pivot_of.get(c)
            if idx is not None:
                f = r.pop(c)
                for cc, vv in echelon[idx].items():
                    if cc == c:
                        continue
                    nv = (r.get(cc, 0) - f * vv) % p
                    if nv:
                        r[cc] = nv
                    elif cc in r:
                        del r[cc]
            else:
                inv = pow(r[c], p - 2, p)
                r = {cc: (vv * inv) % p for cc, vv in r.items()}
                pivot_of[c] = len(echelon)
                echelon.append(r)
                stored += len(r)
                if stored > fill_cap:
                    raise exact._FillIn
                break
    order = sorted(pivot_of)
    for pos in range(len(order) - 1, -1, -1):
        pc = order[pos]
        src = echelon[pivot_of[pc]]
        for prev in range(pos):
            row = echelon[pivot_of[order[prev]]]
            f = row.pop(pc, 0)
            if not f:
                continue
            stored -= len(row) + 1
            for cc, vv in src.items():
                if cc == pc:
                    continue
                nv = (row.get(cc, 0) - f * vv) % p
                if nv:
                    row[cc] = nv
                elif cc in row:
                    del row[cc]
            stored += len(row)
            if stored > fill_cap:
                raise exact._FillIn
    pivot_set = set(pivot_of)
    free_cols = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free_cols:
        vec = {fc: 1}
        for pc, idx in pivot_of.items():
            val = echelon[idx].get(fc)
            if val:
                vec[pc] = (-val) % p
        basis.append(vec)
    return len(pivot_of), free_cols, basis


def _kernel_exact_fractions(rows, nrows, ncols):
    """Fraction-based RREF: exact, slow, and sharing no code with the library."""
    m = [[Fraction(row.get(j, 0)) for j in range(ncols)] for row in rows]
    pivots = []
    r = 0
    for col in range(ncols):
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if m[i][col]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][col]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][col]:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
    pivot_set = set(pivots)
    free_cols = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free_cols:
        entries = {fc: Fraction(1)}
        for i, pc in enumerate(pivots):
            if m[i][fc]:
                entries[pc] = -m[i][fc]
        denom = 1
        for val in entries.values():
            denom = denom * val.denominator // gcd(denom, val.denominator)
        vec = {c: int(v * denom) for c, v in entries.items() if v}
        basis.append(vec)
    return len(pivots), basis


def _crt_pair(a1, m1, a2, m2):
    m = m1 * m2
    x = (a1 + (a2 - a1) * pow(m1, -1, m2) % m2 * m1) % m
    return x, m


def _combine_and_reconstruct(group, ncols):
    """The pairwise lift: CRT-combine every agreeing attempt from the first
    prime, one modular inverse per entry, then clear denominators with a
    Fraction lcm loop.  Kept as the oracle for the incremental lift."""
    p0, free_cols, basis0 = group[0]
    k = len(basis0)
    combined = [dict(vec) for vec in basis0]
    modulus = p0
    for p, _, basis in group[1:]:
        for i in range(k):
            merged = {}
            keys = set(combined[i]) | set(basis[i])
            for c in keys:
                x, m = _crt_pair(combined[i].get(c, 0), modulus, basis[i].get(c, 0), p)
                merged[c] = x
            combined[i] = merged
        modulus *= p
    out = []
    for vec in combined:
        try:
            fracs = {c: exact.rational_reconstruct(v, modulus) for c, v in vec.items()}
        except ValueError:
            return None
        denom = 1
        for f in fracs.values():
            denom = denom * f.denominator // gcd(denom, f.denominator)
        ints = {c: int(f * denom) for c, f in fracs.items() if f}
        if not ints:
            return None
        g = 0
        for v in ints.values():
            g = gcd(g, abs(v))
        if g > 1:
            ints = {c: v // g for c, v in ints.items()}
        out.append(ints)
    return out


def _pairwise_lift(a):
    """(primes combined, vectors) of the first lift the pairwise oracle verifies."""
    attempts = []
    for p in itertools.islice(exact._primes_one_mod(1), exact._LIFTS):
        _, free_cols, basis = exact._rref_modp_dense(a, p)
        attempts.append((p, tuple(free_cols), basis))
        best = min(attempts, key=lambda t: len(t[1]))
        group = [t for t in attempts if t[1] == best[1]]
        vecs = _combine_and_reconstruct(group, a.shape[1])
        if vecs is not None and exact._verify_kernel_exact(a, vecs):
            return len(group), vecs
    return None


def _oracle_nullity(a) -> int:
    a = a.toarray() if hasattr(a, "toarray") else np.asarray(a)
    rows = [{j: int(a[i, j]) for j in range(a.shape[1]) if a[i, j]}
            for i in range(a.shape[0])]
    rank, _ = _kernel_exact_fractions(rows, a.shape[0], a.shape[1])
    return a.shape[1] - rank


def test_certified_nullity_matches_fraction_oracle():
    rng = np.random.default_rng(7)
    for trial in range(300):
        nr = int(rng.integers(1, 9))
        nc = int(rng.integers(1, 9))
        a = rng.integers(-5, 6, size=(nr, nc))
        if trial % 3 == 0 and nr > 1:
            a[-1] = 3 * a[0]
        k, vecs = exact.kernel_certified(a)
        assert k == _oracle_nullity(a)
        for vec in vecs:
            prod = [sum(int(a[i, j]) * vec.get(j, 0) for j in vec) for i in range(nr)]
            assert not any(prod)


def _random_sparse_400():
    rng = np.random.default_rng(11)
    n = 400
    density = 0.004
    nnz = int(density * n * n)
    rows = rng.integers(0, n, size=nnz)
    cols = rng.integers(0, n, size=nnz)
    vals = rng.integers(-3, 4, size=nnz)
    return sp.coo_matrix((vals, (rows, cols)), shape=(n, n), dtype=np.int64).tocsr()


def _shift_minus_identity(n, s):
    perm = (np.arange(n) + s) % n
    p = sp.coo_matrix((np.ones(n, dtype=np.int64), (np.arange(n), perm)),
                      shape=(n, n)).tocsr()
    return (p - sp.identity(n, dtype=np.int64, format="csr")).astype(np.int64)


_PERMUTATION_CASES = [(300, 5), (500, 7), (1000, 250)]


def test_permutation_difference_rank():
    # right shift by s on N points: nullity of P - I is gcd(N, s) cycles
    for n, s in _PERMUTATION_CASES:
        k, _ = exact.kernel_certified(_shift_minus_identity(n, s))
        assert k == gcd(n, s)


def _torus_d1_transposed(lattice):
    cx = torus_complex(2)
    return CoverInstance(cx, quotient(cx.group, LatticeSubgroup(lattice))).boundary(1).T


def _sanov_incidence(k, m):
    # presentation complex of <[[1,k],[0,1]], [[1,0],[k,1]]>: d_1 = (g1 - e, g2 - e)
    group = IntegralMatrixGroup(2, [[[1, k], [0, 1]], [[1, 0], [k, 1]]])
    g1, g2 = group.generators
    e = group.identity
    d1 = GroupRingMatrix(group, [[GroupRingElement(group, {g1: 1, e: -1}),
                                  GroupRingElement(group, {g2: 1, e: -1})]], shape=(1, 2))
    cx = EquivariantChainComplex(group, [1, 2], {1: d1})
    return CoverInstance(cx, quotient(group, CongruenceSubgroup(m))).boundary(1).T


_RREF_FAMILIES = {
    # non-diagonal Hermite normal form lattices [[a, b], [0, d]], index 200-1000
    **{f"torus2_d1T_{a}_{b}_{d}": (lambda a=a, b=b, d=d: _torus_d1_transposed([[a, b], [0, d]]))
       for a, b, d in [(8, 3, 25), (20, 7, 30), (4, 1, 150), (25, 11, 40)]},
    "sanov_k2_mod7_incidence": lambda: _sanov_incidence(2, 7),
    **{f"shift_{n}_{s}": (lambda n=n, s=s: _shift_minus_identity(n, s))
       for n, s in _PERMUTATION_CASES},
    "random_400": _random_sparse_400,
}


@pytest.mark.parametrize("family", sorted(_RREF_FAMILIES))
def test_sparse_rref_matches_quadratic_back_substitution(family):
    m = _RREF_FAMILIES[family]()
    rows, ncols = exact._as_sparse_rows(m), m.shape[1]
    p = FIRST_PRIME
    cap = 10 ** 12
    got = exact._rref_modp_sparse(rows, ncols, p, cap)
    want = _rref_modp_sparse_quadratic(rows, ncols, p, cap)
    assert got == want
    assert got[0] < ncols  # every family has a kernel for the basis to cover


def test_sparse_and_dense_paths_agree(monkeypatch):
    # these families store no more entries than their nonzeros, so a budget
    # of twice the nonzeros keeps them on the sparse path
    defaults = {}
    for family, build in _RREF_FAMILIES.items():
        m = build()
        rows, ncols = exact._as_sparse_rows(m), m.shape[1]
        sparse = exact._rref_modp_sparse(rows, ncols, FIRST_PRIME, m.count_nonzero())
        assert sparse == exact._rref_modp_dense(m.toarray(), FIRST_PRIME), family
        default = exact.kernel_certified(m)
        assert default[0] > 0, family
        defaults[family] = m, default
    # a budget of 0 hands every matrix to the dense path at its first pivot
    monkeypatch.setattr(exact, "_fill_budget", lambda nrows, ncols, nnz: 0)
    for family, (m, default) in defaults.items():
        assert exact.kernel_certified(m) == default, family


def test_kernel_check_rejects_what_int64_would_wrap():
    # 2 * 2**62 + 2 * 2**62 wraps to 0 in int64
    a = np.array([[2, 2]], dtype=np.int64)
    assert not exact._verify_kernel_exact(a, [{0: 2 ** 62, 1: 2 ** 62}])
    # a true kernel vector past int64 passes through the Python-int check
    a = np.array([[1, -1], [3, -3]], dtype=np.int64)
    assert exact._verify_kernel_exact(a, [{0: 2 ** 63 + 5, 1: 2 ** 63 + 5}])
    assert exact._verify_kernel_exact(sp.csr_matrix(a), [{0: 1, 1: 1}])
    assert not exact._verify_kernel_exact(sp.csr_matrix(a), [{0: 1, 1: 1}, {0: 1}])


def test_kernel_check_on_wide_matrices():
    # wider than a block holds entries, sparse or dense
    ncols = 2 ** 17 + 3
    assert exact._BLOCK_ENTRIES // ncols == 0
    a = sp.csr_matrix((np.array([1, -1], dtype=np.int64), ([0, 0], [0, 1])), shape=(1, ncols))
    good = [{0: 1, 1: 1}, {2: 1}, {ncols - 1: 7}]
    for m in (a, a.toarray()):
        assert exact._verify_kernel_exact(m, good)
        assert not exact._verify_kernel_exact(m, good + [{0: 1}])


_MULTI_PRIME_LIFTS = {
    "row": np.array([[1000003, 999983]], dtype=np.int64),
    "two_rows": np.array([[1000003, 999983, 7], [3, 5, 11]], dtype=np.int64),
    "object_2e41": np.array([[2 ** 41 + 1, 2 ** 41 - 3, 5], [7, 11, 13]], dtype=object),
}


@pytest.mark.parametrize("name", sorted(_MULTI_PRIME_LIFTS))
def test_incremental_lift_matches_pairwise_recombination(monkeypatch, name):
    a = _MULTI_PRIME_LIFTS[name]
    moduli = []
    reconstruct = exact._reconstruct_vectors

    def recording(residues, modulus):
        moduli.append(modulus)
        return reconstruct(residues, modulus)

    monkeypatch.setattr(exact, "_reconstruct_vectors", recording)
    nullity, vecs = exact.kernel_certified(a)
    primes, want = _pairwise_lift(a)
    assert primes >= 2  # one prime is too small to reconstruct these kernels
    assert (nullity, vecs) == (len(want), want)
    assert moduli[-1] == prod(itertools.islice(exact._primes_one_mod(1), primes))
    if name == "row":
        assert (nullity, vecs) == (1, [{0: -999983, 1: 1000003}])


def test_dense_path_reads_no_dict_rows(monkeypatch):
    def refuse(a):
        raise AssertionError("dict rows built on the dense path")

    monkeypatch.setattr(exact, "_as_sparse_rows", refuse)
    a = np.array([[1, 2, 3], [4, 5, 6]], dtype=np.int64)
    assert exact.kernel_certified(a) == (1, [{0: 1, 1: -2, 2: 1}])
    assert exact.rank_certified(a) == 2


def test_dense_path_refuses_past_byte_budget_before_allocating(monkeypatch):
    # an arrow matrix: its full first row fills every later row in, so the
    # sparse path stops at the budget and the dense path, whose 8 MB array
    # is past the patched 1 MiB, refuses it without allocating it
    n = 1000
    a = np.eye(n, dtype=np.int64)
    a[0] = a[:, 0] = 1
    monkeypatch.setattr(exact, "_DENSE_BYTES", 2 ** 20)
    assert 8 * n * n > exact._DENSE_BYTES
    tracemalloc.start()
    try:
        with pytest.raises(SizeCapExceeded):
            exact.kernel_certified(a)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


def test_dense_elimination_holds_one_array():
    # 1200 x 1200 at 30% fill: 360 full columns, each row a multiple of one of
    # three rows, so the sparse elimination is cheap enough to be the oracle;
    # every pivot updates 1200 rows in chunks of at most _BLOCK_ENTRIES
    rng = np.random.default_rng(5)
    n = 1200
    dense = np.zeros((n, n), dtype=np.int64)
    dense[:, rng.choice(n, 360, replace=False)] = (
        rng.integers(1, 3, size=(3, 360))[np.arange(n) % 3] * rng.integers(1, 4, size=(n, 1)))
    a = sp.csr_matrix(dense)
    assert a.nnz == 0.3 * n * n and n * n > 10 * exact._BLOCK_ENTRIES
    # the fill budget picks the dense path
    assert exact._DICT_ENTRY_BYTES * exact._fill_budget(n, n, a.nnz) >= 8 * n * n
    tracemalloc.start()
    try:
        nullity, _vecs = exact.kernel_certified(a)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert nullity == n - 3
    assert peak < 1.5 * 8 * n * n
    sparse = exact._rref_modp_sparse(exact._as_sparse_rows(a), n, FIRST_PRIME, 10 ** 12)
    assert exact._rref_modp_dense(a, FIRST_PRIME) == sparse
    # an array argument is reduced in a copy and left as it is
    assert exact._rref_modp_dense(dense, FIRST_PRIME) == sparse
    assert np.array_equal(dense, a.toarray())


def test_tall_sparse_matrix_costs_memory_by_its_nonzeros():
    # 200 x 10**6 with 200 nonzeros: its int64 array would take 1.6 GB, past
    # the byte budget, but its 200 pins make it a gain graph, and the
    # spanning forest reads only the stored entries
    n = 200
    m = sp.csr_matrix((np.ones(n, dtype=np.int64), (np.arange(n), 5000 * np.arange(n))),
                      shape=(n, 10 ** 6))
    assert 8 * n * 10 ** 6 > exact._DENSE_BYTES
    tracemalloc.start()
    try:
        rank = exact.rank_certified(m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rank == n
    assert peak < 4 * 2 ** 20


def test_sparse_elimination_ranks_past_the_dense_budget(monkeypatch):
    # d2 of the T^3 cover by diag(6, 6, 6): 648 x 648 with four nonzeros in
    # every row and column, so the forest hands it on; its 3.2 MB int64 array
    # is past a 1 MiB budget, so only the sparse elimination may rank it
    cover = CoverInstance(torus_complex(3),
                          quotient(FreeAbelian(3), LatticeSubgroup(6 * np.eye(3, dtype=int))))
    d2 = cover.boundary(2)
    assert d2.shape == (648, 648) and exact._forest_rank(d2) is None
    monkeypatch.setattr(exact, "_DENSE_BYTES", 2 ** 20)
    assert 8 * 648 * 648 > exact._DENSE_BYTES

    def dense(*args):
        raise AssertionError("dense elimination ran")

    monkeypatch.setattr(exact, "_rref_modp_dense", dense)
    assert exact.rank_certified(d2) == 648 - 3 - 215  # rank d2 = c2 - b2 - rank d3


def test_zero_and_empty_matrices():
    assert exact.kernel_certified(np.zeros((3, 4), dtype=np.int64))[0] == 4
    assert exact.rank_certified(np.zeros((0, 5), dtype=np.int64)) == 0
    assert exact.rank_certified(np.zeros((5, 0), dtype=np.int64)) == 0
    for shape, nullity in (((4, 0), 0), ((0, 4), 4)):
        z = np.zeros(shape, dtype=np.int64)
        for m in (z, sp.csr_matrix(z)):
            assert exact.kernel_certified(m) == (nullity, [{c: 1} for c in range(nullity)])
    for m in (sp.csc_matrix((3, 5), dtype=np.int64), sp.coo_matrix((5, 3), dtype=np.int64)):
        assert exact.rank_certified(m) == 0


@pytest.mark.parametrize("a", [
    np.array([[0.5, 0.0]]),
    sp.csr_matrix(np.array([[0.5, 0.0]])),
    np.array([[Fraction(1, 2), 0]], dtype=object),
    [[1]],
], ids=["float", "float csr", "Fraction", "list"])
def test_non_integer_matrices_are_refused(a):
    # truncating 0.5 to 0 would report rank 0 and "verify" e0 as a kernel vector
    for call in (exact.rank_certified, exact.kernel_certified):
        with pytest.raises(UnsupportedMatrix) as info:
            call(a)
        assert isinstance(info.value, L2GrowthError) and isinstance(info.value, TypeError)


def test_smith_normal_form_properties():
    # U unimodular, diag(S) the invariant factors and U*A inside the lattice of S:
    # then U*A and S have the same determinantal divisors, so the same column span
    # (the V with U*A*V = S, which is not returned, exists)
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        a = rng.integers(-9, 10, size=(n, n)).tolist()
        u, s = exact.smith_normal_form(a)
        assert abs(exact.det_int(u)) == 1
        diag = [s[i][i] for i in range(n)]
        assert tuple(diag) == invariant_factors(sympy.Matrix(a), domain=sympy.ZZ)
        off = sum(abs(s[i][j]) for i in range(n) for j in range(n) if i != j)
        assert off == 0
        ua = np.array(u) @ np.array(a)
        for i, d in enumerate(diag):
            assert not ua[i].any() if d == 0 else (ua[i] % d == 0).all()


def test_smith_normal_form_example():
    u, s = exact.smith_normal_form([[2, 1], [0, 3]])
    assert [s[0][0], s[1][1]] == [1, 6]


def test_det_and_unimodular_inverse():
    assert exact.det_int([[2, 0], [0, 3]]) == 6
    assert exact.det_int([[1, 2], [3, 4]]) == -2
    b = [[3, 2], [7, 5]]
    binv = exact.det_int(b) * np.array(exact.adjugate(b))
    assert (np.array(b) @ binv == np.eye(2, dtype=int)).all()
    assert exact.adjugate([[5]]) == [[1]]
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(1, 5))
        a = rng.integers(-9, 10, size=(n, n))
        det = exact.det_int(a.tolist())
        assert (a @ np.array(exact.adjugate(a.tolist())) == det * np.eye(n, dtype=int)).all()


def test_every_exact_refusal_is_a_library_error():
    sites = [
        (TypeError, "unsupported matrix type <class 'list'>",
         lambda: exact.kernel_certified([[1]])),
        (ValueError, "rational reconstruction failed", lambda: exact.rational_reconstruct(3, 13)),
    ]
    for cls, message, call in sites:
        with pytest.raises(cls, match=f"^{re.escape(message)}$") as info:
            call()
        assert isinstance(info.value, L2GrowthError)
    # a residue that reconstructs to nothing makes the lift give up, not raise
    assert exact._reconstruct_vectors([{0: 3}], 13) is None


def test_rational_reconstruction_roundtrip():
    p = 2147483647
    for num, den in [(3, 7), (-1234, 999), (0, 1), (12345, 1), (1, 30000)]:
        u = num * pow(den, -1, p) % p
        assert exact.rational_reconstruct(u, p) == Fraction(num, den)


# ---------------------------------------------------------------------------
# The shared prime source, the Hadamard certificate and a third rank oracle
# ---------------------------------------------------------------------------

def test_lift_primes_are_the_first_of_the_shared_source():
    assert list(itertools.islice(exact._primes_one_mod(1), exact._LIFTS)) == [
        2147483647, 2147483629, 2147483587, 2147483579, 2147483563, 2147483549]


def _rank_deficient(rng, nr, nc, rank, high):
    """A random nr x nc integer matrix of rank at most ``rank``, entries up to ``high``."""
    left = rng.integers(-high, high + 1, size=(nr, rank)).astype(object)
    right = rng.integers(-3, 4, size=(rank, nc)).astype(object)
    return np.array(left.dot(right), dtype=object)


def _oracle_matrices():
    rng = np.random.default_rng(23)
    out = []
    for trial in range(60):
        nr, nc = int(rng.integers(1, 10)), int(rng.integers(1, 10))
        if trial % 2:
            out.append(rng.integers(-4, 5, size=(nr, nc)))
        else:
            r = int(rng.integers(1, min(nr, nc) + 1))
            out.append(_rank_deficient(rng, nr, nc, r, 4).astype(np.int64))
    for high in (2 ** 31 + 1, 2 ** 40, 2 ** 62):
        for _ in range(4):
            nr, nc = int(rng.integers(2, 8)), int(rng.integers(2, 8))
            r = int(rng.integers(1, min(nr, nc) + 1))
            a = _rank_deficient(rng, nr, nc, r, high // 3)
            a[0, 0] = high  # at least one entry past 2**31
            out.append(a.astype(np.int64) if high < 2 ** 62 else a)
    for n, density in ((220, 0.006), (240, 0.01)):
        nnz = int(density * n * n)
        out.append(sp.coo_matrix((rng.integers(-3, 4, size=nnz),
                                  (rng.integers(0, n, size=nnz), rng.integers(0, n, size=nnz))),
                                 shape=(n, n), dtype=np.int64).tocsr())
    return out


ORACLE_MATRICES = _oracle_matrices()


@functools.lru_cache(maxsize=None)
def _oracle_rank(i: int) -> int:
    """sympy's rank of ``ORACLE_MATRICES[i]``, checked against the Fraction oracle."""
    a = ORACLE_MATRICES[i]
    dense = a.toarray() if hasattr(a, "toarray") else a
    rank = sympy.Matrix([[int(x) for x in row] for row in dense]).rank()
    assert a.shape[1] - rank == _oracle_nullity(a)
    return rank


@pytest.mark.parametrize("hadamard", [False, True])
def test_rank_matches_sympy_and_fraction_oracles(monkeypatch, hadamard):
    if hadamard:
        # no lift ever verifies, so every rank comes from the Hadamard bound
        monkeypatch.setattr(exact, "_reconstruct_vectors", lambda residues, modulus: None)
    big = 0
    for i, a in enumerate(ORACLE_MATRICES):
        rank = _oracle_rank(i)
        assert exact.rank_certified(a) == rank
        nullity, vecs = exact.kernel_certified(a)
        assert nullity == a.shape[1] - rank
        if hadamard:
            # only a zero matrix returns its unit vectors ahead of any prime
            assert vecs == [] or not any(exact._as_sparse_rows(a))
        elif exact._int64_matrix(a) is not None:
            assert len(vecs) == nullity
        else:
            # entries past 2**31: kernel vectors, if they lift, pass the Python-int check
            big += 1
            assert len(vecs) in (0, nullity)
            rows = exact._as_sparse_rows(a)
            assert all(sum(v * vec.get(c, 0) for c, v in row.items()) == 0
                       for vec in vecs for row in rows)
    assert big == (0 if hadamard else 12)


def test_hadamard_bound_draws_primes_past_the_lifts(monkeypatch):
    # rank 5 of 6 with entries below 2**43: Hadamard's bound on the 6 x 6
    # minors has about 252 bits, more than the six lift primes' 186
    rng = np.random.default_rng(2)
    a = _rank_deficient(rng, 6, 6, 5, 2 ** 40).astype(np.int64)
    drawn = []
    source = exact._primes_one_mod

    def recording(e):
        for ell in source(e):
            drawn.append(ell)
            yield ell

    monkeypatch.setattr(exact, "_primes_one_mod", recording)
    monkeypatch.setattr(exact, "_reconstruct_vectors", lambda residues, modulus: None)
    assert exact.kernel_certified(a) == (1, [])
    assert len(drawn) > exact._LIFTS
    monkeypatch.setattr(exact, "_primes_one_mod",
                        lambda e: itertools.islice(source(e), exact._LIFTS))
    with pytest.raises(SizeCapExceeded):
        exact.kernel_certified(a)


def test_sparse_fill_in_stays_within_the_byte_budget(monkeypatch):
    # 1000 x 1000 with three entries a row fills in past 1 MiB of dict
    # entries; with that budget, elimination must stop near it and refuse
    rng = np.random.default_rng(4)
    n = 1000
    rows = np.repeat(np.arange(n), 3)
    m = sp.csr_matrix((rng.integers(1, 9, size=3 * n), (rows, rng.integers(0, n, size=3 * n))),
                      shape=(n, n), dtype=np.int64)
    monkeypatch.setattr(exact, "_DENSE_BYTES", 2 ** 20)
    tracemalloc.start()
    try:
        with pytest.raises(SizeCapExceeded):
            exact.kernel_certified(m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20  # the budget plus the input rows


def test_stripe_trial_past_six_primes_is_certified_by_the_bound(monkeypatch):
    # seed 50299 draws a 572 x 572 stripe boundary of rank 286 whose kernel
    # does not lift at the six lift primes; the stripe closed form checks it
    results = []
    certified = exact.kernel_certified

    def recording(a):
        results.append((a, certified(a)))
        return results[-1][1]

    monkeypatch.setattr(exact, "kernel_certified", recording)
    assert verify.suite_stripes(trials=1, seed=50299).ok
    # the glued cover and the base cover share it, and with it its certified rank
    assert [result for a, result in results if a.shape == (572, 572)] == [(286, [])]
    m = next(a for a, _result in results if a.shape == (572, 572))
    # its fill passes the budget of twice its nonzeros, so after a short
    # sparse attempt it is eliminated densely
    with pytest.raises(exact._FillIn):
        exact._rref_modp_sparse(exact._as_sparse_rows(m), 572, FIRST_PRIME,
                                exact._fill_budget(572, 572, m.count_nonzero()))


@st.composite
def gain_graphs(draw):
    """Integer CSR matrices whose rows have one or two nonzeros: the matrices of
    cover boundaries.  A row with nonzeros x, y at columns u, w is an edge asking
    x v_u + y v_w = 0 (the gain -x/y, a unit or not), a row with one is a pin,
    a parallel row is a multiple of an earlier one, and some rows also store an
    explicit zero."""
    ncols, nrows = draw(st.integers(1, 30)), draw(st.integers(0, 30))
    gains = st.one_of(st.sampled_from([1, -1]), st.integers(-9, 9).filter(bool))
    rows = []
    for _ in range(nrows):
        kind = draw(st.sampled_from(["edge", "edge", "pin", "parallel"]))
        if kind == "parallel" and rows:
            cols, vals = rows[draw(st.integers(0, len(rows) - 1))]
            scale = draw(gains)
            rows.append((cols, [scale * v for v in vals]))
            continue
        width = 1 if kind == "pin" or ncols == 1 else 2
        cols = draw(st.lists(st.integers(0, ncols - 1), min_size=width, max_size=width,
                             unique=True))
        rows.append((cols, [draw(gains) for _ in cols]))
    data, indices, indptr = [], [], [0]
    for cols, vals in rows:
        free = sorted(set(range(ncols)) - set(cols))
        if free and draw(st.booleans()):
            cols, vals = cols + [draw(st.sampled_from(free))], vals + [0]
        indices += cols
        data += vals
        indptr.append(len(indices))
    return sp.csr_matrix((np.array(data, dtype=np.int64), indices, indptr),
                         shape=(nrows, ncols))


@PROPERTY_SETTINGS
@given(gain_graphs())
def test_gain_graph_kernels_against_sympy(a):
    nrows, ncols = a.shape
    dense = [[int(x) for x in row] for row in a.toarray()]
    rank = sympy.Matrix(nrows, ncols, [x for row in dense for x in row]).rank()
    nullity, vecs = exact.kernel_certified(a)
    assert nullity == ncols - rank
    for vec in vecs:
        assert all(sum(row[c] * v for c, v in vec.items()) == 0 for row in dense)
    assert exact.rank_certified(a) == exact.rank_certified(a.T) == rank
    # the spanning forest answers every gain graph, sparse or dense, either way round
    assert exact.kernel_certified(a.T)[0] == nrows - rank
    assert [exact._forest_rank(m) for m in (a, a.T, a.toarray(), a.T.toarray())] == [rank] * 4


def _sympy_rank(m) -> int:
    dense = m.toarray().tolist()
    return DomainMatrix.from_list(dense, sympy.ZZ).convert_to(sympy.QQ).rank()


@functools.lru_cache(maxsize=None)
def _cover_boundaries():
    torus = CoverInstance(torus_complex(2),
                          quotient(FreeAbelian(2), LatticeSubgroup([[4, 1], [0, 6]])))
    stripe = parse_complex(COMPLEXES / "stripe_t2_q3.json")
    stripe = CoverInstance(stripe, quotient(stripe.group, LatticeSubgroup([[3, 0], [1, 5]])))
    boundaries = {f"torus2_d{q}": torus.boundary(q) for q in (1, 2)}
    boundaries.update({f"stripe_t2_q3_d{q}": stripe.boundary(q) for q in (1, 2, 3, 4)})
    boundaries["sl2_k2_mod5_presentation_d1"] = _sanov_incidence(2, 5).T
    return boundaries


@pytest.mark.parametrize("name", sorted(_cover_boundaries()))
def test_forest_ranks_cover_boundaries_as_kernel_certified_and_sympy_do(name):
    a = _cover_boundaries()[name]
    rank = _sympy_rank(a)
    for m in (a, a.T):
        assert exact._forest_rank(m) == rank
        assert m.shape[1] - exact.kernel_certified(m)[0] == rank


@pytest.mark.parametrize("rows", [
    [[1, -1], [4, -1]],                     # v1 = v0, then v1 = 4 v0
    [[2, -1, 0], [0, 2, -1], [1, 0, -1]],   # v1 = 2 v0, v2 = 2 v1, then v2 = v0
])
def test_forest_rechecks_a_cycle_the_prime_calls_balanced(monkeypatch, rows):
    # each cycle has gain product 4, which is 1 mod 3: with the forest's
    # prime at 3 every residue vanishes, and only the exact check finds the
    # component unbalanced, of full rank
    monkeypatch.setattr(exact, "_FOREST_PRIME", 3)
    calls = []
    monkeypatch.setattr(exact, "kernel_certified", lambda a: calls.append(a))
    a = np.array(rows, dtype=np.int64)
    assert exact.rank_certified(a) == exact.rank_certified(sp.csr_matrix(a)) == len(rows)
    assert calls == []


@pytest.mark.parametrize("rows, rank", [
    ([[1, 1, 1], [1, -1, 0], [0, 1, -1]], 3),    # a row and a column of weight three
    ([[2 ** 31 + 1, -1], [1, -1]], 2),           # a gain graph, but one entry past 2**31
])
def test_forest_hands_other_matrices_to_kernel_certified(monkeypatch, rows, rank):
    calls = []
    certified = exact.kernel_certified

    def counting(a):
        calls.append(a.shape)
        return certified(a)

    monkeypatch.setattr(exact, "kernel_certified", counting)
    for a in (np.array(rows, dtype=np.int64), sp.csr_matrix(np.array(rows, dtype=np.int64))):
        assert exact.rank_certified(a) == rank
    assert len(calls) == 2


def _gain_graph(nvertices, edges, pins=()):
    """CSR over ``nvertices`` columns with one row per edge (u, w, x, y), x at
    column u and y at column w, and one row per pinned vertex."""
    rows, cols, vals = [], [], []
    for i, (u, w, x, y) in enumerate(edges):
        rows += [i, i]
        cols += [u, w]
        vals += [x, y]
    for i, v in enumerate(pins, start=len(edges)):
        rows.append(i)
        cols.append(v)
        vals.append(1)
    return sp.csr_matrix((np.array(vals, dtype=np.int64), (rows, cols)),
                         shape=(len(edges) + len(pins), nvertices))


def test_forest_ranks_equal_magnitude_entries_by_their_signs():
    # a stripe cover boundary of the suites workload: two 6-cycles whose
    # entries are 2 and -2, each balanced, so rank 12 - 2
    n = 12
    a = np.zeros((n, n), dtype=np.int64)
    a[np.arange(n), np.arange(n)] = -2
    a[np.arange(n), (np.arange(n) - 2) % n] = 2
    assert _sympy_rank(sp.csr_matrix(a)) == 10
    for m in (a, a.T, sp.csr_matrix(a), sp.csc_matrix(a)):
        assert exact._forest_rank(m) == 10
    # one magnitude per edge, not one overall: 3 v0 = 3 v1, 5 v1 = -5 v2, 7 v2 = 7 v0
    b = _gain_graph(3, [(0, 1, 3, -3), (1, 2, 5, 5), (2, 0, 7, -7)])
    assert exact._forest_rank(b) == _sympy_rank(b) == 3
    # a 300-cycle of entries 2 and -2 numbered at random, balanced, and with
    # one edge 2, 2 not: products of the entries themselves, not their
    # signs, would wrap to 0 in int64 and call both balanced
    n = 300
    label = np.random.default_rng(4).permutation(n)
    cycle = [(label[i], label[(i + 1) % n], 2, -2) for i in range(n)]
    assert exact._forest_rank(_gain_graph(n, cycle)) == n - 1
    assert exact._forest_rank(_gain_graph(n, cycle[:-1] + [(label[-1], label[0], 2, 2)])) == n


@pytest.mark.parametrize("numbering", ["random", "reverse"])
def test_forest_ranks_paths_and_cycles_numbered_adversarially(numbering):
    n = 500
    label = (np.random.default_rng(3).permutation(n) if numbering == "random"
             else np.arange(n)[::-1])
    path = [(label[i], label[i + 1], 1, -1) for i in range(n - 1)]
    cases = {
        "path": (path, (), n - 1),
        "pinned_path": (path, (label[n // 2],), n),
        "cycle": (path + [(label[-1], label[0], -1, 1)], (), n - 1),
        # the gains multiply to 2 around the cycle, so it is unbalanced
        "cycle_product_2": (path + [(label[-1], label[0], 2, -1)], (), n),
    }
    for name, (edges, pins, rank) in cases.items():
        a = _gain_graph(n, edges, pins)
        assert exact._forest_rank(a) == rank, name
        assert exact._forest_rank(a.T.tocsr()) == rank, name
        assert n - exact.kernel_certified(a)[0] == rank, name


def test_forest_checks_isolated_vertices_and_fraction_components(monkeypatch):
    # columns 0-2 hold nothing; 3 and 4 are pinned alone; 5-9 form a path
    # with gains 2, 3, 1/2 and 5/7 closed into a cycle whose gains multiply
    # to 1 (balanced, only Fraction confirms it); 10-12 form a triangle whose
    # gains multiply to 4 (unbalanced); 13-14 are one edge with gain 3/5
    edges = [(5, 6, 2, -1), (6, 7, 3, -1), (7, 8, 1, -2), (8, 9, 5, -7), (9, 5, 7, -15)]
    edges += [(10, 11, 2, -1), (11, 12, 2, -1), (12, 10, 1, -1)]
    edges += [(13, 14, 3, -5)]
    a = _gain_graph(15, edges, pins=(3, 4))
    rank = _sympy_rank(a)
    assert rank == 12 - 2  # 12 touched vertices, two balanced components
    stages = []
    contract = exact._contract

    def recording(n, u, w, x, y, modulus=None):
        stages.append((x.dtype, modulus, u.size))
        return contract(n, u, w, x, y, modulus)

    monkeypatch.setattr(exact, "_contract", recording)
    for m in (a, a.T, a.toarray(), a.T.toarray()):
        assert exact._forest_rank(m) == rank
    # residues first, then the two balanced components' 6 edges exactly
    assert stages[:2] == [(np.int64, exact._FOREST_PRIME, 9), (object, None, 6)]


def _random_path(n, seed):
    label = np.random.default_rng(seed).permutation(n)
    return _gain_graph(n, [(u, w, 1, -1) for u, w in zip(label[:-1], label[1:])])


def test_contraction_rounds_stay_within_the_bound(monkeypatch):
    rounds = []
    path_products = exact._path_products

    def counting(gain, parent, modulus=None):
        rounds[-1] += 1
        return path_products(gain, parent, modulus)

    monkeypatch.setattr(exact, "_path_products", counting)
    # a path of 2**16 vertices numbered at random: ceil(log2 n) rounds
    n = 2 ** 16
    rounds.append(0)
    assert exact._forest_rank(_random_path(n, 5)) == n - 1
    assert 1 < rounds[-1] <= 16
    # random graphs, and stars whose centre has the largest label: at most 2 ceil(log2 n)
    rng = np.random.default_rng(6)
    for trial in range(40):
        n = int(rng.integers(2, 300))
        m = int(rng.integers(1, 2 * n))
        u = rng.integers(0, n, m)
        w = (u + rng.integers(1, n, m)) % n
        a = _gain_graph(n, [(p, q, 1, -1) for p, q in zip(u, w)])
        rounds.append(0)
        # unit gains: every component is balanced
        assert exact._forest_rank(a) == n - connected_components(abs(a.T) @ abs(a))[0]
        assert rounds[-1] <= 2 * int(np.ceil(np.log2(n)))
    for n in (3, 100):
        rounds.append(0)
        star = _gain_graph(n, [(n - 1, v, 1, -1) for v in range(n - 1)])
        assert exact._forest_rank(star) == n - 1
        assert rounds[-1] == 2


def test_large_forest_memory_follows_its_entries():
    # a path of 2**18 vertices numbered at random, rank n - 1; the
    # breadth-first walk it replaced peaked at about 28 times the 8 * nnz
    # bytes of the entries
    n = 2 ** 18
    a = _random_path(n, 7)
    tracemalloc.start()
    try:
        rank = exact.rank_certified(a)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rank == n - 1
    assert peak < 20 * 8 * a.nnz


def test_kernel_check_follows_the_stored_entries_on_wide_sparse_matrices(monkeypatch):
    # one row of two nonzeros over 2**17 + 1 columns: 2**17 kernel vectors,
    # checked in a few sparse products, not in one dense column block each
    ncols = 2 ** 17 + 1
    a = sp.csr_matrix((np.array([1, -1], dtype=np.int64), ([0, 0], [0, 1])), shape=(1, ncols))
    blocks = []
    csc = sp.csc_matrix

    def counting(*args, **kwargs):
        blocks.append(kwargs["shape"])
        return csc(*args, **kwargs)

    monkeypatch.setattr(sp, "csc_matrix", counting)
    nullity, vecs = exact.kernel_certified(a)
    assert nullity == len(vecs) == 2 ** 17
    assert sorted(vecs, key=min)[0] == {0: 1, 1: 1}
    assert 1 <= len(blocks) <= 2 and sum(shape[1] for shape in blocks) == 2 ** 17
    # a wrong candidate in the last block fails the check
    assert not exact._verify_kernel_exact(a, vecs + [{ncols - 1: 1, 0: 1}])
