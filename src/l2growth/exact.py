"""Exact integer linear algebra: Smith normal form, certified ranks and kernels.

Betti numbers must be exact integers, so ranks of the instantiated boundary
matrices are computed over the rationals with a certificate:

1. read the matrix once, in the form its elimination uses, and reduce it
   mod a large prime to a reduced row echelon form.  One fill budget B picks
   the form: B is twice the nonzeros if the dense int64 array fits
   ``_DENSE_BYTES``, else that budget in dict entries.  The matrix is read as
   its nonempty dict rows if B entries take fewer bytes than the dense array,
   and goes dense once they store more than B entries; otherwise as an array;
2. at each of the first ``_LIFTS`` primes, fold the mod-p kernel basis into
   the CRT residues of the lift (one modular inverse per prime), lift them
   to rational vectors by rational reconstruction, clear denominators, and
   verify ``A @ v == 0`` in exact integer arithmetic: a blocked int64
   product wherever ``max_i sum_j |a_ij| * max |v_j| < 2**62`` certifies
   that no partial sum overflows, Python integers otherwise;
3. if no lift verifies, take ranks only at further primes until their
   product passes Hadamard's bound on the minors one size above the largest
   modular rank s seen; then the rational rank is s.

Since rank mod p never exceeds the rational rank, exhibiting
``ncols - rank_p`` verified independent integer kernel vectors certifies the
rational nullity exactly, and so does step 3: a nonzero (s+1)-minor that
every prime divides would exceed the bound.  Primes come from
``_primes_one_mod``, the source the character path in ``pattern`` also
draws from.  The dense path refuses, with ``SizeCapExceeded`` and before
allocating, any matrix whose int64 array would exceed ``_DENSE_BYTES``
(1 GiB); such a matrix always starts sparse, with the same byte budget.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from heapq import nlargest
from itertools import islice
from math import gcd, isqrt, lcm, prod
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

from .errors import SizeCapExceeded

_LIFTS = 6                   # primes at which kernel vectors are lifted
_DENSE_BYTES = 2 ** 30       # largest int64 array the dense path may allocate
_DICT_ENTRY_BYTES = 96       # memory per stored sparse entry (about 93 B under tracemalloc)

_PRODUCT_BOUND = 2 ** 62     # row sums of |a_ij * v_j| below this fit in int64
_ENTRY_BOUND = 2 ** 31       # entries this small keep int64 row sums of |a_ij| exact
_BLOCK_ENTRIES = 2 ** 17     # entries per dense block of candidate kernel vectors


class _FillIn(Exception):
    """Sparse elimination filled in too much; retry densely."""


# ---------------------------------------------------------------------------
# Smith normal form and small exact determinants
# ---------------------------------------------------------------------------

def smith_normal_form(a: Sequence[Sequence[int]]):
    """Return (U, S, V) with U*A*V = S diagonal, U and V unimodular.

    Diagonal entries are nonnegative and each divides the next.
    Intended for the small (rank <= ~8) matrices describing subgroups.
    """
    m = [[int(x) for x in row] for row in a]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    u = [[int(i == j) for j in range(nr)] for i in range(nr)]
    v = [[int(i == j) for j in range(nc)] for i in range(nc)]

    def swap_rows(i, j):
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in m:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(i, j, q):
        # row_i += q * row_j
        mi, mj = m[i], m[j]
        for k in range(nc):
            mi[k] += q * mj[k]
        ui, uj = u[i], u[j]
        for k in range(nr):
            ui[k] += q * uj[k]

    def add_col(i, j, q):
        # col_i += q * col_j
        for row in m:
            row[i] += q * row[j]
        for row in v:
            row[i] += q * row[j]

    t = 0
    while t < min(nr, nc):
        # locate a nonzero entry of minimal magnitude in the trailing block
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                if m[i][j] and (best is None or abs(m[i][j]) < abs(m[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        i, j = best
        if i != t:
            swap_rows(t, i)
        if j != t:
            swap_cols(t, j)
        dirty = False
        for i in range(t + 1, nr):
            if m[i][t]:
                q = m[i][t] // m[t][t]
                add_row(i, t, -q)
                if m[i][t]:
                    dirty = True
        for j in range(t + 1, nc):
            if m[t][j]:
                q = m[t][j] // m[t][t]
                add_col(j, t, -q)
                if m[t][j]:
                    dirty = True
        if dirty:
            continue
        # pivot must divide every remaining entry for the divisibility chain
        offender = None
        for i in range(t + 1, nr):
            for j in range(t + 1, nc):
                if m[i][j] % m[t][t]:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            add_row(t, offender, 1)
            continue
        if m[t][t] < 0:
            for k in range(nc):
                m[t][k] = -m[t][k]
            for k in range(nr):
                u[t][k] = -u[t][k]
        t += 1
    return u, m, v


def det_int(a: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a small integer matrix (fraction-free elimination)."""
    n = len(a)
    if n == 0:
        return 1
    m = [[int(x) for x in row] for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def adjugate(a: Sequence[Sequence[int]]) -> List[List[int]]:
    """Adjugate of a small square integer matrix, so ``a @ adj(a) = det(a) * I``.

    ``adj(a)[i][j]`` is the (j, i) cofactor.
    """
    n = len(a)
    return [[(-1) ** (i + j) * det_int([[a[r][c] for c in range(n) if c != i]
                                        for r in range(n) if r != j])
             for j in range(n)] for i in range(n)]


@lru_cache(maxsize=4096)  # every rank certificate walks the same numbers below 2**31
def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.2e9 (bases 2, 3, 5, 7)."""
    if n < 11:
        return n in (2, 3, 5, 7)
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    d = (n - 1) >> s
    return all(pow(b, d, n) == 1 or any(pow(b, d << r, n) == n - 1 for r in range(s))
               for b in (2, 3, 5, 7))


def _primes_one_mod(e: int) -> Iterator[int]:
    """Primes l = 1 (mod e) below 2**31, largest first."""
    return (ell for ell in range((2 ** 31 - 2) // e * e + 1, 1, -e) if _is_prime(ell))


# ---------------------------------------------------------------------------
# Modular echelon forms
# ---------------------------------------------------------------------------

def _rref_modp_dense(a: np.ndarray, p: int):
    """Full RREF mod p.  Returns (rank, pivot_cols, kernel_basis mod p).

    ``a`` may hold entries past int64 as Python ints (an object array).
    """
    m = (np.asarray(a) % p).astype(np.int64, copy=False)
    nr, nc = m.shape
    pivots: List[int] = []
    r = 0
    for col in range(nc):
        if r == nr:
            break
        nz = np.nonzero(m[r:, col])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            m[[r, i]] = m[[i, r]]
        # a pivot row is zero before its pivot column
        inv = pow(int(m[r, col]), -1, p)
        m[r, col:] = (m[r, col:] * inv) % p
        rows = np.nonzero(m[:, col])[0]
        rows = rows[rows != r]
        if rows.size:
            m[rows, col:] = (m[rows, col:] - np.outer(m[rows, col], m[r, col:])) % p
        pivots.append(col)
        r += 1
    pivot_set = set(pivots)
    free_cols = [c for c in range(nc) if c not in pivot_set]
    basis = []
    for fc in free_cols:
        vec: Dict[int, int] = {fc: 1}
        for i, pc in enumerate(pivots):
            val = int(m[i, fc])
            if val:
                vec[pc] = (-val) % p
        basis.append(vec)
    return len(pivots), free_cols, basis


def ranks_modp(stack: np.ndarray, p: int) -> np.ndarray:
    """Ranks mod a prime p < 2**31 of a stack of matrices, shape (count, rows, cols).

    Fraction-free elimination on all matrices at once: each column takes the
    first unused row with a nonzero entry as its pivot, and every other unused
    row becomes ``pivot * row - row[col] * pivot_row``.  Entries stay in
    [0, p), every product below 2**62, and no modular inverse is needed.
    """
    m = np.asarray(stack, dtype=np.int64) % p
    count, nrows, ncols = m.shape
    unused = np.ones((count, nrows), dtype=bool)
    ranks = np.zeros(count, dtype=np.int64)
    at = np.arange(count)
    for col in range(ncols):
        cand = unused & (m[:, :, col] != 0)
        found = cand.any(axis=1)
        piv = cand.argmax(axis=1)
        unused[at[found], piv[found]] = False
        ranks += found
        prow = m[at, piv, col:]
        reduce = (unused & found[:, None])[:, :, None]
        rest = m[:, :, col:]
        m[:, :, col:] = np.where(
            reduce, (prow[:, None, :1] * rest - rest[:, :, :1] * prow[:, None, :]) % p, rest)
    return ranks


def _rref_modp_sparse(rows: List[Dict[int, int]], ncols: int, p: int, budget: int):
    """Sparse full RREF mod p over dict rows.  Raises _FillIn past ``budget`` stored entries.

    Forward elimination reduces each row by the pivots met at its leading
    column.  Back-substitution then runs over the pivots from the last one
    down and reduces only the rows that hold each pivot: a row whose later
    pivots are already cleared holds only its own pivot and free columns, so
    subtracting it never brings a pivot column into another row, and the
    holders found before back-substitution stay exact throughout.  The kernel
    basis is scattered from the RREF rows into the free columns' vectors.
    Returns (rank, free_cols, kernel_basis mod p).
    """
    echelon: List[Dict[int, int]] = []
    pivot_of: Dict[int, int] = {}
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
                inv = pow(r[c], -1, p)
                r = {cc: (vv * inv) % p for cc, vv in r.items()}
                pivot_of[c] = len(echelon)
                echelon.append(r)
                stored += len(r)
                if stored > budget:
                    raise _FillIn
                break
    # back-substitution to full RREF; a row's entries lie at or after its
    # pivot, so each pivot's holders have earlier pivots (listed in pivot order)
    order = sorted(pivot_of)
    holders: Dict[int, List[Dict[int, int]]] = {c: [] for c in order}
    for pc in order:
        row = echelon[pivot_of[pc]]
        for cc in row:
            if cc != pc and cc in holders:
                holders[cc].append(row)
    for pc in reversed(order):
        src = echelon[pivot_of[pc]]
        for row in holders[pc]:
            f = row.pop(pc)
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
            if stored > budget:
                raise _FillIn
    free_cols = [c for c in range(ncols) if c not in pivot_of]
    basis = [{fc: 1} for fc in free_cols]
    slot = {fc: i for i, fc in enumerate(free_cols)}
    for pc, idx in pivot_of.items():
        for cc, vv in echelon[idx].items():
            if cc != pc:
                basis[slot[cc]][pc] = (-vv) % p
    return len(pivot_of), free_cols, basis


# ---------------------------------------------------------------------------
# Rational reconstruction and certification
# ---------------------------------------------------------------------------

def rational_reconstruct(u: int, modulus: int) -> Fraction:
    """Find n/d with n/d == u (mod modulus), |n|, d <= sqrt(modulus/2)."""
    u %= modulus
    bound = isqrt(modulus // 2)
    r0, r1 = modulus, u
    t0, t1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if t1 == 0 or abs(t1) > bound or gcd(r1, abs(t1)) != 1:
        raise ValueError("rational reconstruction failed")
    if t1 < 0:
        r1, t1 = -r1, -t1
    return Fraction(r1, t1)


def _as_sparse_rows(a) -> List[Dict[int, int]]:
    """The nonempty rows of a numpy or scipy sparse matrix, in order, as dicts of python ints."""
    if isinstance(a, np.ndarray):
        rows = ({int(j): int(row[j]) for j in np.flatnonzero(row)} for row in a)
        return [row for row in rows if row]
    coo = a.tocoo()
    by_row: Dict[int, Dict[int, int]] = {}
    for i, j, v in zip(coo.row.tolist(), coo.col.tolist(), coo.data.tolist()):
        if v:
            by_row.setdefault(i, {})[j] = int(v)
    return [by_row[i] for i in sorted(by_row)]


def _int64_matrix(a):
    """``a`` as an int64 array or CSR matrix if no |entry| exceeds 2**31, else None."""
    if not np.issubdtype(a.dtype, np.integer):
        return None
    if hasattr(a, "tocsr"):
        a = a.tocsr()
        data = a.data
    else:
        data = a
    if data.size and (data.min() < -_ENTRY_BOUND or data.max() > _ENTRY_BOUND):
        return None
    return a.astype(np.int64, copy=False)


def _verify_kernel_exact(a, vecs: List[Dict[int, int]]) -> bool:
    """Check A @ v == 0 for every candidate, in exact integer arithmetic.

    ``a`` is the matrix, dense or scipy sparse.  When
    ``max_i sum_j |a_ij| * max_j |v_j| < 2**62`` no partial sum of ``A @ v``
    can leave int64, so the check is one int64 product ``A @ V`` per block of
    candidates, each block a dense array of at most ``_BLOCK_ENTRIES``
    entries; otherwise it runs over Python ints on the dict rows of ``a``.
    """
    ncols = a.shape[1]
    a64 = _int64_matrix(a)
    if a64 is not None:
        row_l1 = int(abs(a64).sum(axis=1).max())
        vmax = max((abs(x) for vec in vecs for x in vec.values()), default=0)
        if row_l1 * vmax < _PRODUCT_BOUND:
            width = max(1, _BLOCK_ENTRIES // ncols)
            for start in range(0, len(vecs), width):
                block = vecs[start:start + width]
                v = np.zeros((ncols, len(block)), dtype=np.int64)
                for j, vec in enumerate(block):
                    v[list(vec), j] = list(vec.values())
                if np.any(a64 @ v):
                    return False
            return True
    rows = _as_sparse_rows(a)
    for vec in vecs:
        for row in rows:
            if len(row) < len(vec):
                s = sum(v * vec.get(c, 0) for c, v in row.items())
            else:
                s = sum(v * row.get(c, 0) for c, v in vec.items())
            if s != 0:
                return False
    return True


def _fill_budget(nrows: int, ncols: int, nnz: int) -> int:
    """Entries the sparse elimination may store: B of the module docstring."""
    return 2 * nnz if 8 * nrows * ncols <= _DENSE_BYTES else _DENSE_BYTES // _DICT_ENTRY_BYTES


def nullity_certified(a) -> int:
    """Exact nullity (rational kernel dimension) of an integer matrix."""
    return kernel_certified(a)[0]


def rank_certified(a) -> int:
    """Exact rational rank of an integer matrix."""
    nr, nc = a.shape
    if nr == 0 or nc == 0:
        return 0
    if nr < nc:
        a = a.T  # rank is transpose-invariant; fewer columns is cheaper
    return min(nr, nc) - kernel_certified(a)[0]


def kernel_certified(a) -> Tuple[int, List[Dict[int, int]]]:
    """Exact rational nullity, with verified integer kernel vectors (as sparse dicts).

    The matrix is read once, in the form the fill budget of the module
    docstring (``_fill_budget``) picks.  At each of the first
    ``_LIFTS`` primes the mod-p kernel is folded into the CRT residues of the
    lift, once per prime, and the lift is reconstructed; once it passes
    ``A @ v == 0`` exactly, the vectors are returned: linearly independent
    over Q, as many as the nullity.  Otherwise the nullity is ``ncols - s``
    for the largest modular rank s, certified by primes whose product passes
    Hadamard's bound on the (s+1)-minors (see the module docstring).  The
    vector list is empty exactly when that bound certified a positive
    nullity, or when the nullity is zero.
    """
    if isinstance(a, np.ndarray):
        nnz = int(np.count_nonzero(a))
    elif hasattr(a, "tocoo"):
        nnz = a.count_nonzero()
    else:
        raise TypeError(f"unsupported matrix type {type(a)!r}")
    nrows, ncols = a.shape
    if ncols == 0:
        return 0, []
    if nnz == 0:
        return ncols, [{c: 1} for c in range(ncols)]

    budget = _fill_budget(nrows, ncols, nnz)
    use_sparse = _DICT_ENTRY_BYTES * budget < 8 * nrows * ncols
    rows = _as_sparse_rows(a) if use_sparse else None
    dense = None

    def rref(p: int):
        nonlocal use_sparse, dense
        if use_sparse:
            try:
                return _rref_modp_sparse(rows, ncols, p, budget)
            except _FillIn:
                use_sparse = False
        if dense is None:
            if 8 * nrows * ncols > _DENSE_BYTES:
                raise SizeCapExceeded(
                    f"dense elimination of a {nrows}x{ncols} matrix needs "
                    f"{8 * nrows * ncols} bytes, above the {_DENSE_BYTES}-byte budget")
            dense = a.toarray() if hasattr(a, "toarray") else a
        return _rref_modp_dense(dense, p)

    primes = _primes_one_mod(1)
    product = 1
    # the lift of the first attempt with the most pivots: its free columns and
    # the CRT residues of its kernel vectors modulo the primes that agree
    lift_free, modulus, residues = None, 1, []
    for p in islice(primes, _LIFTS):
        _, free_cols, basis = rref(p)
        if not free_cols:
            # full column rank mod p certifies full rank over Q
            return 0, []
        product *= p
        if lift_free is None or len(free_cols) < len(lift_free):
            lift_free, modulus, residues = free_cols, p, basis
        elif free_cols == lift_free:
            inv = pow(modulus, -1, p)
            residues = [{c: r.get(c, 0) + (b.get(c, 0) - r.get(c, 0)) * inv % p * modulus
                         for c in r.keys() | b.keys()} for r, b in zip(residues, basis)]
            modulus *= p
        else:
            continue  # the lift is unchanged, so its candidates failed already
        candidates = _reconstruct_vectors(residues, modulus)
        if candidates is not None and _verify_kernel_exact(a, candidates):
            return len(candidates), candidates

    rank = ncols - len(lift_free)
    norms = [[max(1, sum(v * v for v in line.values())) for line in _as_sparse_rows(m)]
             for m in (a, a.T)]
    while rank < min(nrows, ncols) and (
            product ** 2 <= min(prod(nlargest(rank + 1, sq)) for sq in norms)):
        p = next(primes, None)
        if p is None:
            raise SizeCapExceeded("primes below 2^31 stay under the Hadamard bound")
        rank, product = max(rank, rref(p)[0]), product * p
    return ncols - rank, []


def _reconstruct_vectors(residues: List[Dict[int, int]], modulus: int):
    """Primitive integer vectors whose entries reconstruct the residues, or None."""
    out = []
    for vec in residues:
        try:
            fracs = [(c, rational_reconstruct(v, modulus)) for c, v in vec.items()]
        except ValueError:
            return None
        denom = lcm(*(f.denominator for _, f in fracs))
        ints = {c: f.numerator * (denom // f.denominator) for c, f in fracs if f}
        if not ints:
            return None
        g = gcd(*ints.values())
        out.append({c: v // g for c, v in ints.items()})
    return out
