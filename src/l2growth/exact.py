"""Exact integer linear algebra: Smith normal form, certified ranks and kernels.

Betti numbers must be exact integers, so ranks of the instantiated boundary
matrices are computed over the rationals with a certificate:

1. ``rank_certified`` ranks a gain graph, a matrix whose rows or whose
   columns hold at most two nonzeros each, all within 2**31, from a
   spanning forest (``_forest_rank``): a component of its graph has rank
   |V| - 1 or |V|, and it is |V| unless the tree's one candidate kernel
   vector satisfies every other row.  The forest is hooked together from
   numpy array operations (``_contract``) in at most 2 * ceil(log2 n) rounds
   of pointer jumping.  When every edge's two entries have one magnitude the
   candidate is a vector of signs, found and checked once in int64, exactly;
   otherwise a residue modulo a prime past 2**31 refutes balance, and the
   components it leaves balanced are contracted again with ``Fraction``.
   No elimination, CRT or Hadamard bound is needed.  The forest regroups the
   entries by the other index when the storage lines are the heavier ones.
   Every other matrix, transposed to the orientation with fewer columns, and
   every ``kernel_certified`` call, goes on to step 2;
2. reduce the matrix mod a large prime to a reduced row echelon form, in
   the form one fill budget B picks: B is twice the nonzeros if the dense
   int64 array fits ``_DENSE_BYTES``, else that budget in dict entries.  The
   matrix is read once as its nonempty dict rows if B entries take fewer
   bytes than the dense array, and goes dense once they store more than B
   entries; otherwise it is densified at each prime into one int64 array,
   reduced in place;
3. at each of the first ``_LIFTS`` primes, fold the mod-p kernel basis into
   the CRT residues of the lift (one modular inverse per prime), lift them
   to rational vectors by rational reconstruction, clear denominators, and
   verify ``A @ v == 0`` in exact integer arithmetic: a blocked int64
   product wherever ``max_i sum_j |a_ij| * max |v_j| < 2**62`` certifies
   that no partial sum overflows, Python integers otherwise;
4. if no lift verifies, take ranks only at further primes until their
   product passes Hadamard's bound on the minors one size above the largest
   modular rank s seen; then the rational rank is s.

Since rank mod p never exceeds the rational rank, exhibiting
``ncols - rank_p`` verified independent integer kernel vectors certifies the
rational nullity exactly, and so does step 4: a nonzero (s+1)-minor that
every prime divides would exceed the bound.  Primes come from
``_primes_one_mod``, the source the character path in ``pattern`` also
draws from.  The dense path refuses, with ``SizeCapExceeded`` and before
allocating, any matrix whose int64 array would exceed ``_DENSE_BYTES``
(1 GiB); such a matrix always starts sparse, with the same byte budget.
``check_bytes`` is that one refusal: the torus quadrature and the CLI's
density grid call it as well.  Both ``rank_certified`` and
``kernel_certified`` refuse with ``UnsupportedMatrix`` whatever is not a
numpy array or scipy sparse matrix of integers (an object array must hold
ints): elimination and the kernel check would truncate any other entry.
``kernel_certified`` checks before any elimination, and the forest hands
every non-integer dtype on to it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from heapq import nlargest
from itertools import islice
from math import gcd, isqrt, lcm, prod
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from .errors import ReconstructionFailed, SizeCapExceeded, UnsupportedMatrix

_LIFTS = 6                   # primes at which kernel vectors are lifted
_DENSE_BYTES = 2 ** 30       # largest int64 array the dense path may allocate
_DICT_ENTRY_BYTES = 96       # memory per stored sparse entry (about 93 B under tracemalloc)

_PRODUCT_BOUND = 2 ** 62     # row sums of |a_ij * v_j| below this fit in int64
_ENTRY_BOUND = 2 ** 31       # entries this small keep int64 row sums of |a_ij| exact
_BLOCK_ENTRIES = 2 ** 17     # entries per block of elimination updates or of kernel candidates
# a prime past every entry the forest reads, so that it divides none; a
# product of two residues is below its square, below 2**63
_FOREST_PRIME = 2 ** 31 + 11


class _FillIn(Exception):
    """Sparse elimination filled in too much; retry densely."""


def check_bytes(need: float, what: str) -> None:
    """Raise ``SizeCapExceeded`` when ``what`` would allocate more than ``_DENSE_BYTES``."""
    if need > _DENSE_BYTES:
        raise SizeCapExceeded(f"{what} needs {need} bytes, above the {_DENSE_BYTES}-byte budget")


# ---------------------------------------------------------------------------
# Smith normal form and small exact determinants
# ---------------------------------------------------------------------------

def smith_normal_form(a: Sequence[Sequence[int]]):
    """Return (U, S) with U*A*V = S diagonal, U and V unimodular; V is not formed.

    Diagonal entries are nonnegative and each divides the next.
    Intended for the small (rank <= ~8) matrices describing subgroups.
    """
    m = [[int(x) for x in row] for row in a]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    u = [[int(i == j) for j in range(nr)] for i in range(nr)]

    def swap_rows(i, j):
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in m:
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
    return u, m


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

def _rref_modp_dense(a, p: int):
    """Full RREF mod p.  Returns (rank, pivot_cols, kernel_basis mod p).

    ``a`` may hold entries past int64 as Python ints (an object array).  The
    elimination holds one int64 array: a sparse ``a`` is densified into it and
    reduced in place, and an array ``a`` is left as it is.  Each pivot
    updates the other rows in chunks of at most ``_BLOCK_ENTRIES`` entries.
    """
    if isinstance(a, np.ndarray):
        m = np.asarray(a % p, dtype=np.int64)
    else:
        m = a.toarray()
        m %= p
        m = m.astype(np.int64, copy=False)
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
        step = max(1, _BLOCK_ENTRIES // (nc - col))
        for start in range(0, rows.size, step):
            chunk = rows[start:start + step]
            m[chunk, col:] = (m[chunk, col:] - np.outer(m[chunk, col], m[r, col:])) % p
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
        raise ReconstructionFailed("rational reconstruction failed")
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
    """``a``, an array or (as CSR) a scipy sparse matrix, as int64 if no |entry|
    exceeds 2**31, else None."""
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
    candidates, each block a CSC matrix of about ``_BLOCK_ENTRIES`` of their
    entries, so that its cost follows the stored entries, not the width;
    otherwise it runs over Python ints on the dict rows of ``a``.
    """
    ncols = a.shape[1]
    a64 = _int64_matrix(a)
    if a64 is not None:
        row_l1 = int(abs(a64).sum(axis=1).max())
        vmax = max((abs(x) for vec in vecs for x in vec.values()), default=0)
        if row_l1 * vmax < _PRODUCT_BOUND:
            width = max(1, _BLOCK_ENTRIES * len(vecs) // max(1, sum(map(len, vecs))))
            for start in range(0, len(vecs), width):
                block = vecs[start:start + width]
                lens = [len(vec) for vec in block]
                rows = np.fromiter((c for vec in block for c in vec), np.int64, sum(lens))
                vals = np.fromiter((x for vec in block for x in vec.values()), np.int64, sum(lens))
                v = sp.csc_matrix((vals, rows, np.cumsum([0] + lens)), shape=(ncols, len(block)))
                if abs(a64 @ v).max():
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


def _require_matrix(a) -> None:
    """Refuse what is not a numpy array or scipy sparse matrix."""
    if not (isinstance(a, np.ndarray) or hasattr(a, "tocoo")):
        raise UnsupportedMatrix(f"unsupported matrix type {type(a)!r}")


def _require_integer_matrix(a) -> None:
    """Refuse what is not an integer numpy array or scipy sparse matrix (see the module docstring)."""
    _require_matrix(a)
    if isinstance(a, np.ndarray) and a.dtype == object:
        for x in a.flat:
            if not isinstance(x, (int, np.integer)):
                raise UnsupportedMatrix(f"matrix entry {x!r} is not an integer")
    elif not np.issubdtype(a.dtype, np.integer):
        raise UnsupportedMatrix(f"matrix of dtype {a.dtype} is not an integer matrix")


def rank_certified(a) -> int:
    """Exact rational rank of an integer matrix: by its spanning forest when it
    is a gain graph (``_forest_rank``), by ``kernel_certified`` otherwise,
    which alone checks the entries."""
    _require_matrix(a)
    nr, nc = a.shape  # rank is transpose-invariant; elimination is cheaper on fewer columns
    rank = _forest_rank(a)
    return min(nr, nc) - kernel_certified(a.T if nr < nc else a)[0] if rank is None else rank


def _forest_rank(a):
    """Exact rank of ``a`` from a spanning forest of its gain graph, or None.

    ``a`` is a gain graph when no |entry| exceeds 2**31 and its rows, or else
    its columns, hold at most two nonzeros each; those lines are the edges and
    the other index the vertices.  A line x, y at vertices u, w is the edge
    x v_u + y v_w = 0, and a line with one entry pins its vertex to 0.  A
    spanning tree of a component has triangular lines, so its rank is at least
    |V| - 1, and it fixes the one candidate kernel vector up to scale: the
    root is 1 and each vertex the product of the gains -x/y along its tree
    path.  ``_contract`` builds the forest by hooking and returns the
    candidate as each vertex's potential against its root.  Every entry of the
    candidate is nonzero, so a pin gives full rank, and so does an edge the
    candidate violates.  When every edge has |x| = |y|, every gain and every
    potential is a sign, and one contraction on the signs in int64 is exact.
    Otherwise the contraction runs on residues modulo ``_FOREST_PRIME``,
    which divides no entry, so the residues are the candidate's reduction and
    a nonzero one refutes balance; the components it leaves balanced are
    contracted again with ``Fraction``, and are balanced exactly when every
    edge holds.  The rank is the number of vertices less the number of
    balanced components.  Only the stored entries and the vertices they touch
    are read, so memory follows the nonzeros, not the shape.
    """
    if isinstance(a, np.ndarray):
        minor = np.nonzero(a)[1]
        vals = a[a != 0]
        counts = np.count_nonzero(a, axis=1)
    else:
        if not (a.format in ("csr", "csc") and a.has_canonical_format and a.data.all()):
            a = a.tocsr(copy=True)
            a.sum_duplicates()
            a.eliminate_zeros()
        minor, vals = a.indices, a.data  # grouped by row if CSR, by column if CSC
        counts = np.diff(a.indptr)
    vals = _int64_matrix(vals)
    if vals is None:
        return None
    if not vals.size:
        return 0
    if counts.max() > 2:
        # group the entries by the other index; rank is transpose-invariant
        order = np.argsort(minor, kind="stable")
        minor, vals, counts = (np.repeat(np.arange(counts.size), counts)[order], vals[order],
                               np.unique(minor, return_counts=True)[1])
        if counts.max() > 2:
            return None
    starts = np.cumsum(counts) - counts
    n = int(minor.max()) + 1
    # relabel the touched vertices 0, 1, ... unless they are already all of 0 .. n - 1
    if n > minor.size or not np.bincount(minor).all():
        minor = np.unique(minor, return_inverse=True)[1]
        n = int(minor.max()) + 1
    first = starts[counts == 2]
    u, w, x, y = minor[first], minor[first + 1], vals[first], vals[first + 1]
    pins = minor[starts[counts == 1]]

    signs = np.array_equal(np.abs(x), np.abs(y))
    if signs:  # every gain -x/y is a sign, and so is every potential: exact in int64
        root, holds = _contract(n, u, w, np.sign(x), np.sign(y))
    else:
        root, holds = _contract(n, u, w, x % _FOREST_PRIME, y % _FOREST_PRIME, _FOREST_PRIME)
    balanced = root == np.arange(n)  # one root per component
    balanced[root[pins]] = False
    balanced[root[u[~holds]]] = False
    if not signs and balanced.any():
        # the components whose residues all vanish, checked in exact arithmetic
        on = balanced[root[u]]
        _, holds = _contract(n, u[on], w[on], x[on].astype(object), y[on].astype(object))
        balanced[root[u[on][~holds]]] = False
    return n - int(np.count_nonzero(balanced))


_FRACTION = np.frompyfunc(Fraction, 2, 1)


def _contract(n, u, w, x, y, modulus=None):
    """(the root of each vertex, which edges hold) on a hooking forest of the
    gain graph whose edges are x v_u + y v_w = 0 on the vertices 0, ..., n - 1.

    Each vertex keeps its root and a potential, a pair (num, den) with
    v = num / den * v_root: residues modulo ``modulus``, or exact values,
    int64 signs or, from object arrays of ints, a ``Fraction`` over 1.  In
    each round every root with a neighbouring root of smaller label hooks
    onto the smallest such root through one edge, whose equation, composed
    with the potentials of its two ends, gives the hooked root's potential;
    ``_path_products`` then points every vertex at its new root.  Hooks go
    strictly downward, so they form a forest, and the last root of a
    component is its smallest vertex.

    Rounds: a root R that neither hooks nor is hooked onto has only larger
    neighbouring roots, and each of them hooks onto a root smaller than R, so
    R hooks in the next round.  So every root left after two rounds was
    hooked onto in the first of them, by a root that did not stay: at most
    half of a component's roots are left, and there are at most
    2 * ceil(log2 n) rounds, each of at most ceil(log2 n) jumps.  On a path
    the roots that do not hook are local minima, no two adjacent, so
    ceil(log2 n) rounds suffice.  Every residue has magnitude below
    ``modulus``, so a product of two stays below ``modulus**2`` < 2**63.
    """
    def times(a, b):
        return a * b % modulus if modulus is not None else a * b

    def sides(u, w, x, y):  # x v_u + y v_w = 0, times den_u den_w: a v_root(u) + b v_root(w) = 0
        num, den = pot
        return times(times(x, num[u]), den[w]), times(times(y, num[w]), den[u])

    root = np.arange(n)
    pot = np.ones((2, n), dtype=x.dtype)
    cu, cw, cx, cy, ru, rw = u, w, x, y, u, w  # the edges between two trees, and their roots
    while cu.size:
        hi, lo = np.maximum(ru, rw), np.minimum(ru, rw)
        low = np.full(n, n)
        np.minimum.at(low, hi, lo)
        pick = np.flatnonzero(lo == low[hi])
        slot = np.empty(n, dtype=np.intp)
        slot[hi[pick]] = pick  # one edge per hooked root, whichever the write keeps
        e = pick[slot[hi[pick]] == pick]
        hooked = hi[e]
        a, b = sides(cu[e], cw[e], cx[e], cy[e])
        up = ru[e] == hooked  # then v_hooked = -b / a * v_lo, else -a / b
        num, den = np.where(up, -b, -a), np.where(up, a, b)
        if num.dtype == object:  # one reduced Fraction, which grows only with its value
            num, den = _FRACTION(num, den), 1
        # a root's potential is 1 until it hooks
        pot[0][hooked], pot[1][hooked], root[hooked] = num, den, lo[e]
        pot, root = _path_products(pot, root, modulus)
        ru, rw = root[cu], root[cw]
        cross = ru != rw
        cu, cw, cx, cy, ru, rw = cu[cross], cw[cross], cx[cross], cy[cross], ru[cross], rw[cross]
    a, b = sides(u, w, x, y)
    return root, (a + b) % modulus == 0 if modulus is not None else a + b == 0


def _path_products(gain, parent, modulus=None):
    """(products of ``gain`` from each vertex up to its root, the roots).

    ``gain`` holds the values of each vertex along its last axis.  ``parent``
    points each vertex at its parent and each root at itself, and a root's
    gain is 1.  Pointer jumping takes log2 of the depth rounds.
    """
    while True:
        up = parent[parent]
        if np.array_equal(up, parent):
            return gain, parent
        gain = gain * gain.take(parent, axis=-1)
        if modulus is not None:
            gain %= modulus
        parent = up


def kernel_certified(a) -> Tuple[int, List[Dict[int, int]]]:
    """Exact rational nullity, with verified integer kernel vectors (as sparse dicts).

    The matrix is eliminated in the form the fill budget of the module
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
    _require_integer_matrix(a)
    nnz = int(np.count_nonzero(a)) if isinstance(a, np.ndarray) else a.count_nonzero()
    nrows, ncols = a.shape
    if nnz == 0:
        return ncols, [{c: 1} for c in range(ncols)]

    budget = _fill_budget(nrows, ncols, nnz)
    use_sparse = _DICT_ENTRY_BYTES * budget < 8 * nrows * ncols
    rows = _as_sparse_rows(a) if use_sparse else None

    def rref(p: int):
        nonlocal use_sparse
        if use_sparse:
            try:
                return _rref_modp_sparse(rows, ncols, p, budget)
            except _FillIn:
                use_sparse = False
        check_bytes(8 * nrows * ncols, f"dense elimination of a {nrows}x{ncols} matrix")
        return _rref_modp_dense(a, p)

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
        except ReconstructionFailed:
            return None
        denom = lcm(*(f.denominator for _, f in fracs))
        ints = {c: f.numerator * (denom // f.denominator) for c, f in fracs if f}
        if not ints:
            return None
        g = gcd(*ints.values())
        out.append({c: v // g for c, v in ints.items()})
    return out
