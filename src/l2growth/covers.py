"""Finite covers: instantiated boundary matrices, exact Betti numbers, spectra.

Each group element in a boundary entry is replaced by the permutation matrix
of right multiplication by its image in the finite quotient; this is a ring
homomorphism, so instantiated boundaries still compose to zero and are the
boundaries of the cover.  Two elements' tables are equal when their images
are, and differ at every cell otherwise, so the terms of an entry are merged
by table and each row of the CSR holds one entry per merged term; the
composition d_q d_(q+1) = 0 is checked on the merged terms.  No cover
Laplacian d_q^T d_q + d_(q+1) d_(q+1)^T is formed: spectra and traces work on
its two terms, one boundary each.

Betti numbers come from certified rational ranks of the integer boundary
matrices; floating eigensolvers serve spectral statistics only, and the
exact ranks say how many of the lowest eigenvalues are zeros.

Spectra are assembled per boundary (the Hodge decomposition; Eckmann, Comment.
Math. Helv. 17, 1944): the Laplacian d_q^T d_q + d_(q+1) d_(q+1)^T has b_q
zeros and the nonzero eigenvalues of both terms, and each term's nonzero
spectrum is that of the boundary's Gram matrix on its smaller side.  Covers of
one quotient share each boundary's instantiation, certified rank and Gram
spectrum, so neighbouring Laplacians and other covers solve nothing twice.

Spectra are equivariant.  Right multiplications commute with the left action
of the quotient, so an element h of the largest order r splits every Gram
matrix: ordering the cells along the orbits <h>x_i and taking the discrete
Fourier transform along each orbit turns it into r Hermitian blocks of size
c*n/r, one per character of <h> (Serre, Linear Representations of Finite
Groups, sec. 2.6).  The characters j and r - j give complex conjugate
blocks, so only floor(r/2) + 1 of them go to the eigensolver.

The same left action is transitive, so the diagonal blocks of a polynomial in
the Laplacian agree at all elements: the cover trace is read at element 0,
walking its unit vectors through the boundaries.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from . import exact
from .caps import DEFAULT_CAPS, Caps
from .errors import (AmbiguousCount, BadArgument, CrossCheckMismatch, DimensionOutOfRange,
                     NonIntegralCoefficient, OrderCapExceeded, SizeCapExceeded)
from .group_ring import (EquivariantChainComplex, GroupRingMatrix, evaluate_polynomial,
                         gamma_trace, laplacian, support_radius)
from .groups import FiniteQuotient, check_quotient_of, short_length
from .polynomials import as_poly

# a boundary whose row and column L1 norms stay below this keeps every instantiated
# entry and the products d_q d_(q+1) and d d^T below 2^63
_L1_BOUND = 2 ** 31

# quotient -> {id(boundary): [boundary, instantiated CSR, certified rank or None,
#                             Gram spectrum or None (see ``CoverInstance._gram_part``),
#                             merged terms (see ``_instantiate_matrix``)]};
# the entry holds the boundary, so its id is not reused while the quotient lives
_SHARED = weakref.WeakKeyDictionary()


class CoverInstance:
    """A chain complex instantiated on a finite quotient."""

    def __init__(self, cx: EquivariantChainComplex, quot: FiniteQuotient,
                 caps: Caps = DEFAULT_CAPS):
        check_quotient_of(cx.group, quot)
        max_cells = max(cx.cells) if cx.cells else 0
        if quot.order * max_cells > caps.order:
            raise OrderCapExceeded(
                f"instantiated size {quot.order * max_cells} exceeds cap {caps.order}")
        self.cx = cx
        self.quotient = quot
        self.caps = caps
        self.order = quot.order
        shared = _SHARED.setdefault(quot, {})
        self._entries: Dict[int, List] = {}
        for q, d in cx.boundaries.items():
            if id(d) not in shared:
                csr, terms = _instantiate_matrix(d, quot)
                shared[id(d)] = [d, csr, None, None, terms]
            self._entries[q] = shared[id(d)]
        # instantiation is a ring homomorphism, so d'd' = 0 must survive; the
        # terms decide it unless a table is no action, and then the product does
        for q in self._entries:
            if (q + 1 in self._entries
                    and not _terms_compose_to_zero(self._entries[q][4], self._entries[q + 1][4])
                    and np.any((self.boundary(q) @ self.boundary(q + 1)).data)):
                raise CrossCheckMismatch(
                    f"instantiated boundaries {q},{q + 1} do not compose to zero")
        self._eigs: Dict[int, np.ndarray] = {}
        self._eig_errors: Dict[int, float] = {}  # q -> the solver error of spectrum q
        self._orbits: Optional[Tuple[np.ndarray, np.ndarray, int]] = None
        # j -> (r, size): the Gram spectrum of boundary j came from r blocks of that size
        self.spectrum_blocks: Dict[int, Tuple[int, int]] = {}

    def _check_dim(self, q: int) -> None:
        if not 0 <= q <= self.cx.top_dim:
            raise DimensionOutOfRange(f"dimension {q} not in [0, {self.cx.top_dim}]")

    # -- matrices ----------------------------------------------------------
    def boundary(self, q: int) -> Optional[sp.csr_matrix]:
        return self._entries[q][1] if q in self._entries else None

    # -- exact invariants ----------------------------------------------------
    def _rank(self, q: int) -> int:
        entry = self._entries.get(q, (None, None, 0))  # no boundary q: rank 0
        if entry[2] is None:
            entry[2] = exact.rank_certified(entry[1])
        return entry[2]

    def betti(self, q: int) -> int:
        """Exact q-th Betti number of the cover (rational rank formula)."""
        self._check_dim(q)
        return self.cx.cells[q] * self.order - self._rank(q) - self._rank(q + 1)

    def euler_characteristic(self) -> int:
        return sum((-1) ** q * self.betti(q) for q in range(self.cx.top_dim + 1))

    # -- spectra -------------------------------------------------------------
    def eigenvalues(self, q: int) -> np.ndarray:
        """All eigenvalues of the instantiated Laplacian, ascending.

        No Laplacian is built: the spectrum is the exact Betti number b_q of
        zeros, stored as exactly 0, and the nonzero Gram spectra of d_q and
        d_(q+1) (see the module docstring and ``_gram_part``, which applies the
        ``eig`` cap to each Gram).  The solver error is the larger of the two
        Grams' errors.
        """
        if q not in self._eigs:
            self._check_dim(q)
            parts = [self._gram_part(j) for j in (q, q + 1) if j in self._entries]
            self._eigs[q] = np.sort(np.concatenate(
                [np.zeros(self.betti(q))] + [eigs for eigs, _ in parts]))
            self._eig_errors[q] = max((error for _, error in parts), default=0.0)
        return self._eigs[q]

    def _gram_part(self, j: int) -> Tuple[np.ndarray, float]:
        """(the rank(d_j) nonzero eigenvalues of d_j^T d_j, ascending; their solver error).

        Solved once per quotient, on the Gram matrix of the smaller side (its
        blocks under the left action of an element of the largest order; see
        the module docstring).  The ``eig`` cap bounds that Gram's size, checked
        before the shared spectrum is looked up, so a refusal does not depend on
        what another cover already solved.  The certified rank counts the zeros:
        the size - rank lowest eigenvalues must lie within the solver's error of
        0 and the next one above it, or it raises.
        """
        entry = self._entries[j]
        size = min(entry[1].shape)
        if size > self.caps.eig:
            raise SizeCapExceeded(f"Gram matrix size {size} of boundary {j} exceeds "
                                  f"eigensolver cap {self.caps.eig}")
        if entry[3] is None:
            d = entry[1]
            gram = d.T @ d if d.shape[1] <= d.shape[0] else d @ d.T
            if self._orbits is None:
                self._orbits = _left_orbits(self.quotient)
            eigs = np.sort(_equivariant_eigenvalues(gram, *self._orbits))
            zeros = len(eigs) - self._rank(j)
            # the largest absolute row sum bounds the symmetric Gram's 2-norm
            error = eigvalsh_error(len(eigs), float(abs(gram).sum(axis=1).A1.max(initial=0)))
            if np.any(np.abs(eigs[:zeros]) > error) or np.any(eigs[zeros:zeros + 1] <= error):
                raise CrossCheckMismatch(
                    f"the {zeros} lowest Gram eigenvalues of boundary {j} (exact rank "
                    f"{len(eigs) - zeros}) are not separated from the rest by {error:.3g}")
            r = self._orbits[2]
            entry[3] = (eigs[zeros:], error, (r, len(eigs) // r))
        self.spectrum_blocks[j] = entry[3][2]
        return entry[3][:2]

    def count_eigs_below(self, q: int, lam: float) -> int:
        """#{eigenvalues <= lam}, decided only where rounding cannot change it.

        The b zeros are exactly 0 (see ``eigenvalues``).  Any other eigenvalue
        within the solver's error of lam could round to either side of it, so
        then ``AmbiguousCount`` is raised.  A non-finite lam raises ``BadArgument``.
        """
        if not math.isfinite(lam):
            raise BadArgument(f"lam must be finite, got {lam}")
        eigs = self.eigenvalues(q)
        error, rest = self._eig_errors[q], eigs[self.betti(q):]
        if rest.size:
            near = rest[np.argmin(np.abs(rest - lam))]
            if abs(near - lam) <= error:
                raise AmbiguousCount(f"eigenvalue {near:.17g} lies within the solver error "
                                     f"{error:.3g} of lam={lam}")
        return int(np.searchsorted(eigs, lam, side="right"))

    def normalized_trace(self, p, q: int) -> Fraction:
        """Exact matrix trace of p(Laplacian') divided by the quotient order.

        By equivariance (see the module docstring) it is the sum of the diagonal
        entries (c, 0).  As d_q d_(q+1) = 0, the k-th power (k >= 1) of the
        Laplacian is (m^T m)^k summed over m = d_q and m = d_(q+1)^T; the entry of
        (m^T m)^k at (c, 0) is the squared norm of the unit vector there after
        k alternating products with m and m^T: one pass over one boundary per
        degree, in Python integers, and no Laplacian is formed.
        """
        self._check_dim(q)
        poly = as_poly(p)
        a = self.cx.cells[q]
        diagonal = [a] + [0] * poly.degree
        up = self.boundary(q + 1)
        for m in (self.boundary(q), None if up is None else up.T):
            if m is None:
                continue
            coo = m.tocoo()
            weights = coo.data.astype(object)[:, None]
            vecs = np.zeros((coo.shape[1], a), dtype=object)
            vecs[np.arange(a) * self.order, np.arange(a)] = 1  # entries (c, 0), c
            rows, cols, size = coo.row, coo.col, coo.shape[0]
            for k in range(1, poly.degree + 1):
                out = np.zeros((size, a), dtype=object)
                np.add.at(out, rows, weights * vecs[cols])
                vecs, rows, cols, size = out, cols, rows, len(vecs)  # next: the transpose
                diagonal[k] += (vecs * vecs).sum()
        return Fraction(sum(Fraction(c) * d for c, d in zip(poly.coeffs, diagonal)))


def eigvalsh_error(size: int, norm: float) -> float:
    """Error of float64 ``eigvalsh`` on a matrix B of that size with ||B||_2 <= norm:
    p(size) * eps * norm (LAPACK Users' Guide, 3rd ed., sec. 4.7, p(size) = size,
    eps the float64 machine epsilon), and as much again for forming B."""
    return 2 * size * math.ulp(1.0) * norm


def _instantiate_matrix(m: GroupRingMatrix, quot: FiniteQuotient) -> Tuple[sp.csr_matrix, Tuple]:
    """(The integer matrix of m on the quotient as CSR, its merged terms).

    Element g acts by its table t = ``right_mult_indices(g)``: in the block of
    its entry, row x holds g's coefficient at column t[x].  The terms of one
    entry whose tables are equal are merged by adding their coefficients, and
    zero sums are dropped.  The merged terms are the arrays (rows, cols,
    coeffs, tables), in row-major order of their entries.  Tables of a group
    action that differ differ at every cell, so each row of block i holds one
    entry per merged term of row i: the block is laid out that way and each
    row sorted once, the term index carried in the sort key.  Two tables that
    still meet in a row are no group action; that row is summed, so the CSR
    stays the matrix of the tables either way.
    """
    l1 = [[entry.l1_norm() for entry in row] for row in m.entries]
    norm = max(max(map(sum, l1), default=0), max(map(sum, zip(*l1)), default=0))
    if norm >= _L1_BOUND:
        raise SizeCapExceeded(f"a boundary row or column of L1 norm {norm} >= 2^31 "
                              "could pass int64 on a cover")
    n = quot.order
    distinct = {el for row in m.entries for entry in row for el in entry.terms}
    index, unique, table_of = {}, [], {}  # equal tables get one index
    for el in distinct:  # one right multiplication per element
        table = np.asarray(quot.right_mult_indices(el), dtype=np.intp)
        table_of[el] = index.setdefault(table.tobytes(), len(unique))
        if table_of[el] == len(unique):
            unique.append(table)
    # (i, j, table, coefficient); the number in each row; the pairs in one entry
    terms, counts, pairs = [], [], []
    for i, row in enumerate(m.entries):
        start = len(terms)
        for j, entry in enumerate(row):
            merged: Dict[int, int] = {}
            for el, coeff in entry.terms.items():
                if coeff != int(coeff):
                    raise NonIntegralCoefficient(
                        f"cover instantiation requires integer coefficients, got {coeff}")
                merged[table_of[el]] = merged.get(table_of[el], 0) + int(coeff)
            first = len(terms)
            terms += [(i, j, t, c) for t, c in merged.items() if c]
            pairs += [(s, t) for t in range(first, len(terms)) for s in range(first, t)]
        counts.append(len(terms) - start)
    shaped = all(table.shape == (n,) for table in unique)
    unique = np.array(unique if shaped else [], dtype=np.intp).reshape(-1, n)
    # as unsigned, a negative entry is past n as well
    if not shaped or unique.size and unique.view(np.uintp).max() >= n:
        raise CrossCheckMismatch("a right multiplication table does not map the quotient "
                                 "into itself")
    rows, cols, which, coeffs = np.array(terms, dtype=np.int64).reshape(-1, 4).T
    tables = unique[which]
    # two merged tables of one entry that meet at a cell are no group action
    summed = bool(pairs) and bool(np.equal(*tables[np.array(pairs).T]).any())

    shift = (len(terms) - 1).bit_length()  # the low bits of a key hold its term
    keys = (tables + n * cols[:, None]) << shift | np.arange(len(terms))[:, None]
    blocks, start = [keys[:0].ravel()], 0
    for k in counts:  # row block i: its keys cell by cell, each cell's row sorted
        block = keys[start:start + k].T.copy()
        if k > 1:
            block.sort(axis=1)
        blocks.append(block.ravel())
        start += k
    keys = np.concatenate(blocks)
    nnz = n * len(terms)
    dtype = np.int32 if max(m.nrows * n, m.ncols * n, nnz) < 2 ** 31 else np.int64
    indptr = np.zeros(m.nrows * n + 1, dtype=dtype)
    np.array(counts, dtype=dtype).repeat(n).cumsum(out=indptr[1:])
    out = sp.csr_matrix((coeffs.take(keys & ((1 << shift) - 1)), (keys >> shift).astype(dtype),
                         indptr), shape=(m.nrows * n, m.ncols * n), copy=False)
    if summed:  # a table that is no group action
        out.sum_duplicates()
        out.eliminate_zeros()
    else:
        out.has_canonical_format = True
    return out, (rows, cols, coeffs, tables)


def _terms_compose_to_zero(a, b) -> bool:
    """True if the product of two instantiated boundaries is zero by their merged terms.

    Block (i, l) of the product sums, over j and the merged terms (s, g) of
    entry (i, j) of ``a`` and (t, h) of entry (j, l) of ``b``, s*t times the
    composed table h[g].  These products are merged by block and value at
    element 0; when each merged group holds equal tables and sums to zero, the
    product is zero.  Otherwise it is not, unless a table is no group action,
    which only the product itself can decide.  Each group's |s*t| add up to
    less than 2^62 under the L1 bound, so int64 sums are exact.
    """
    a_rows, a_cols, a_coeffs, a_tables = a
    b_rows, b_cols, b_coeffs, b_tables = b
    pa, pb = np.nonzero(a_cols[:, None] == b_rows)  # the pairs that meet at j
    if not len(pa):
        return True
    n = a_tables.shape[1]
    composed = np.take(b_tables, a_tables[pa] + n * pb[:, None])
    key = (a_rows[pa] * (b_cols.max() + 1) + b_cols[pb]) * n + composed[:, 0]
    order = key.argsort()
    key, composed = key[order], composed[order]
    new = np.concatenate([[True], key[1:] != key[:-1]])  # the first of each group
    if np.add.reduceat(a_coeffs[pa[order]] * b_coeffs[pb[order]], new.nonzero()[0]).any():
        return False
    # each composed table equals the one before it in its group
    return bool(((composed[1:] == composed[:-1]).all(axis=1) | new[1:]).all())


def _left_orbits(quot: FiniteQuotient):
    """(orbit, offset, r): the orbits of left multiplication by h of the largest order r.

    h is the element index ``max_order_element`` picks, and its left action is the
    table ``left_mult_indices(h)``.  Element x is ``h^offset[x]`` times the
    representative of orbit ``orbit[x]``, the least index in that orbit; orbits are
    numbered in the order of their representatives.
    """
    h, r = quot.max_order_element()
    jump = quot.left_mult_indices(h)  # x -> h^w x, w doubling each pass
    # low[x] = least index among h^s x for 0 <= s < w, reached at s = back[x]
    low = np.arange(quot.order)
    back = np.zeros(quot.order, dtype=np.intp)
    w = 1
    while w < r:
        far = low[jump]
        take = far < low
        low = np.where(take, far, low)
        back = np.where(take, back[jump] + w, back)
        jump, w = jump[jump], 2 * w
    # h^back[x] x is the representative, so x = h^(-back[x]) times it
    return np.unique(low, return_inverse=True)[1], -back % r, r


def _equivariant_eigenvalues(lap: sp.csr_matrix, orbit: np.ndarray, offset: np.ndarray,
                             r: int) -> np.ndarray:
    """Eigenvalues of a Laplacian that commutes with the left action of <h>, h of order r.

    Row (c, x) of the Laplacian is cell c over element x.  Entry
    ``(c, h^s x_i), (c', h^(s+t) x_k)`` does not depend on s, so the rows at the
    representatives (s = 0) hold all of it: gathered into
    ``table[(c, i), (c', k), t]`` and Fourier transformed over t, they give one
    Hermitian block per character.
    """
    n = len(orbit)
    k = n // r                      # orbits
    size = lap.shape[0] // n * k    # block size a * n / r
    coo = lap.tocoo()
    cell, x = np.divmod(coo.row, n)
    rep = offset[x] == 0
    cell_col, y = np.divmod(coo.col[rep], n)
    flat = (((cell[rep] * k + orbit[x[rep]]) * size + cell_col * k + orbit[y]) * r
            + offset[y])
    table = np.bincount(flat, coo.data[rep].astype(float), size * size * r)
    blocks = np.fft.rfft(table.reshape(size, size, r), axis=-1)
    eigs = np.linalg.eigvalsh(np.moveaxis(blocks, -1, 0))
    # characters 1 .. ceil(r/2) - 1 stand for their conjugates r - j as well
    return np.concatenate([eigs.ravel(), eigs[1:(r + 1) // 2].ravel()])


def instantiate(cx: EquivariantChainComplex, quot: FiniteQuotient,
                caps: Caps = DEFAULT_CAPS) -> CoverInstance:
    """Instantiate every boundary matrix on the finite quotient."""
    return CoverInstance(cx, quot, caps)


@dataclass
class TraceEqualityReport:
    lhs: Fraction            # trace against the deck group
    rhs: Fraction            # normalized trace on the cover
    degree: int
    short: float
    radius: int
    condition_met: bool
    equal: bool


def verify_trace_equality(cx: EquivariantChainComplex, quot: FiniteQuotient,
                          q: int, p, caps: Caps = DEFAULT_CAPS) -> TraceEqualityReport:
    """Compare the deck-group trace of p(Laplacian) with the cover trace.

    When deg(p) < short/R the two must agree exactly; a mismatch under the
    verified condition is a library bug and raises.
    """
    poly = as_poly(p)
    lap = laplacian(cx, q)
    radius = support_radius(lap, caps)
    s = short_length(cx.group, quot.subgroup, caps=caps)
    lhs = Fraction(gamma_trace(evaluate_polynomial(poly, lap)))
    rhs = CoverInstance(cx, quot, caps).normalized_trace(poly, q)
    condition = radius == 0 or poly.degree < s / radius
    equal = lhs == rhs
    if condition and not equal:
        raise CrossCheckMismatch(
            f"trace equality violated under verified condition: {lhs} != {rhs}")
    return TraceEqualityReport(lhs=lhs, rhs=rhs, degree=poly.degree, short=s,
                               radius=radius, condition_met=condition, equal=equal)
