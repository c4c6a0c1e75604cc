"""Exact arithmetic in Z[Gamma] and matrices over it.

Coefficients are arbitrary-precision integers (or exact rationals after
polynomial evaluation); there is no floating point in this module.  The
involution sends sum(c_g * g) to sum(c_g * g^{-1}); combined with the
transpose it gives the adjoint of an equivariant operator.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .caps import DEFAULT_CAPS, Caps
from .errors import (BadChainComplex, CrossCheckMismatch, DimensionOutOfRange, NotSquare,
                     ShapeMismatch)
from .polynomials import as_poly

Coefficient = Union[int, Fraction]


class GroupRingElement:
    """Finite formal combination of group elements with nonzero coefficients."""

    __slots__ = ("group", "terms")

    def __init__(self, group, terms: Dict):
        self.group = group
        self.terms = {g: c for g, c in terms.items() if c}

    # -- constructors ------------------------------------------------------
    @classmethod
    def zero(cls, group) -> "GroupRingElement":
        return cls(group, {})

    @classmethod
    def one(cls, group) -> "GroupRingElement":
        return cls(group, {group.identity: 1})

    @classmethod
    def monomial(cls, group, element, coeff: Coefficient = 1) -> "GroupRingElement":
        return cls(group, {element: coeff})

    # -- ring structure ----------------------------------------------------
    def __add__(self, other: "GroupRingElement") -> "GroupRingElement":
        terms = dict(self.terms)
        for g, c in other.terms.items():
            terms[g] = terms.get(g, 0) + c
        return GroupRingElement(self.group, terms)

    def __sub__(self, other: "GroupRingElement") -> "GroupRingElement":
        return self + -other

    def __neg__(self) -> "GroupRingElement":
        return GroupRingElement(self.group, {g: -c for g, c in self.terms.items()})

    def __mul__(self, other) -> "GroupRingElement":
        if isinstance(other, GroupRingElement):
            mul = self.group.mul
            terms: Dict = {}
            for g, a in self.terms.items():
                for h, b in other.terms.items():
                    gh = mul(g, h)
                    terms[gh] = terms.get(gh, 0) + a * b
            return GroupRingElement(self.group, terms)
        return GroupRingElement(self.group,
                                {g: c * other for g, c in self.terms.items()})

    def __rmul__(self, other) -> "GroupRingElement":
        return self * other

    def star(self) -> "GroupRingElement":
        """Involution g -> g^{-1} with unchanged coefficients."""
        inv = self.group.inv
        return GroupRingElement(self.group, {inv(g): c for g, c in self.terms.items()})

    # -- queries -----------------------------------------------------------
    def coefficient(self, element) -> Coefficient:
        return self.terms.get(element, 0)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def support(self):
        return self.terms.keys()

    def l1_norm(self) -> Coefficient:
        return sum(abs(c) for c in self.terms.values())

    def __eq__(self, other) -> bool:
        return isinstance(other, GroupRingElement) and self.terms == other.terms

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = [f"{c}*{g}" for g, c in sorted(self.terms.items(), key=lambda t: str(t[0]))]
        return " + ".join(bits)


class GroupRingMatrix:
    """Dense rectangular matrix over Z[Gamma]."""

    __slots__ = ("group", "nrows", "ncols", "entries")

    def __init__(self, group, entries: Sequence[Sequence[GroupRingElement]],
                 shape: Optional[Tuple[int, int]] = None):
        self.group = group
        if shape is not None:
            self.nrows, self.ncols = shape
        else:
            self.nrows = len(entries)
            self.ncols = len(entries[0]) if self.nrows else 0
        self.entries = tuple(tuple(row) for row in entries)
        for row in self.entries:
            if len(row) != self.ncols:
                raise ShapeMismatch("ragged matrix")

    @classmethod
    def zero(cls, group, nrows: int, ncols: int) -> "GroupRingMatrix":
        z = GroupRingElement.zero(group)
        return cls(group, [[z] * ncols for _ in range(nrows)], shape=(nrows, ncols))

    @classmethod
    def identity(cls, group, n: int) -> "GroupRingMatrix":
        one = GroupRingElement.one(group)
        z = GroupRingElement.zero(group)
        return cls(group, [[one if i == j else z for j in range(n)] for i in range(n)])

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.nrows, self.ncols)

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __add__(self, other: "GroupRingMatrix") -> "GroupRingMatrix":
        if self.shape != other.shape:
            raise ShapeMismatch("shape mismatch")
        return GroupRingMatrix(
            self.group,
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.entries, other.entries)],
            shape=self.shape)

    def __sub__(self, other: "GroupRingMatrix") -> "GroupRingMatrix":
        return self + other * -1

    def __mul__(self, scalar) -> "GroupRingMatrix":
        return GroupRingMatrix(self.group,
                               [[e * scalar for e in row] for row in self.entries],
                               shape=self.shape)

    __rmul__ = __mul__

    def __matmul__(self, other: "GroupRingMatrix") -> "GroupRingMatrix":
        if self.ncols != other.nrows:
            raise ShapeMismatch("shape mismatch in product")
        z = GroupRingElement.zero(self.group)
        out: List[List[GroupRingElement]] = []
        for i in range(self.nrows):
            row = []
            for j in range(other.ncols):
                acc = z
                for k in range(self.ncols):
                    a = self.entries[i][k]
                    b = other.entries[k][j]
                    if a.terms and b.terms:
                        acc = acc + a * b
                row.append(acc)
            out.append(row)
        return GroupRingMatrix(self.group, out, shape=(self.nrows, other.ncols))

    def adjoint(self) -> "GroupRingMatrix":
        """Conjugate transpose under the group-ring involution."""
        return GroupRingMatrix(
            self.group,
            [[self.entries[i][j].star() for i in range(self.nrows)]
             for j in range(self.ncols)],
            shape=(self.ncols, self.nrows))

    @property
    def is_zero(self) -> bool:
        return all(e.is_zero for row in self.entries for e in row)

    def __eq__(self, other) -> bool:
        return (isinstance(other, GroupRingMatrix) and self.shape == other.shape
                and self.entries == other.entries)

    def __repr__(self) -> str:
        return f"GroupRingMatrix({self.nrows}x{self.ncols} over {self.group!r})"


class EquivariantChainComplex:
    """Finite free Z[Gamma]-chain complex: cell counts plus boundary matrices.

    ``boundaries[q]`` maps q-chains to (q-1)-chains and has shape
    (cells[q-1], cells[q]).  Every element in a boundary must be one of the
    group (``RankOutOfRange`` otherwise), and the identity d_{q} d_{q+1} = 0
    is checked exactly at construction time.
    """

    def __init__(self, group, cells: Sequence[int],
                 boundaries: Dict[int, GroupRingMatrix]):
        self.group = group
        self.cells = [int(a) for a in cells]
        if any(a < 0 for a in self.cells):
            raise BadChainComplex("negative cell count")
        self.boundaries = {}
        for q in range(1, len(self.cells)):
            d = boundaries.get(q)
            if d is None:
                d = GroupRingMatrix.zero(group, self.cells[q - 1], self.cells[q])
            if d.shape != (self.cells[q - 1], self.cells[q]):
                raise ShapeMismatch(f"boundary {q} has shape {d.shape}, "
                                    f"expected {(self.cells[q - 1], self.cells[q])}")
            self.boundaries[q] = d
        for g in {g for d in self.boundaries.values() for row in d.entries
                  for el in row for g in el.terms}:
            group.element_array(g)  # refuses anything but a group element
        for q in sorted(self.boundaries):
            if q + 1 in self.boundaries:
                prod = self.boundaries[q] @ self.boundaries[q + 1]
                if not prod.is_zero:
                    bad = next((i, j) for i in range(prod.nrows)
                               for j in range(prod.ncols)
                               if not prod.entries[i][j].is_zero)
                    raise BadChainComplex(f"d_{q} o d_{q + 1} != 0 at entry {bad}")
        self._laplacians: Dict[int, GroupRingMatrix] = {}

    @property
    def top_dim(self) -> int:
        return len(self.cells) - 1

    def __repr__(self) -> str:
        return f"EquivariantChainComplex(cells={self.cells} over {self.group!r})"


def laplacian(cx: EquivariantChainComplex, q: int) -> GroupRingMatrix:
    """Combinatorial Laplacian d_q* d_q + d_{q+1} d_{q+1}* in dimension q."""
    if not 0 <= q <= cx.top_dim:
        raise DimensionOutOfRange(f"dimension {q} not in [0, {cx.top_dim}]")
    if q in cx._laplacians:
        return cx._laplacians[q]
    a = cx.cells[q]
    acc = GroupRingMatrix.zero(cx.group, a, a)
    down = cx.boundaries.get(q)
    if down is not None:
        acc = acc + (down.adjoint() @ down)
    up = cx.boundaries.get(q + 1)
    if up is not None:
        acc = acc + (up @ up.adjoint())
    if acc != acc.adjoint():
        raise CrossCheckMismatch("laplacian is not self-adjoint")  # pragma: no cover
    cx._laplacians[q] = acc
    return acc


def support_radius(m: GroupRingMatrix, caps: Caps = DEFAULT_CAPS) -> int:
    """Largest word length of a group element appearing in any entry."""
    support = set()
    for row in m.entries:
        for e in row:
            support.update(e.support())
    return max(m.group.word_lengths(support, caps).values(), default=0)


def norm_bound(m: GroupRingMatrix) -> Coefficient:
    """Operator-norm bound valid for the operator on every quotient.

    Each group element acts as an isometry, so the max row sum of entry l1
    norms bounds the norm of a self-adjoint operator simultaneously on
    l2(Gamma) and on every l2(Gamma/Gamma').  Clamped below by 2 so that the
    bound is always > 1.
    """
    if m.nrows != m.ncols:
        raise NotSquare("norm bound requires a square matrix")
    best = 0
    for row in m.entries:
        s = sum(e.l1_norm() for e in row)
        best = max(best, s)
    return max(2, best)


def gamma_trace(m: GroupRingMatrix) -> Coefficient:
    """Trace against the group von Neumann algebra: identity coefficients
    summed along the diagonal."""
    if m.nrows != m.ncols:
        raise NotSquare("trace requires a square matrix")
    e = m.group.identity
    return sum(m.entries[i][i].coefficient(e) for i in range(m.nrows))


def evaluate_polynomial(p, m: GroupRingMatrix) -> GroupRingMatrix:
    """p(M) by Horner evaluation; exact for rational coefficients."""
    if m.nrows != m.ncols:
        raise NotSquare("polynomial evaluation requires a square matrix")
    poly = as_poly(p)
    n = m.nrows
    acc = GroupRingMatrix.zero(m.group, n, n)
    ident = GroupRingMatrix.identity(m.group, n)
    for c in reversed(poly.coeffs):
        acc = (acc @ m) + (ident * c)
    return acc
