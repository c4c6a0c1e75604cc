"""Deck groups, their finite-index subgroups, and realized finite quotients.

Two kinds of group are supported:

* ``FreeAbelian(n)`` - Z^n with the generating set {+-e_1, ..., +-e_n}, so
  word length is the l1 norm.  Elements are integer tuples.
* ``IntegralMatrixGroup`` - a group of invertible integer matrices given by
  generators.  Elements are (immutable) integer matrices; the representation
  is faithful, so identity testing is exact.  The supported finite-index
  subgroups are congruence subgroups (kernels of entrywise reduction mod m),
  which are automatically normal.

A finite quotient Gamma/Gamma' is held as its index tables, not as a list of
elements: its elements are numbered 0, ..., order - 1 with the identity first,
and the deck group acts through the permutations ``right_mult_indices`` and
``left_mult_indices`` and the array ``element_orders``.  Abelian quotients
number Smith normal form coordinates in mixed radix; congruence quotients
number matrices mod m in BFS order, as int64-coded numpy tables.

All constants produced downstream (shortest subgroup elements, ball volumes,
support radii) depend on these pinned generating sets.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, field
from math import comb
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from .caps import DEFAULT_CAPS, Caps
from .errors import (BadGroup, CrossCheckMismatch, ForeignQuotient, NotFiniteIndex,
                     OrderCapExceeded, RankOutOfRange, SearchCapExceeded, SizeCapExceeded,
                     UnsupportedGroup)
from . import exact

Element = Tuple  # integer tuple (abelian) or tuple of integer tuples (matrix)


def _freeze_matrix(rows: Iterable[Iterable[int]]) -> Tuple[Tuple[int, ...], ...]:
    return tuple(tuple(int(x) for x in row) for row in rows)


def _matmul(a, b):
    n = len(a)
    m = len(b[0])
    k = len(b)
    return tuple(
        tuple(sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m))
        for i in range(n)
    )


class _Group:
    """What both deck groups share: the breadth-first walk of the word metric."""

    def word_length(self, a: Element, caps: Caps = DEFAULT_CAPS) -> int:
        return self.word_lengths([a], caps)[a]

    def iter_ball(self, max_radius: int, max_visited: int) -> Iterator[Tuple[Element, int]]:
        """Breadth-first enumeration of (element, word length), identity first."""
        gens = self.symmetric_generators()
        seen = {self.identity}
        yield self.identity, 0
        frontier = [self.identity]
        for dist in range(1, max_radius + 1):
            nxt = []
            for el in frontier:
                for g in gens:
                    w = self.mul(el, g)
                    if w not in seen:
                        seen.add(w)
                        if len(seen) > max_visited:
                            raise SearchCapExceeded(
                                f"BFS visited more than {max_visited} elements")
                        yield w, dist
                        nxt.append(w)
            if not nxt:
                return
            frontier = nxt


class FreeAbelian(_Group):
    """Z^n with standard generators; word length is the l1 norm."""

    def __init__(self, rank: int):
        if rank < 1:
            raise BadGroup("rank must be >= 1")
        self.rank = rank

    @property
    def identity(self) -> Element:
        return (0,) * self.rank

    def mul(self, a: Element, b: Element) -> Element:
        return tuple(map(operator.add, a, b))

    def inv(self, a: Element) -> Element:
        return tuple(-x for x in a)

    def word_lengths(self, targets: Iterable[Element],
                     caps: Caps = DEFAULT_CAPS) -> Dict[Element, int]:
        return {a: sum(map(abs, a)) for a in targets}  # l1 norms

    def symmetric_generators(self) -> List[Element]:
        gens = []
        for i in range(self.rank):
            e = [0] * self.rank
            e[i] = 1
            gens.append(tuple(e))
            e[i] = -1
            gens.append(tuple(e))
        return gens

    def __repr__(self):
        return f"FreeAbelian({self.rank})"


class IntegralMatrixGroup(_Group):
    """Group of integer matrices generated by a finite set of unimodular matrices."""

    def __init__(self, dimension: int, generators: Sequence[Sequence[Sequence[int]]]):
        if dimension < 1:
            raise BadGroup("dimension must be >= 1")
        self.dimension = dimension
        gens = [_freeze_matrix(g) for g in generators]
        for g in gens:
            if len(g) != dimension or any(len(row) != dimension for row in g):
                raise BadGroup("generator has wrong shape")
            if abs(exact.det_int([list(r) for r in g])) != 1:
                raise BadGroup("generator is not invertible over the integers")
        if not gens:
            raise BadGroup("at least one generator required")
        self.generators = gens

    @property
    def identity(self) -> Element:
        n = self.dimension
        return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))

    def mul(self, a: Element, b: Element) -> Element:
        return _matmul(a, b)

    def inv(self, a: Element) -> Element:
        det = exact.det_int(a)  # +-1, its own inverse
        return _freeze_matrix([[det * x for x in row] for row in exact.adjugate(a)])

    def symmetric_generators(self) -> List[Element]:
        out: List[Element] = []
        for g in self.generators:
            if g not in out:
                out.append(g)
            gi = self.inv(g)
            if gi not in out:
                out.append(gi)
        return out

    def word_lengths(self, targets: Iterable[Element],
                     caps: Caps = DEFAULT_CAPS) -> Dict[Element, int]:
        """Word lengths of the given elements: one BFS until it has met them all."""
        missing = set(targets)
        lengths: Dict[Element, int] = {}
        for el, dist in self.iter_ball(caps.bfs_length, caps.bfs_visited):
            if el in missing:
                missing.discard(el)
                lengths[el] = dist
            if not missing:
                return lengths
        raise SearchCapExceeded(
            f"no word of length <= {caps.bfs_length} reaches {len(missing)} element(s)",
            lower_bound=caps.bfs_length + 1)

    def __repr__(self):
        return f"IntegralMatrixGroup(dim={self.dimension}, ngens={len(self.generators)})"


# ---------------------------------------------------------------------------
# Subgroups
# ---------------------------------------------------------------------------

class LatticeSubgroup:
    """Finite-index subgroup of Z^n generated by the columns of an integer matrix."""

    def __init__(self, matrix: Sequence[Sequence[int]]):
        self.matrix = [[int(x) for x in row] for row in matrix]
        self.n = len(self.matrix)
        if any(len(row) != self.n for row in self.matrix):
            raise BadGroup("subgroup matrix must be square")
        self.det = exact.det_int(self.matrix)
        self._snf = None

    @property
    def index(self) -> int:
        if self.det == 0:
            raise NotFiniteIndex("subgroup basis matrix is singular")
        return abs(self.det)

    def snf(self):
        """(U, diag): U*A*V = diag(diag) for some unimodular V; cached."""
        if self._snf is None:
            u, s = exact.smith_normal_form(self.matrix)
            self._snf = (u, tuple(s[i][i] for i in range(self.n)))
        return self._snf

    def reduce(self, v: Sequence[int]) -> Tuple[int, ...]:
        """Smith coordinates of ``v``: its image in the quotient."""
        if self.det == 0:
            raise NotFiniteIndex("subgroup basis matrix is singular")
        u, diag = self.snf()
        return tuple(sum(map(operator.mul, row, v)) % abs(d) for row, d in zip(u, diag))

    def columns(self) -> List[Tuple[int, ...]]:
        return [tuple(self.matrix[i][j] for i in range(self.n)) for j in range(self.n)]

    def __repr__(self):
        return f"LatticeSubgroup({self.matrix})"


class CongruenceSubgroup:
    """Kernel of entrywise reduction mod m in an integral matrix group."""

    def __init__(self, level: int):
        if level < 2:
            raise BadGroup("congruence level must be >= 2")
        self.level = int(level)

    def reduce(self, mat: Element) -> Element:
        """Entrywise reduction mod m: the image of ``mat`` in the quotient."""
        m = self.level
        return tuple(tuple(x % m for x in row) for row in mat)

    def __repr__(self):
        return f"CongruenceSubgroup(mod {self.level})"


# ---------------------------------------------------------------------------
# Finite quotients
# ---------------------------------------------------------------------------

class FiniteQuotient:
    """A concretely realized finite quotient Gamma/Gamma', held as index tables.

    Elements are numbered 0, ..., order - 1, the identity first.  Cover
    instantiation reads the permutation ``right_mult_indices(g)[i]`` = index of
    (element i) * image(g) for a parent element g.  Cover spectra read the
    commuting left action ``left_mult_indices(j)[i]`` = index of
    (element j) * (element i), and ``element_orders()`` gives each element's order.
    """

    group = None
    subgroup = None
    order: int = 0

    def image(self, parent_element):
        """The image of a parent-group element: its reduction by the subgroup."""
        return self.subgroup.reduce(parent_element)

    def right_mult_indices(self, parent_element) -> np.ndarray:
        raise NotImplementedError

    def left_mult_indices(self, j: int) -> np.ndarray:
        raise NotImplementedError

    def element_orders(self) -> np.ndarray:
        """Order of each element, in element order."""
        raise NotImplementedError

    def max_order_element(self) -> Tuple[int, int]:
        """(j, r): the first element j of the largest order r."""
        orders = self.element_orders()
        j = int(np.argmax(orders))
        return j, int(orders[j])

    def diameter(self) -> int:
        """Diameter of the Cayley graph under the symmetric generator images."""
        steps = np.array([self.right_mult_indices(g) for g in self.group.symmetric_generators()])
        seen = np.zeros(self.order, dtype=bool)
        seen[0] = True
        frontier, depth = np.zeros(1, dtype=np.intp), -1
        while len(frontier):
            depth += 1
            frontier = np.unique(steps[:, frontier])
            frontier = frontier[~seen[frontier]]
            seen[frontier] = True
        if not seen.all():
            raise CrossCheckMismatch("generator images do not generate the quotient")
        return depth


def _check_lattice(group: FreeAbelian, sub: LatticeSubgroup) -> None:
    if sub.n != group.rank:
        raise RankOutOfRange(f"a lattice of size {sub.n} is not a subgroup of Z^{group.rank}")
    if sub.det == 0:
        raise NotFiniteIndex("subgroup basis matrix is singular")


class AbelianQuotient(FiniteQuotient):
    """Z^n / (column span), realized through Smith normal form coordinates.

    Element i has the mixed-radix coordinates ``_coords[:, i]`` over the Smith
    moduli, the last coordinate fastest; the identity, all zeros, is element 0.
    """

    def __init__(self, group: FreeAbelian, subgroup: LatticeSubgroup,
                 caps: Caps = DEFAULT_CAPS):
        _check_lattice(group, subgroup)
        self.group = group
        self.subgroup = subgroup
        u, diag = subgroup.snf()
        self.moduli = tuple(abs(d) for d in diag)
        self.u = [list(row) for row in u]
        self.order = 1
        for d in self.moduli:
            self.order *= d
        if self.order > caps.order:
            raise OrderCapExceeded(
                f"quotient order {self.order} exceeds cap {caps.order}")
        if self.order != subgroup.index:
            raise CrossCheckMismatch("Smith normal form order mismatch")  # pragma: no cover
        self._coords = np.indices(self.moduli).reshape(len(self.moduli), -1)

    def right_mult_indices(self, parent_element) -> np.ndarray:
        # abelian, so x * g = g * x
        return self.left_mult_indices(np.ravel_multi_index(self.image(parent_element), self.moduli))

    def left_mult_indices(self, j: int) -> np.ndarray:
        return np.ravel_multi_index(self._coords + self._coords[:, j:j + 1], self.moduli,
                                    mode="wrap")

    def element_orders(self) -> np.ndarray:
        mods = np.array(self.moduli, dtype=np.int64)[:, None]
        return np.lcm.reduce(mods // np.gcd(mods, self._coords), axis=0)


class CongruenceQuotient(FiniteQuotient):
    """Image of an integral matrix group under entrywise reduction mod m.

    Element i is the matrix ``_mats[i]``, in BFS order from the identity.  A matrix
    mod m is coded as the int64 ``sum a_ij m^(ik+j)``; ``_sorted`` keeps the sorted
    codes and ``_sorted_index`` their element indices.
    """

    def __init__(self, group: IntegralMatrixGroup, subgroup: CongruenceSubgroup,
                 caps: Caps = DEFAULT_CAPS):
        self.group, self.subgroup = group, subgroup
        self.level = m = subgroup.level
        k = group.dimension
        # int64 codes, and exact int64 products (below m^2 when k = 1)
        if m ** max(k * k, 2) >= 2 ** 63:
            raise SizeCapExceeded(f"int64 codes of {k}x{k} matrices mod {m}: {m}^{k * k} >= 2^63")
        self._place = m ** np.arange(k * k, dtype=np.int64).reshape(k, k)
        gens = np.array([subgroup.reduce(g) for g in group.symmetric_generators()], dtype=np.int64)
        frontier = np.eye(k, dtype=np.int64)[None]
        mats = [frontier]
        seen = self._codes(frontier)  # sorted
        # BFS a frontier at a time; products come frontier-major, generator-minor
        # and new elements keep their first position, as element by element.
        # The Cayley graph is vertex-transitive: the BFS depth is its diameter.
        depth = -1
        while len(frontier):
            depth += 1
            prods = (frontier[:, None] @ gens[None] % m).reshape(-1, k, k)
            codes, first = np.unique(self._codes(prods), return_index=True)
            new = ~np.isin(codes, seen, assume_unique=True)
            if len(seen) + np.count_nonzero(new) > caps.order:
                raise OrderCapExceeded(f"congruence quotient exceeds order cap {caps.order}")
            frontier = prods[np.sort(first[new])]
            mats.append(frontier)
            seen = np.union1d(seen, codes[new])
        self._mats = np.concatenate(mats)
        self.order = len(self._mats)
        self._sorted_index = np.argsort(self._codes(self._mats))
        self._sorted = seen
        self._diameter = depth

    def _codes(self, mats: np.ndarray) -> np.ndarray:
        return (mats * self._place).sum(axis=(-2, -1))

    def _indices(self, mats: np.ndarray, acting) -> np.ndarray:
        """Element indices of the matrices ``mats`` (reduced mod m here)."""
        codes = self._codes(mats % self.level)
        pos = np.minimum(np.searchsorted(self._sorted, codes), self.order - 1)
        if np.any(self._sorted[pos] != codes):
            raise CrossCheckMismatch(f"{acting!r} does not act on the quotient")
        return self._sorted_index[pos]

    def right_mult_indices(self, parent_element) -> np.ndarray:
        g = np.array(self.image(parent_element), dtype=np.int64)
        return self._indices(self._mats @ g, parent_element)

    def left_mult_indices(self, j: int) -> np.ndarray:
        return self._indices(self._mats[j] @ self._mats, j)

    def element_orders(self) -> np.ndarray:
        eye = np.eye(self.group.dimension, dtype=np.int64)
        orders = np.zeros(self.order, dtype=np.int64)
        pending = np.arange(self.order)
        power = self._mats
        for e in range(1, self.order + 1):
            done = (power == eye).all(axis=(1, 2))
            orders[pending[done]] = e
            pending, power = pending[~done], power[~done]
            if not len(pending):
                return orders
            power = power @ self._mats[pending] % self.level
        raise CrossCheckMismatch("element order exceeds group order; broken quotient")

    def diameter(self) -> int:
        return self._diameter


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def short_length(group, sub, caps: Caps = DEFAULT_CAPS):
    """Word length of the shortest non-identity element of the subgroup.

    Returns an integer, or ``math.inf`` when the subgroup is trivial (only
    possible for finite matrix groups, and seen when the whole group lies
    below radius ``ceil(cap/2)``).  The search certifies lengths up to
    a cap, ``caps.short`` for Z^n and ``caps.bfs_length`` for matrix groups.
    Past it, or past ``caps.bfs_visited`` walked elements, it raises
    :class:`SearchCapExceeded` with a certified lower bound: ``cap + 1``
    past the cap, and ``2(L - 1) + 1`` when the walk passes ``bfs_visited``
    at level L (see below: the levels under L are complete).

    A subgroup of Z is generated by its determinant.  Otherwise both kinds of
    group meet in the middle: the ball is walked breadth first only to radius
    about ``short / 2``, keyed by the subgroup's ``reduce`` (Smith coordinates
    of a lattice, entries mod m of a congruence subgroup), and every collision
    of two distinct elements ``u != v`` with the same key gives the subgroup
    element ``u v^-1`` of length at most ``|u| + |v|``.  Conversely a subgroup
    word of length L splits into halves u, v^-1 with ``|u| = ceil(L/2)`` and
    ``|v| = floor(L/2)``, so the least ``|u| + |v|`` over colliding pairs is
    exactly ``short``, and once every level up to ``floor(best/2)`` has been
    walked no pair can beat the best one found.  Certifying ``short > cap``
    therefore needs the ball only to radius ``ceil(cap/2)``, where the walk
    stops.  The walk visits about the square root of the full ball's elements
    (486 of 118,097 for the Sanov group mod 13), and by pigeonhole at most
    ``index + 1`` before the first collision.
    """
    if isinstance(group, FreeAbelian):
        if not isinstance(sub, LatticeSubgroup):
            raise UnsupportedGroup("free abelian groups take LatticeSubgroup")
        _check_lattice(group, sub)
        if group.rank == 1:
            return abs(sub.det)  # the subgroup of Z generated by det
        cap = caps.short
    elif isinstance(group, IntegralMatrixGroup):
        if not isinstance(sub, CongruenceSubgroup):
            raise UnsupportedGroup("integral matrix groups take CongruenceSubgroup")
        cap = caps.bfs_length
    else:
        raise UnsupportedGroup(f"unsupported group {group!r}")
    half = (cap + 1) // 2
    first: Dict[Element, int] = {}  # key -> least word length
    best = math.inf
    last = 0
    for count, (el, dist) in enumerate(group.iter_ball(half, math.inf), 1):
        if 2 * (dist - 1) >= best - 1:
            break  # levels below dist are complete: no pair can beat best
        if count > caps.bfs_visited:  # and they hold no pair shorter than 2 (dist - 1) + 1
            raise SearchCapExceeded(f"BFS visited more than {caps.bfs_visited} elements",
                                    lower_bound=2 * (dist - 1) + 1)
        last = dist
        key = sub.reduce(el)
        seen = first.get(key)
        if seen is None:
            first[key] = dist
        else:
            best = min(best, dist + seen)
    if best <= cap:
        return best
    if best == math.inf and last < half:
        return math.inf  # the whole (finite) group injects into the quotient
    raise SearchCapExceeded(
        f"no subgroup element of word length <= {cap}", lower_bound=cap + 1)


def ball_volume(group, r: int, caps: Caps = DEFAULT_CAPS) -> int:
    """Number of group elements of word length <= r."""
    if not isinstance(r, numbers.Integral):
        raise BadGroup(f"radius must be an integer, not {r!r}")
    if r < 0:
        raise BadGroup("radius must be nonnegative")
    if isinstance(group, FreeAbelian):
        n = group.rank
        return sum((2 ** k) * comb(n, k) * comb(r, k) for k in range(0, min(n, r) + 1))
    count = 0
    for _el, _dist in group.iter_ball(r, caps.bfs_visited):
        count += 1
    return count


def check_quotient_of(group, quot: FiniteQuotient) -> None:
    """Refuse a quotient of another group.  Groups compare by value: Z^n by
    rank, matrix groups by dimension and generator matrices."""
    def value(g):
        return (g.rank,) if isinstance(g, FreeAbelian) else (g.dimension, g.generators)
    if quot.group is not group and value(quot.group) != value(group):
        raise ForeignQuotient(f"a quotient of {quot.group!r} cannot cover a complex over {group!r}")


def quotient(group, sub, caps: Caps = DEFAULT_CAPS) -> FiniteQuotient:
    """Realize Gamma/Gamma' concretely, with verified order."""
    if isinstance(group, FreeAbelian):
        return AbelianQuotient(group, sub, caps)
    if isinstance(group, IntegralMatrixGroup):
        return CongruenceQuotient(group, sub, caps)
    raise UnsupportedGroup(f"unsupported group {group!r}")


def element_order(q: FiniteQuotient, g) -> int:
    """Order of the image of a parent-group element in the quotient."""
    # image(g) is identity * image(g), and the identity is element 0
    return int(q.element_orders()[q.right_mult_indices(g)[0]])


def quotient_diameter(q: FiniteQuotient) -> int:
    """Diameter of the quotient Cayley graph under the generator images.

    Uses the symmetric generating set (images of the parent generators and
    their inverses), matching the word metric upstairs.  Relation to the
    shortest subgroup element: short <= 2*diameter + 1, with equality for
    cyclic quotients of Z.
    """
    return q.diameter()


@dataclass
class UniformityReport:
    constant: float
    members: List[dict] = field(default_factory=list)

    @property
    def booleans(self) -> List[bool]:
        return [m["uniform"] for m in self.members]


def uniformity_check(group, family: Sequence, c: float,
                     caps: Caps = DEFAULT_CAPS) -> UniformityReport:
    """Check [Gamma:Gamma_i] <= Vol(B(C * short(Gamma_i))) for each member."""
    report = UniformityReport(constant=c)
    for sub in family:
        s = short_length(group, sub, caps=caps)
        if isinstance(group, FreeAbelian):
            index = sub.index
        else:
            index = quotient(group, sub, caps).order
        if s is math.inf:
            # a trivial kernel: the group is finite and B(C * inf) is all of it
            radius, vol = math.inf, index
        else:
            radius = math.floor(c * s)
            vol = ball_volume(group, radius, caps)
        report.members.append({
            "subgroup": sub,
            "short": s,
            "index": index,
            "radius": radius,
            "ball_volume": vol,
            "uniform": index <= vol,
        })
    return report
