"""Deck groups, their finite-index subgroups, and realized finite quotients.

Two kinds of group are supported:

* ``FreeAbelian(n)`` - Z^n with the generating set {+-e_1, ..., +-e_n}, so
  word length is the l1 norm.  Elements are integer tuples.
* ``IntegralMatrixGroup`` - a group of invertible integer matrices given by
  generators.  Elements are (immutable) integer matrices; the representation
  is faithful, so identity testing is exact.  The supported finite-index
  subgroups are congruence subgroups (kernels of entrywise reduction mod m),
  which are automatically normal.  Their quotients are built and acted on as
  numpy tables of integer-coded matrices mod m.

All constants produced downstream (shortest subgroup elements, ball volumes,
support radii) depend on these pinned generating sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from math import comb, gcd
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .caps import DEFAULT_CAPS, Caps
from .errors import (CrossCheckMismatch, NotFiniteIndex, OrderCapExceeded, SearchCapExceeded,
                     SizeCapExceeded)
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


class FreeAbelian:
    """Z^n with standard generators; word length is the l1 norm."""

    is_abelian = True

    def __init__(self, rank: int):
        if rank < 1:
            raise ValueError("rank must be >= 1")
        self.rank = rank

    @property
    def identity(self) -> Element:
        return (0,) * self.rank

    def mul(self, a: Element, b: Element) -> Element:
        return tuple(x + y for x, y in zip(a, b))

    def inv(self, a: Element) -> Element:
        return tuple(-x for x in a)

    def word_length(self, a: Element, caps: Caps = DEFAULT_CAPS) -> int:
        return sum(abs(x) for x in a)

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


class IntegralMatrixGroup:
    """Group of integer matrices generated by a finite set of unimodular matrices."""

    is_abelian = False

    def __init__(self, dimension: int, generators: Sequence[Sequence[Sequence[int]]]):
        self.dimension = dimension
        gens = [_freeze_matrix(g) for g in generators]
        for g in gens:
            if len(g) != dimension or any(len(row) != dimension for row in g):
                raise ValueError("generator has wrong shape")
            if abs(exact.det_int([list(r) for r in g])) != 1:
                raise ValueError("generator is not invertible over the integers")
        if not gens:
            raise ValueError("at least one generator required")
        self.generators = gens
        self._word_length_cache: Dict[Element, int] = {self.identity: 0}

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

    def word_lengths(self, targets: Iterable[Element],
                     caps: Caps = DEFAULT_CAPS) -> Dict[Element, int]:
        """Word lengths of the given elements, via a shared cached BFS."""
        missing = {t for t in targets if t not in self._word_length_cache}
        if missing:
            for el, dist in self.iter_ball(caps.bfs_length, caps.bfs_visited):
                self._word_length_cache.setdefault(el, dist)
                missing.discard(el)
                if not missing:
                    break
            if missing:
                raise SearchCapExceeded(
                    f"no word of length <= {caps.bfs_length} reaches {len(missing)} element(s)",
                    lower_bound=caps.bfs_length + 1)
        return {t: self._word_length_cache[t] for t in targets}

    def word_length(self, a: Element, caps: Caps = DEFAULT_CAPS) -> int:
        return self.word_lengths([a], caps)[a]

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
            raise ValueError("subgroup matrix must be square")
        self.det = exact.det_int(self.matrix)
        self._snf = None

    @property
    def index(self) -> int:
        if self.det == 0:
            raise NotFiniteIndex("subgroup basis matrix is singular")
        return abs(self.det)

    def snf(self):
        """(U, diag, V) with U*A*V diagonal; cached."""
        if self._snf is None:
            u, s, v = exact.smith_normal_form(self.matrix)
            diag = tuple(s[i][i] for i in range(self.n))
            self._snf = (u, diag, v)
        return self._snf

    def contains(self, v: Sequence[int]) -> bool:
        if self.det == 0:
            raise NotFiniteIndex("subgroup basis matrix is singular")
        u, diag, _ = self.snf()
        for i in range(self.n):
            acc = sum(u[i][k] * v[k] for k in range(self.n))
            if acc % diag[i]:
                return False
        return True

    def columns(self) -> List[Tuple[int, ...]]:
        return [tuple(self.matrix[i][j] for i in range(self.n)) for j in range(self.n)]

    def __repr__(self):
        return f"LatticeSubgroup({self.matrix})"


class CongruenceSubgroup:
    """Kernel of entrywise reduction mod m in an integral matrix group."""

    def __init__(self, level: int):
        if level < 2:
            raise ValueError("congruence level must be >= 2")
        self.level = int(level)

    def reduce(self, mat: Element) -> Element:
        """Entrywise reduction mod m: the image of ``mat`` in the quotient."""
        m = self.level
        return tuple(tuple(x % m for x in row) for row in mat)

    def contains(self, mat: Element) -> bool:
        m = self.level
        n = len(mat)
        for i in range(n):
            for j in range(n):
                if (mat[i][j] - int(i == j)) % m:
                    return False
        return True

    def __repr__(self):
        return f"CongruenceSubgroup(mod {self.level})"


# ---------------------------------------------------------------------------
# Finite quotients
# ---------------------------------------------------------------------------

class FiniteQuotient:
    """A concretely realized finite quotient Gamma/Gamma'.

    Provides element enumeration (identity first), multiplication, images of
    parent elements, and what cover instantiation needs: the permutation
    ``right_mult_indices(g)[i]`` = index of ``elements[i] * image(g)``.
    """

    group = None
    subgroup = None
    order: int = 0
    elements: List = []

    def image(self, parent_element):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    @property
    def identity(self):
        return self.elements[0]

    def index_of(self, el) -> int:
        return self._index[el]

    def generator_images(self) -> List:
        raise NotImplementedError

    def diameter(self) -> int:
        """Diameter of the Cayley graph under the symmetric generator images."""
        gens = []
        for g in self.generator_images():
            if g not in gens:
                gens.append(g)
            gi = self.inv(g)
            if gi not in gens:
                gens.append(gi)
        dist = {self.identity: 0}
        frontier = [self.identity]
        d = 0
        while frontier:
            nxt = []
            for el in frontier:
                for g in gens:
                    w = self.mul(el, g)
                    if w not in dist:
                        dist[w] = dist[el] + 1
                        nxt.append(w)
            if nxt:
                d = dist[nxt[0]]
            frontier = nxt
        if len(dist) != self.order:
            raise CrossCheckMismatch("generator images do not generate the quotient")
        return d

    def order_of(self, el) -> int:
        """Order of a quotient element."""
        acc = el
        k = 1
        while acc != self.identity:
            acc = self.mul(acc, el)
            k += 1
            if k > self.order:
                raise CrossCheckMismatch("element order exceeds group order; broken quotient")
        return k


class AbelianQuotient(FiniteQuotient):
    """Z^n / (column span), realized through Smith normal form coordinates."""

    def __init__(self, group: FreeAbelian, subgroup: LatticeSubgroup,
                 caps: Caps = DEFAULT_CAPS):
        if subgroup.det == 0:
            raise NotFiniteIndex("subgroup basis matrix is singular")
        self.group = group
        self.subgroup = subgroup
        u, diag, _ = subgroup.snf()
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
        import itertools

        # identity (all zeros) comes first in lexicographic product order
        els = [tuple(t) for t in itertools.product(*[range(m) for m in self.moduli])]
        self.elements = els
        self._index = {el: i for i, el in enumerate(els)}
        self._coords = np.indices(self.moduli).reshape(len(self.moduli), -1)  # els as columns

    def image(self, v: Sequence[int]) -> Tuple[int, ...]:
        return tuple(
            sum(self.u[i][k] * v[k] for k in range(self.group.rank)) % self.moduli[i]
            for i in range(len(self.moduli))
        )

    def mul(self, a, b):
        return tuple((x + y) % m for x, y, m in zip(a, b, self.moduli))

    def inv(self, a):
        return tuple((-x) % m for x, m in zip(a, self.moduli))

    def right_mult_indices(self, parent_element) -> np.ndarray:
        # mixed radix, last coordinate fastest: the order of itertools.product
        g = np.array(self.image(parent_element), dtype=np.intp)[:, None]
        return np.ravel_multi_index(self._coords + g, self.moduli, mode="wrap")

    def generator_images(self) -> List:
        out = []
        for k in range(self.group.rank):
            e = [0] * self.group.rank
            e[k] = 1
            out.append(self.image(tuple(e)))
        return out

    def order_of(self, el) -> int:
        k = 1
        for r, m in zip(el, self.moduli):
            d = m // gcd(m, r) if r else 1
            k = k * d // gcd(k, d)
        return k


class CongruenceQuotient(FiniteQuotient):
    """Image of an integral matrix group under entrywise reduction mod m.

    A matrix mod m is coded as the int64 ``sum a_ij m^(ik+j)``.  ``_mats`` keeps the
    elements in BFS order, ``_sorted`` their sorted codes, ``_sorted_index`` their indices.
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
        self.elements = [tuple(map(tuple, a)) for a in self._mats.tolist()]
        self._index = {el: i for i, el in enumerate(self.elements)}
        self._diameter = depth

    def _codes(self, mats: np.ndarray) -> np.ndarray:
        return (mats * self._place).sum(axis=(-2, -1))

    def image(self, mat: Element) -> Element:
        return self.subgroup.reduce(mat)

    def mul(self, a, b):
        return self.subgroup.reduce(_matmul(a, b))

    def inv(self, a):
        # a^-1 = det(a)^-1 * adj(a), and det(a) = +-1 is its own inverse mod m
        m = self.level
        det = exact.det_int(a) % m
        return tuple(tuple(det * x % m for x in row) for row in exact.adjugate(a))

    def right_mult_indices(self, parent_element) -> np.ndarray:
        g = np.array(self.image(parent_element), dtype=np.int64)
        codes = self._codes(self._mats @ g % self.level)
        pos = np.minimum(np.searchsorted(self._sorted, codes), self.order - 1)
        if np.any(self._sorted[pos] != codes):
            raise KeyError(f"{parent_element!r} does not act on the quotient")
        return self._sorted_index[pos]

    def generator_images(self) -> List:
        return [self.subgroup.reduce(g) for g in self.group.generators]

    def diameter(self) -> int:
        return self._diameter


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def _l1_sphere(n: int, r: int) -> Iterator[Tuple[int, ...]]:
    """All integer vectors in Z^n with l1 norm exactly r."""
    if n == 1:
        if r == 0:
            yield (0,)
        else:
            yield (r,)
            yield (-r,)
        return
    for k in range(-r, r + 1):
        for rest in _l1_sphere(n - 1, r - abs(k)):
            yield (k,) + rest


def short_length(group, sub, l_max: Optional[int] = None,
                 caps: Caps = DEFAULT_CAPS):
    """Word length of the shortest non-identity element of the subgroup.

    Returns an integer, or ``math.inf`` when the subgroup is trivial (only
    possible for finite matrix groups).  Raises :class:`SearchCapExceeded`
    (carrying the certified lower bound ``l_max + 1``) when the search cap is
    reached first.

    Free abelian groups enumerate l1 spheres.  Matrix groups meet in the
    middle: the ball is walked breadth first only to radius about
    ``short / 2``, keyed by reduction mod m, and every collision of two
    distinct elements ``u != v`` with ``u = v mod m`` gives the kernel
    element ``u v^-1`` of length at most ``|u| + |v|``.  Conversely a kernel
    word of length L splits into halves u, v^-1 with ``|u| = ceil(L/2)`` and
    ``|v| = floor(L/2)``, so the least ``|u| + |v|`` over colliding pairs is
    exactly ``short``, and once every level up to ``floor(best/2)`` has been
    walked no pair can beat the best one found.  Certifying ``short > l_max``
    needs the ball only to radius ``ceil(l_max/2)``, or until the first
    collision, whichever is later.  The walk visits about the square root of
    the full ball's elements (486 of 118,097 for the Sanov group mod 13), and
    by pigeonhole at most ``index + 1`` before the first collision.
    """
    if isinstance(group, FreeAbelian):
        if not isinstance(sub, LatticeSubgroup):
            raise TypeError("free abelian groups take LatticeSubgroup")
        if sub.det == 0:
            raise NotFiniteIndex("subgroup basis matrix is singular")
        if group.rank == 1:
            return abs(sub.det)  # the subgroup of Z generated by det
        cap = l_max if l_max is not None else caps.short
        # some column is a subgroup element, so only radii below it need scanning
        upper = min(sum(abs(x) for x in col) for col in sub.columns())
        for r in range(1, min(upper - 1, cap) + 1):
            for v in _l1_sphere(group.rank, r):
                if sub.contains(v):
                    return r
        if upper - 1 <= cap:
            return upper
        raise SearchCapExceeded(
            f"no subgroup element of l1 norm <= {cap}", lower_bound=cap + 1)

    if isinstance(group, IntegralMatrixGroup):
        if not isinstance(sub, CongruenceSubgroup):
            raise TypeError("integral matrix groups take CongruenceSubgroup")
        cap = l_max if l_max is not None else caps.bfs_length
        half = (cap + 1) // 2
        first: Dict[Element, int] = {}  # reduction mod m -> least word length
        best = math.inf
        last = 0
        for el, dist in group.iter_ball(cap, caps.bfs_visited):
            # levels below dist are complete; past half, a collision already
            # certifies short > cap (no kernel word of length <= cap is left)
            if best < math.inf and (dist > half or 2 * (dist - 1) >= best - 1):
                break
            last = dist
            key = sub.reduce(el)
            seen = first.get(key)
            if seen is None:
                first[key] = dist
            else:
                best = min(best, dist + seen)
        else:
            if best == math.inf and last < cap:
                return math.inf  # the whole (finite) group injects mod m
        if best <= cap:
            return best
        raise SearchCapExceeded(
            f"no kernel element of word length <= {cap}", lower_bound=cap + 1)

    raise TypeError(f"unsupported group {group!r}")


def ball_volume(group, r: int, caps: Caps = DEFAULT_CAPS) -> int:
    """Number of group elements of word length <= r."""
    if r < 0:
        raise ValueError("radius must be nonnegative")
    if isinstance(group, FreeAbelian):
        n = group.rank
        return sum((2 ** k) * comb(n, k) * comb(r, k) for k in range(0, min(n, r) + 1))
    count = 0
    for _el, _dist in group.iter_ball(r, caps.bfs_visited):
        count += 1
    return count


def quotient(group, sub, caps: Caps = DEFAULT_CAPS) -> FiniteQuotient:
    """Realize Gamma/Gamma' concretely, with verified order."""
    if isinstance(group, FreeAbelian):
        return AbelianQuotient(group, sub, caps)
    if isinstance(group, IntegralMatrixGroup):
        return CongruenceQuotient(group, sub, caps)
    raise TypeError(f"unsupported group {group!r}")


def element_order(q: FiniteQuotient, g) -> int:
    """Order of the image of a parent-group element in the quotient."""
    return q.order_of(q.image(g))


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
        radius = math.floor(c * s) if s is not math.inf else 0
        vol = ball_volume(group, radius, caps) if s is not math.inf else 1
        report.members.append({
            "subgroup": sub,
            "short": s,
            "index": index,
            "radius": radius,
            "ball_volume": vol,
            "uniform": index <= vol,
        })
    return report
