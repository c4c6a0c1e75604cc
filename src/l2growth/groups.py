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
``left_mult_indices`` and the array ``element_orders``.  A subgroup keys a
parent element only by the int64 code of its image (``reduce_codes``), which
numbers an abelian quotient's elements (Smith coordinates in mixed radix);
congruence quotients number matrices mod m in BFS order.

The word metric (``short_length``, ``word_lengths``, ``ball_volume``) walks
the ball of Gamma a level at a time, as int64 arrays of flattened elements.
The generating sets are symmetric, so each level is deduplicated against the
two levels before it only, by exact codes over the rows' bounding box (int64
wherever they fit).
Each level's arrays are charged to the byte budget (``exact.check_bytes``)
before they are built, and a level whose products could pass 2^62 is refused
with ``SearchCapExceeded``.  Congruence quotients are realized by the same
walk taken mod m, and the diameter of an abelian quotient is the depth of the
walk of Z^n keyed by its codes.

All constants produced downstream (shortest subgroup elements, ball volumes,
support radii) depend on these pinned generating sets.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, field
from math import comb
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .caps import DEFAULT_CAPS, Caps
from .errors import (BadArgument, BadGroup, CrossCheckMismatch, ForeignQuotient,
                     NotFiniteIndex, OrderCapExceeded, RankOutOfRange, SearchCapExceeded,
                     SizeCapExceeded, UnsupportedGroup)
from . import exact

Element = Tuple  # integer tuple (abelian) or tuple of integer tuples (matrix)


def _freeze_matrix(rows: Iterable[Iterable[int]]) -> Tuple[Tuple[int, ...], ...]:
    return tuple(tuple(int(x) for x in row) for row in rows)


def _matmul(a, b):
    return tuple(tuple(sum(map(operator.mul, row, col)) for col in zip(*b)) for row in a)


_INT64_PRODUCTS = 2 ** 62  # entries below this in absolute value are exact in int64


def _place(radices) -> Tuple[np.ndarray, int]:
    """Place values of mixed-radix codes over ``radices`` (the last digit least
    significant, as in numpy's C order) and the codes' limit, the product of
    the radices.  The places are int64 when the limit is below 2^63 and Python
    integers otherwise, so a code is always exact."""
    place = [1]
    for r in reversed(radices):
        place.append(place[-1] * int(r))
    limit = place.pop()
    return np.array(place[::-1], dtype=np.int64 if limit < 2 ** 63 else object), limit


def _box_codes(rows: np.ndarray) -> Tuple[np.ndarray, int]:
    """Codes of int64 rows, equal exactly when the rows are, and their limit:
    mixed radix over the rows' bounding box."""
    lo = rows.min(axis=0)
    place, limit = _place(rows.max(axis=0) - lo + 1)
    return (rows - lo) @ place, limit


def _first_occurrences(codes: np.ndarray, limit: int) -> np.ndarray:
    """Ascending positions of the first occurrence of each value in ``codes``
    (all in [0, limit)): one sort of code * n + position where that fits in
    int64, a stable argsort otherwise."""
    n = len(codes)
    if limit * n < 2 ** 63:
        codes, pos = np.divmod(np.sort(codes * n + np.arange(n)), n)
    else:
        pos = np.argsort(codes, kind="stable")
        codes = codes[pos]
    start = np.ones(n, dtype=bool)
    start[1:] = codes[1:] != codes[:-1]
    return np.sort(pos[start])


def _bfs_levels(start: np.ndarray, degree: int, step, codes, radius=math.inf):
    """Breadth-first levels of a Cayley graph under a symmetric generating set.

    Elements are int64 rows; ``start`` holds level 0.  ``step(level, dist)``
    returns the products of a level's elements with the ``degree`` generators,
    frontier-major and generator-minor, as the candidates for level ``dist``,
    and ``codes(rows)`` gives exact codes of rows and their limit.  A level
    keeps its new candidates at their first occurrence, in that order, as an
    element-by-element walk would.  The generators are symmetric, so every
    neighbour of a level-d element lies in level d - 1, d or d + 1: candidates
    are deduplicated against the two levels before them only.  Each level's
    arrays are charged to the byte budget before they are built.  Yields the
    levels up to ``radius``, or to the last nonempty one.
    """
    before, level, dist = start[:0], start, 0
    while True:
        yield level
        dist += 1
        if dist > radius:
            return
        rows = len(before) + len(level) * (degree + 1)
        # candidates, their concatenation and its shifted copy, then about six
        # words a row of codes, sort keys and positions
        exact.check_bytes(8 * rows * (3 * start.shape[1] + 6),
                          f"level {dist} of a breadth-first walk")
        cands = step(level, dist)
        old = len(before) + len(level)
        first = _first_occurrences(*codes(np.concatenate([before, level, cands])))
        new = first[first >= old] - old
        if not len(new):
            return
        before, level = level, cands[new]


class _Group:
    """What both deck groups share: the breadth-first walk of the word metric."""

    def word_length(self, a: Element, caps: Caps = DEFAULT_CAPS) -> int:
        return self.word_lengths([a], caps)[a]

    def element_array(self, el) -> np.ndarray:
        """An element's entries as an object array, exact at any size.  Anything
        but an integer tuple of the rank, or an integer matrix of the dimension
        as a tuple of rows, is refused with ``RankOutOfRange``."""
        arr = np.array(el, dtype=object)
        if not (isinstance(el, tuple) and arr.shape == self._shape
                and all(isinstance(x, (int, np.integer)) for x in arr.flat)):
            raise RankOutOfRange(f"{el!r} is not an element of {self!r}")
        return arr

    def _levels(self, radius: int, lower_bound=lambda dist: None, codes=None):
        """The ball of ``radius`` a level at a time, as int64 arrays of elements
        (flattened matrices or vectors), identity first: see ``_bfs_levels``.
        A level the walk cannot build exactly raises ``SearchCapExceeded`` with
        ``lower_bound`` of its word length.  ``codes`` replaces the walk's own
        exact codes: a quotient's codes walk the quotient."""
        gens = self.symmetric_generators()
        start = np.array([self.identity], dtype=np.int64).reshape(1, -1)
        step, own = self._walk(gens, radius, lower_bound)
        return _bfs_levels(start, len(gens), step, codes or own, radius)


class FreeAbelian(_Group):
    """Z^n with standard generators; word length is the l1 norm."""

    def __init__(self, rank: int):
        if rank < 1:
            raise BadGroup("rank must be >= 1")
        self.rank = rank
        self._shape = (rank,)

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

    def _walk(self, gens, radius, lower_bound):
        """Steps and codes of the ball walk: a step adds a unit vector, and the
        box [-radius, radius]^n numbers the ball."""
        gens = np.array(gens, dtype=np.int64)
        place, limit = _place([2 * radius + 1] * self.rank)
        return (lambda level, _dist: (level[:, None] + gens).reshape(-1, self.rank),
                lambda rows: ((rows + radius) @ place, limit))

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
        self._shape = (dimension, dimension)
        gens = [_freeze_matrix(g) for g in generators]
        for g in gens:
            if len(g) != dimension or any(len(row) != dimension for row in g):
                raise BadGroup("generator has wrong shape")
            if abs(exact.det_int([list(r) for r in g])) != 1:
                raise BadGroup("generator is not invertible over the integers")
        if not gens:
            raise BadGroup("at least one generator required")
        self.generators = gens
        self._symmetric: List[Element] = []
        for g in gens:
            for h in (g, self.inv(g)):
                if h not in self._symmetric:
                    self._symmetric.append(h)

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
        """The generators and their inverses, each once, in that order."""
        return list(self._symmetric)

    def _walk(self, gens, radius, lower_bound):
        """Steps and codes of the ball walk.  Entries grow with the word length,
        so the rows' bounding box numbers them.  Products stay exact: before
        level L is built, its largest |entry| times the generators' largest
        column l1 norm must stay below 2^62, else the walk raises
        ``SearchCapExceeded`` with ``lower_bound(L)``."""
        k = self.dimension
        norm = max(sum(abs(g[t][j]) for t in range(k)) for g in gens for j in range(k))
        # a generator entry past 2^62 is refused at level 1, before it is used
        array = np.array(gens, dtype=np.int64) if norm < _INT64_PRODUCTS else None

        def step(level, dist):
            top = int(np.abs(level).max())
            if top * norm >= _INT64_PRODUCTS:
                raise SearchCapExceeded(
                    f"level {dist} of the ball walk could pass int64: entries up to {top}, "
                    f"generator column l1 norm {norm}", lower_bound=lower_bound(dist))
            return (level.reshape(-1, 1, k, k) @ array).reshape(-1, k * k)

        return step, _box_codes

    def word_lengths(self, targets: Iterable[Element],
                     caps: Caps = DEFAULT_CAPS) -> Dict[Element, int]:
        """Word lengths of the given elements: one BFS until it has met them all.

        Past ``caps.bfs_visited`` walked elements it raises ``SearchCapExceeded``,
        and past ``caps.bfs_length`` with the lower bound ``bfs_length + 1``.
        """
        missing = set(targets)
        lengths: Dict[Element, int] = {}
        k, count = self.dimension, 0
        for dist, level in enumerate(self._levels(caps.bfs_length)):
            walked = len(level)
            for i, mat in enumerate(level.reshape(-1, k, k).tolist()):
                el = tuple(map(tuple, mat))
                if el in missing:
                    missing.discard(el)
                    lengths[el] = dist
                    if not missing:
                        walked = i + 1
                        break
            count += walked
            if dist and count > caps.bfs_visited:  # the identity is always met
                raise SearchCapExceeded(f"BFS visited more than {caps.bfs_visited} elements")
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
        self._snf = self._reduction = None

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

    def reduce_codes(self, rows: np.ndarray) -> np.ndarray:
        """Codes of the images of the vectors in ``rows`` (int64, or Python ints in
        an object array): Smith coordinates U v mod d in mixed radix, the last
        fastest, so a code is the image's index in ``AbelianQuotient``."""
        if self.det == 0:
            raise NotFiniteIndex("subgroup basis matrix is singular")
        if rows.ndim != 2 or rows.shape[1] != self.n:
            raise RankOutOfRange(f"rows of shape {rows.shape} are not elements of Z^{self.n}")
        if self._reduction is None:
            u, diag = self.snf()
            mods = [abs(d) for d in diag]
            dtype = np.int64 if self.n * max(mods) < 2 ** 63 else object
            red = [[x % d for x in row] for row, d in zip(u, mods)]  # U mod d, row by row
            self._reduction = (self.n * max(mods), np.array(red, dtype=dtype).T,
                               np.array(mods, dtype=dtype), _place(mods)[0])
        bound, red, mods, place = self._reduction
        if bound * int(np.abs(rows).max(initial=1)) >= 2 ** 63:  # each sum is below n d max |v|
            rows, red, mods = rows.astype(object), red.astype(object), mods.astype(object)
        return (rows @ red % mods) @ place

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

    def reduce_codes(self, rows: np.ndarray) -> np.ndarray:
        """The image in the quotient of each flattened int64 matrix in ``rows``,
        entrywise reduction mod m, as a mixed-radix code of its entries."""
        return (rows % self.level) @ _place([self.level] * rows.shape[1])[0]

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
    (element j) * (element i), and ``element_orders()`` gives each element's
    order.  ``diameter()`` is that of the Cayley graph under the symmetric
    generator images.
    """

    group = None
    subgroup = None
    order: int = 0
    _orders: Optional[np.ndarray] = None

    def element_orders(self) -> np.ndarray:
        """Each element's order, computed once per quotient and read-only."""
        if self._orders is None:
            self._orders = self._element_orders()
            self._orders.flags.writeable = False
        return self._orders

    def max_order_element(self) -> Tuple[int, int]:
        """(j, r): the first element j of the largest order r."""
        orders = self.element_orders()
        j = int(np.argmax(orders))
        return j, int(orders[j])


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
        self.order = math.prod(self.moduli)
        if self.order > caps.order:
            raise OrderCapExceeded(
                f"quotient order {self.order} exceeds cap {caps.order}")
        if self.order != subgroup.index:
            raise CrossCheckMismatch("Smith normal form order mismatch")  # pragma: no cover
        self._coords = np.indices(self.moduli).reshape(len(self.moduli), -1)

    def right_mult_indices(self, parent_element) -> np.ndarray:
        # abelian, so x * g = g * x; and g's code is the index of its image
        code = self.subgroup.reduce_codes(np.array([parent_element]))[0]
        return self.left_mult_indices(int(code))

    def left_mult_indices(self, j: int) -> np.ndarray:
        return np.ravel_multi_index(self._coords + self._coords[:, j:j + 1], self.moduli,
                                    mode="wrap")

    def _element_orders(self) -> np.ndarray:
        mods = np.array(self.moduli, dtype=np.int64)[:, None]
        return np.lcm.reduce(mods // np.gcd(mods, self._coords), axis=0)

    def diameter(self) -> int:
        """The depth of the walk of Z^n keyed by element codes (the Cayley graph
        is vertex-transitive), checked to reach every element."""
        count, depth = 0, -1
        levels = self.group._levels(
            self.order, codes=lambda rows: (self.subgroup.reduce_codes(rows), self.order))
        for depth, level in enumerate(levels):
            count += len(level)
        if count != self.order:
            raise CrossCheckMismatch("generator images do not generate the quotient")
        return depth


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
        self._place, limit = _place([m] * (k * k))
        gens = (np.array(group.symmetric_generators(), dtype=object) % m).astype(np.int64)

        def step(level, _dist):
            return (level.reshape(-1, 1, k, k) @ gens % m).reshape(-1, k * k)

        # The BFS depth is the diameter: the Cayley graph is vertex-transitive.
        levels, self.order = [], 0
        for level in _bfs_levels(np.eye(k, dtype=np.int64).reshape(1, -1), len(gens), step,
                                 lambda rows: (rows @ self._place, limit)):
            self.order += len(level)
            if self.order > caps.order:
                raise OrderCapExceeded(f"congruence quotient exceeds order cap {caps.order}")
            levels.append(level)
        self._mats = np.concatenate(levels).reshape(-1, k, k)
        codes = self._codes(self._mats)
        self._sorted_index = np.argsort(codes)
        self._sorted = codes[self._sorted_index]
        self._diameter = len(levels) - 1

    def _codes(self, mats: np.ndarray) -> np.ndarray:
        return mats.reshape(len(mats), -1) @ self._place

    def _indices(self, mats: np.ndarray, acting) -> np.ndarray:
        """Element indices of the matrices ``mats`` (reduced mod m here)."""
        codes = self._codes(mats % self.level)
        pos = np.minimum(np.searchsorted(self._sorted, codes), self.order - 1)
        if np.any(self._sorted[pos] != codes):
            raise CrossCheckMismatch(f"{acting!r} does not act on the quotient")
        return self._sorted_index[pos]

    def right_mult_indices(self, parent_element) -> np.ndarray:
        g = (self.group.element_array(parent_element) % self.level).astype(np.int64)
        return self._indices(self._mats @ g, parent_element)

    def left_mult_indices(self, j: int) -> np.ndarray:
        return self._indices(self._mats[j] @ self._mats, j)

    def _element_orders(self) -> np.ndarray:
        """Powers of every element at once, compared by code with the identity's;
        the bases of the pending elements travel with their powers."""
        one = self._codes(self._mats[:1])[0]
        orders = np.zeros(self.order, dtype=np.int64)
        pending, base = np.arange(self.order), self._mats
        power = base
        for e in range(1, self.order + 1):
            done = self._codes(power) == one
            if done.any():
                orders[pending[done]] = e
                keep = ~done
                pending, base, power = pending[keep], base[keep], power[keep]
                if not len(pending):
                    return orders
            power = power @ base
            power %= self.level
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
    at level L, or when level L's products could pass int64 (see below: the
    levels under L are complete).

    A subgroup of Z is generated by its determinant.  Otherwise both kinds of
    group meet in the middle: the ball is walked breadth first only to radius
    about ``short / 2``, keyed by the subgroup's ``reduce_codes`` (codes of the
    Smith coordinates of a lattice, of the entries mod m of a congruence
    subgroup), and every collision of two distinct elements ``u != v`` with the
    same key gives the subgroup element ``u v^-1`` of length at most
    ``|u| + |v|``.  Conversely a subgroup word of length L splits into halves
    u, v^-1 with ``|u| = ceil(L/2)`` and ``|v| = floor(L/2)``, so the least
    ``|u| + |v|`` over colliding pairs is exactly ``short``, and once every
    level up to ``floor(best/2)`` has been walked no pair can beat the best one
    found.  Certifying ``short > cap`` therefore needs the ball only to radius
    ``ceil(cap/2)``, where the walk stops.  The walk visits about the square
    root of the full ball's elements (485 of 118,097 for the Sanov group mod
    13), and by pigeonhole at most ``index + 1`` before the first collision.

    The walk takes a level at a time.  On entering level d no pair among the
    levels below d collides (it would be shorter than ``2d - 1`` and would have
    stopped the walk), so a level-d key can only meet a key of level d - 1 (a
    pair of length 2d - 1) or an earlier one of level d (2d): a pair with level
    j <= d - 2 would be a subgroup word of length at most 2d - 2, whose halves
    collide below level d.  So keys are compared with the previous level's
    only.  Within a level the elements count in BFS order, and the walk stops
    after the first pair of length 2d - 1, as element by element; the
    ``bfs_visited`` refusal falls where that walk would place it.
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
    best, last, count, prev = math.inf, 0, 0, np.zeros(0, dtype=np.int64)
    for dist, level in enumerate(group._levels(half, lambda dist: 2 * (dist - 1) + 1)):
        keys = sub.reduce_codes(level)
        ordered = np.sort(np.concatenate([prev, keys]))
        walked = len(level)
        if (ordered[1:] == ordered[:-1]).any():  # a pair, so the last level
            # a key of the previous level makes a pair of length 2 dist - 1, and the
            # walk stops after the first one; else two keys of this level, 2 dist
            known = np.sort(prev)
            stops = np.flatnonzero(known[np.searchsorted(known, keys) % len(known)] == keys)
            walked, best = (stops[0] + 1, 2 * dist - 1) if len(stops) else (walked, 2 * dist)
        if count + walked > caps.bfs_visited:  # levels below dist hold no pair shorter
            raise SearchCapExceeded(f"BFS visited more than {caps.bfs_visited} elements",
                                    lower_bound=2 * (dist - 1) + 1)
        count += walked
        last, prev = dist, keys
        if 2 * dist >= best - 1:
            break  # levels through dist are complete: no pair can beat best
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
    for dist, level in enumerate(group._levels(r)):
        count += len(level)
        if dist and count > caps.bfs_visited:  # the identity is always met
            raise SearchCapExceeded(f"BFS visited more than {caps.bfs_visited} elements")
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
    if not math.isfinite(c):
        raise BadArgument(f"c must be finite, got {c}")
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
