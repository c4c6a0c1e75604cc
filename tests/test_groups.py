import functools
import itertools
import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from l2growth import (CongruenceSubgroup, FreeAbelian, IntegralMatrixGroup,
                      LatticeSubgroup, ball_volume, element_order, quotient,
                      quotient_diameter, short_length, uniformity_check)
from l2growth.errors import (BadCaps, CrossCheckMismatch, L2GrowthError, NotFiniteIndex,
                             OrderCapExceeded, RankOutOfRange, SearchCapExceeded,
                             SizeCapExceeded)
from l2growth import exact
from l2growth.caps import Caps

SL2Z = IntegralMatrixGroup(2, [[[0, -1], [1, 0]], [[1, 1], [0, 1]]])  # S, T: has torsion


def sanov(k):
    return IntegralMatrixGroup(2, [[[1, k], [0, 1]], [[1, 0], [k, 1]]])


def elementary3():
    """SL(3, Z), generated by the elementary matrices E12, E23 and E31."""
    gens = []
    for i, j in ((0, 1), (1, 2), (2, 0)):
        e = [[int(r == c) for c in range(3)] for r in range(3)]
        e[i][j] = 1
        gens.append(e)
    return IntegralMatrixGroup(3, gens)


def _matmul_mod(a, b, m):
    n = len(a)
    return tuple(tuple(sum(a[i][t] * b[t][j] for t in range(n)) % m for j in range(n))
                 for i in range(n))


def tuple_bfs(identity, gens, mul):
    """Reference: the element-by-element BFS over tuples.

    Returns (elements in discovery order, element -> index, BFS depth).
    """
    elements, index = [identity], {identity: 0}
    frontier, depth = [identity], -1
    while frontier:
        depth += 1
        nxt = []
        for el in frontier:
            for g in gens:
                w = mul(el, g)
                if w not in index:
                    index[w] = len(elements)
                    elements.append(w)
                    nxt.append(w)
        frontier = nxt
    return elements, index, depth


def tuple_reduce(sub, el):
    """Reference: the image of a parent element in the quotient, as a tuple:
    Smith coordinates U v mod d of a lattice, entries mod m of a congruence
    subgroup."""
    if isinstance(sub, CongruenceSubgroup):
        return tuple(tuple(x % sub.level for x in row) for row in el)
    assert len(el) == sub.n
    u, diag = sub.snf()
    return tuple(sum(map(operator.mul, row, el)) % abs(d) for row, d in zip(u, diag))


def tuple_congruence_bfs(group, m):
    """Reference: the BFS over matrix tuples mod m."""
    sub = CongruenceSubgroup(m)
    return tuple_bfs(tuple_reduce(sub, group.identity),
                     [tuple_reduce(sub, g) for g in group.symmetric_generators()],
                     lambda a, b: _matmul_mod(a, b, m))


def tuple_quotient(q):
    """Reference: (elements as tuples in element order, their product, BFS depth).

    Abelian elements are Smith coordinates in mixed radix, the last fastest, with
    coordinate sums mod the moduli; congruence elements are matrix tuples mod m.
    """
    if isinstance(q.group, FreeAbelian):
        def mul(a, b):
            return tuple((x + y) % m for x, y, m in zip(a, b, q.moduli))
        gens = [tuple_reduce(q.subgroup, g) for g in q.group.symmetric_generators()]
        depth = tuple_bfs((0,) * len(q.moduli), gens, mul)[2]
        return list(itertools.product(*map(range, q.moduli))), mul, depth
    elements, _index, depth = tuple_congruence_bfs(q.group, q.level)
    return elements, lambda a, b: _matmul_mod(a, b, q.level), depth


def repeated_product_orders(elements, mul):
    """Reference: the order of each element, multiplying until the identity returns."""
    orders = []
    for el in elements:
        power, k = el, 1
        while power != elements[0]:
            power, k = mul(power, el), k + 1
        orders.append(k)
    return orders


def tuple_right_mult_indices(q, parent_element):
    """Reference: perm[i] = index of (element i) * image(g), one tuple product each."""
    elements, mul, _depth = tuple_quotient(q)
    index = {el: i for i, el in enumerate(elements)}
    g = tuple_reduce(q.subgroup, parent_element)
    return [index[mul(el, g)] for el in elements]


CONGRUENCE_CASES = (
    [(f"sanov{k}", sanov(k), m) for k in (1, 2, 3) for m in (3, 5, 7, 11, 13)]
    + [("SL2Z", SL2Z, m) for m in (3, 4, 5, 7)]
    + [("rotation", IntegralMatrixGroup(2, [[[0, -1], [1, 0]]]), 5),
       ("elementary3", elementary3(), 3)])


@pytest.mark.parametrize("name, group, m", CONGRUENCE_CASES,
                         ids=[f"{c[0]}-mod{c[2]}" for c in CONGRUENCE_CASES])
def test_congruence_quotient_matches_tuple_bfs(name, group, m):
    q = quotient(group, CongruenceSubgroup(m))
    elements, index, depth = tuple_congruence_bfs(group, m)
    assert [tuple(map(tuple, a)) for a in q._mats.tolist()] == elements
    assert q.order == len(elements)
    assert q.diameter() == depth
    for j in {0, q.order // 2, q.order - 1}:
        left = q.left_mult_indices(j)
        assert left.tolist() == [index[_matmul_mod(elements[j], el, m)] for el in elements]
    gens = group.symmetric_generators()
    # a longer word, with entries far outside [0, m)
    word = group.identity
    for g in gens + gens[:2]:
        word = group.mul(word, g)
    for g in gens + [word, group.identity]:
        perm = q.right_mult_indices(g)
        image = tuple_reduce(q.subgroup, g)
        assert perm.tolist() == [index[_matmul_mod(el, image, m)] for el in elements]


def test_congruence_code_size_refused():
    # 128^9 = 2^63 integer codes do not fit int64; 127^9 do
    group = elementary3()
    with pytest.raises(SizeCapExceeded):
        quotient(group, CongruenceSubgroup(128))
    with pytest.raises(OrderCapExceeded):
        quotient(group, CongruenceSubgroup(127), Caps(order=50))
    # 1x1 matrices: the products (m-1)^2 must fit as well
    sign = IntegralMatrixGroup(1, [[[-1]]])
    assert quotient(sign, CongruenceSubgroup(2 ** 31))._mats.tolist() == [[[1]], [[2 ** 31 - 1]]]
    with pytest.raises(SizeCapExceeded):
        quotient(sign, CongruenceSubgroup(2 ** 32))
    # refused even though the group is tiny (order 4): 60000^4 >= 2^63
    rotation = IntegralMatrixGroup(2, [[[0, -1], [1, 0]]])
    assert quotient(rotation, CongruenceSubgroup(55108)).order == 4
    with pytest.raises(SizeCapExceeded):
        quotient(rotation, CongruenceSubgroup(60000))


@pytest.mark.parametrize("mat", [[[8, 3], [0, 25]], [[20, 7], [0, 30]], [[3, 1], [1, 4]]])
def test_abelian_right_mult_matches_tuples(z_two, mat):
    q = quotient(z_two, LatticeSubgroup(mat))
    for g in [(1, 0), (0, 1), (-1, 0), (0, -1), (-3, 7), (0, 0), (41, -29)]:
        assert q.right_mult_indices(g).tolist() == tuple_right_mult_indices(q, g)


def iter_ball(group, max_radius, max_visited):
    """Reference: breadth-first enumeration of (element, word length), identity
    first, one tuple product at a time."""
    gens = group.symmetric_generators()
    seen = {group.identity}
    yield group.identity, 0
    frontier = [group.identity]
    for dist in range(1, max_radius + 1):
        nxt = []
        for el in frontier:
            for g in gens:
                w = group.mul(el, g)
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


def tuple_short_length(group, sub, caps=Caps()):
    """Reference: the meet-in-the-middle search of ``short_length`` over the
    tuple walk, element by element, with a dict of keys."""
    if isinstance(group, FreeAbelian):
        if group.rank == 1:
            return abs(sub.det)
        cap = caps.short
    else:
        cap = caps.bfs_length
    half = (cap + 1) // 2
    first = {}  # key -> least word length
    best = math.inf
    last = 0
    for count, (el, dist) in enumerate(iter_ball(group, half, math.inf), 1):
        if 2 * (dist - 1) >= best - 1:
            break
        if count > caps.bfs_visited:
            raise SearchCapExceeded(f"BFS visited more than {caps.bfs_visited} elements",
                                    lower_bound=2 * (dist - 1) + 1)
        last = dist
        key = tuple_reduce(sub, el)
        seen = first.get(key)
        if seen is None:
            first[key] = dist
        else:
            best = min(best, dist + seen)
    if best <= cap:
        return best
    if best == math.inf and last < half:
        return math.inf
    raise SearchCapExceeded(
        f"no subgroup element of word length <= {cap}", lower_bound=cap + 1)


def tuple_word_lengths(group, targets, caps=Caps()):
    """Reference: ``word_lengths`` of a matrix group over the tuple walk."""
    missing = set(targets)
    lengths = {}
    for el, dist in iter_ball(group, caps.bfs_length, caps.bfs_visited):
        if el in missing:
            missing.discard(el)
            lengths[el] = dist
        if not missing:
            return lengths
    raise SearchCapExceeded(
        f"no word of length <= {caps.bfs_length} reaches {len(missing)} element(s)",
        lower_bound=caps.bfs_length + 1)


def tuple_ball_volume(group, r, caps=Caps()):
    """Reference: ``ball_volume`` of a matrix group over the tuple walk."""
    return sum(1 for _ in iter_ball(group, r, caps.bfs_visited))


def outcome(call):
    """A call's value, or its refusal's class, message and lower bound."""
    try:
        return call()
    except SearchCapExceeded as err:
        return type(err), str(err), err.lower_bound


def short_length_full_ball(group, sub, caps=Caps()):
    """Reference: breadth-first search over the whole ball of radius short."""
    cap = caps.bfs_length
    identity = group.identity
    home = tuple_reduce(sub, identity)  # membership: reducing to the identity's image
    exhausted = True
    last = 0
    for el, dist in iter_ball(group, cap, caps.bfs_visited):
        last = dist
        if el != identity and tuple_reduce(sub, el) == home:
            return dist
        if dist == cap:
            exhausted = False
    if exhausted and last < cap:
        return math.inf  # the whole (finite) group was enumerated
    raise SearchCapExceeded(
        f"no kernel element of word length <= {cap}", lower_bound=cap + 1)


def l1_sphere(n, r):
    """All integer vectors in Z^n with l1 norm exactly r."""
    if n == 1:
        yield from ((r,), (-r,)) if r else ((0,),)
        return
    for k in range(-r, r + 1):
        for rest in l1_sphere(n - 1, r - abs(k)):
            yield (k,) + rest


def short_length_l1_spheres(group, sub, caps=Caps()):
    """Reference for Z^n, n >= 2: scan the l1 spheres for a subgroup element.

    Some basis column lies in the subgroup, so only the radii below the
    shortest column's norm are scanned; past them that norm is the answer,
    even when it is caps.short + 1.
    """
    cap = caps.short
    upper = min(sum(abs(x) for x in col) for col in sub.columns())
    for r in range(1, min(upper - 1, cap) + 1):
        for v in l1_sphere(group.rank, r):
            if not any(tuple_reduce(sub, v)):  # Smith coordinates all zero
                return r
    if upper - 1 <= cap:
        return upper
    raise SearchCapExceeded(f"no subgroup element of l1 norm <= {cap}", lower_bound=cap + 1)


def test_short_length_examples(z_one, z_two):
    assert short_length(z_two, LatticeSubgroup([[2, 0], [0, 3]])) == 2
    assert short_length(z_one, LatticeSubgroup([[1]])) == 1


def test_short_length_congruence(sanov_group):
    s = short_length(sanov_group, CongruenceSubgroup(5))
    assert s >= math.log(5, 2)
    assert s == 5  # frozen from the BFS oracle


@pytest.mark.parametrize("group, levels", [
    (sanov(2), (3, 5, 7, 9, 11, 13)),
    (sanov(3), (3, 5, 7, 9, 11, 13)),
    (SL2Z, (3, 4, 5, 7)),
])
def test_short_length_matches_full_ball(group, levels):
    for m in levels:
        sub = CongruenceSubgroup(m)
        assert short_length(group, sub) == short_length_full_ball(group, sub)


@pytest.mark.parametrize("m, short", [(5, 5), (7, 6)])  # one odd, one even
def test_short_length_matrix_cap(sanov_group, m, short):
    sub = CongruenceSubgroup(m)
    assert short_length_full_ball(sanov_group, sub) == short
    for search in (short_length, short_length_full_ball):
        assert search(sanov_group, sub, caps=Caps(bfs_length=short)) == short
        with pytest.raises(SearchCapExceeded) as err:
            search(sanov_group, sub, caps=Caps(bfs_length=short - 1))
        assert err.value.lower_bound == short


def test_short_length_visited_cap(sanov_group):
    # the free ball has 1, 5, 17, 53 elements to radius 0..3: the 21st is at level 3,
    # and levels 0..2 hold no collision, so short >= 2 * 2 + 1 (it is 10)
    with pytest.raises(SearchCapExceeded) as err:
        short_length(sanov_group, CongruenceSubgroup(13), caps=Caps(bfs_visited=20))
    assert err.value.lower_bound == 5


def level_sizes(monkeypatch, group):
    """Record (word length, element count) of each level the group's walk yields."""
    walk, sizes = group._levels, []

    def recording(*args):
        for dist, level in enumerate(walk(*args)):
            sizes.append((dist, len(level)))
            yield level

    monkeypatch.setattr(group, "_levels", recording)
    return sizes


def test_short_length_walks_half_the_ball(monkeypatch):
    group = sanov(2)
    sizes = level_sizes(monkeypatch, group)
    assert short_length(group, CongruenceSubgroup(13)) == 10
    # the full ball of radius 10 has 118,097 elements; the walk stops at radius 5
    assert sizes == [(0, 1), (1, 4), (2, 12), (3, 36), (4, 108), (5, 324)]


ROTATION = IntegralMatrixGroup(2, [[[0, -1], [1, 0]]])
WALK_CASES = ([(f"sanov{k}-mod{m}", sanov(k), CongruenceSubgroup(m))
               for k in (2, 3) for m in range(3, 14)]
              + [(f"SL2Z-mod{m}", SL2Z, CongruenceSubgroup(m)) for m in (3, 4, 5, 7)]
              + [("rotation-mod5", ROTATION, CongruenceSubgroup(5))])
MATRIX_CAPS = ([Caps()] + [Caps(bfs_length=b) for b in (1, 2, 3, 4, 5, 7, 9)]
               + [Caps(bfs_visited=v) for v in (0, 1, 3, 5, 17, 20, 60, 200)])


@pytest.mark.parametrize("name, group, sub", WALK_CASES, ids=[c[0] for c in WALK_CASES])
def test_matrix_walks_match_the_tuple_walk(name, group, sub):
    # the same value, or the same refusal and lower bound, under every cap
    rng = np.random.default_rng(sum(map(ord, name)))
    gens = group.symmetric_generators()
    words = [functools.reduce(group.mul, [gens[i] for i in rng.integers(0, len(gens), size=n)],
                              group.identity) for n in (0, 1, 2, 3, 5)]
    for caps in MATRIX_CAPS:
        assert outcome(lambda: short_length(group, sub, caps)) == \
            outcome(lambda: tuple_short_length(group, sub, caps)), caps
        for targets in (words[:1], words[1:3], words, words[3:]):
            assert outcome(lambda: group.word_lengths(targets, caps)) == \
                outcome(lambda: tuple_word_lengths(group, targets, caps)), (caps, targets)
        for r in range(5):
            assert outcome(lambda: ball_volume(group, r, caps)) == \
                outcome(lambda: tuple_ball_volume(group, r, caps)), (caps, r)


def hnf_lattices(n, seed, count):
    """Random lattices of Z^n in Hermite normal form (lower triangular; the
    columns generate), and elongated ones (a diagonal of ones and one large
    entry, so one congruence x_n = a . x mod N), of index <= 2000."""
    rng = np.random.default_rng(seed)
    out = []
    for t in range(count):
        if t % 2:
            diag = [1] * (n - 1) + [int(rng.integers(50, 2000))]
        else:
            diag = [int(rng.integers(1, int(2000 ** (1 / n)) + 1)) for _ in range(n)]
        mat = [[diag[i] if i == j else int(rng.integers(0, diag[i])) if i > j else 0
                for j in range(n)] for i in range(n)]
        out.append(LatticeSubgroup(mat))
    return out


@pytest.mark.parametrize("n, seed", [(2, 11), (3, 12)])
def test_abelian_walk_matches_the_tuple_walk(n, seed):
    group = FreeAbelian(n)
    for sub in hnf_lattices(n, seed, 24):
        for caps in ([Caps()] + [Caps(short=c) for c in (1, 2, 3, 5, 8)]
                     + [Caps(bfs_visited=v) for v in (0, 1, 4, 7, 30, 100)]):
            assert outcome(lambda: short_length(group, sub, caps)) == \
                outcome(lambda: tuple_short_length(group, sub, caps)), (sub, caps)


def test_walk_refuses_products_past_int64():
    # entries grow by about 2^20 a level: level 3 reaches 2^60, and level 4's
    # products could pass 2^62, so levels 0-3 are complete
    big = IntegralMatrixGroup(2, [[[1, 2 ** 20], [0, 1]], [[1, 0], [2 ** 20, 1]]])
    sub = CongruenceSubgroup(1009)
    assert tuple_short_length(big, sub) >= 7  # Python integers pass any bound
    with pytest.raises(SearchCapExceeded, match="could pass int64") as err:
        short_length(big, sub)
    assert err.value.lower_bound == 2 * (4 - 1) + 1
    for call in (lambda: ball_volume(big, 4), lambda: big.word_lengths([((2, 0), (0, 1))])):
        with pytest.raises(SearchCapExceeded, match="could pass int64"):
            call()
    assert ball_volume(big, 3) == tuple_ball_volume(big, 3) == 53
    # a generator entry past 2^62 is refused at level 1, before any product
    huge = IntegralMatrixGroup(2, [[[1, 2 ** 70], [0, 1]]])
    with pytest.raises(SearchCapExceeded, match="level 1 of the ball walk") as err:
        short_length(huge, CongruenceSubgroup(5))
    assert err.value.lower_bound == 1


def test_walk_levels_are_charged_to_the_byte_budget(monkeypatch):
    import tracemalloc
    from l2growth import exact
    budget = 2 ** 20
    monkeypatch.setattr(exact, "_DENSE_BYTES", budget)
    group = sanov(2)
    tracemalloc.start()
    try:
        with pytest.raises(SizeCapExceeded, match="breadth-first walk"):
            ball_volume(group, 20, Caps(bfs_visited=10 ** 9))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * budget


def test_short_length_singular_matrix(z_two):
    with pytest.raises(NotFiniteIndex):
        short_length(z_two, LatticeSubgroup([[1, 2], [2, 4]]))


def test_lattice_of_another_size_is_refused(z_one, z_two):
    # a 1 x 1 lattice is not a subgroup of Z^2, nor a 2 x 2 one of Z
    for group, sub in ((z_two, LatticeSubgroup([[3]])),
                       (z_one, LatticeSubgroup([[2, 0], [0, 3]]))):
        with pytest.raises(RankOutOfRange):
            quotient(group, sub)
        with pytest.raises(RankOutOfRange):
            short_length(group, sub)


def test_short_length_cap(z_two):
    with pytest.raises(SearchCapExceeded) as err:
        short_length(z_two, LatticeSubgroup([[40, 0], [0, 41]]), caps=Caps(short=10))
    assert err.value.lower_bound == 11


def test_short_length_one_past_the_cap_is_refused(z_two):
    # short = 11 = cap + 1: refused with its certified lower bound, as for matrix groups
    sub = LatticeSubgroup([[11, 0], [0, 40]])
    assert short_length_l1_spheres(z_two, sub, caps=Caps(short=10)) == 11
    with pytest.raises(SearchCapExceeded) as err:
        short_length(z_two, sub, caps=Caps(short=10))
    assert err.value.lower_bound == 11
    assert short_length(z_two, sub, caps=Caps(short=11)) == 11


def test_abelian_search_walks_to_half_the_cap(monkeypatch):
    group = FreeAbelian(3)
    sizes = level_sizes(monkeypatch, group)
    with pytest.raises(SearchCapExceeded) as err:
        short_length(group, LatticeSubgroup([[40, 0, 0], [0, 40, 0], [0, 0, 40]]),
                     caps=Caps(short=20))
    assert err.value.lower_bound == 21
    assert sizes[-1][0] == 10 and sum(n for _dist, n in sizes) == ball_volume(group, 10)


def test_abelian_search_is_bounded_by_the_visited_cap():
    # the walk passes 1,000 elements at level L, whose ball has more: the levels
    # below L are complete with no collision, so short >= 2 (L - 1) + 1
    for n, d, level in ((2, 300, 22), (3, 40, 9)):
        group = FreeAbelian(n)
        assert ball_volume(group, level - 1) <= 1000 < ball_volume(group, level)
        sub = LatticeSubgroup(np.diag([d] * n).tolist())
        with pytest.raises(SearchCapExceeded) as err:
            short_length(group, sub, caps=Caps(bfs_visited=1000))
        assert err.value.lower_bound == 2 * (level - 1) + 1  # 43 and 17
    assert short_length(group, sub) == 40  # the Z^3 case, uncapped


def test_finite_group_whose_ball_reaches_half_the_cap_is_refused():
    # the rotation group of order 4 injects mod 5; its ball ends at radius 2
    rot = IntegralMatrixGroup(2, [[[0, -1], [1, 0]]])
    sub = CongruenceSubgroup(5)
    assert short_length(rot, sub, caps=Caps(bfs_length=5)) == math.inf  # ball ends below 3
    for cap in (3, 4):  # radius 2 = ceil(cap / 2): the search stops before it ends
        with pytest.raises(SearchCapExceeded) as err:
            short_length(rot, sub, caps=Caps(bfs_length=cap))
        assert err.value.lower_bound == cap + 1


def test_short_invariant_under_unimodular_column_ops(z_two):
    rng = np.random.default_rng(5)
    for _ in range(50):
        mat = rng.integers(-5, 6, size=(2, 2))
        sub = LatticeSubgroup(mat.tolist())
        if sub.det == 0 or sub.index > 400:
            continue
        base = short_length(z_two, sub)
        m = mat.copy()
        for _ in range(4):
            op = rng.integers(0, 3)
            if op == 0:
                m[:, [0, 1]] = m[:, [1, 0]]
            elif op == 1:
                m[:, 0] = -m[:, 0]
            else:
                k = int(rng.integers(-2, 3))
                m[:, 0] = m[:, 0] + k * m[:, 1]
        assert short_length(z_two, LatticeSubgroup(m.tolist())) == base


def test_short_at_most_column_norm(z_two):
    rng = np.random.default_rng(6)
    for _ in range(50):
        mat = rng.integers(-6, 7, size=(2, 2))
        sub = LatticeSubgroup(mat.tolist())
        if sub.det == 0 or sub.index > 500:
            continue
        s = short_length(z_two, sub)
        for col in sub.columns():
            assert s <= sum(abs(x) for x in col)


def test_ball_volume_formula(z_two):
    assert ball_volume(z_two, 1) == 5
    assert ball_volume(z_two, 2) == 13
    assert ball_volume(z_two, 0) == 1


def test_ball_volume_matches_enumeration():
    import itertools
    for n in (1, 2, 3):
        group = FreeAbelian(n)
        for r in range(5):
            brute = sum(1 for v in itertools.product(range(-r, r + 1), repeat=n)
                        if sum(abs(x) for x in v) <= r)
            assert ball_volume(group, r) == brute


def test_matrix_ball_strictly_increasing(sanov_group):
    vols = [ball_volume(sanov_group, r) for r in range(5)]
    assert vols[0] == 1
    assert all(a < b for a, b in zip(vols, vols[1:]))


def test_quotient_orders(z_one, z_two):
    assert quotient(z_two, LatticeSubgroup([[2, 0], [0, 3]])).order == 6
    assert quotient(z_one, LatticeSubgroup([[5]])).order == 5
    q = quotient(z_two, LatticeSubgroup([[2, 1], [0, 3]]))
    assert q.order == 6
    assert sorted(q.moduli) == [1, 6]


def test_congruence_quotient_orders(sanov_group):
    assert quotient(sanov_group, CongruenceSubgroup(3)).order == 24
    assert quotient(sanov_group, CongruenceSubgroup(5)).order == 120
    # both generators reduce to the identity mod 2
    assert quotient(sanov_group, CongruenceSubgroup(2)).order == 1


def check_group_axioms(q) -> bool:
    """Latin-square rows and columns, element 0 the identity, associativity and the
    right action's agreement, all read from the product table of the left actions."""
    n = q.order
    table = np.array([q.left_mult_indices(a) for a in range(n)])  # table[a, b] = a * b
    every = np.arange(n)
    if not ((np.sort(table, axis=1) == every).all() and (np.sort(table, axis=0).T == every).all()):
        return False  # then every element has an inverse, one 0 in its row
    if not ((table[0] == every).all() and (table[:, 0] == every).all()):
        return False
    # (a * b) * c == a * (b * c) for all a, b, c
    if not np.array_equal(table[table], table[every[:, None, None], table[None]]):
        return False
    for g in q.group.symmetric_generators():
        right = q.right_mult_indices(g)
        if not np.array_equal(right, table[:, right[0]]):  # x * image(g)
            return False
    return True


def test_group_axioms_on_quotients(z_two, sanov_group):
    assert check_group_axioms(quotient(z_two, LatticeSubgroup([[3, 1], [1, 4]])))
    assert check_group_axioms(quotient(sanov_group, CongruenceSubgroup(3)))


def test_element_order_examples(z_two):
    q = quotient(z_two, LatticeSubgroup([[2, 0], [0, 3]]))
    assert element_order(q, (1, 0)) == 2
    assert element_order(q, (0, 0)) == 1
    assert element_order(q, (1, 1)) == 6
    # o(g) >= short / |g|
    s = short_length(z_two, q.subgroup)
    assert element_order(q, (1, 1)) >= s / 2


def test_element_order_divides_group_order(z_two, sanov_group):
    rng = np.random.default_rng(8)
    q = quotient(z_two, LatticeSubgroup([[4, 1], [0, 6]]))
    for _ in range(30):
        g = tuple(int(x) for x in rng.integers(-5, 6, size=2))
        assert q.order % element_order(q, g) == 0
    qm = quotient(sanov_group, CongruenceSubgroup(3))
    assert np.all(qm.order % qm.element_orders() == 0)


def test_element_orders_and_the_max_order_element(z_two, sanov_group):
    q = quotient(z_two, LatticeSubgroup([[2, 0], [0, 4]]))
    assert q.element_orders().tolist() == repeated_product_orders(*tuple_quotient(q)[:2])
    # order 4 is first reached at element 1, (0, 1); (1, 1) and (1, 3) tie with it
    assert q.max_order_element() == (1, 4)
    for m in (3, 5, 9):
        qm = quotient(sanov_group, CongruenceSubgroup(m))
        orders = qm.element_orders()
        assert orders.tolist() == repeated_product_orders(*tuple_quotient(qm)[:2])
        h, r = qm.max_order_element()
        assert r == orders.max() and h == int(np.flatnonzero(orders == r)[0])


def test_broken_quotients_raise_cross_check_mismatch(z_one, sanov_group, monkeypatch):
    cyclic = quotient(z_one, LatticeSubgroup([[4]]))
    assert cyclic.diameter() == 2
    # codes doubled mod 4: the generator's image would generate half of Z/4
    codes = cyclic.subgroup.reduce_codes
    monkeypatch.setattr(cyclic.subgroup, "reduce_codes", lambda rows: codes(rows) * 2 % 4)
    with pytest.raises(CrossCheckMismatch, match="do not generate"):
        cyclic.diameter()
    q = quotient(sanov_group, CongruenceSubgroup(3))
    assert element_order(q, sanov_group.generators[0]) == 3
    q = quotient(sanov_group, CongruenceSubgroup(3))  # orders are kept once computed
    q._mats = q._mats.copy()
    q._mats[1] = 0  # an element whose powers never return to the identity
    with pytest.raises(CrossCheckMismatch):
        q.element_orders()


def test_elements_of_the_wrong_shape_are_refused(z_one, z_two, sanov_group):
    cyclic = quotient(z_one, LatticeSubgroup([[4]]))
    torus = quotient(z_two, LatticeSubgroup([[4, 0], [0, 6]]))
    q = quotient(sanov_group, CongruenceSubgroup(5))
    calls = [
        lambda: element_order(cyclic, (1, 0)),  # zip would read it as (1,), of order 4
        lambda: torus.right_mult_indices((1,)),  # zip would read it as (1, 0)
        lambda: cyclic.subgroup.reduce_codes(np.zeros((3, 2), dtype=np.int64)),
        lambda: q.right_mult_indices(((1, 0, 0), (0, 1, 0), (0, 0, 1))),  # not a numpy error
        lambda: element_order(q, ((1, 0), (0, 1, 0))),
        lambda: q.right_mult_indices(((1.5, 0), (0, 1))),
        lambda: q.right_mult_indices([[1, 0], [0, 1]]),  # elements are tuples
    ]
    for call in calls:
        with pytest.raises(RankOutOfRange, match="not (an element|elements) of"):
            call()


def test_matrix_outside_the_quotient_raises_cross_check_mismatch(sanov_group):
    q = quotient(sanov_group, CongruenceSubgroup(5))
    with pytest.raises(CrossCheckMismatch):
        q.right_mult_indices(((2, 0), (0, 1)))  # determinant 2: not in SL(2, Z/5)


def test_quotient_diameter_examples(z_one, z_two):
    assert quotient_diameter(quotient(z_one, LatticeSubgroup([[5]]))) == 2
    assert quotient_diameter(quotient(z_one, LatticeSubgroup([[1]]))) == 0
    # BFS oracle value for Z^2/(2Z x 3Z) with symmetric generator images
    q = quotient(z_two, LatticeSubgroup([[2, 0], [0, 3]]))
    assert quotient_diameter(q) == 2


def test_integral_inverse_round_trip_on_random_words():
    rng = np.random.default_rng(17)
    for group in (SL2Z, sanov(2), sanov(3), elementary3()):
        gens = group.symmetric_generators()
        for _ in range(40):
            el = group.identity
            for k in rng.integers(0, len(gens), size=int(rng.integers(1, 12))):
                el = group.mul(el, gens[k])
            inv = group.inv(el)
            assert group.mul(el, inv) == group.mul(inv, el) == group.identity
            assert group.inv(inv) == el


def test_symmetric_generators_are_inverted_once(monkeypatch):
    group = sanov(2)
    a, b = group.generators
    want = [a, group.inv(a), b, group.inv(b)]

    def refuse(_m):
        raise AssertionError("a generator inverted again")

    monkeypatch.setattr(exact, "adjugate", refuse)
    gens = group.symmetric_generators()
    assert gens == want
    gens.pop()  # the caller's own list
    assert group.symmetric_generators() == want


def test_congruence_diameter_from_construction(sanov_group):
    rot = IntegralMatrixGroup(2, [[[0, -1], [1, 0]]])
    cases = [(sanov_group, m) for m in range(3, 14)] + [(rot, 5)]
    for group, m in cases:
        q = quotient(group, CongruenceSubgroup(m))
        assert quotient_diameter(q) == tuple_congruence_bfs(group, m)[2]


def index_table_diameter(q):
    """Reference: breadth-first search over the index tables of the generator
    images, ``right_mult_indices``, from element 0."""
    steps = np.array([q.right_mult_indices(g) for g in q.group.symmetric_generators()])
    seen = np.zeros(q.order, dtype=bool)
    seen[0] = True
    frontier, depth = np.zeros(1, dtype=np.intp), -1
    while len(frontier):
        depth += 1
        frontier = np.unique(steps[:, frontier])
        frontier = frontier[~seen[frontier]]
        seen[frontier] = True
    assert seen.all()
    return depth


@pytest.mark.parametrize("n, seed", [(1, 21), (2, 22), (3, 23)])
def test_abelian_diameter_matches_the_index_table_walk(n, seed):
    group = FreeAbelian(n)
    for sub in hnf_lattices(n, seed, 60):
        q = quotient(group, sub)
        assert q.diameter() == index_table_diameter(q), sub


def test_short_against_diameter(z_one, z_two, sanov_group):
    # short <= 2*diam + 1: an element one longer than the diameter shares its
    # image with a not-longer word, and their quotient lands in the subgroup.
    # Tight for cyclic quotients (short(iZ) = i, diam = floor(i/2)).
    cases = [
        (z_one, LatticeSubgroup([[7]])),
        (z_one, LatticeSubgroup([[5]])),
        (z_two, LatticeSubgroup([[2, 0], [0, 3]])),
        (z_two, LatticeSubgroup([[5, 2], [1, 4]])),
        (sanov_group, CongruenceSubgroup(3)),
        (sanov_group, CongruenceSubgroup(5)),
    ]
    for group, sub in cases:
        s = short_length(group, sub)
        d = quotient_diameter(quotient(group, sub))
        assert s <= 2 * d + 1


def test_uniformity_check_examples(z_two, sanov_group):
    fam = [LatticeSubgroup([[i, 0], [0, i]]) for i in (1, 2, 3, 5, 8)]
    assert all(uniformity_check(z_two, fam, 2.0).booleans)
    fam2 = [LatticeSubgroup([[1, 0], [0, i]]) for i in (2, 5, 6, 9)]
    assert uniformity_check(z_two, fam2, 1.0).booleans == [True, True, False, False]
    fam3 = [CongruenceSubgroup(m) for m in (2, 3, 5)]
    rep = uniformity_check(sanov_group, fam3, 1.5)
    assert all(rep.booleans)


def test_matrix_group_validation():
    with pytest.raises(ValueError):
        IntegralMatrixGroup(2, [[[2, 0], [0, 1]]])  # determinant 2


def test_short_infinite_for_trivial_kernel():
    # a finite rotation group embeds faithfully mod 5: the kernel is trivial
    rot = IntegralMatrixGroup(2, [[[0, -1], [1, 0]]])
    assert short_length(rot, CongruenceSubgroup(5)) == math.inf
    assert short_length_full_ball(rot, CongruenceSubgroup(5)) == math.inf
    assert quotient(rot, CongruenceSubgroup(5)).order == 4


def test_uniformity_of_a_trivial_kernel_counts_the_whole_group():
    # short is infinite, so B(C * short) is the whole 4-element rotation group
    rot = IntegralMatrixGroup(2, [[[0, -1], [1, 0]]])
    member, = uniformity_check(rot, [CongruenceSubgroup(5)], 1.0).members
    assert (member["index"], member["ball_volume"], member["uniform"]) == (4, 4, True)


def test_word_length(z_two, sanov_group):
    assert z_two.word_length((3, -2)) == 5
    assert z_two.word_length((0, 0)) == 0
    a = sanov_group.generators[0]
    assert sanov_group.word_length(a) == 1
    assert sanov_group.word_length(sanov_group.identity) == 0
    aa = sanov_group.mul(a, a)
    assert sanov_group.word_length(aa) == 2


def test_word_lengths_walk_until_every_target_is_met(sanov_group):
    a, b = sanov_group.generators
    ab = sanov_group.mul(a, b)
    assert sanov_group.word_lengths([ab, a, sanov_group.identity]) == {
        ab: 2, a: 1, sanov_group.identity: 0}
    far = functools.reduce(sanov_group.mul, [a] * 4)
    with pytest.raises(SearchCapExceeded) as err:
        sanov_group.word_lengths([a, far], Caps(bfs_length=3))
    assert err.value.lower_bound == 4


def test_ball_walks_refuse_past_the_visited_cap(sanov_group):
    # the free group of rank two has 17 elements of length <= 2 and 53 of length <= 3
    caps = Caps(bfs_visited=10)
    a3 = functools.reduce(sanov_group.mul, [sanov_group.generators[0]] * 3)
    for call in (lambda: ball_volume(sanov_group, 3, caps),
                 lambda: sanov_group.word_lengths([a3], caps)):
        with pytest.raises(SearchCapExceeded, match="^BFS visited more than 10 elements$"):
            call()
    assert ball_volume(sanov_group, 3, Caps(bfs_visited=53)) == 53


def test_every_group_refusal_is_a_library_error(z_two, sanov_group):
    sites = [
        (ValueError, "rank must be >= 1", lambda: FreeAbelian(0)),
        (ValueError, "dimension must be >= 1", lambda: IntegralMatrixGroup(0, [[[1]]])),
        (ValueError, "generator has wrong shape", lambda: IntegralMatrixGroup(2, [[[1]]])),
        (ValueError, "generator is not invertible over the integers",
         lambda: IntegralMatrixGroup(2, [[[2, 0], [0, 1]]])),
        (ValueError, "at least one generator required", lambda: IntegralMatrixGroup(2, [])),
        (ValueError, "subgroup matrix must be square", lambda: LatticeSubgroup([[1, 0]])),
        (ValueError, "congruence level must be >= 2", lambda: CongruenceSubgroup(1)),
        (ValueError, "radius must be nonnegative", lambda: ball_volume(z_two, -1)),
        (ValueError, "radius must be an integer, not 2.5", lambda: ball_volume(z_two, 2.5)),
        (ValueError, "radius must be an integer, not 2.5",
         lambda: ball_volume(sanov_group, 2.5)),
        (TypeError, "free abelian groups take LatticeSubgroup",
         lambda: short_length(z_two, CongruenceSubgroup(3))),
        (TypeError, "integral matrix groups take CongruenceSubgroup",
         lambda: short_length(sanov_group, LatticeSubgroup([[2]]))),
        (TypeError, "unsupported group 'Z'", lambda: short_length("Z", None)),
        (TypeError, "unsupported group 'Z'", lambda: quotient("Z", None)),
    ]
    for cls, message, call in sites:
        with pytest.raises(cls, match=f"^{message}$") as info:
            call()
        assert isinstance(info.value, L2GrowthError)


def test_caps_env_parsing(monkeypatch):
    monkeypatch.setenv("L2GROWTH_CAPS", "bfs=10,order=500,eig=100")
    caps = Caps.from_env()
    assert caps.bfs_length == 10 and caps.order == 500 and caps.eig == 100
    monkeypatch.setenv("L2GROWTH_CAPS", "bogus=1")
    with pytest.raises(BadCaps):
        Caps.from_env()
    assert issubclass(BadCaps, L2GrowthError) and issubclass(BadCaps, ValueError)


@pytest.mark.parametrize("raw", ["order=-5,eig=0", "order=-5", "eig=0", "bfs=x"])
def test_caps_env_refuses_a_cap_below_one(monkeypatch, raw):
    monkeypatch.setenv("L2GROWTH_CAPS", raw)
    with pytest.raises(ValueError, match="bad cap value"):
        Caps.from_env()


def test_order_cap(z_two):
    from l2growth.errors import OrderCapExceeded
    with pytest.raises(OrderCapExceeded):
        quotient(z_two, LatticeSubgroup([[100, 0], [0, 100]]), Caps(order=100))


# ---------------------------------------------------------------------------
# Property tests: the index tables against the tuple references
# ---------------------------------------------------------------------------

@st.composite
def lattices(draw, min_rank=1):
    """A non-diagonal finite-index subgroup of Z^n, n = min_rank..3, of index <= 200.

    A lower triangular basis with positive diagonal (its index the diagonal's
    product) whose columns a shear then mixes; rank one has no off-diagonal.
    For n >= 2 each diagonal entry d is 2..floor(200^(1/n)) and the entries
    left of it lie within +-d/2, so no basis column is very short and the
    quotients are not nearly cyclic.
    """
    n = draw(st.integers(min_rank, 3))
    top = int(200 ** (1 / n))
    diag = [draw(st.integers(min(n, 2), top)) for _ in range(n)]
    mat = [[diag[i] if i == j else draw(st.integers(-(diag[i] // 2), diag[i] // 2))
            if i > j else 0 for j in range(n)] for i in range(n)]
    if n > 1:
        k = draw(st.integers(-1, 1))
        for row in mat:
            row[0] += k * row[n - 1]
        if all(mat[i][j] == 0 for i in range(n) for j in range(n) if i != j):
            mat[n - 1][0] += 1  # still lower triangular: the index is unchanged
    return FreeAbelian(n), LatticeSubgroup(mat)


CONGRUENCE_GROUPS = {"sanov1": sanov(1), "sanov2": sanov(2), "sanov3": sanov(3), "SL2Z": SL2Z}
congruences = st.tuples(st.sampled_from(sorted(CONGRUENCE_GROUPS)), st.integers(3, 13)).map(
    lambda c: (CONGRUENCE_GROUPS[c[0]], CongruenceSubgroup(c[1])))
PROPERTY_SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=40)


def _check_tables(data, group, sub):
    q = quotient(group, sub)
    elements, mul, depth = tuple_quotient(q)
    index = {el: i for i, el in enumerate(elements)}
    every = np.arange(q.order)
    assert len(elements) == q.order
    assert np.array_equal(q.right_mult_indices(group.identity), every)
    gens = group.symmetric_generators()
    word = data.draw(st.lists(st.sampled_from(gens), max_size=6))
    acting = gens + [functools.reduce(group.mul, word, group.identity)]
    rights = [q.right_mult_indices(g) for g in acting]
    for g, right in zip(acting, rights):
        assert np.array_equal(np.sort(right), every)  # a permutation
        image = tuple_reduce(q.subgroup, g)
        assert right.tolist() == [index[mul(el, image)] for el in elements]
    for j in {0, q.order - 1, q.max_order_element()[0],
              data.draw(st.integers(0, q.order - 1))}:
        left = q.left_mult_indices(j)
        assert np.array_equal(np.sort(left), every)
        assert left.tolist() == [index[mul(elements[j], el)] for el in elements]
        for right in rights:
            assert np.array_equal(right[left], left[right])  # Lambda_j R_g = R_g Lambda_j
    assert q.element_orders().tolist() == repeated_product_orders(elements, mul)
    assert q.diameter() == depth


@PROPERTY_SETTINGS
@given(lattices(), st.data())
def test_abelian_tables_match_the_tuple_references(case, data):
    _check_tables(data, *case)


@PROPERTY_SETTINGS
@given(lattices(min_rank=2), st.integers(-4, 4), st.integers(-4, 4),
       st.one_of(st.none(), st.integers(1, 8)))
def test_abelian_short_length_matches_the_l1_spheres(case, s, t, cap):
    group, sub = case
    # two row shears keep the index but move the short vectors the strategy's
    # small last diagonal entry makes (otherwise short is mostly 1)
    mat = [row[:] for row in sub.matrix]
    mat[0] = [a + s * b for a, b in zip(mat[0], mat[-1])]
    mat[-1] = [a + t * b for a, b in zip(mat[-1], mat[0])]
    sub = LatticeSubgroup(mat)
    caps = Caps() if cap is None else Caps(short=cap)
    try:
        want = short_length_l1_spheres(group, sub, caps)
    except SearchCapExceeded as err:
        want = err
    if isinstance(want, int) and want <= caps.short:
        assert short_length(group, sub, caps) == want
    else:  # the scan returns caps.short + 1 from a column it did not search past
        with pytest.raises(SearchCapExceeded) as err:
            short_length(group, sub, caps)
        assert err.value.lower_bound == caps.short + 1


@settings(PROPERTY_SETTINGS, max_examples=15)
@given(congruences, st.data())
def test_congruence_tables_match_the_tuple_references(case, data):
    _check_tables(data, *case)
