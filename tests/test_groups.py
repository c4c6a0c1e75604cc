import math

import numpy as np
import pytest

from l2growth import (CongruenceSubgroup, FreeAbelian, IntegralMatrixGroup,
                      LatticeSubgroup, ball_volume, element_order, quotient,
                      quotient_diameter, short_length, uniformity_check)
from l2growth.errors import (CrossCheckMismatch, NotFiniteIndex, OrderCapExceeded,
                             SearchCapExceeded, SizeCapExceeded)
from l2growth.caps import Caps
from l2growth.groups import FiniteQuotient

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


def tuple_congruence_bfs(group, m):
    """Reference: the element-by-element BFS over matrix tuples.

    Returns (elements in discovery order, element -> index, BFS depth).
    """
    sub = CongruenceSubgroup(m)
    gens = [sub.reduce(g) for g in group.symmetric_generators()]
    identity = sub.reduce(group.identity)
    elements, index = [identity], {identity: 0}
    frontier, depth = [identity], -1
    while frontier:
        depth += 1
        nxt = []
        for el in frontier:
            for g in gens:
                w = _matmul_mod(el, g, m)
                if w not in index:
                    index[w] = len(elements)
                    elements.append(w)
                    nxt.append(w)
        frontier = nxt
    return elements, index, depth


def tuple_right_mult_indices(q, parent_element):
    """Reference: perm[i] = index of elements[i] * image(g), one tuple product each."""
    g = q.image(parent_element)
    return [q.index_of(q.mul(el, g)) for el in q.elements]


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
    assert q.elements == elements
    assert q.order == len(elements)
    assert all(q.index_of(el) == i for el, i in index.items())
    assert q.diameter() == depth
    gens = group.symmetric_generators()
    # a longer word, with entries far outside [0, m)
    word = group.identity
    for g in gens + gens[:2]:
        word = group.mul(word, g)
    for g in gens + [word, group.identity]:
        perm = q.right_mult_indices(g)
        assert perm.tolist() == [index[_matmul_mod(el, q.image(g), m)] for el in elements]


def test_congruence_code_size_refused():
    # 128^9 = 2^63 integer codes do not fit int64; 127^9 do
    group = elementary3()
    with pytest.raises(SizeCapExceeded):
        quotient(group, CongruenceSubgroup(128))
    with pytest.raises(OrderCapExceeded):
        quotient(group, CongruenceSubgroup(127), Caps(order=50))
    # 1x1 matrices: the products (m-1)^2 must fit as well
    sign = IntegralMatrixGroup(1, [[[-1]]])
    assert quotient(sign, CongruenceSubgroup(2 ** 31)).elements == [((1,),), ((2 ** 31 - 1,),)]
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


def short_length_full_ball(group, sub, l_max=None, caps=Caps()):
    """Reference: breadth-first search over the whole ball of radius short."""
    cap = l_max if l_max is not None else caps.bfs_length
    identity = group.identity
    exhausted = True
    last = 0
    for el, dist in group.iter_ball(cap, caps.bfs_visited):
        last = dist
        if el != identity and sub.contains(el):
            return dist
        if dist == cap:
            exhausted = False
    if exhausted and last < cap:
        return math.inf  # the whole (finite) group was enumerated
    raise SearchCapExceeded(
        f"no kernel element of word length <= {cap}", lower_bound=cap + 1)


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
        assert search(sanov_group, sub, l_max=short) == short
        with pytest.raises(SearchCapExceeded) as err:
            search(sanov_group, sub, l_max=short - 1)
        assert err.value.lower_bound == short


def test_short_length_visited_cap(sanov_group):
    with pytest.raises(SearchCapExceeded):
        short_length(sanov_group, CongruenceSubgroup(13), caps=Caps(bfs_visited=20))


def test_short_length_walks_half_the_ball(monkeypatch):
    group = sanov(2)
    walk = group.iter_ball
    count = 0

    def counting(*args):
        nonlocal count
        for item in walk(*args):
            count += 1
            yield item

    monkeypatch.setattr(group, "iter_ball", counting)
    assert short_length(group, CongruenceSubgroup(13)) == 10
    # the full ball of radius 10 has 118,097 elements
    assert count <= 2000


def test_short_length_singular_matrix(z_two):
    with pytest.raises(NotFiniteIndex):
        short_length(z_two, LatticeSubgroup([[1, 2], [2, 4]]))


def test_short_length_cap(z_two):
    with pytest.raises(SearchCapExceeded) as err:
        short_length(z_two, LatticeSubgroup([[40, 0], [0, 41]]), l_max=10)
    assert err.value.lower_bound == 11


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
    """Inverses, Latin-square rows and associativity on the first 20 elements."""
    els = q.elements
    for a in els:
        if not any(q.mul(a, b) == q.identity for b in els):
            return False
    for a in els:
        row = {q.mul(a, b) for b in els}
        if len(row) != q.order or not all(ab in q._index for ab in row):
            return False
    head = els[:20]
    return all(q.mul(q.mul(a, b), c) == q.mul(a, q.mul(b, c))
               for a in head for b in head for c in head)


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
    for el in qm.elements:
        assert qm.order % qm.order_of(el) == 0


class _CyclicStub(FiniteQuotient):
    """Z/order with the given generator images and, optionally, a broken product."""

    def __init__(self, order, gens, mul=None):
        self.order = order
        self.elements = list(range(order))
        self.gens = gens
        self.product = mul or (lambda a, b: (a + b) % order)

    def generator_images(self):
        return self.gens

    def mul(self, a, b):
        return self.product(a, b)

    def inv(self, a):
        return -a % self.order


def test_broken_quotients_raise_cross_check_mismatch():
    assert _CyclicStub(4, [1]).diameter() == 2
    assert _CyclicStub(4, [1]).order_of(1) == 4
    with pytest.raises(CrossCheckMismatch):
        _CyclicStub(4, [2]).diameter()  # 2 generates half of Z/4
    with pytest.raises(CrossCheckMismatch):
        _CyclicStub(4, [1], mul=lambda a, b: 1).order_of(1)  # never back to 0


def test_quotient_diameter_examples(z_one, z_two):
    assert quotient_diameter(quotient(z_one, LatticeSubgroup([[5]]))) == 2
    assert quotient_diameter(quotient(z_one, LatticeSubgroup([[1]]))) == 0
    # BFS oracle value for Z^2/(2Z x 3Z) with symmetric generator images
    q = quotient(z_two, LatticeSubgroup([[2, 0], [0, 3]]))
    assert quotient_diameter(q) == 2


def test_congruence_inverse_is_adjugate(sanov_group):
    for m in (3, 5, 7):
        q = quotient(sanov_group, CongruenceSubgroup(m))
        for el in q.elements:
            power = q.identity  # el^(order - 1) by repeated multiplication
            for _ in range(q.order_of(el) - 1):
                power = q.mul(power, el)
            assert q.inv(el) == power
            assert q.mul(el, q.inv(el)) == q.identity


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


def test_congruence_diameter_from_construction(sanov_group):
    rot = IntegralMatrixGroup(2, [[[0, -1], [1, 0]]])
    cases = [(sanov_group, m) for m in range(3, 14)] + [(rot, 5)]
    for group, m in cases:
        q = quotient(group, CongruenceSubgroup(m))
        assert quotient_diameter(q) == FiniteQuotient.diameter(q)


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


def test_word_length(z_two, sanov_group):
    assert z_two.word_length((3, -2)) == 5
    assert z_two.word_length((0, 0)) == 0
    a = sanov_group.generators[0]
    assert sanov_group.word_length(a) == 1
    assert sanov_group.word_length(sanov_group.identity) == 0
    aa = sanov_group.mul(a, a)
    assert sanov_group.word_length(aa) == 2


def test_caps_env_parsing(monkeypatch):
    monkeypatch.setenv("L2GROWTH_CAPS", "bfs=10,order=500,eig=100")
    caps = Caps.from_env()
    assert caps.bfs_length == 10 and caps.order == 500 and caps.eig == 100
    monkeypatch.setenv("L2GROWTH_CAPS", "bogus=1")
    with pytest.raises(ValueError):
        Caps.from_env()


def test_order_cap(z_two):
    from l2growth.errors import OrderCapExceeded
    with pytest.raises(OrderCapExceeded):
        quotient(z_two, LatticeSubgroup([[100, 0], [0, 100]]), Caps(order=100))
