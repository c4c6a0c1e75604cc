"""The character path against its earlier per-term, per-element versions.

Each reference below is the plain loop the vectorized code replaced: the
trial-loop primitive root, the symbol stack built one term at a time, the
Galois walk over every element and the eager list of kernel characters.
The vectorized code must give the same root tables, stacks, ranks, labels
and lists, bit for bit.
"""

from fractions import Fraction
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from l2growth import (EquivariantChainComplex, FreeAbelian, GroupRingElement,
                      GroupRingMatrix, LatticeSubgroup, betti_by_characters, laplacian,
                      l2_betti, quotient, sandwich_check, two_cell_complex)
from l2growth import exact, pattern
from l2growth.errors import CrossCheckMismatch, SizeCapExceeded
from l2growth.verify import random_complex, random_quotient
from conftest import cyclic_quotient, diag_quotient


def _root_powers_reference(e, ell):
    """omega^t mod ell for t < e: each candidate's whole power table, tested for one 1."""
    for h in range(1, ell):
        w, powers, step = pow(h, (ell - 1) // e, ell), np.ones(e, dtype=np.int64), 1
        while step < e:
            powers[step:2 * step] = powers[:min(step, e - step)] * pow(w, step, ell) % ell
            step *= 2
        if np.count_nonzero(powers == 1) == 1:
            return powers
    raise CrossCheckMismatch(f"{ell} is not a prime = 1 (mod {e})")


def _root_powers_trial(e, ell):
    """omega^t mod ell for t < e: candidates h = 1, 2, ... tried one at a time,
    each w = h^((ell - 1)/e) tested by its powers w^(e/p) for every prime p | e."""
    for h in range(1, ell):
        w = pow(h, (ell - 1) // e, ell)
        if all(pow(w, e // p, ell) != 1 for p in pattern._prime_divisors(e)):
            break
    powers, step = np.ones(e, dtype=np.int64), 1
    while step < e:
        powers[step:2 * step] = powers[:min(step, e - step)] * pow(w, step, ell) % ell
        step *= 2
    return powers


def _stack_reference(m, chars, e, ell):
    """The symbols at every character mod ell, added one term at a time."""
    powers = _root_powers_reference(e, ell)
    stack = np.zeros((len(chars), m.nrows, m.ncols), dtype=np.int64)
    for i, row in enumerate(m.entries):
        for j, el in enumerate(row):
            for g, c in el.terms.items():
                t = (chars * np.array([x % e for x in g], dtype=np.int64) % e).sum(axis=1) % e
                stack[:, i, j] = (stack[:, i, j] + int(c) % ell * powers[t]) % ell
    return stack


def _orbit_ranks_reference(m, chars, e, labels):
    """Each orbit's largest modular rank, over primes past the Hadamard bound."""
    h_squared = 1
    for row in m.entries:
        h_squared *= max(1, sum(sum(map(abs, el.terms.values())) ** 2 for el in row))
    ranks, product, primes = np.zeros(labels.max() + 1, dtype=np.int64), 1, exact._primes_one_mod(e)
    while product * product <= h_squared:
        ell = next(primes)
        np.maximum.at(ranks, labels, exact.ranks_modp(_stack_reference(m, chars, e, ell), ell))
        product *= ell
    return ranks


def _galois_orbits_reference(quot):
    """Orbit labels from a walk over every element, each orbit from its first."""
    coords, moduli = quot._coords, np.array(quot.moduli)[:, None]
    labels, count = np.full(quot.order, -1, dtype=np.int64), 0
    for j, d in enumerate(quot.element_orders().tolist()):
        if labels[j] < 0:
            orbit = coords[:, j:j + 1] * pattern._units(d) % moduli
            labels[np.ravel_multi_index(orbit, quot.moduli)] = count
            count += 1
    return labels


def _kernel_characters_reference(chars, e, dims):
    """Every character of nonzero kernel dimension as a rational point, eagerly."""
    return [(tuple(Fraction(v, e) for v in chars[idx].tolist()), int(dims[idx]))
            for idx in np.flatnonzero(dims).tolist()]


def _check_against_references(monkeypatch, m, quot):
    """Stacks, ranks, labels and kernel characters of ``m`` on ``quot`` equal the references'."""
    chars, e = pattern._character_numerators(quot)
    labels = pattern._galois_orbits(quot)
    assert np.array_equal(labels, _galois_orbits_reference(quot))
    seen = []

    def recording(stack, ell):
        seen.append(ell)
        assert np.array_equal(stack, _stack_reference(m, chars, e, ell))
        return exact.ranks_modp(stack, ell)

    monkeypatch.setattr(pattern, "ranks_modp", recording)
    ranks = pattern._orbit_ranks(m, chars, e, labels)
    monkeypatch.undo()
    assert seen and np.array_equal(ranks, _orbit_ranks_reference(m, chars, e, labels))
    for ell in seen:
        assert np.array_equal(pattern._root_powers(e, ell), _root_powers_reference(e, ell))
    return chars, e, m.nrows - ranks[labels]


# at e = 720 the first prime's first primitive candidate is h = 22
@pytest.mark.parametrize("e", [1, 2, 3, 7, 101, 16, 360, 720, 997 * 2, 30030])
def test_root_powers_match_the_trial_loop(e):
    primes = exact._primes_one_mod(e)
    for _ in range(3):
        ell = next(primes)
        powers = pattern._root_powers(e, ell)
        assert powers.dtype == np.int64
        assert np.array_equal(powers, _root_powers_reference(e, ell))


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(st.integers(1, 3000))
def test_root_powers_match_the_trial_loop_for_any_exponent(e):
    ell = next(exact._primes_one_mod(e))
    assert np.array_equal(pattern._root_powers(e, ell), _root_powers_reference(e, ell))


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(st.integers(1, 3000), st.integers(0, 5))
def test_root_powers_match_the_candidate_loop_at_random_primes(e, k):
    # the residue symbols multiplied at composite h pick the h that powering
    # every candidate picks, and the same table
    ell = next(islice(exact._primes_one_mod(e), k, None))
    powers = pattern._root_powers(e, ell)
    assert powers.dtype == np.int64 and np.array_equal(powers, _root_powers_trial(e, ell))


@pytest.mark.parametrize("moduli", [(1,), (7,), (202,), (256,), (2, 2, 2, 2, 2, 2, 2, 2),
                                    (2, 6, 12), (3, 9, 45), (4, 120)])
def test_galois_labels_match_the_element_walk(moduli):
    # a cyclic group's orbits start at 0 and its divisors: Z/202 jumps from 2
    # to 101, past one scan window, and Z/256 from 64 to 128, the first
    # element past one; (Z/2)^8 has 256 one-element orbits
    quot = quotient(FreeAbelian(len(moduli)), LatticeSubgroup(np.diag(moduli).tolist()))
    assert np.array_equal(pattern._galois_orbits(quot), _galois_orbits_reference(quot))


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(st.integers(0, 2 ** 32 - 1))
def test_character_path_matches_the_references_on_random_quotients(seed):
    rng = np.random.default_rng(seed)
    cx = random_complex(rng)
    quot = random_quotient(rng, cx.group, max_index=120)
    with pytest.MonkeyPatch.context() as monkeypatch:
        for q, a in enumerate(cx.cells):
            chars, e, dims = _check_against_references(monkeypatch, laplacian(cx, q), quot)
            total, report = betti_by_characters(cx, quot, q, cross_check=False)
            assert total == int(dims.sum()) and report.pattern_count == np.count_nonzero(dims)
            assert report.kernel_characters == _kernel_characters_reference(chars, e, dims)


def test_character_path_matches_the_references_on_edge_cases(monkeypatch, z_one, z_two,
                                                             zero_complex, torus2):
    trivial = quotient(z_two, LatticeSubgroup([[1, 0], [0, 1]]))
    huge = two_cell_complex(z_one, GroupRingElement(z_one, {(2 ** 70,): 1, (0,): -1}))
    # Laplacian 10^10 (2 - g - g^-1): H = 4 * 10^10 takes two primes
    big = two_cell_complex(z_one, GroupRingElement(z_one, {(1,): 10 ** 5, (0,): -10 ** 5}))
    # no terms at all: the zero boundary's Laplacians, and a 2 x 3 zero symbol
    blank = GroupRingMatrix(z_two, [[GroupRingElement.zero(z_two)] * 3] * 2, shape=(2, 3))
    cases = [(laplacian(torus2, 1), trivial),                 # e = 1
             (laplacian(torus2, 1), diag_quotient(7, 7)),     # a prime e
             (laplacian(huge, 1), cyclic_quotient(6)),        # the 2**70 exponent
             (laplacian(huge, 0), cyclic_quotient(13)),
             (laplacian(big, 0), cyclic_quotient(7)),         # multi-prime Hadamard
             (laplacian(big, 1), cyclic_quotient(12)),
             (laplacian(zero_complex, 1), cyclic_quotient(5)),
             (blank, diag_quotient(3, 4)),
             (blank, trivial)]
    for m, quot in cases:
        _check_against_references(monkeypatch, m, quot)
    drawn = []
    monkeypatch.setattr(pattern, "ranks_modp", lambda s, ell: drawn.append(ell) or exact.ranks_modp(s, ell))
    pattern._orbit_ranks(laplacian(big, 0), *pattern._character_numerators(cyclic_quotient(7)),
                         np.arange(7))
    assert len(drawn) == 2
    # the empty symbols' generic rank is 0
    assert l2_betti(EquivariantChainComplex(z_two, [2, 3], {1: blank}), 1) == 3


def test_reports_build_no_fraction_until_kernel_characters_is_read(monkeypatch, torus2, circle):
    made = []

    def counting(*args):
        made.append(args)
        return Fraction(*args)

    monkeypatch.setattr(pattern, "Fraction", counting)
    total, report = betti_by_characters(torus2, diag_quotient(6, 10), 1, cross_check=False)
    sw = sandwich_check(circle, cyclic_quotient(9), 0)
    assert (total, report.pattern_count, report.betti) == (2, 1, 2)
    assert (sw.pattern_count, sw.betti, sw.holds) == (1, 1, True)
    assert made == []
    assert report.kernel_characters == [((Fraction(0), Fraction(0)), 2)]
    assert made == [(0, 30), (0, 30)]  # diag(6, 10) has exponent 30
    assert report.kernel_characters is report.kernel_characters and len(made) == 2

