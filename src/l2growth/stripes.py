"""Builders for the example machine: torus complexes and stripe gluings.

A stripe glued along a group element gamma contributes one free generator in
dimension q with zero boundary and one in dimension q+1 with boundary
(gamma - 1); covers then pick up [Gamma:Gamma'] / order(gamma) independent
q-cycles.  The closed form and the instantiated chain model are independent
computations and are cross-checked in the test suites.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from .caps import DEFAULT_CAPS, Caps
from .errors import (BadGroup, CrossCheckMismatch, DimensionTooLow, RankOutOfRange,
                     UnsupportedGroup)
from .group_ring import EquivariantChainComplex, GroupRingElement, GroupRingMatrix
from .groups import FiniteQuotient, FreeAbelian, element_order, short_length


def two_cell_complex(group, d1_element: GroupRingElement) -> EquivariantChainComplex:
    """Complex with one 0-cell and one 1-cell, boundary given by d1_element."""
    d1 = GroupRingMatrix(group, [[d1_element]], shape=(1, 1))
    return EquivariantChainComplex(group, [1, 1], {1: d1})


def circle_complex() -> EquivariantChainComplex:
    """The circle: one vertex, one edge over Z, boundary g - 1."""
    z = FreeAbelian(1)
    return two_cell_complex(z, GroupRingElement(z, {(1,): 1, (0,): -1}))


def _extend_element(el: GroupRingElement, new_group) -> GroupRingElement:
    return GroupRingElement(new_group,
                            {g + (0,): c for g, c in el.terms.items()})


def product_with_circle(cx: EquivariantChainComplex) -> EquivariantChainComplex:
    """Tensor the complex with a circle carrying a fresh free abelian generator."""
    if not isinstance(cx.group, FreeAbelian):
        raise UnsupportedGroup("product construction is implemented for free abelian groups")
    old_n = cx.group.rank
    group = FreeAbelian(old_n + 1)
    t = tuple([0] * old_n + [1])
    t_minus_1 = GroupRingElement(group, {t: 1, group.identity: -1})
    zero = GroupRingElement.zero(group)

    old_cells = cx.cells
    top = cx.top_dim
    new_cells = [0] * (top + 2)
    for q in range(top + 2):
        base_v = old_cells[q] if q <= top else 0
        base_e = old_cells[q - 1] if 1 <= q else 0
        new_cells[q] = base_v + base_e

    boundaries: Dict[int, GroupRingMatrix] = {}
    for q in range(1, top + 2):
        rows = new_cells[q - 1]
        cols = new_cells[q]
        av_r = old_cells[q - 1] if q - 1 <= top else 0   # v-cells among rows
        av_c = old_cells[q] if q <= top else 0           # v-cells among cols
        entries = [[zero for _ in range(cols)] for _ in range(rows)]
        d_q = cx.boundaries.get(q)
        if d_q is not None:
            for i in range(d_q.nrows):
                for j in range(d_q.ncols):
                    entries[i][j] = _extend_element(d_q.entries[i][j], group)
        # e-cell columns: base cell of dimension q-1 crossed with the new edge
        sign = 1 if (q - 1) % 2 == 0 else -1
        for j in range(old_cells[q - 1] if q - 1 <= top else 0):
            entries[j][av_c + j] = t_minus_1 * sign
        d_qm1 = cx.boundaries.get(q - 1)
        if d_qm1 is not None:
            for i in range(d_qm1.nrows):
                for j in range(d_qm1.ncols):
                    entries[av_r + i][av_c + j] = _extend_element(
                        d_qm1.entries[i][j], group)
        boundaries[q] = GroupRingMatrix(group, entries, shape=(rows, cols))
    return EquivariantChainComplex(group, new_cells, boundaries)


def torus_complex(n: int) -> EquivariantChainComplex:
    """Standard one-vertex product cell structure on the n-torus."""
    if not 1 <= n <= 4:
        raise RankOutOfRange("torus rank must be between 1 and 4")
    cx = circle_complex()
    for _ in range(n - 1):
        cx = product_with_circle(cx)
    return cx


@dataclass(frozen=True)
class StripeSpec:
    """A stripe gluing: base complex, loop gamma, and the stripe dimension."""

    base: EquivariantChainComplex
    gamma: Tuple
    dim: int

    def __post_init__(self):
        if self.gamma == self.base.group.identity:
            raise BadGroup("stripe loop must not be the identity")
        lowest = max(2, self.base.top_dim + 1)
        if self.dim < lowest:
            raise DimensionTooLow(
                f"stripe dimension {self.dim} would interact with the base; "
                f"need at least {lowest}")


def glue_stripe(spec: StripeSpec) -> EquivariantChainComplex:
    """Append the stripe cells: dims q (zero boundary) and q+1 (gamma - 1)."""
    base = spec.base
    group = base.group
    q = spec.dim
    cells = list(base.cells) + [0] * (q + 2 - len(base.cells))
    cells[q] += 1
    cells[q + 1] += 1
    boundaries = dict(base.boundaries)
    gamma_minus_1 = GroupRingElement(group, {spec.gamma: 1, group.identity: -1})
    boundaries[q + 1] = GroupRingMatrix(group, [[gamma_minus_1]], shape=(1, 1))
    # boundaries at intermediate empty dimensions (and at q) default to zero
    return EquivariantChainComplex(group, cells, boundaries)


def stripe_prediction(spec: StripeSpec, quot: FiniteQuotient) -> int:
    """Closed-form rank of H_q of the cover: index / order of the loop."""
    o = element_order(quot, spec.gamma)
    if quot.order % o:
        raise CrossCheckMismatch("element order does not divide the quotient order")
    return quot.order // o


@dataclass
class StripeBoundReport:
    prediction: int
    gamma_norm: int
    index: int
    short: float
    bound: float
    holds: bool


def stripe_bound_check(spec: StripeSpec, quot: FiniteQuotient,
                       caps: Caps = DEFAULT_CAPS) -> StripeBoundReport:
    """Check prediction <= |gamma| * index / short for the quotient."""
    group = spec.base.group
    norm = group.word_length(spec.gamma, caps)
    s = short_length(group, quot.subgroup, caps=caps)
    pred = stripe_prediction(spec, quot)
    bound = norm * quot.order / s
    return StripeBoundReport(prediction=pred, gamma_norm=norm, index=quot.order,
                             short=s, bound=bound, holds=pred <= bound)
