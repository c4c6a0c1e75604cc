"""Exact univariate polynomials with rational coefficients.

Used for trace identities (where exactness is essential) and for
coefficient access to the Chebyshev-based test polynomials.  Floating
point evaluation is provided for convenience but every coefficient is a
:class:`fractions.Fraction`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import BadArgument

Coefficient = Union[int, Fraction]


class Poly:
    """Polynomial ``c0 + c1*x + ... + cn*x^n`` with exact rational coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Coefficient]):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial assigned degree -1."""
        return len(self.coeffs) - 1

    def __call__(self, x):
        """Horner evaluation; exact on Fraction/int input, float on float/ndarray."""
        if isinstance(x, np.ndarray):
            acc = np.zeros_like(x, dtype=float)
            for c in reversed(self.coeffs):
                acc = acc * x + float(c)
            return acc
        if isinstance(x, (Fraction, int)):
            acc_exact = Fraction(0)
            for c in reversed(self.coeffs):
                acc_exact = acc_exact * x + c
            return acc_exact
        acc_f = 0.0
        for c in reversed(self.coeffs):
            acc_f = acc_f * x + float(c)
        return acc_f

    def __add__(self, other: "Poly") -> "Poly":
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(
            [
                (self.coeffs[i] if i < len(self.coeffs) else 0)
                + (other.coeffs[i] if i < len(other.coeffs) else 0)
                for i in range(n)
            ]
        )

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (other * -1)

    def __mul__(self, other):
        if isinstance(other, Poly):
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a:
                    for j, b in enumerate(other.coeffs):
                        out[i + j] += a * b
            return Poly(out)
        return Poly([c * Fraction(other) for c in self.coeffs])

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "Poly":
        s = Fraction(scalar)
        return Poly([c / s for c in self.coeffs])

    def compose(self, inner: "Poly") -> "Poly":
        """self(inner(x)), exact."""
        acc = Poly([])
        for c in reversed(self.coeffs):
            acc = acc * inner + Poly([c])
        return acc

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        return f"Poly({list(self.coeffs)})"


def chebyshev_coefficients(n: int) -> Poly:
    """First-kind Chebyshev polynomial of degree n with exact integer coefficients."""
    if n < 0:
        raise BadArgument("degree must be nonnegative")
    t0 = Poly([1])
    if n == 0:
        return t0
    t1 = Poly([0, 1])
    two_x = Poly([0, 2])
    for _ in range(n - 1):
        t0, t1 = t1, two_x * t1 - t0
    return t1


def as_poly(p: Union[Poly, Sequence[Coefficient]]) -> Poly:
    return p if isinstance(p, Poly) else Poly(p)
