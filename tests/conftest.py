import pathlib

import pytest

from l2growth import (FreeAbelian, GroupRingElement, IntegralMatrixGroup,
                      LatticeSubgroup, quotient, torus_complex,
                      two_cell_complex)
from l2growth.covers import _instantiate_terms, _lay_out
from l2growth.stripes import StripeSpec, glue_stripe

REPO = pathlib.Path(__file__).resolve().parents[1]
COMPLEXES = REPO / "complexes"


@pytest.fixture(scope="session")
def z_one():
    return FreeAbelian(1)


@pytest.fixture(scope="session")
def z_two():
    return FreeAbelian(2)


@pytest.fixture(scope="session")
def circle():
    return torus_complex(1)


@pytest.fixture(scope="session")
def gap_complex(z_one):
    # boundary 2 - g; Laplacian 5 - 2g - 2g^{-1}, spectrum [1, 9]
    return two_cell_complex(z_one, GroupRingElement(z_one, {(0,): 2, (1,): -1}))


@pytest.fixture(scope="session")
def zero_complex(z_one):
    return two_cell_complex(z_one, GroupRingElement.zero(z_one))


@pytest.fixture(scope="session")
def torus2():
    return torus_complex(2)


@pytest.fixture(scope="session")
def stripe_spec(torus2):
    return StripeSpec(base=torus2, gamma=(1, 0), dim=3)


@pytest.fixture(scope="session")
def stripe_complex(stripe_spec):
    return glue_stripe(stripe_spec)


@pytest.fixture(scope="session")
def sanov_group():
    # free group of rank two realized by integral matrices
    return IntegralMatrixGroup(2, [[[1, 2], [0, 1]], [[1, 0], [2, 1]]])


def cyclic_quotient(i: int):
    return quotient(FreeAbelian(1), LatticeSubgroup([[i]]))


def diag_quotient(m: int, n: int):
    return quotient(FreeAbelian(2), LatticeSubgroup([[m, 0], [0, n]]))


def instantiated(m, quot):
    """(The cover matrix of m on the quotient as CSR, its merged terms), as a cover
    lays them out."""
    terms = _instantiate_terms(m, quot)
    return _lay_out(terms, (m.nrows * quot.order, m.ncols * quot.order)), terms
