"""Betti numbers of finite regular covers and spectral growth bounds."""

from .caps import Caps, DEFAULT_CAPS
from .covers import CoverInstance, instantiate, verify_trace_equality
from .group_ring import (EquivariantChainComplex, GroupRingElement,
                         GroupRingMatrix, evaluate_polynomial, gamma_trace,
                         laplacian, norm_bound, support_radius)
from .groups import (CongruenceSubgroup, FiniteQuotient, FreeAbelian,
                     IntegralMatrixGroup, LatticeSubgroup, ball_volume,
                     element_order, quotient, quotient_diameter, short_length,
                     uniformity_check)
from .pattern import (PatternReport, betti_by_characters, character_lattice,
                      exact_kernel_dimension, l2_betti, sandwich_check, z_dichotomy)
from .polynomials import Poly
from .spectral import (BoundReport, DensityEstimate, GapCertificate, JBound,
                       LuckPolynomial, NsEstimate, betti_bound_general,
                       certify_gap, chebyshev, cosine_density_closed_form,
                       density_by_quotients, density_zn, eig_count_bound,
                       estimate_ns, gap_bound, j_bound, luck_polynomial,
                       ns_bound, sublog_bound, uniform_gap_exponent)
from .stripes import (StripeSpec, circle_complex, glue_stripe,
                      product_with_circle, stripe_bound_check,
                      stripe_prediction, torus_complex, two_cell_complex)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
