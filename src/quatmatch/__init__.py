"""quatmatch: exact arithmetic for quaternionic representation-number identities.

The package computes, entirely in exact arithmetic,

* genus-averaged representation numbers of Eichler orders in definite
  rational quaternion algebras (class sets, unit weights, theta expansions),
* normalised degrees of determinant-m correspondences attached to Eichler
  orders in indefinite quaternion algebras (volumes, local degree factors),
* local Weil-representation matching tables at a finite prime,

and verifies the identities relating the two sides over parameter grids.
"""

from .exactnum import (
    OO,
    CyclotomicNumber,
    hilbert_symbol,
    kronecker_symbol,
    zeta,
)
from .quatalg import QuaternionAlgebra, QuatElement, construct_algebra
from .orders import OrderLattice, eichler_order, local_splitting, maximal_order
from .classsets import (
    IdealClassSet,
    class_set_for,
    genus_average,
    genus_theta,
    ideal_class_set,
    mass_formula,
    theta_counts,
    unit_weight,
)
from .heckedeg import deg_T, oracle_local_orbits, r_prime, volume
from .weilmatch import (
    match_coefficients,
    verify_basis_lemma,
    verify_prop_3_1,
)

__version__ = "0.1.0"

__all__ = [
    "OO",
    "CyclotomicNumber",
    "hilbert_symbol",
    "kronecker_symbol",
    "zeta",
    "QuaternionAlgebra",
    "QuatElement",
    "construct_algebra",
    "OrderLattice",
    "eichler_order",
    "local_splitting",
    "maximal_order",
    "IdealClassSet",
    "class_set_for",
    "genus_average",
    "genus_theta",
    "ideal_class_set",
    "mass_formula",
    "theta_counts",
    "unit_weight",
    "deg_T",
    "oracle_local_orbits",
    "r_prime",
    "volume",
    "match_coefficients",
    "verify_basis_lemma",
    "verify_prop_3_1",
]
