"""quatmatch: exact arithmetic for quaternionic representation-number identities.

The package computes, entirely in exact arithmetic,

* genus-averaged representation numbers of Eichler orders in definite
  rational quaternion algebras (class sets, unit weights, theta expansions),
* normalised degrees of determinant-m correspondences attached to Eichler
  orders in indefinite quaternion algebras (volumes, local degree factors),
* local Weil-representation matching tables at a finite prime,

and verifies the identities relating the two sides over parameter grids.
"""

__version__ = "0.1.0"
