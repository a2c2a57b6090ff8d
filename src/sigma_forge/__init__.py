"""Exact GF(2) machinery for sigma games on grid graphs.

Subpackages: gf2 (bit-packed linear algebra), poly2 (polynomials over
GF(2) and the Chebyshev-type family), algebra (quotient-ring tensor
algebras and divisibility), game (grid games and adjacency matrices),
symmetry (symmetric subspaces, central configuration, fold maps),
solver (achievability, predicates, oracles, sweeps), cli.
"""
from .algebra import QuotientShape, TensorElement, divides, mult_operator, phi, phi_inverse, tensor_mul
from .game import GameSpec, GridShape, adjacency_matrix, is_sigma_plus, parse_game, parse_shape, u_element
from .gf2 import BitMatrix, BitVector, kernel_basis, rank, solve
from .poly2 import Poly2, chebyshev_q, two_valuation, val_x
from .solver import (AchievabilityReport, PredicateVerdict, achievable, all_on,
                     brute_force_oracle, principal_predicate, sweep,
                     symmetric_achievability)
from .symmetry import SymmetricSubspace, central_configuration, symmetric_basis

__all__ = [
    "BitMatrix", "BitVector", "GameSpec", "GridShape", "Poly2",
    "QuotientShape", "SymmetricSubspace", "TensorElement",
    "AchievabilityReport", "PredicateVerdict",
    "achievable", "adjacency_matrix", "all_on", "brute_force_oracle",
    "central_configuration", "chebyshev_q", "divides",
    "is_sigma_plus", "kernel_basis", "mult_operator", "parse_game",
    "parse_shape", "phi", "phi_inverse", "principal_predicate", "rank",
    "solve", "sweep", "symmetric_achievability", "symmetric_basis",
    "tensor_mul", "two_valuation", "u_element", "val_x",
]

__version__ = "0.1.0"
