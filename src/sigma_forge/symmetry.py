"""Reflection-symmetric configurations and the fold maps.

A configuration is completely symmetric when it is invariant under the
reflection j -> n+1-j in every axis.  The symmetric subspace is spanned
by the indicators of the reflection-group orbits; the central
configuration is the indicator of the 1 / 2 / 4 / ... central cells,
defined algebraically from per-axis Chebyshev elements and mapped to
the grid by phi.

The fold maps: S halves an axis by adding coordinate i to coordinate
n+1-i (for odd n the middle coordinate rides along as the last entry),
and c collapses an axis to the parity of its entries.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from . import algebra, gf2
from .algebra import TensorElement
from .game import GridShape, quotient_shape
from .gf2 import BitMatrix, BitVector
from .poly2 import chebyshev_q


@dataclass(frozen=True)
class SymmetricSubspace:
    shape: GridShape
    basis: tuple

    @property
    def dim(self) -> int:
        return len(self.basis)


def symmetric_basis(shape: GridShape) -> SymmetricSubspace:
    """Orbit-indicator basis of the completely symmetric subspace.

    One vector per orbit of the 2^d reflection group, ordered by the
    orbit representative in the low quadrant; dimension is the product
    of ceil(n_i / 2).
    """
    half_ranges = [range((n + 1) // 2) for n in shape.dims]
    basis = []
    for rep in itertools.product(*half_ranges):
        axis_sets = [sorted({j, n - 1 - j}) for j, n in zip(rep, shape.dims)]
        indices = []
        for cell in itertools.product(*axis_sets):
            flat = 0
            for c, n in zip(cell, shape.dims):
                flat = flat * n + c
            indices.append(flat)
        basis.append(BitVector.from_indices(shape.total, indices))
    return SymmetricSubspace(shape, tuple(basis))


def central_axis_poly(n: int):
    """Per-axis central element: Q_{(n-1)/2}, or Q_{n/2} + Q_{n/2-1}."""
    if n % 2 == 1:
        return chebyshev_q((n - 1) // 2)
    return chebyshev_q(n // 2) + chebyshev_q(n // 2 - 1)


def central_element(shape: GridShape) -> TensorElement:
    """The central configuration as a tensor-algebra element."""
    qs = quotient_shape(shape)
    return TensorElement.from_axis_polys(qs, [central_axis_poly(n) for n in shape.dims])


def central_configuration(shape: GridShape) -> BitVector:
    """Indicator of the central cells (2 per even axis, 1 per odd axis)."""
    return algebra.phi(central_element(shape))


def s_map(v: BitVector, n: int) -> BitVector:
    """Fold coordinate i with n+1-i; odd n keeps the middle entry last."""
    if v.n != n:
        raise ValueError(f"vector length {v.n} != n = {n}")
    arr = v.to_array()
    half = n // 2
    folded = arr[:half] ^ arr[::-1][:half]
    if n % 2:
        folded = np.append(folded, arr[half])
    return BitVector.from_bits(folded)


def c_map(v: BitVector) -> int:
    """Parity of the number of nonzero entries."""
    return v.weight() & 1


def _s_matrix(n: int) -> BitMatrix:
    ints = [(1 << i) | (1 << (n - 1 - i)) for i in range(n // 2)]
    if n % 2:
        ints.append(1 << (n // 2))
    return BitMatrix.from_row_ints((n + 1) // 2, n, ints)


def _c_matrix(n: int) -> BitMatrix:
    return BitMatrix.from_row_ints(1, n, [(1 << n) - 1])


def tensor_fold(v: BitVector, shape: GridShape, ops: Sequence[str]) -> BitVector:
    """Apply a per-axis choice of S or c as a tensor product of maps.

    The maps act on disjoint tensor factors, so the result does not
    depend on application order; output length is the product of the
    per-axis output lengths.
    """
    if v.n != shape.total:
        raise ValueError(f"vector length {v.n} != grid size {shape.total}")
    if len(ops) != shape.d:
        raise ValueError(f"expected {shape.d} axis maps, got {len(ops)}")
    factors: List[BitMatrix] = []
    for op, n in zip(ops, shape.dims):
        if op == "S":
            factors.append(_s_matrix(n))
        elif op == "c":
            factors.append(_c_matrix(n))
        else:
            raise ValueError(f"axis map must be 'S' or 'c', got {op!r}")
    rows = math.prod(f.rows for f in factors)
    return gf2._kron_sum([[f.to_bit_array() for f in factors]], rows, shape.total).mul_vec(v)
