"""Reflection-symmetric configurations and the fold maps.

A configuration is completely symmetric when it is invariant under the
reflection j -> n+1-j in every axis.  The symmetric subspace is spanned
by the indicators of the reflection-group orbits; the central
configuration is the indicator of the 1 / 2 / 4 / ... central cells,
defined algebraically from per-axis Chebyshev elements and mapped to
the grid by phi.

The fold map S halves an axis by adding coordinate i to coordinate
n+1-i (for odd n the middle coordinate rides along as the last entry).
The rows of F = S (x) ... (x) S are exactly the orbit indicators, so
F v lists the parities of v on the orbits.  The game matrix M is
symmetric, so Im M = (Ker M)^perp, and every symmetric configuration is
reachable iff F k = 0 for every kernel vector k.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import algebra, gf2
from .algebra import TensorElement
from .game import GridShape, quotient_shape
from .gf2 import BitVector
from .poly2 import chebyshev_q


@dataclass(frozen=True)
class SymmetricSubspace:
    shape: GridShape
    basis: tuple


def symmetric_basis(shape: GridShape) -> SymmetricSubspace:
    """Orbit-indicator basis of the completely symmetric subspace.

    One vector per orbit of the 2^d reflection group, ordered by the
    orbit representative in the low quadrant; dimension is the product
    of ceil(n_i / 2).  The vectors are the rows of F = S (x) ... (x) S,
    built as one Kronecker product.
    """
    f = gf2._kron_sum([[(n, _s_matrix(n)) for n in shape.dims]],
                      math.prod((n + 1) // 2 for n in shape.dims), shape.total)
    return SymmetricSubspace(shape, tuple(f.row(i) for i in range(f.rows)))


def orbit_indicator(shape: GridShape, i: int) -> BitVector:
    """Basis vector i of :func:`symmetric_basis`, built alone: the
    Kronecker product of one row of S per axis."""
    halves = tuple((n + 1) // 2 for n in shape.dims)
    rep = np.unravel_index(i, halves)
    return BitVector.from_int(shape.total, gf2._kron_vec(
        [(n, _s_row(n, int(r))) for r, n in zip(rep, shape.dims)]))


def orbit_parities(bits: np.ndarray, shape: GridShape) -> np.ndarray:
    """F applied to every row of a (k, total) uint8 0/1 array: entry
    (j, i) is the parity of row j on orbit i, in basis order.  The axes
    are folded one by one by S, which XORs an axis's mirrored halves, an
    odd axis keeping its middle slice last, so no orbit vector is built.
    """
    arr = bits.reshape((bits.shape[0],) + shape.dims)
    for axis, n in enumerate(shape.dims, start=1):
        a = np.moveaxis(arr, axis, 0)
        folded = a[: n // 2] ^ a[::-1][: n // 2]
        if n % 2:
            folded = np.concatenate([folded, a[n // 2: n // 2 + 1]])
        arr = np.moveaxis(folded, 0, axis)
    return arr.reshape(bits.shape[0], -1)


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
    """Indicator of the central cells (2 per even axis, 1 per odd axis).

    phi of :func:`central_element`; the element is separable, so its
    image is the Kronecker product of the d per-axis images and no
    total x total phi matrix is built.
    """
    return algebra.phi([central_axis_poly(n) for n in shape.dims], quotient_shape(shape))


def _s_row(n: int, i: int) -> int:
    """Row i of S on one axis, as an int: the indicator of {i, n-1-i},
    the middle cell alone in the last row of an odd n."""
    return 1 << i | 1 << (n - 1 - i)


def _s_matrix(n: int) -> list:
    """The (n + 1) // 2 row ints of S on one axis (:func:`_s_row`)."""
    return [_s_row(n, i) for i in range((n + 1) // 2)]
