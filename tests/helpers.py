"""Builders and dense references shared by the test modules.

They go through the conversions the package itself uses (row ints,
``BitVector.from_int``, ``TensorElement.monomial``) or through numpy, so
no test needs an entry point of its own in the package.
"""
import numpy as np

from sigma_forge.algebra import TensorElement
from sigma_forge.game import GameSpec, GridShape
from sigma_forge.gf2 import BitMatrix, BitVector
from sigma_forge.poly2 import Poly2


def preset(name, *dims):
    return GameSpec.preset(name, GridShape(dims))


def j_power(n, e=1):
    """J_n^e as a dense 0/1 array, J_n from numpy's off-diagonals and the
    power taken mod 2 by squaring."""
    j = np.eye(n, k=1, dtype=np.int64) + np.eye(n, k=-1, dtype=np.int64)
    out = np.eye(n, dtype=np.int64)
    while e:
        if e & 1:
            out = out @ j % 2
        j = j @ j % 2
        e >>= 1
    return out.astype(np.uint8)


def path_matrix(n):
    """J_n from numpy's off-diagonals."""
    return BitMatrix._from_bit_array((np.eye(n, k=1) + np.eye(n, k=-1)).astype(np.uint8),
                                     symmetric=True)


def bit_matrix(rows, cols=None, symmetric=False):
    """The matrix with the given rows: BitVectors or sequences of 0/1
    entries; cols is needed only when there are no rows."""
    vecs = [r if isinstance(r, BitVector) else BitVector.from_bits(r) for r in rows]
    if cols is None:
        cols = vecs[0].n
    assert all(v.n == cols for v in vecs)
    return BitMatrix.from_row_ints(len(vecs), cols, [v.to_int() for v in vecs], symmetric)


def vector_at(n, indices):
    """The length-n vector with a 1 at each index; a repeated index
    cancels."""
    value = 0
    for i in indices:
        assert 0 <= i < n
        value ^= 1 << int(i)
    return BitVector.from_int(n, value)


def variable(qs, axis):
    """The class of X_axis in the algebra qs."""
    return TensorElement.monomial(qs, [int(i == axis) for i in range(qs.d)])


def P(text):
    """The polynomial written as Poly2.to_string writes it, e.g. 'X^5+X'."""
    value = 0
    for term in text.replace(" ", "").split("+"):
        if term != "0":
            value ^= 1 << (0 if term == "1" else 1 if term == "X" else int(term[2:]))
    return Poly2(value)
