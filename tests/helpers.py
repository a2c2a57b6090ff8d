"""Builders and dense references shared by the test modules.

They go through the conversions the package itself uses (row ints,
``BitVector.from_int``, ``TensorElement.monomial``), through numpy, or,
for the reachable set of a small board, through the brute-force
oracle's own size cap and push columns, so no test needs an entry point
of its own in the package.
"""
import functools

import numpy as np

from sigma_forge import solver
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


def companion_power(m, e):
    """C^e as a dense 0/1 array, for the companion matrix C of the
    modulus m (multiplication by x on the monomial basis of k[X]/m):
    ones below the diagonal and m's low coefficients in the last
    column, the power taken mod 2 by squaring."""
    n = m.degree
    c = np.eye(n, k=-1, dtype=np.int64)
    c[:, n - 1] = [m.value >> j & 1 for j in range(n)]
    out = np.eye(n, dtype=np.int64)
    while e:
        if e & 1:
            out = out @ c % 2
        c = c @ c % 2
        e >>= 1
    return out


def monomial_operator_sum(u):
    """Multiplication by u as a dense 0/1 array: the sum mod 2, over the
    monomials x^e of u, of the numpy Kronecker products of the companion
    powers C_1^{e_1}, ..., C_d^{e_d}, one product per monomial."""
    shape = u.shape
    out = np.zeros((shape.total, shape.total), dtype=np.int64)
    for j in np.flatnonzero(u.coeffs.to_array()):
        e = np.unravel_index(j, shape.dims)
        out += functools.reduce(np.kron, [companion_power(m, int(k))
                                          for m, k in zip(shape.moduli, e)])
    return (out % 2).astype(np.uint8)


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


def brute_force_image(g):
    """Every configuration reachable on g's board, as ints: the sums of
    all push subsets, in Gray-code order, as
    :func:`sigma_forge.solver.brute_force_oracle` walks them and under the
    same cap."""
    solver._check_oracle_size(g.shape)
    cols = solver._push_columns(g)
    seen = {0}
    cur = 0
    for s in range(1, 1 << g.shape.total):
        cur ^= cols[(s & -s).bit_length() - 1]
        seen.add(cur)
    return frozenset(seen)


def P(text):
    """The polynomial written as Poly2.to_string writes it, e.g. 'X^5+X'."""
    value = 0
    for term in text.replace(" ", "").split("+"):
        if term != "0":
            value ^= 1 << (0 if term == "1" else 1 if term == "X" else int(term[2:]))
    return Poly2(value)
