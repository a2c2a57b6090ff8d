"""Tensor products of GF(2) polynomial quotient rings.

A shape fixes moduli M_1, ..., M_d and the algebra
F2[X_1]/M_1 (x) ... (x) F2[X_d]/M_d; elements are coefficient vectors
over the monomial basis {x_1^{k_1} ... x_d^{k_d}}, flattened row-major
with axis 1 slowest.  That flat order matches the Kronecker-product
index convention in :mod:`.gf2`, so multiplication by x^e is
C_1^{e_1} (x) ... (x) C_d^{e_d} with C_i the companion matrix of M_i,
and the operator of an element sums those over its monomials.  The game
matrix is the same sum over path-matrix powers J^e; one builder in
:mod:`.gf2` makes both.

For grid games the moduli are the Chebyshev-type Q_n and phi /
phi_inverse translate between the monomial basis and the standard grid
basis (grid basis vector i pulls back to Q_i(x), with phi(1) the
index-0 grid vector).

Divisibility is decided by linear algebra: u divides t iff t lies in
the image of the multiplication-by-u operator.
"""
from __future__ import annotations

from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from . import gf2, poly2
from .gf2 import BitMatrix, BitVector
from .poly2 import Poly2, chebyshev_q


class QuotientShape:
    """Moduli (M_1, ..., M_d), each of degree >= 1."""

    def __init__(self, moduli: Sequence[Poly2]):
        moduli = tuple(moduli)
        if not moduli:
            raise ValueError("need at least one modulus")
        for m in moduli:
            if m.degree < 1:
                raise ValueError(f"modulus {m!r} must have degree >= 1")
        self.moduli = moduli
        self.dims = tuple(m.degree for m in moduli)
        self.total = 1
        for n in self.dims:
            self.total *= n
        strides = []
        acc = 1
        for n in reversed(self.dims):
            strides.append(acc)
            acc *= n
        self.strides = tuple(reversed(strides))
        self.is_chebyshev = all(m == chebyshev_q(n) for m, n in zip(self.moduli, self.dims))
        self._phi: Optional[BitMatrix] = None
        self._phi_inv: Optional[BitMatrix] = None

    @classmethod
    def chebyshev(cls, dims: Sequence[int]) -> "QuotientShape":
        """The grid-game algebra: modulus Q_n per axis of size n."""
        return cls([chebyshev_q(n) for n in dims])

    @classmethod
    def monomial(cls, powers: Sequence[int]) -> "QuotientShape":
        """Local algebras k[X]/X^p per axis (powers >= 1)."""
        return cls([Poly2.x_power(p) for p in powers])

    @property
    def d(self) -> int:
        return len(self.dims)

    def exponents_of(self, flat: int) -> tuple:
        out = []
        for s, n in zip(self.strides, self.dims):
            out.append((flat // s) % n)
        return tuple(out)

    def phi_matrix(self) -> BitMatrix:
        self._require_chebyshev()
        if self._phi is None:
            self._phi = gf2._kron_sum([[(n, _phi_axis(n)) for n in self.dims]],
                                      self.total, self.total)
        return self._phi

    def phi_inverse_matrix(self) -> BitMatrix:
        self._require_chebyshev()
        if self._phi_inv is None:
            self._phi_inv = gf2._kron_sum([[(n, _phi_inv_axis(n)) for n in self.dims]],
                                          self.total, self.total)
        return self._phi_inv

    def _require_chebyshev(self):
        if not self.is_chebyshev:
            raise ValueError("operation requires Chebyshev moduli (grid context)")

    def __eq__(self, other) -> bool:
        if not isinstance(other, QuotientShape):
            return NotImplemented
        return self.moduli == other.moduli

    def __hash__(self) -> int:
        return hash(self.moduli)

    def __repr__(self) -> str:
        return f"QuotientShape({', '.join(map(str, self.moduli))})"


def _column_rows(n: int, columns: Sequence[int]) -> tuple:
    """The n row ints of the matrix whose column j holds the low n bits
    of columns[j]."""
    return tuple(BitMatrix.from_row_ints(len(columns), n, columns).transpose().row_ints())


@lru_cache(maxsize=None)
def _companion_power(m: Poly2, e: int) -> tuple:
    """The row ints of C^e for the companion matrix C of m
    (multiplication by x on the monomial basis of k[X]/m), without a
    transpose.  Column k holds x^(k+e) mod m, the first reduced by
    squaring, so a huge e costs only its bit length; row n - 1 holds
    their top bits.  Bit k of any row is a sequence s_k that m recurs
    (s_{k+n} is the parity of s_k .. s_{k+n-1} masked by m's low bits),
    so step(v), v shifted down one with that parity on top, maps row j
    of C^e to row j of C^(e+1) = C C^e, which is row j - 1 + m_j row
    n - 1 of C^e.  So row j - 1 is step(row j) + m_j row n - 1."""
    n, mv = m.degree, m.value
    low = mv ^ 1 << n
    r = poly2.pow_mod(poly2.X, e, m).value
    top = 0
    for k in range(n):
        top |= (r >> (n - 1) & 1) << k
        r <<= 1
        if r >> n:
            r ^= mv
    rows = [top]
    for j in range(n - 1, 0, -1):
        v = rows[-1]
        v = v >> 1 ^ ((v & low).bit_count() & 1) << (n - 1)
        rows.append(v ^ top if mv >> j & 1 else v)
    return tuple(rows[::-1])


@lru_cache(maxsize=None)
def _phi_axis(n: int) -> tuple:
    """The row ints of phi on one axis: column i is J_n^i applied to
    e_0."""
    columns = [1]
    for _ in range(n - 1):
        v = columns[-1]
        columns.append((v << 1 ^ v >> 1) & ((1 << n) - 1))
    return _column_rows(n, columns)


@lru_cache(maxsize=None)
def _phi_inv_axis(n: int) -> tuple:
    """The row ints of the inverse axis matrix: column i holds the
    coefficients of Q_i."""
    return _column_rows(n, [chebyshev_q(i).value for i in range(n)])


class TensorElement:
    """An element of the quotient tensor algebra, in the monomial basis."""

    def __init__(self, shape: QuotientShape, coeffs: BitVector):
        if coeffs.n != shape.total:
            raise ValueError(f"coefficient length {coeffs.n} != algebra dimension {shape.total}")
        self.shape = shape
        self.coeffs = coeffs

    @classmethod
    def zero(cls, shape: QuotientShape) -> "TensorElement":
        return cls(shape, BitVector.zeros(shape.total))

    @classmethod
    def one(cls, shape: QuotientShape) -> "TensorElement":
        return cls.from_axis_polys(shape, [poly2.ONE] * shape.d)

    @classmethod
    def monomial(cls, shape: QuotientShape, exponents: Sequence[int]) -> "TensorElement":
        """x_1^{e_1} ... x_d^{e_d}, each factor reduced mod its modulus by
        squaring (:func:`.poly2.pow_mod`), so a huge e costs only its bit
        length."""
        if len(exponents) != shape.d:
            raise ValueError(f"expected {shape.d} exponents, got {len(exponents)}")
        return cls.from_axis_polys(shape, [poly2.pow_mod(poly2.X, e, m)
                                           for e, m in zip(exponents, shape.moduli)])

    @classmethod
    def from_axis_polys(cls, shape: QuotientShape, polys: Sequence[Poly2]) -> "TensorElement":
        """The separable element p_1(x_1) ... p_d(x_d)."""
        if len(polys) != shape.d:
            raise ValueError(f"expected {shape.d} polynomials, got {len(polys)}")
        return cls(shape, BitVector.from_int(shape.total, gf2._kron_vec(
            [(m.degree, (p % m).value) for p, m in zip(polys, shape.moduli)])))

    def is_zero(self) -> bool:
        return self.coeffs.is_zero()

    def __add__(self, other: "TensorElement") -> "TensorElement":
        self._check_shape(other)
        return TensorElement(self.shape, self.coeffs ^ other.coeffs)

    def __mul__(self, other: "TensorElement") -> "TensorElement":
        return tensor_mul(self, other)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TensorElement):
            return NotImplemented
        return self.shape == other.shape and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.shape, self.coeffs))

    def __repr__(self) -> str:
        terms = []
        for j in range(self.shape.total):
            if self.coeffs[j]:
                exps = self.shape.exponents_of(j)
                factors = [f"x{i + 1}^{e}" if e > 1 else f"x{i + 1}"
                           for i, e in enumerate(exps) if e > 0]
                terms.append("*".join(factors) if factors else "1")
        return " + ".join(terms) if terms else "0"

    def _check_shape(self, other: "TensorElement"):
        if self.shape != other.shape:
            raise ValueError("tensor elements live in different algebras")


def tensor_mul(a: TensorElement, b: TensorElement) -> TensorElement:
    """Product in the quotient algebra (each axis reduced mod its modulus)."""
    a._check_shape(b)
    return TensorElement(a.shape, mult_operator(a).mul_vec(b.coeffs))


def mult_operator(u: TensorElement) -> BitMatrix:
    """Matrix of multiplication by u in the monomial basis: the sum, over
    the monomials x^e of u, of C_1^{e_1} (x) ... (x) C_d^{e_d}."""
    shape = u.shape
    products = [[(m.degree, _companion_power(m, e))
                 for m, e in zip(shape.moduli, shape.exponents_of(j))]
                for j in np.flatnonzero(u.coeffs.to_array()).tolist()]
    return gf2._kron_sum(products, shape.total, shape.total)


def divides(u: TensorElement, t: TensorElement) -> bool:
    """Whether some v satisfies u*v = t, decided by image membership."""
    u._check_shape(t)
    return gf2.solve(mult_operator(u), t.coeffs) is not None


def divides_all(u: TensorElement, targets: Sequence[TensorElement]) -> list:
    """divides(u, t) for many t with one operator and one elimination."""
    for t in targets:
        u._check_shape(t)
    return gf2.in_image_many(mult_operator(u), [t.coeffs for t in targets])


def phi(element, shape: Optional[QuotientShape] = None) -> BitVector:
    """Monomial-basis coordinates to standard grid coordinates.

    Accepts a TensorElement, or a list of per-axis Poly2 (the separable
    element) together with an explicit shape.  Requires Chebyshev moduli.
    phi is the Kronecker product of the per-axis maps, so a separable
    element is mapped axis by axis, without the total x total matrix:
    phi of p on one axis is p(J) e_0, column 0 of
    :func:`.poly2._path_poly_rows`.
    """
    if isinstance(element, TensorElement):
        if shape is not None and shape != element.shape:
            raise ValueError("shape argument disagrees with element shape")
        return element.shape.phi_matrix().mul_vec(element.coeffs)
    if shape is None:
        raise ValueError("a list of axis polynomials needs an explicit shape")
    polys = list(element)
    if len(polys) != shape.d:
        raise ValueError(f"expected {shape.d} polynomials, got {len(polys)}")
    shape._require_chebyshev()
    return BitVector.from_int(shape.total, gf2._kron_vec(
        [(n, poly2._path_poly_rows(n, (p % m).value)[0])
         for p, m, n in zip(polys, shape.moduli, shape.dims)]))


def phi_inverse(v: BitVector, shape: QuotientShape) -> TensorElement:
    """Exact inverse of phi: grid coordinates back to the algebra."""
    if v.n != shape.total:
        raise ValueError(f"vector length {v.n} != algebra dimension {shape.total}")
    return TensorElement(shape, shape.phi_inverse_matrix().mul_vec(v))
