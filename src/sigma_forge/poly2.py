"""Polynomials over GF(2) and the Chebyshev-type family Q_n.

A polynomial is stored as a nonnegative int whose bit k is the
coefficient of X^k, so the representation is canonical by construction
(no trailing zero coefficients) and addition is XOR.  The zero
polynomial has degree -1, the conventional "minus infinity" marker.

The family Q_n is defined by Q_0 = 1, Q_1 = X and the Chebyshev
relation Q_{n+1} = X Q_n + Q_{n-1}; Q_n is the characteristic (and
minimal) polynomial of the n-vertex path adjacency matrix J_n.
"""
from __future__ import annotations

from functools import lru_cache
from typing import Iterable


def _mul_int(a: int, b: int) -> int:
    if a < b:
        a, b = b, a
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        a <<= 1
        b >>= 1
    return acc


def _mod_int(a: int, b: int) -> int:
    if b == 0:
        raise ZeroDivisionError("polynomial modulo zero")
    db = b.bit_length() - 1
    while True:
        da = a.bit_length() - 1
        if da < db:
            return a
        a ^= b << (da - db)


def _divmod_int(a: int, b: int):
    if b == 0:
        raise ZeroDivisionError("polynomial division by zero")
    db = b.bit_length() - 1
    q = 0
    while True:
        da = a.bit_length() - 1
        if da < db:
            return q, a
        q ^= 1 << (da - db)
        a ^= b << (da - db)


class Poly2:
    """Immutable polynomial over GF(2), packed into an int."""

    __slots__ = ("_v",)

    def __init__(self, value: int = 0):
        if value < 0:
            raise ValueError("coefficient bits must form a nonnegative int")
        self._v = value

    @classmethod
    def x_power(cls, k: int) -> "Poly2":
        if k < 0:
            raise ValueError("negative exponent")
        return cls(1 << k)

    @property
    def value(self) -> int:
        return self._v

    @property
    def degree(self) -> int:
        """Degree; -1 marks the zero polynomial."""
        return self._v.bit_length() - 1

    def __bool__(self) -> bool:
        return self._v != 0

    def __add__(self, other: "Poly2") -> "Poly2":
        return Poly2(self._v ^ other._v)

    def __mul__(self, other: "Poly2") -> "Poly2":
        return Poly2(_mul_int(self._v, other._v))

    def __mod__(self, other: "Poly2") -> "Poly2":
        return Poly2(_mod_int(self._v, other._v))

    def __divmod__(self, other: "Poly2"):
        q, r = _divmod_int(self._v, other._v)
        return Poly2(q), Poly2(r)

    def __floordiv__(self, other: "Poly2") -> "Poly2":
        return Poly2(_divmod_int(self._v, other._v)[0])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly2):
            return NotImplemented
        return self._v == other._v

    def __hash__(self) -> int:
        return hash(("Poly2", self._v))

    def __repr__(self) -> str:
        return self.to_string()

    def to_string(self) -> str:
        """Textual form: descending powers, e.g. 'X^5+X'; '0' and '1'."""
        if self._v == 0:
            return "0"
        terms = []
        for k in range(self._v.bit_length() - 1, -1, -1):
            if (self._v >> k) & 1:
                terms.append("1" if k == 0 else "X" if k == 1 else f"X^{k}")
        return "+".join(terms)


ZERO = Poly2(0)
ONE = Poly2(1)
X = Poly2(2)


def gcd(a: Poly2, b: Poly2) -> Poly2:
    """Greatest common divisor; canonical since GF(2) units are trivial."""
    x, y = a._v, b._v
    while y:
        x, y = y, _mod_int(x, y)
    return Poly2(x)


def pow_mod(base: Poly2, e: int, modulus: Poly2) -> Poly2:
    """base**e reduced modulo modulus, by square and multiply."""
    if e < 0:
        raise ValueError("negative exponent")
    if not modulus:
        raise ZeroDivisionError("polynomial modulo zero")
    result = Poly2(_mod_int(1, modulus._v))
    b = base % modulus
    while e:
        if e & 1:
            result = (result * b) % modulus
        e >>= 1
        if e:
            b = (b * b) % modulus
    return result


def val_x(p: Poly2) -> int:
    """Index of the lowest nonzero coefficient (the X-adic valuation)."""
    if not p:
        raise ValueError("valuation of the zero polynomial")
    v = p._v
    return (v & -v).bit_length() - 1


def two_valuation(n: int) -> int:
    """Largest j with 2**j dividing n, for n >= 1."""
    if n < 1:
        raise ValueError(f"2-valuation needs n >= 1, got {n}")
    return (n & -n).bit_length() - 1


@lru_cache(maxsize=None)
def chebyshev_q(n: int) -> Poly2:
    """Q_n with Q_0 = 1, Q_1 = X, Q_{n+1} = X Q_n + Q_{n-1}; degree n."""
    if n < 0:
        raise ValueError(f"chebyshev_q needs n >= 0, got {n}")
    prev, cur = 1, 2  # Q_0, Q_1 as ints
    if n == 0:
        return ONE
    for _ in range(n - 1):
        prev, cur = cur, (cur << 1) ^ prev
    return Poly2(cur)


def _power_sum(n: int, exps: Iterable[int]) -> int:
    """The sum of X^e over exps reduced mod Q_n, as an int: X^e is
    already reduced when e < n, and a larger e goes by :func:`pow_mod`,
    so a huge exponent costs only its bit length."""
    f = 0
    for e in exps:
        f ^= 1 << e if e < n else pow_mod(X, e, chebyshev_q(n)).value
    return f


def _path_poly_rows(n: int, f: int) -> list:
    """The n columns of f(J_n) as n-bit ints, which are also its rows as
    f(J_n) is symmetric.  Column 0 is f(J) e_0, by Horner's rule on one
    int (J v adds each bit's two neighbours); then, as e_{c+1} = J e_c +
    e_{c-1} and f(J) commutes with J, column c + 1 is J col_c + col_{c-1}.
    Reduce f mod Q_n first, as Q_n(J_n) = 0, to keep the rule short."""
    mask = (1 << n) - 1
    col = 0
    for k in range(f.bit_length() - 1, -1, -1):
        col = (col << 1 ^ col >> 1) & mask ^ (f >> k & 1)
    prev, cols = 0, []
    for _ in range(n):
        cols.append(col)
        prev, col = col, (col << 1 ^ col >> 1) & mask ^ prev
    return cols

