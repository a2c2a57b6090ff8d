import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sigma_forge import poly2
from sigma_forge.poly2 import ONE, X, Poly2, chebyshev_q, gcd, two_valuation, val_x

from helpers import P

polys = st.builds(Poly2, st.integers(0, (1 << 12) - 1))
nonzero_polys = st.builds(Poly2, st.integers(1, (1 << 12) - 1))


# ---------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------

def test_frobenius_square():
    assert P("X+1") * P("X+1") == P("X^2+1")


def test_gcd_example():
    assert gcd(P("X^2+1"), P("X+1")) == P("X+1")


def test_mod_long_division():
    assert P("X^3") % P("X^2+1") == X


def test_mod_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        P("X^3") % Poly2(0)


def test_degree_of_zero_is_marker():
    assert Poly2(0).degree == -1
    assert not Poly2(0)
    assert ONE.degree == 0
    assert P("X^7+X").degree == 7


@given(polys, polys, polys)
def test_distributive(a, b, c):
    assert (a + b) * c == a * c + b * c


@given(polys, nonzero_polys)
def test_divmod_is_exact(a, b):
    q, r = divmod(a, b)
    assert q * b + r == a
    assert r.degree < b.degree


@given(nonzero_polys, nonzero_polys)
def test_gcd_divides_both(a, b):
    g = gcd(a, b)
    assert a % g == Poly2(0)
    assert b % g == Poly2(0)


# ---------------------------------------------------------------------
# chebyshev family
# ---------------------------------------------------------------------

def test_q_base_cases():
    assert chebyshev_q(0) == ONE
    assert chebyshev_q(1) == X
    assert chebyshev_q(2) == P("X^2+1")


def test_q3_is_x_cubed():
    assert chebyshev_q(3) == P("X^3")
    # cross-check against the doubling identity with n = 2
    assert chebyshev_q(3) == X * chebyshev_q(1) * chebyshev_q(1)


def test_q_degree():
    for n in range(40):
        assert chebyshev_q(n).degree == n


def test_chebyshev_relation_to_64():
    for n in range(1, 64):
        assert chebyshev_q(n + 1) == X * chebyshev_q(n) + chebyshev_q(n - 1)


def test_doubling_identity():
    for n in range(1, 33):
        q = chebyshev_q(n - 1)
        assert chebyshev_q(2 * n - 1) == X * q * q


def test_divisible_by_x_iff_odd():
    for n in range(65):
        assert (chebyshev_q(n) % X == Poly2(0)) == (n % 2 == 1)


def test_valuation_formula_odd_n():
    # n odd, n+1 = 2^j m with m odd: val_x(Q_n) = 2^j - 1
    for n in range(1, 64, 2):
        j = two_valuation(n + 1)
        assert val_x(chebyshev_q(n)) == (1 << j) - 1


def test_recursive_valuation_odd_n():
    for n in range(3, 64, 2):
        assert val_x(chebyshev_q(n)) == 1 + 2 * val_x(chebyshev_q((n - 1) // 2))


def test_prime_valuation_doubles_for_odd_index():
    # v_R(Q_n) = 2 v_R(Q_{(n-1)/2}) for supplied irreducible R != X
    def v(p, r):
        count = 0
        while p % r == Poly2(0):
            p //= r
            count += 1
        return count

    for r in (P("X+1"), P("X^2+X+1")):
        for n in range(1, 64, 2):
            assert v(chebyshev_q(n), r) == 2 * v(chebyshev_q((n - 1) // 2), r)


# ---------------------------------------------------------------------
# valuations
# ---------------------------------------------------------------------

def test_val_x_examples():
    assert val_x(P("X^3")) == 3
    assert val_x(P("X^2+1")) == 0
    assert chebyshev_q(5) == P("X^5+X")
    assert val_x(chebyshev_q(5)) == 1


def test_val_x_zero_raises():
    with pytest.raises(ValueError):
        val_x(Poly2(0))


def test_two_valuation():
    assert two_valuation(4) == 2
    assert two_valuation(6) == 1
    assert two_valuation(12) == 2
    assert two_valuation(1) == 0
    with pytest.raises(ValueError):
        two_valuation(0)


# ---------------------------------------------------------------------
# textual format
# ---------------------------------------------------------------------

def test_format_examples():
    assert chebyshev_q(5).to_string() == "X^5+X"
    assert Poly2(0).to_string() == "0"
    assert ONE.to_string() == "1"
    assert P("1").to_string() == "1"
    assert (X + ONE).to_string() == "X+1"


def test_pow_mod():
    assert poly2.pow_mod(X, 5, chebyshev_q(3)) == Poly2(0)  # X^5 mod X^3
    assert poly2.pow_mod(X, 3, P("X^2+1")) == X


def _dense_path_poly(n, f):
    """f(J_n) by Horner's rule on dense n x n arrays: J y adds each row's
    two neighbours."""
    y = np.zeros((n, n), dtype=np.uint8)
    for k in range(f.bit_length() - 1, -1, -1):
        jy = np.zeros_like(y)
        jy[1:] = y[:-1]
        jy[:-1] ^= y[1:]
        y = jy
        if f >> k & 1:
            y[np.arange(n), np.arange(n)] ^= 1
    return y


def test_path_poly_equals_dense_horner():
    """Unreduced f of degree up to 2n as well as reduced ones: the n row
    ints, unpacked, are f(J_n)."""
    rng = random.Random(13)
    for n in list(range(1, 70)) + [129, 200, 257]:
        fs = [0, 1, X.value, (ONE + X).value] + [rng.getrandbits(rng.randint(1, 2 * n + 1))
                                               for _ in range(3)]
        for f in fs:
            rows = poly2._path_poly_rows(n, f)
            got = np.array([[row >> c & 1 for c in range(n)] for row in rows], dtype=np.uint8)
            assert np.array_equal(got, _dense_path_poly(n, f)), (n, f)
