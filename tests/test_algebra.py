"""Tensor-algebra tests.

The oracle here multiplies elements symbolically (dicts of exponent
tuples, per-axis reduction through Poly2), never touching the operator
or packed-vector code paths it is checking.
"""
import itertools
import math
import random

import numpy as np
import pytest

from sigma_forge import algebra, gf2, poly2
from sigma_forge.algebra import QuotientShape, TensorElement
from sigma_forge.game import PRESET_NAMES, GameSpec, GridShape, u_element
from sigma_forge.gf2 import BitMatrix, BitVector
from sigma_forge.poly2 import Poly2, chebyshev_q
from sigma_forge.symmetry import central_element

from helpers import P, bit_matrix, monomial_operator_sum, path_matrix, variable, vector_at


# ---------------------------------------------------------------------
# symbolic oracle
# ---------------------------------------------------------------------

def monomials_of(elem):
    return {elem.shape.exponents_of(j) for j in range(elem.shape.total)
            if elem.coeffs[j]}


def from_monomials(shape, monos):
    return TensorElement(shape, vector_at(shape.total, [np.ravel_multi_index(m, shape.dims)
                                                        for m in monos]))


def oracle_mul(a, b):
    """Symbolic product: expand, reduce each axis with Poly2, XOR."""
    shape = a.shape
    out = set()
    for ma in monomials_of(a):
        for mb in monomials_of(b):
            raw = tuple(x + y for x, y in zip(ma, mb))
            axis_polys = [Poly2.x_power(e) % m for e, m in zip(raw, shape.moduli)]
            expanded = [()]
            for p in axis_polys:
                expanded = [pre + (k,) for pre in expanded
                            for k in range(p.value.bit_length()) if p.value >> k & 1]
            for mono in expanded:
                out ^= {mono}
    return from_monomials(shape, out)


def oracle_divides(u, t):
    """Exhaustive search for v with u v = t; products from oracle_mul."""
    shape = u.shape
    cols = [oracle_mul(u, TensorElement(shape, BitVector.from_int(shape.total, 1 << j)))
            .coeffs.to_int() for j in range(shape.total)]
    want = t.coeffs.to_int()
    cur = 0
    if want == 0:
        return True
    for s in range(1, 1 << shape.total):
        cur ^= cols[(s & -s).bit_length() - 1]
        if cur == want:
            return True
    return False


def random_element(rng, shape):
    return TensorElement(shape, BitVector.from_int(shape.total,
                                                   rng.getrandbits(shape.total)))


# ---------------------------------------------------------------------
# shapes
# ---------------------------------------------------------------------

def test_shape_rejects_constant_modulus():
    with pytest.raises(ValueError):
        QuotientShape([poly2.ONE])


def test_shape_flat_index_round_trip():
    qs = QuotientShape.chebyshev([3, 4, 2])
    assert qs.total == 24


def test_chebyshev_flag():
    assert QuotientShape.chebyshev([4, 5]).is_chebyshev
    assert not QuotientShape.monomial([4, 5]).is_chebyshev
    # Q_3 = X^3, so that particular monomial algebra IS Chebyshev
    assert QuotientShape.monomial([3]).is_chebyshev


# ---------------------------------------------------------------------
# multiplication
# ---------------------------------------------------------------------

def test_unit_element():
    qs = QuotientShape.chebyshev([3, 3])
    one = TensorElement.one(qs)
    rng = random.Random(3)
    for _ in range(10):
        a = random_element(rng, qs)
        assert a * one == a


def test_square_of_sum_vanishes_with_nilpotents():
    qs = QuotientShape.monomial([2, 2])
    u = variable(qs, 0) + variable(qs, 1)
    assert (u * u).is_zero()


def test_cube_vanishes_mod_q3():
    qs = QuotientShape.chebyshev([3, 3])
    x = variable(qs, 0)
    assert not (x * x).is_zero()
    assert (x * (x * x)).is_zero()  # Q_3 = X^3


def test_mul_matches_oracle():
    rng = random.Random(2718)
    shapes = [QuotientShape.chebyshev([5]), QuotientShape.chebyshev([3, 4]),
              QuotientShape.monomial([3, 2]), QuotientShape.chebyshev([2, 3, 2]),
              QuotientShape([P("X^2+X+1"), P("X^3+X+1")])]
    for qs in shapes:
        for _ in range(8):
            a = random_element(rng, qs)
            b = random_element(rng, qs)
            assert a * b == oracle_mul(a, b)


def test_mul_shape_mismatch():
    a = TensorElement.one(QuotientShape.chebyshev([3]))
    b = TensorElement.one(QuotientShape.chebyshev([4]))
    with pytest.raises(ValueError):
        a * b


# ---------------------------------------------------------------------
# mult_operator
# ---------------------------------------------------------------------

def test_operator_of_one_is_identity():
    qs = QuotientShape.chebyshev([3, 2])
    assert algebra.mult_operator(TensorElement.one(qs)) == BitMatrix.identity(6)


def test_operator_of_x_nilpotent():
    qs = QuotientShape.monomial([2])
    op = algebra.mult_operator(variable(qs, 0))
    assert op == bit_matrix([[0, 0], [1, 0]])


def test_operator_of_x_mod_q3():
    qs = QuotientShape.chebyshev([3])
    op = algebra.mult_operator(variable(qs, 0))
    assert op == bit_matrix([[0, 0, 0], [1, 0, 0], [0, 1, 0]])


def assert_operator_columns_are_products(u):
    qs = u.shape
    op = algebra.mult_operator(u)
    assert (op.rows, op.cols) == (qs.total, qs.total)
    for j in range(qs.total):
        ej = TensorElement(qs, BitVector.from_int(qs.total, 1 << j))
        assert op.mul_vec(ej.coeffs) == oracle_mul(u, ej).coeffs, (qs, u, j)


def test_operator_columns_are_products():
    rng = random.Random(505)
    for qs in (QuotientShape.chebyshev([4, 3]), QuotientShape.monomial([2, 3]),
               QuotientShape.chebyshev([2, 3, 4]), QuotientShape.monomial([3, 2, 2])):
        for u in (random_element(rng, qs), TensorElement.zero(qs),
                  TensorElement(qs, BitVector.ones(qs.total))):
            assert_operator_columns_are_products(u)


def test_operator_of_game_and_central_elements_matches_oracle():
    """Every d <= 3 grid of at most 24 cells: the four preset u elements
    and the central element."""
    for d in (1, 2, 3):
        for dims in itertools.product(range(1, 25), repeat=d):
            shape = GridShape(dims)
            if shape.total > 24:
                continue
            for name in PRESET_NAMES:
                assert_operator_columns_are_products(u_element(GameSpec.preset(name, shape)))
            assert_operator_columns_are_products(central_element(shape))


def _operator_cases():
    """Elements of Chebyshev and monomial algebras of 1-3 axes: a
    separable element (its support a full box), that box less one to
    three monomials, a few scattered monomials, a random element and
    zero."""
    rng = random.Random(2048)
    for d in (1, 2, 3):
        for _ in range(6):
            dims = [rng.randint(1, 5) for _ in range(d)]
            for qs in (QuotientShape.chebyshev(dims), QuotientShape.monomial(dims)):
                box = TensorElement.from_axis_polys(
                    qs, [Poly2(rng.getrandbits(6) | 1) for _ in range(d)])
                yield box
                support = np.flatnonzero(box.coeffs.to_array()).tolist()
                gone = rng.sample(support, max(0, min(len(support) - 1, rng.randint(1, 3))))
                yield box + TensorElement(qs, vector_at(qs.total, gone))
                yield TensorElement(qs, vector_at(qs.total, rng.sample(
                    range(qs.total), min(qs.total, rng.randint(1, 4)))))
                yield random_element(rng, qs)
                yield TensorElement.zero(qs)


def test_operator_equals_the_per_monomial_sum():
    """Grouping u's monomials into Kronecker products of per-axis sums
    changes no bit of the operator."""
    for u in _operator_cases():
        assert np.array_equal(algebra.mult_operator(u).to_bit_array(),
                              monomial_operator_sum(u)), u


def test_operator_takes_the_fewest_kronecker_products(monkeypatch):
    """The central element is separable, so its operator is one
    Kronecker product; the sigma-:boxtimes u is its box less the unit,
    two products; a product per monomial is never exceeded."""
    counts = []
    real = gf2._kron_sum

    def counted(products, rows, cols):
        products = list(products)
        counts.append(len(products))
        return real(products, rows, cols)

    monkeypatch.setattr(gf2, "_kron_sum", counted)
    for dims in ((2, 2), (4, 6), (3, 4, 5), (7, 7), (2, 3, 8)):
        shape = GridShape(dims)
        counts.clear()
        algebra.mult_operator(central_element(shape))
        assert counts == [1], dims
        counts.clear()
        algebra.mult_operator(u_element(GameSpec.preset("sigma-:boxtimes", shape)))
        assert counts == [2], dims
    for u in _operator_cases():
        counts.clear()
        algebra.mult_operator(u)
        monomials = monomials_of(u)
        assert counts[0] <= len(monomials)
        if monomials and len(monomials) == math.prod(
                len({e[i] for e in monomials}) for i in range(u.shape.d)):
            assert counts == [1], u


def test_operator_of_x_is_kron_of_companions():
    qs = QuotientShape.chebyshev([3, 4])
    cx = algebra.mult_operator(variable(qs, 0))
    cy = algebra.mult_operator(variable(qs, 1))
    comp3 = algebra.mult_operator(variable(QuotientShape.chebyshev([3]), 0))
    comp4 = algebra.mult_operator(variable(QuotientShape.chebyshev([4]), 0))
    i3, i4 = np.eye(3, dtype=np.uint8), np.eye(4, dtype=np.uint8)
    assert np.array_equal(cx.to_bit_array(), np.kron(comp3.to_bit_array(), i4))
    assert np.array_equal(cy.to_bit_array(), np.kron(i3, comp4.to_bit_array()))


# ---------------------------------------------------------------------
# divisibility
# ---------------------------------------------------------------------

def test_zero_is_divisible():
    qs = QuotientShape.monomial([3, 2])
    u = variable(qs, 0) + variable(qs, 1)
    assert algebra.divides(u, TensorElement.zero(qs))


def test_divides_monomial_2_2():
    # in k[X]/X^2 (x) k[Y]/Y^2 with u = x+y: xy yes, x no
    qs = QuotientShape.monomial([2, 2])
    u = variable(qs, 0) + variable(qs, 1)
    xy = TensorElement.monomial(qs, [1, 1])
    x = TensorElement.monomial(qs, [1, 0])
    assert algebra.divides(u, xy)
    assert not algebra.divides(u, x)


def test_divides_monomial_3_2_x_squared():
    # r+s = 2 >= min(3, 2): divisible; oracle verdict recorded as True
    qs = QuotientShape.monomial([3, 2])
    u = variable(qs, 0) + variable(qs, 1)
    x2 = TensorElement.monomial(qs, [2, 0])
    assert oracle_divides(u, x2) is True
    assert algebra.divides(u, x2)


@pytest.mark.parametrize("perturbed", [False, True])
def test_technic_predicate_small_grid(perturbed):
    # divides(u, x^r y^s) iff r+s >= min(p,q); u = x+y or x+y+xy
    for p, q in itertools.product(range(1, 4), repeat=2):
        qs = QuotientShape.monomial([p, q])
        u = variable(qs, 0) + variable(qs, 1)
        if perturbed:
            u = u + variable(qs, 0) * variable(qs, 1)
        for r, s in itertools.product(range(4), repeat=2):
            t = TensorElement.from_axis_polys(qs, [Poly2.x_power(r), Poly2.x_power(s)])
            assert algebra.divides(u, t) == (r + s >= min(p, q)), (p, q, r, s)


def test_divides_agrees_with_exhaustive_search():
    rng = random.Random(909)
    for qs in (QuotientShape.chebyshev([3]), QuotientShape.monomial([2, 2]),
               QuotientShape.chebyshev([2, 2, 2]), QuotientShape.chebyshev([3, 3])):
        for _ in range(6):
            u = random_element(rng, qs)
            t = random_element(rng, qs)
            assert algebra.divides(u, t) == oracle_divides(u, t)


def test_divides_all_matches_divides():
    rng = random.Random(31337)
    qs = QuotientShape.chebyshev([3, 3])
    u = random_element(rng, qs)
    targets = [random_element(rng, qs) for _ in range(10)]
    assert algebra.divides_all(u, targets) == [algebra.divides(u, t) for t in targets]


# ---------------------------------------------------------------------
# phi and phi_inverse
# ---------------------------------------------------------------------

def test_phi_base_cases():
    qs = QuotientShape.chebyshev([3])
    assert algebra.phi(TensorElement.monomial(qs, [0])) == BitVector.from_bits([1, 0, 0])
    assert algebra.phi(TensorElement.monomial(qs, [1])) == BitVector.from_bits([0, 1, 0])
    assert algebra.phi(TensorElement.monomial(qs, [2])) == BitVector.from_bits([1, 0, 1])


def test_phi_accepts_axis_polys():
    qs = QuotientShape.chebyshev([3, 3])
    v = algebra.phi([poly2.X, poly2.X], qs)
    assert v == BitVector.from_int(9, 1 << 4)  # central cell of 3x3


def test_phi_grid_basis_pulls_back_to_q_polys():
    # grid vector e_i corresponds to Q_i(x)
    for n in (1, 2, 3, 5, 8):
        qs = QuotientShape.chebyshev([n])
        for i in range(n):
            e_i = BitVector.from_int(n, 1 << i)
            expect = TensorElement.from_axis_polys(qs, [chebyshev_q(i)])
            assert algebra.phi_inverse(e_i, qs) == expect
            assert algebra.phi(expect) == e_i


def test_phi_inverse_examples():
    qs = QuotientShape.chebyshev([3])
    assert algebra.phi_inverse(BitVector.from_bits([1, 0, 0]), qs) == TensorElement.one(qs)
    assert algebra.phi_inverse(BitVector.from_bits([0, 1, 0]), qs) == \
        variable(qs, 0)
    allon = algebra.phi_inverse(BitVector.from_bits([1, 1, 1]), qs)
    assert allon == TensorElement.from_axis_polys(qs, [P("X^2+X")])


def test_phi_round_trip_exhaustive_small():
    for n in range(1, 9):
        qs = QuotientShape.chebyshev([n])
        for bits in range(1 << n):
            v = BitVector.from_int(n, bits)
            assert algebra.phi(algebra.phi_inverse(v, qs)) == v
            e = TensorElement(qs, v)
            assert algebra.phi_inverse(algebra.phi(e), qs) == e


def test_phi_round_trip_random_larger():
    rng = random.Random(777)
    for n in range(9, 17):
        qs = QuotientShape.chebyshev([n])
        for _ in range(16):
            v = BitVector.from_int(n, rng.getrandbits(n))
            assert algebra.phi(algebra.phi_inverse(v, qs)) == v
    qs = QuotientShape.chebyshev([4, 3, 2])
    for _ in range(16):
        v = BitVector.from_int(24, rng.getrandbits(24))
        assert algebra.phi(algebra.phi_inverse(v, qs)) == v


def test_phi_requires_chebyshev_moduli():
    qs = QuotientShape.monomial([2, 2])
    with pytest.raises(ValueError):
        algebra.phi(TensorElement.one(qs))
    with pytest.raises(ValueError):
        algebra.phi_inverse(BitVector.zeros(4), qs)


def test_phi_inverse_length_mismatch():
    with pytest.raises(ValueError):
        algebra.phi_inverse(BitVector.zeros(5), QuotientShape.chebyshev([3]))


def test_phi_intertwines_x_with_path_matrix():
    rng = random.Random(123)
    for n in range(1, 17):
        qs = QuotientShape.chebyshev([n])
        j = path_matrix(n)
        x = variable(qs, 0)
        for _ in range(8):
            p = random_element(rng, qs)
            assert algebra.phi(x * p) == j.mul_vec(algebra.phi(p))


def test_cayley_hamilton_witness():
    # Q_n(mult-by-x) = 0 and the first n powers are independent,
    # so characteristic and minimal polynomials coincide
    for n in range(1, 17):
        qs = QuotientShape.chebyshev([n])
        c = algebra.mult_operator(variable(qs, 0))
        q = chebyshev_q(n)
        acc = BitMatrix.zeros(n, n)
        for k in range(q.degree, -1, -1):
            acc = acc @ c
            if q.value >> k & 1:
                acc = acc ^ BitMatrix.identity(n)
        assert acc == BitMatrix.zeros(n, n)
        power = BitMatrix.identity(n)
        flat_rows = []
        for _ in range(n):
            flat_rows.append(BitVector.from_bits(power.to_bit_array().ravel()))
            power = power @ c
        assert gf2.rank(bit_matrix(flat_rows, cols=n * n)) == n


def test_a_huge_exponent_is_reduced_by_squaring(monkeypatch):
    """X^e with e = 10^7 is reduced by pow_mod, never written out as a
    10^7-bit polynomial first: the monomial and the companion power
    equal the values built from pow_mod(X, e + k, m)."""
    real = poly2._mod_int

    def bounded(a, b):
        assert a.bit_length() < 1000, "a huge power reduced bit by bit"
        return real(a, b)
    monkeypatch.setattr(poly2, "_mod_int", bounded)
    e = 10 ** 7
    qs = QuotientShape.chebyshev([5, 5])
    m = chebyshev_q(5)
    want = TensorElement.from_axis_polys(qs, [poly2.pow_mod(poly2.X, e, m), poly2.ONE])
    assert TensorElement.monomial(qs, [e, 0]) == want
    algebra._companion_power.cache_clear()
    assert algebra._companion_power(m, e) == companion_rows_by_transpose(m, e)


def companion_rows_by_transpose(m, e):
    """The row ints of C^e from its columns x^(e+k) mod m, transposed by
    numpy."""
    n = m.degree
    columns = [poly2.pow_mod(poly2.X, e + k, m).value for k in range(n)]
    bits = np.array([[c >> j & 1 for j in range(n)] for c in columns], dtype=np.uint8)
    return tuple(int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little")
                 for row in bits.T)


def test_companion_power_rows_equal_the_transposed_columns():
    """The rows come from a recurrence on row n - 1, not a transpose;
    they agree with one on every modulus of degree up to 9 and on
    random ones of degree up to 70."""
    rng = random.Random(16)
    moduli = [Poly2(v) for v in range(2, 1 << 10)]
    moduli += [Poly2(1 << k | rng.getrandbits(k)) for k in range(10, 71) for _ in range(2)]
    for m in moduli:
        for e in (0, 1, m.degree, 2 * m.degree + 3, rng.getrandbits(40)):
            assert algebra._companion_power.__wrapped__(m, e) == \
                companion_rows_by_transpose(m, e), (m, e)
