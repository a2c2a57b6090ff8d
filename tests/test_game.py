import itertools
import tracemalloc

import numpy as np
import pytest

from sigma_forge import algebra, game
from sigma_forge.algebra import QuotientShape, TensorElement
from sigma_forge.game import (GameSpec, GridShape, adjacency_matrix, is_sigma_plus,
                              parse_game, parse_shape, preset_terms, u_element)
from sigma_forge.gf2 import BitMatrix, BitVector
from sigma_forge.poly2 import X, chebyshev_q, pow_mod

from helpers import bit_matrix, j_power, path_matrix, preset, variable


def commutes_with_axis_games(m, shape):
    """Whether m commutes with the game matrix of every one-term axis
    game (a unit exponent tuple) on shape."""
    axis_games = [adjacency_matrix(GameSpec(shape, frozenset([t])))
                  for t in preset_terms("sigma-:box", shape.d)]
    return all(m @ e == e @ m for e in axis_games)


# ---------------------------------------------------------------------
# path matrices
# ---------------------------------------------------------------------

def test_make_j_degenerate():
    assert path_matrix(1) == bit_matrix([[0]])


def test_make_j_2():
    assert path_matrix(2) == bit_matrix([[0, 1], [1, 0]])


def test_make_j_3_is_path_adjacency():
    assert path_matrix(3) == bit_matrix([[0, 1, 0], [1, 0, 1], [0, 1, 0]])


def test_make_j_band_structure():
    j = path_matrix(6)
    for a, b in itertools.product(range(6), repeat=2):
        assert j.get(a, b) == (1 if abs(a - b) == 1 else 0)


# ---------------------------------------------------------------------
# adjacency matrices
# ---------------------------------------------------------------------

def test_adjacency_single_axis_sigma_minus_box():
    g = preset("sigma-:box", 7)
    assert np.array_equal(adjacency_matrix(g).to_bit_array(), j_power(7))


def test_adjacency_boxtimes_formula():
    # M = Jn (x) Jm + Jn (x) Im + In (x) Jm
    n, m = 3, 4
    g = preset("sigma-:boxtimes", n, m)
    jn, jm, i_n, i_m = j_power(n), j_power(m), j_power(n, 0), j_power(m, 0)
    expect = np.kron(jn, jm) ^ np.kron(jn, i_m) ^ np.kron(i_n, jm)
    assert np.array_equal(adjacency_matrix(g).to_bit_array(), expect)


def test_adjacency_sigma_plus_box_formula():
    # M = In (x) Im + Jn (x) Im + In (x) Jm
    n, m = 4, 3
    g = preset("sigma+:box", n, m)
    jn, jm, i_n, i_m = j_power(n), j_power(m), j_power(n, 0), j_power(m, 0)
    expect = np.kron(i_n, i_m) ^ np.kron(jn, i_m) ^ np.kron(i_n, jm)
    assert np.array_equal(adjacency_matrix(g).to_bit_array(), expect)


def test_adjacency_always_symmetric():
    for name in game.PRESET_NAMES:
        for dims in [(5,), (3, 4), (2, 3, 2)]:
            m = adjacency_matrix(preset(name, *dims))
            assert m.symmetric and m == m.transpose()


def test_adjacency_matches_push_semantics():
    # column of cell v = toggle pattern of pushing v (boxtimes: all
    # cells at Chebyshev distance 1, plus itself for sigma+)
    g = preset("sigma+:boxtimes", 3, 3)
    m = adjacency_matrix(g)
    shape = g.shape
    cells = list(itertools.product(*(range(1, n + 1) for n in shape.dims)))
    for j, pushed in enumerate(cells):
        col = [m.get(i, j) for i in range(9)]
        for i, other in enumerate(cells):
            dist = max(abs(a - b) for a, b in zip(pushed, other))
            assert col[i] == (1 if dist <= 1 else 0)


# ---------------------------------------------------------------------
# sigma+ detection
# ---------------------------------------------------------------------

def test_presets_sigma_plus_flag():
    assert is_sigma_plus(preset("sigma+:boxtimes", 4, 5))
    assert is_sigma_plus(preset("sigma+:box", 3, 3, 3))
    assert not is_sigma_plus(preset("sigma-:box", 3, 3))
    assert not is_sigma_plus(preset("sigma-:boxtimes", 2, 2))


def test_squared_term_is_not_sigma_plus():
    # J3^2 has diagonal (1,0,1), so terms {(2,)} on a 3-path is not sigma+
    j3 = BitMatrix._from_bit_array(j_power(3))
    j3sq = j3 @ j3
    assert j3sq.diagonal() == BitVector.from_bits([1, 0, 1])
    g = GameSpec(GridShape((3,)), frozenset({(2,)}))
    assert adjacency_matrix(g) == j3sq
    assert not is_sigma_plus(g)


# ---------------------------------------------------------------------
# u elements
# ---------------------------------------------------------------------

def test_u_element_presets_2d():
    qs = QuotientShape.chebyshev([4, 5])
    x = variable(qs, 0)
    y = variable(qs, 1)
    one = TensorElement.one(qs)
    assert u_element(preset("sigma-:boxtimes", 4, 5)) == x + y + x * y
    assert u_element(preset("sigma-:box", 4, 5)) == x + y
    assert u_element(preset("sigma+:box", 4, 5)) == one + x + y
    assert u_element(preset("sigma+:boxtimes", 4, 5)) == one + x + y + x * y


def test_u_element_reduces_large_exponents():
    # exponents beyond the axis size reduce mod Q_n; the matrix power
    # path and the algebra path must stay conjugate
    shape = GridShape((4,))
    qs = QuotientShape.chebyshev([4])
    for e in range(8):
        g = GameSpec(shape, frozenset({(e,)}))
        assert np.array_equal(adjacency_matrix(g).to_bit_array(), j_power(4, e))
        conj = qs.phi_inverse_matrix() @ adjacency_matrix(g) @ qs.phi_matrix()
        assert conj == algebra.mult_operator(u_element(g))


def test_u_element_reduces_a_huge_exponent_by_pow_mod():
    # X^(10^7) mod Q_5 by square and multiply, not by a 10^7-bit polynomial
    e = 10 ** 7
    g = parse_game(f"custom:{e},0;1,1", GridShape((5, 5)))
    qs = QuotientShape.chebyshev([5, 5])
    q = chebyshev_q(5)
    want = TensorElement.zero(qs)
    for term in g.terms:
        want = want + TensorElement.from_axis_polys(qs, [pow_mod(X, k, q) for k in term])
    assert u_element(g) == want


def test_one_axis_game_matrices_are_the_powers_of_j():
    # the factors J^e are built as (X^e mod Q_n)(J); the reference
    # multiplies J out
    for n in range(1, 41):
        for e in range(45):
            g = GameSpec(GridShape((n,)), frozenset({(e,)}))
            assert np.array_equal(adjacency_matrix(g).to_bit_array(), j_power(n, e)), (n, e)


def test_conjugacy_invariant_presets():
    # phi^-1 M phi = multiplication operator of u, across shapes
    shapes = [(n,) for n in range(1, 13)]
    shapes += [d for d in itertools.product(range(1, 7), repeat=2) if d[0] * d[1] <= 30]
    shapes += [d for d in itertools.product(range(1, 4), repeat=3)]
    shapes += [(2, 2, 2, 2)]
    for dims in shapes:
        qs = QuotientShape.chebyshev(dims)
        pinv, pmat = qs.phi_inverse_matrix(), qs.phi_matrix()
        for name in game.PRESET_NAMES:
            g = preset(name, *dims)
            assert pinv @ adjacency_matrix(g) @ pmat == \
                algebra.mult_operator(u_element(g)), (name, dims)


# ---------------------------------------------------------------------
# commutation
# ---------------------------------------------------------------------

def test_presets_commute():
    for name in game.PRESET_NAMES:
        for dims in ((3, 4), (2, 2, 3)):
            g = preset(name, *dims)
            assert commutes_with_axis_games(adjacency_matrix(g), g.shape)


def test_noncommuting_loaded_matrix():
    shape = GridShape((2, 2))
    m = adjacency_matrix(preset("sigma-:box", 2, 2))
    bits = m.to_bit_array()
    bits[0][3] ^= 1  # one off-band toggle breaks commutation
    broken = bit_matrix(bits.tolist())
    j_axis = BitMatrix._from_bit_array(np.kron(j_power(2), j_power(2, 0)))
    assert broken @ j_axis != j_axis @ broken
    assert not commutes_with_axis_games(broken, shape)


def test_commutes_on_single_cell():
    # the sigma- and sigma+ games of one cell are [0] and [1]
    shape = GridShape((1, 1))
    for name, bits in (("sigma-:box", [[0]]), ("sigma+:box", [[1]])):
        m = adjacency_matrix(GameSpec.preset(name, shape))
        assert m == bit_matrix(bits)
        assert commutes_with_axis_games(m, shape)


# ---------------------------------------------------------------------
# grammar
# ---------------------------------------------------------------------

def test_parse_shape():
    assert parse_shape("5x5") == GridShape((5, 5))
    assert parse_shape("3x4x5") == GridShape((3, 4, 5))
    assert parse_shape("7") == GridShape((7,))
    for bad in ("", "3x", "x3", "3x-1", "0x2", "a", "3 x 4"):
        with pytest.raises(ValueError):
            parse_shape(bad)


def test_parse_game_presets():
    shape = GridShape((3, 3))
    g = parse_game("sigma-:boxtimes", shape)
    assert g.terms == frozenset({(1, 1), (1, 0), (0, 1)})
    g = parse_game("sigma+:box", shape)
    assert g.terms == frozenset({(0, 0), (1, 0), (0, 1)})


def test_parse_game_custom():
    shape = GridShape((3, 3))
    g = parse_game("custom:1,0;0,1;1,1", shape)
    assert g == GameSpec(shape, frozenset({(1, 0), (0, 1), (1, 1)}))
    assert g.terms == parse_game("sigma-:boxtimes", shape).terms


def test_parse_game_errors():
    shape = GridShape((3, 3))
    for bad in ("sigma*:box", "custom:", "custom:1;2,3", "custom:1,x", "box"):
        with pytest.raises(ValueError):
            parse_game(bad, shape)


def test_game_label_round_trip():
    shape = GridShape((3, 3))
    for name in game.PRESET_NAMES:
        assert parse_game(name, shape).label() == name
    custom = parse_game("custom:2,0;0,2", shape)
    assert custom.label() == "custom:0,2;2,0"
    assert parse_game(custom.label(), shape) == custom


def test_grid_shape_indexing():
    with pytest.raises(ValueError):
        GridShape((0, 2))


@pytest.mark.parametrize("dims", [(50, 50), (11, 11, 11)])
def test_a_dense_build_takes_less_than_a_byte_per_entry(dims):
    """sigma-:boxtimes on these boards is eliminated whole, as I + J is
    singular on their axes, so its words are built: from int rows, the
    build peaks below total**2 bytes under tracemalloc."""
    g = GameSpec.preset("sigma-:boxtimes", GridShape(dims))
    adjacency_matrix.cache_clear()
    m = adjacency_matrix(g)
    tracemalloc.start()
    try:
        m._words
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < g.shape.total ** 2
