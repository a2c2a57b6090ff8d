"""The chase backend against the dense RREF, and the backend pick."""
import itertools
import logging
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigma_forge import chase, gf2, poly2, solver
from sigma_forge.algebra import TensorElement
from sigma_forge.game import (PRESET_NAMES, GameSpec, GridShape, adjacency_matrix,
                              is_sigma_plus, parse_game, parse_shape, quotient_shape,
                              u_element)
from sigma_forge.gf2 import BitMatrix, BitVector

from helpers import bit_matrix, j_power


def _custom(d):
    """Custom games on d axes, each with the point it makes."""
    def unit(i, e=1):
        return tuple(e if k == i else 0 for k in range(d))
    zero = (0,) * d
    games = {
        # exponent 2 on every axis: no axis qualifies
        "squares": {zero} | {unit(i, 2) for i in range(d)},
    }
    if d >= 2:
        # on axis 1, A = I + J^2 (times I + J in 3-d): neither I nor a
        # product of (I + J)s
        rest = list(itertools.product((0, 2), *[(0, 1)] * (d - 2)))
        games["general-a"] = ({(1,) + r for r in rest} | {unit(1)}
                              | ({unit(2)} if d == 3 else {zero}))
        # exponent 1 on axis 1 in two terms that do not form a product
        games["mixed"] = {tuple(1 if k in (0, i) else 0 for k in range(d))
                          for i in range(1, d)} | {unit(d - 1), zero}
    return {name: frozenset(terms) for name, terms in games.items()}


def _games(dims):
    shape = GridShape(dims)
    out = [GameSpec.preset(name, shape) for name in PRESET_NAMES]
    return out + [GameSpec(shape, terms) for terms in _custom(len(dims)).values()]


def _dense_answers(g, targets):
    """(rank, kernel ints, witnesses, certificates) of a fresh dense
    elimination of g's matrix; the certificate is found here, as the
    first kernel row not orthogonal to the target."""
    m = _plain(adjacency_matrix(g))
    e = gf2.Elimination(m, targets)
    kernel = e.kernel()
    xs = [e.solution(j) for j in range(len(targets))]
    certs = []
    for t, x in zip(targets, xs):
        hits = [BitVector._of(m.cols, k) for k in kernel if BitVector._of(m.cols, k).dot(t)]
        certs.append(None if x is not None else hits[0])
    return gf2.rank(m), kernel, xs, certs


def _chased_answers(g, targets, axis):
    """The same answers from the chase along ``axis``, called directly,
    or None when that axis does not qualify."""
    dims, terms = g.shape.dims, tuple(sorted(g.terms))
    c, why = chase._chase_on(dims, terms, axis)
    if c is None:
        return None
    total = g.shape.total
    kernel, sols = c.solve([t.to_int() for t in targets])
    # with no targets at all, the same kernel
    assert c.solve([])[0] == kernel
    xs = [None if s is None else BitVector._of(total, s) for s in sols]
    certs = [None if x is not None else gf2._first_not_orthogonal(total, kernel, t)
             for t, x in zip(targets, xs)]
    return total - len(kernel), tuple(kernel), xs, certs


def _targets(shape, rng):
    return [BitVector.ones(shape.total),
            BitVector.from_int(shape.total, rng.getrandbits(shape.total))]


def _check_shapes(shapes, seed):
    """Every game on every shape: the chase along each axis that
    qualifies gives the dense answers.  Returns (chased runs, boards no
    axis qualifies for)."""
    rng = random.Random(seed)
    chased = fallbacks = 0
    for dims in shapes:
        squares = GameSpec(GridShape(dims), _custom(len(dims))["squares"])
        for g in _games(dims):
            targets = _targets(g.shape, rng)
            want = _dense_answers(g, targets)
            axes = 0
            for axis in range(len(dims)):
                got = _chased_answers(g, targets, axis)
                if got is not None:
                    assert got == want, f"{g.label()} on {g.shape}, axis {axis}"
                    axes += 1
            assert not (g == squares and axes)
            chased += axes
            fallbacks += not axes
    return chased, fallbacks


def test_chase_matches_dense_on_every_1d_shape_up_to_130():
    chased, fallbacks = _check_shapes([(n,) for n in range(1, 131)], seed=1)
    assert chased > 500 and fallbacks >= 130


def test_chase_matches_dense_on_every_2d_shape_up_to_20x20():
    shapes = list(itertools.product(range(1, 21), repeat=2))
    chased, fallbacks = _check_shapes(shapes, seed=2)
    assert chased > 2000 and fallbacks > 400


def test_chase_matches_dense_on_every_3d_shape_up_to_7x7x7():
    shapes = list(itertools.product(range(1, 8), repeat=3))
    chased, fallbacks = _check_shapes(shapes, seed=3)
    assert chased > 2000 and fallbacks > 300


def test_chase_matches_dense_on_the_bench_boards():
    rng = random.Random(4)
    for name, dims in (("sigma-:boxtimes", (49, 49)), ("sigma+:boxtimes", (50, 50)),
                       ("sigma+:box", (13, 13, 13)), ("sigma-:box", (13, 13, 13))):
        g = GameSpec.preset(name, GridShape(dims))
        targets = _targets(g.shape, rng)
        want = _dense_answers(g, targets)
        for axis in range(len(dims)):
            got = _chased_answers(g, targets, axis)
            assert got is None if name == "sigma+:boxtimes" else got == want


def test_chase_matches_dense_on_short_axis_boards():
    shapes = [(2,) * 6, (2,) * 8, (3,) * 5, (2, 3, 2, 3, 2, 2)]
    chased, fallbacks = _check_shapes(shapes, seed=5)
    assert chased > 40 and fallbacks >= len(shapes)


def test_a_short_axis_board_is_chased_in_less_memory_than_its_build(fresh_matrices):
    """On 2^12 cells sigma-:box has r = 2,048 and nullity 2,048, the
    largest layer and lift per cell; its gathers and tables run in
    several staged blocks.  The chase, C built afresh, peaks below two
    bytes per entry of the matrix and gives the dense answers."""
    g = GameSpec.preset("sigma-:box", GridShape((2,) * 12))
    targets = _targets(g.shape, random.Random(6))
    tracemalloc.start()
    try:
        m = adjacency_matrix(g)
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        e = gf2.Elimination(m, targets)
        chased = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert chase._pick(g.shape.dims, tuple(sorted(g.terms)))[0].r == 2048
    assert chased < 2 * g.shape.total ** 2
    rank, kernel, xs, certs = _dense_answers(g, targets)
    assert gf2.rank(m) == rank == 2048 and e.kernel() == kernel
    assert [e.solution(j) for j in range(2)] == xs


def test_the_squares_game_never_chases():
    for dims in ((5, 7), (4, 6, 8), (9,)):
        g = GameSpec(GridShape(dims), _custom(len(dims))["squares"])
        c, why = chase._pick(g.shape.dims, tuple(sorted(g.terms)))
        assert c is None and "exponent above 1" in why


def _product_games(dims):
    """sigma+:boxtimes and custom product games on dims: one with
    exponent 2 on the first axis, and one with exponents 0, 1 and 3 on
    every axis (3 reduces mod Q_n on short axes)."""
    shape = GridShape(dims)
    others = [(1,)] * (len(dims) - 1)
    return [GameSpec.preset("sigma+:boxtimes", shape),
            GameSpec(shape, frozenset(itertools.product((0, 2), *others))),
            GameSpec(shape, frozenset(itertools.product(*[(0, 1, 3)] * len(dims))))]


def _product_answers(g, targets):
    """The answers of the product backend, as :func:`_dense_answers`."""
    backend, _ = chase._pick(g.shape.dims, tuple(sorted(g.terms)))
    assert isinstance(backend, chase._Product)
    total = g.shape.total
    kernel, sols = backend.solve([t.to_int() for t in targets])
    # with no targets at all, the same kernel
    assert backend.solve([])[0] == kernel
    xs = [None if s is None else BitVector._of(total, s) for s in sols]
    certs = [None if x is not None else gf2._first_not_orthogonal(total, kernel, t)
             for t, x in zip(targets, xs)]
    return total - len(kernel), tuple(kernel), xs, certs


def _check_products(games, seed):
    """Each product game gives the dense answers for all-on, a random
    target and a target in the image."""
    rng = random.Random(seed)
    for g in games:
        targets = _targets(g.shape, rng)
        targets.append(adjacency_matrix(g).mul_vec(targets[1]))
        assert _product_answers(g, targets) == _dense_answers(g, targets), \
            f"{g.label()} on {g.shape}"


def test_the_product_backend_matches_dense_on_sigma_plus_boxtimes():
    shapes = (list(itertools.product(range(1, 21), repeat=2))
              + list(itertools.product(range(1, 8), repeat=3)))
    _check_products([GameSpec.preset("sigma+:boxtimes", GridShape(dims)) for dims in shapes],
                    seed=7)


def test_the_product_backend_matches_dense_on_custom_product_games():
    shapes = (list(itertools.product(range(1, 13), repeat=2))
              + list(itertools.product(range(1, 6), repeat=3)))
    _check_products([g for dims in shapes for g in _product_games(dims)[1:]], seed=8)


def test_only_product_games_of_two_or_more_axes_take_the_product_backend():
    for dims in ((9, 8), (4, 4, 4)):
        for g in _games(dims):
            backend, _ = chase._pick(dims, tuple(sorted(g.terms)))
            assert isinstance(backend, chase._Product) == (g.label() == "sigma+:boxtimes")
    # a 1-d game is a product of one factor, left to the chase
    backend, _ = chase._pick((70,), ((0,), (1,)))
    assert isinstance(backend, chase._Chase)


def test_a_product_game_is_built_as_the_sum_of_its_terms():
    for dims in ((1, 9), (6, 7), (50, 50), (2, 3, 4), (5, 8, 8)):
        for g in _product_games(dims):
            assert len(chase.kron_factors(dims, tuple(sorted(g.terms)))) == 1
            per_term = np.zeros((g.shape.total, g.shape.total), dtype=np.uint8)
            for t in g.terms:
                term = j_power(dims[0], t[0])
                for n, e in zip(dims[1:], t[1:]):
                    term = np.kron(term, j_power(n, e))
                per_term ^= term
            assert np.array_equal(adjacency_matrix(g).to_bit_array(), per_term)


def test_a_game_is_built_as_its_bounding_box_plus_its_missing_terms(fresh_matrices):
    """kron_factors takes the terms' bounding box plus one product per
    missing term when that is fewer products than one per term; the
    words equal the per-term sum either way."""
    for dims in ((5,), (64,), (4, 6), (3, 5), (2, 3, 4), (2, 2, 2, 2)):
        d = len(dims)
        shape = GridShape(dims)
        games = _games(dims) + [g for g in _matrix_free_games(dims) if g.shape.total <= 64]
        for g in games:
            terms = tuple(sorted(g.terms))
            sets = [{t[i] for t in terms} for i in range(d)]
            missing = int(np.prod([len(e) for e in sets])) - len(terms)
            assert len(chase.kron_factors(dims, terms)) == min(len(terms), 1 + missing)
            per_term = np.zeros((shape.total, shape.total), dtype=np.uint8)
            for t in terms:
                term = np.ones((1, 1), dtype=np.uint8)
                for n, e in zip(dims, t):
                    term = np.kron(term, j_power(n, e))
                per_term ^= term
            assert np.array_equal(adjacency_matrix(g).to_bit_array(), per_term), \
                f"{g.label()} on {g.shape}"
    for d in range(2, 13):
        terms = tuple(sorted(GameSpec.preset("sigma-:boxtimes", GridShape((2,) * d)).terms))
        assert len(chase.kron_factors((2,) * d, terms)) == 2


def test_c_is_built_with_one_product_per_kron_group():
    """The chase builds C = A^-1 B grouped as the game is: one product
    per :func:`.gf2._kron_groups` group of the exponent-0 terms, not one
    per term, its factors times those of A^-1; sigma+:box gets one
    product in 2-d and two in 3-d.  A product with a zero factor, such
    as X mod Q_1 = 0 on an axis of length 1, is zero and left out."""
    pinned = [("sigma+:box", (9, 8), 1), ("sigma+:box", (16, 16), 1),
              ("sigma+:box", (5, 6, 7), 2), ("sigma+:box", (13, 13, 13), 2),
              # B = X (x) I along axis 1
              ("sigma-:box", (1, 64), 0),
              # B = (I + X) (x) (I + J) + X (x) J along axis 2
              ("sigma+:box", (1, 5, 7), 1),
              # B = I (x) I + J (x) X along axis 2: the second is zero
              ({(0, 0, 1), (0, 0, 0), (1, 1, 0)}, (5, 1, 7), 1),
              # B = (I + J) (x) (I + J) + I (x) I along axis 2: the
              # bounding box and its missing term, for three terms
              ({(0, 0, 1), (1, 0, 0), (1, 1, 0), (0, 1, 0)}, (6, 5, 8), 2)]
    for game, dims, want in pinned:
        g = (parse_game(game, GridShape(dims)) if isinstance(game, str)
             else GameSpec(GridShape(dims), frozenset(game)))
        c, _ = chase._pick(dims, tuple(sorted(g.terms)))
        assert len(c.c_polys) == want, (g.label(), dims)


def test_a_huge_exponent_is_reduced_by_squaring(monkeypatch, fresh_matrices):
    """X^e with e = 10^7 reaches the build and the product backend by
    pow_mod, never as a 10^7-bit polynomial."""
    real = poly2._mod_int

    def bounded(a, b):
        assert a.bit_length() < 1000, "a huge power reduced bit by bit"
        return real(a, b)
    monkeypatch.setattr(poly2, "_mod_int", bounded)
    g = GameSpec(GridShape((9, 8)), frozenset(itertools.product((0, 10 ** 7), (0, 1))))
    m = adjacency_matrix(g)
    want = np.kron(j_power(9, 10 ** 7) ^ j_power(9, 0), j_power(8, 1) ^ j_power(8, 0))
    assert np.array_equal(m.to_bit_array(), want)
    assert isinstance(chase.pick(m), chase._Product)
    targets = _targets(g.shape, random.Random(9))
    assert _product_answers(g, targets) == _dense_answers(g, targets)


def test_invertible_product_axes_are_applied_by_horners_rule(monkeypatch, fresh_matrices):
    """An invertible axis factor takes no mode product: a product game
    whose every axis is invertible runs no mode product and no
    elimination and has no kernel, and one that mixes invertible and
    singular axes runs one mode product per singular axis; both give
    the dense answers."""
    modes = []
    real = chase._mode_product
    monkeypatch.setattr(chase, "_mode_product",
                        lambda t, axis, words: modes.append(axis) or real(t, axis, words))
    calls = _rref_calls(monkeypatch)
    rng = random.Random(16)
    kinds = set()
    for dims in ((7, 7, 7), (3, 4), (9, 10), (4, 6, 7), (5, 7), (4, 8, 3), (2, 9), (10, 11),
                 (6, 5, 3)):
        for g in _product_games(dims):
            terms = tuple(sorted(g.terms))
            products = chase.kron_factors(dims, terms)
            assert len(products) == 1
            factors = products[0]
            singular = [i for i, (n, f) in enumerate(zip(dims, factors))
                        if chase._inverse_mod(f, poly2.chebyshev_q(n).value) is None]
            targets = _targets(g.shape, rng)
            targets.append(adjacency_matrix(g).mul_vec(targets[1]))
            calls.clear()
            modes.clear()
            got = _product_answers(g, targets)
            assert modes == singular, f"{g.label()} on {g.shape}"
            if not singular:
                assert calls == [] and got[0] == g.shape.total
            assert got == _dense_answers(g, targets), f"{g.label()} on {g.shape}"
            kinds.add((bool(singular), len(singular) < len(dims)))
    assert kinds >= {(False, True), (True, True)}


def _matrix_free_games(dims):
    """Every preset, custom games with exponent 2, 5, n_0 + 1 and 10^7,
    a product game with exponents 0, 2 and 3 on dims, and one with
    exponents 0 and 2 on every axis, whose factor 1 + X^2 reduces to 0
    on an axis of length 2."""
    d = len(dims)
    shape = GridShape(dims)
    terms = [{(2,) * d, (0,) * d}, {(5,) + (1,) * (d - 1), (1,) * d},
             {(dims[0] + 1,) + (2,) * (d - 1), (0,) * d},
             {(10 ** 7,) + (0,) * (d - 1), (1,) * d},
             set(itertools.product((0, 2), *[(0, 3)] * (d - 1))),
             set(itertools.product(*[(0, 2)] * d))]
    return ([GameSpec.preset(name, shape) for name in PRESET_NAMES]
            + [GameSpec(shape, frozenset(t)) for t in terms])


def _plain(m):
    """A copy of m with its rows and no game: the dense mat-vec and
    diagonal."""
    return BitMatrix._of(m.rows, m.cols, tuple(m.row_ints()), symmetric=True)


def test_the_matrix_free_mul_vec_and_diagonal_equal_the_dense_ones(fresh_matrices):
    """M is applied axis by axis, and its diagonal read from the
    factors, without building the words; both equal a plain copy's.
    The long 1-d boards hold the factor 1 + X^2 of degree 2, whose
    diagonal is read off the rows of f(J)."""
    shapes = ([(n,) for n in range(1, 41)] + [(64,), (257,), (600,)]
              + [(1, 1), (1, 9), (7, 1)]
              + list(itertools.product(range(1, 13, 3), repeat=2))
              + list(itertools.product((1, 2, 5, 6), repeat=3))
              + [(2, 2, 2, 2, 2), (1, 3, 2, 1, 2), (3, 2, 1, 2, 3)])
    rng = random.Random(10)
    for dims in shapes:
        for g in _matrix_free_games(dims):
            adjacency_matrix.cache_clear()
            m = adjacency_matrix(g)
            vs = [BitVector.ones(m.cols)] + [BitVector.from_int(m.cols, rng.getrandbits(m.cols))
                                             for _ in range(3)]
            got = [m.mul_vec(v) for v in vs]
            sigma_plus = is_sigma_plus(g)
            diagonal = m.diagonal()
            assert m._rows is None, f"{g.label()} on {g.shape}"
            plain = _plain(m)
            assert got == [plain.mul_vec(v) for v in vs], f"{g.label()} on {g.shape}"
            assert diagonal == plain.diagonal(), f"{g.label()} on {g.shape}"
            assert sigma_plus == (plain.diagonal() == BitVector.ones(m.cols))


def _rref_with_identity(rows, n):
    """(pivots, reduced rows as n-column bits, packed right half) of the
    blocked RREF of [U | I] for the n x n matrix U of int rows."""
    words = np.hstack([gf2._ints_to_words(rows, n),
                       gf2._ints_to_words([1 << i for i in range(n)], n)])
    pivots = gf2._rref(words, n)
    half = words.shape[1] // 2
    return pivots, gf2._unpack_words_2d(words[:, :half], n), np.ascontiguousarray(words[:, half:])


def test_an_invertible_axis_factor_takes_no_rref(monkeypatch, fresh_matrices):
    """For f prime to Q_n the product backend eliminates nothing: the
    axis's pivots are 0 .. n - 1, its W is I, and its T is g(J_n) for
    the inverse g of f mod Q_n, applied by Horner's rule: the T of one
    RREF of [U | I], U^-1."""
    rng = random.Random(14)
    cases = [(n, f) for n in range(1, 41) for f in (1, 2, 3)]
    cases += [(n, poly2._mod_int(rng.getrandbits(2 * n), poly2.chebyshev_q(n).value))
              for n in list(range(1, 70)) + [129, 130, 200] for _ in range(3)]
    calls = _rref_calls(monkeypatch)
    invertible = 0
    for n, f in cases:
        g = chase._inverse_mod(f, poly2.chebyshev_q(n).value)
        if g is None:
            continue
        invertible += 1
        calls.clear()
        backend = chase._Product((n,), (f,))
        assert calls == []
        assert backend.transforms == [None] and backend.parts == [None]
        assert backend.inverse == (None if g == 1 else (g,))
        pivots, rows, rhs = _rref_with_identity(poly2._path_poly_rows(n, f), n)
        assert backend.pivots[0].tolist() == pivots == list(range(n))
        t = gf2._ints_to_words(poly2._path_poly_rows(n, g), n)
        assert t.tobytes() == rhs.tobytes()
    assert invertible > 200


def test_a_singular_axis_factor_is_eliminated_on_int_rows(monkeypatch, fresh_matrices):
    """For f not prime to Q_n, _axis_echelon runs one int-row
    elimination and no RREF, and agrees with one RREF of [U | I]: the
    same pivots, the pivot parts of the same canonical kernel vectors,
    and an invertible T (not unique when U is singular) with T U equal
    to the reduced rows."""
    rng = random.Random(15)
    cases = [(n, f) for n in range(1, 90) for f in (0, 2, 3, 5, 7)]
    cases += [(n, poly2._mod_int(rng.getrandbits(2 * n), poly2.chebyshev_q(n).value))
              for n in list(range(1, 70)) + [113, 128, 129, 137, 200] for _ in range(4)]
    calls = _rref_calls(monkeypatch)
    singular = 0
    for n, f in cases:
        if chase._inverse_mod(f, poly2.chebyshev_q(n).value) is not None:
            continue
        singular += 1
        chase._axis_echelon.cache_clear()
        calls.clear()
        pivots, t, w = chase._axis_echelon(n, f)
        assert calls == [("_echelon_rows", n)]
        want, rows, _ = _rref_with_identity(poly2._path_poly_rows(n, f), n)
        u = gf2._unpack_words_2d(gf2._ints_to_words(poly2._path_poly_rows(n, f), n), n)
        assert pivots.tolist() == want, (n, f)
        free = np.setdiff1d(np.arange(n), pivots)
        # the pivot parts of the canonical kernel vectors: the free
        # columns of the reduced pivot rows
        kernel = np.zeros((free.size, n), dtype=np.uint8)
        kernel[:, pivots] = rows[:pivots.size, free].T
        # W is kept as n row ints
        assert isinstance(w, tuple) and len(w) == n and all(type(v) is int for v in w)
        wbits = gf2._int_bits(w, n)
        assert np.array_equal(wbits[free], kernel), (n, f)
        assert np.array_equal(wbits[pivots], np.eye(n, dtype=np.uint8)[pivots])
        tbits = gf2._unpack_words_2d(t, n)
        assert np.array_equal(tbits.astype(np.int64) @ u & 1, rows)
        assert gf2.rank(bit_matrix(tbits)) == n
        assert not (pivots.flags.writeable or t.flags.writeable)
    assert singular > 150


@pytest.mark.parametrize("name,dims,axis,ntargets", [
    ("sigma+:box", (2, 159), 1, 2),      # r = 2
    ("sigma+:box", (16, 16), 0, 2),
    ("sigma+:box", (17, 17), 0, 2),
    ("sigma-:box", (4, 2, 9), 2, 2),     # r = 8, along the last axis
    ("sigma-:box", (4, 4, 9), 2, 2),
    ("sigma+:box", (5, 5, 12), 2, 2),    # r = 25
    ("sigma+:boxtimes", (9, 30), 1, 1),  # A = B = I + J_9, so C = I
    ("sigma+:box", (13, 13, 13), 0, 1),  # r = 169, on words
    # C = 0: rows of r + T bits
    ("custom:1,0", (3, 60), 0, 4),
    ("custom:1,0", (3, 60), 0, 5),
    # the one-word gate, r + T = 63, 64, 65 with T = 0, 1, 2, chased
    # along axis 0 and along a later axis, with and without a kernel
    ("sigma+:box", (7, 2, 9), 1, 0),     # r = 63, nullity 2
    ("sigma+:box", (31, 3, 2), 1, 1),    # r = 62, nullity 6
    ("sigma+:box", (2, 61), 0, 2),       # r = 61, nullity 1
    ("sigma+:box", (8, 2, 8), 1, 0),     # r = 64, nullity 16
    ("sigma-:boxtimes", (2, 63), 0, 1),  # r = 63, nullity 0, A = I + J
    ("sigma-:box", (2, 62), 0, 2),       # r = 62, nullity 2
    ("sigma+:box", (5, 2, 13), 1, 0),    # r = 65, nullity 1
    ("sigma-:box", (2, 64), 0, 1),       # r = 64, nullity 0
    ("sigma-:box", (7, 2, 9), 1, 2),     # r = 63, nullity 0
])
def test_a_chase_on_either_side_of_the_int_loop_gives_the_dense_answers(monkeypatch, name, dims,
                                                                       axis, ntargets):
    """A chase whose r unit starts and T targets fit one word (r + T <=
    64) runs on ints from start to finish, any other on packed words;
    the routine that runs gives the dense RREF's answers, and where the
    rows fit one word the routine on words gives the same bytes.  Handed
    the canonical kernel, as a later target is, either routine returns
    it and the same solutions."""
    shape = GridShape(dims)
    g = parse_game(name, shape)
    rng = random.Random(15)
    targets = [BitVector.ones(shape.total)] + [
        BitVector.from_int(shape.total, rng.getrandbits(shape.total)) for _ in range(ntargets - 1)]
    targets = targets[:ntargets]
    c, _ = chase._chase_on(dims, tuple(sorted(g.terms)), axis)
    ran = []
    for path in ("_solve_ints", "_solve_words"):
        def counted(self, ts, kernel, path=path, real=getattr(chase._Chase, path)):
            ran.append((path, len(ts)))
            return real(self, ts, kernel)
        monkeypatch.setattr(chase._Chase, path, counted)
    kernel, sols = c.solve([t.to_int() for t in targets])
    path = "_solve_ints" if c.r + ntargets <= 64 else "_solve_words"
    assert ran == [(path, ntargets)]
    total = shape.total
    xs = [None if s is None else BitVector._of(total, s) for s in sols]
    rank, want_kernel, want_xs, _ = _dense_answers(g, targets)
    assert (total - len(kernel), tuple(kernel), xs) == (rank, want_kernel, want_xs)
    ts = [t.to_int() for t in targets]
    if c.a_inv is not None:
        ts = [chase.apply(dims, (c.a_inv,), t) for t in ts]
    if path == "_solve_ints":
        got = [c._solve_ints(ts, None), c._solve_words(ts, None)]
        assert tuple(got[0][0]) == tuple(got[1][0]) == want_kernel
        assert got[0][1] == got[1][1]
    for later in (c._solve_words, c._solve_ints) if path == "_solve_ints" else (c._solve_words,):
        assert later(ts, want_kernel) == (want_kernel, sols)


_BENCH_BOARDS = [("sigma-:boxtimes", "49x49"), ("sigma+:boxtimes", "50x50"),
                 ("sigma+:box", "13x13x13"), ("sigma-:box", "13x13x13")]


def _forbid_board_builds(monkeypatch, total):
    """Make a dense build of a total x total matrix raise: a Kronecker
    build, or the game's rows, which its words are packed from."""
    real_sum, real_rows = gf2._kron_sum, chase.game_rows

    def guarded_sum(products, rows, cols):
        assert (rows, cols) != (total, total), "the board's dense words were built"
        return real_sum(products, rows, cols)

    def guarded_rows(dims, terms):
        assert math.prod(dims) != total, "the board's dense words were built"
        return real_rows(dims, terms)
    monkeypatch.setattr(gf2, "_kron_sum", guarded_sum)
    monkeypatch.setattr(chase, "game_rows", guarded_rows)


@pytest.mark.parametrize("name,shape", _BENCH_BOARDS)
def test_a_bench_board_is_solved_and_checked_without_its_words(monkeypatch, tmp_path, capsys,
                                                               fresh_matrices, name, shape):
    """solve all-on, central and a random target, check-symmetric and
    --verify: the backend, the witness and certificate checks and the
    verification read the game, never the dense matrix."""
    from sigma_forge import cli
    g = GameSpec.preset(name, parse_shape(shape))
    _forbid_board_builds(monkeypatch, g.shape.total)
    rng = random.Random(11)
    target = tmp_path / "target.txt"
    target.write_text(" ".join(str(rng.getrandbits(1)) for _ in range(g.shape.total)))
    for spec in ("central", f"file:{target}"):
        assert cli.main(["solve", "--shape", shape, "--game", name, "--target", spec]) in (0, 1)
    assert cli.main(["check-symmetric", "--shape", shape, "--game", name]) in (0, 1)
    capsys.readouterr()
    if cli.main(["solve", "--shape", shape, "--game", name, "--target", "all-on"]) == 0:
        witness = tmp_path / "witness.txt"
        witness.write_text(capsys.readouterr().out)
        assert cli.main(["solve", "--shape", shape, "--game", name, "--target", "all-on",
                         "--verify", str(witness)]) == 0
    assert adjacency_matrix(g)._rows is None


@pytest.mark.parametrize("name,dims", [("sigma+:box", (5, 7)), ("sigma-:boxtimes", (50, 50))])
def test_a_dense_board_builds_its_words_and_gives_the_same_answers(fresh_matrices, name, dims):
    """Under 64 cells, or when no axis qualifies, the dense backend
    builds the rows from the game and keeps no words; its answers equal
    those of a plain copy."""
    g = GameSpec.preset(name, GridShape(dims))
    targets = _targets(g.shape, random.Random(12))
    m = adjacency_matrix(g)
    e = gf2.Elimination(m, targets)
    assert m._rows is None
    want = gf2.Elimination(_plain(m), targets)
    assert e.kernel() == want.kernel()
    assert [e.solution(j) for j in range(2)] == [want.solution(j) for j in range(2)]
    assert [e.certificate(j) for j in range(2)] == [want.certificate(j) for j in range(2)]


def _rref_calls(monkeypatch):
    """Record (routine, columns) of every elimination, by Four Russians
    or on int rows, run by gf2 (a dense system) or by the chase module
    (an end system, a canonical form or a singular axis factor)."""
    calls = []
    for module, path in ((gf2, "_rref"), (gf2, "_echelon_rows"), (chase, "_echelon_rows")):
        def counted(words, ncols, path=path, real=getattr(module, path)):
            calls.append((path, ncols))
            return real(words, ncols)
        monkeypatch.setattr(module, path, counted)
    return calls


def _solve_all(g):
    m = adjacency_matrix(g)
    return gf2.solve_with_certificate(m, BitVector.ones(m.rows))


@pytest.mark.parametrize("name,dims", [("sigma+:box", (13, 13, 13)),
                                       ("sigma-:boxtimes", (49, 49))])
def test_a_chased_board_runs_no_rref_as_wide_as_the_board(monkeypatch, fresh_matrices,
                                                          name, dims):
    g = GameSpec.preset(name, GridShape(dims))
    calls = _rref_calls(monkeypatch)
    _solve_all(g)
    assert calls and all(ncols < g.shape.total for _, ncols in calls)


def test_a_product_board_eliminates_only_its_axis_factor(monkeypatch, fresh_matrices):
    """50x50 sigma+:boxtimes: both axes share the singular I + J_50,
    eliminated once on int rows by _axis_echelon; no RREF runs."""
    g = GameSpec.preset("sigma+:boxtimes", GridShape((50, 50)))
    calls = _rref_calls(monkeypatch)
    assert _solve_all(g)[0] is not None
    assert calls == [("_echelon_rows", 50)]


def test_a_small_end_system_runs_on_int_rows(monkeypatch, fresh_matrices):
    """The routine is picked by the size of the system eliminated: the
    49 x 49 end system of a 2,401-cell board runs on Python-int rows,
    whose 49 unit starts and one target fit one word, so the chase
    eliminates it by _echelon_rows itself, with no RREF of packed
    words."""
    g = GameSpec.preset("sigma-:boxtimes", GridShape((49, 49)))
    calls = _rref_calls(monkeypatch)
    _solve_all(g)
    assert calls == [("_echelon_rows", 49)]


def test_a_first_int_chase_solve_runs_its_layer_loop_once(monkeypatch, fresh_matrices):
    """7x11 sigma+:box, chased on ints along axis 1 (A = I): a first
    solve steps each of the 11 layers once, lifts the kernel and the
    solution in one pass and makes the kernel canonical once; a later
    target, handed the kernel stored on m, steps the layers once more,
    lifts only its solution and takes no canonical form."""
    g = GameSpec.preset("sigma+:box", GridShape((7, 11)))
    m = adjacency_matrix(g)
    backend = chase.pick(m)
    assert isinstance(backend, chase._Chase)
    assert (backend.axis, backend.n, backend.a_inv) == (1, 11, None)
    ran = []
    for name in ("_act", "_parities", "_canonical_kernel"):
        def counted(*args, name=name, real=getattr(chase, name)):
            ran.append(name)
            return real(*args)
        monkeypatch.setattr(chase, name, counted)
    first = gf2.Elimination(m, [BitVector.ones(m.cols)])
    assert ran == ["_act"] * 11 + ["_parities", "_canonical_kernel"]
    assert len(m._kernel) == 7
    image = m.mul_vec(BitVector.from_int(m.cols, 12345))
    ran.clear()
    later = gf2.Elimination(m, [image])
    assert ran == ["_act"] * 11 + ["_parities"]
    plain = _plain(m)
    for e in (first, later):
        assert e.kernel() == gf2.Elimination(plain).kernel()
        assert e.solution() == gf2.Elimination(plain, e.targets).solution()


@pytest.mark.parametrize("name,dims", [("sigma-:boxtimes", (50, 50)),
                                       ("sigma-:boxtimes", (5, 5, 9))])
def test_a_board_no_axis_qualifies_for_runs_the_dense_rref(monkeypatch, fresh_matrices,
                                                           name, dims):
    g = GameSpec.preset(name, GridShape(dims))
    calls = _rref_calls(monkeypatch)
    _solve_all(g)
    assert calls == [("_rref", g.shape.total)]


def test_the_backend_choice_is_logged_at_debug(caplog, fresh_matrices):
    boards = [("sigma+:box", (13, 13, 13), "chase of 13x13x13 along axis 0: r = 169"),
              ("sigma-:box", (10, 15), "chase of 10x15 along axis 1: r = 10"),
              ("sigma+:boxtimes", (50, 50), "product of 50x50: axis ranks 49, 49"),
              ("sigma-:boxtimes", (50, 50), "dense elimination of 50x50: A is singular"),
              ("sigma+:box", (4, 6), "dense elimination of 4x6: 24 cells")]
    for name, dims, line in boards:
        m = adjacency_matrix(GameSpec.preset(name, GridShape(dims)))
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="sigma_forge.chase"):
            gf2.Elimination(m)
        lines = [r.getMessage() for r in caplog.records]
        assert len(lines) == 1 and lines[0].startswith(line), lines
    # other matrices log nothing
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="sigma_forge.chase"):
        gf2.Elimination(BitMatrix.identity(200))
    assert not caplog.records


def test_the_cli_prints_no_backend_line_by_default(capsys):
    from sigma_forge import cli
    assert cli.main(["solve", "--shape", "8x9", "--game", "sigma+:box", "--target", "all-on"]) == 0
    out, err = capsys.readouterr()
    assert err == "" and len(out.split()) == 72


def _custom_u(d):
    return [frozenset({(1,) * d, (2,) + (0,) * (d - 1)}),
            frozenset({(3,) * d, (0,) * d, (0, 1) * (d // 2) + (1,) * (d % 2)})]


def test_u_element_equals_the_sum_of_its_monomials():
    for d in (1, 2, 3):
        for dims in itertools.product(range(1, 49), repeat=d):
            if np.prod(dims) > 48:
                continue
            shape = GridShape(dims)
            qs = quotient_shape(shape)
            games = [GameSpec.preset(name, shape) for name in PRESET_NAMES]
            games += [GameSpec(shape, terms) for terms in _custom_u(d)]
            for g in games:
                want = TensorElement.zero(qs)
                for term in sorted(g.terms):
                    want = want + TensorElement.monomial(qs, term)
                got = u_element(g)
                assert got.shape == qs and got.coeffs.to_int() == want.coeffs.to_int()


_EXPONENTS = (0, 1, 2, 3, 5, 10 ** 7)
_BACKENDS = ("dense under the gate", "dense", "product", "chase on ints", "chase on words")


def _backend_of(m, ntargets):
    """Which of :data:`_BACKENDS` :func:`.chase.pick` takes for m."""
    backend = chase.pick(m)
    if backend is None:
        return "dense under the gate" if m.cols < chase._MIN_CELLS else "dense"
    if isinstance(backend, chase._Product):
        return "product"
    return "chase on ints" if backend.r + ntargets <= 64 else "chase on words"


@st.composite
def random_games(draw):
    """(dims, terms) of a random custom game: d = 1-4 axes, some of
    length 1, at most 600 cells, 1-5 terms with exponents from
    :data:`_EXPONENTS`.  Each draw is shaped toward one backend, as an
    unshaped draw rarely reaches the chase on words; the axes are then
    permuted, so that a chase runs along any axis."""
    kind = draw(st.sampled_from(_BACKENDS))
    exps, high = st.sampled_from(_EXPONENTS), st.sampled_from(_EXPONENTS[2:])
    d = draw(st.integers(2 if kind in ("product", "chase on words") else 1, 4))
    if kind == "dense under the gate":
        dims = [draw(st.integers(1, 63))] + [draw(st.integers(1, 3)) for _ in range(d - 1)]
        dims[0] = max(1, min(dims[0], 63 // math.prod(dims[1:])))
    elif kind == "chase on words":
        # a short chased axis 0 (A = I) across layers of 62 cells or more;
        # one term with exponent 2 or more on every other axis
        n = draw(st.integers(2, 9))
        extra = [draw(st.integers(1, 2)) for _ in range(d - 2)]
        m = math.prod(extra)
        dims = [n, draw(st.integers(-(-62 // m), 600 // n // m))] + extra
    else:
        # 64-600 cells: layers of at most 61 cells across axis 0
        top = {1: 1, 2: 30, 3: 7, 4: 3}[d]
        others = [draw(st.integers(1, top)) for _ in range(d - 1)]
        r = math.prod(others)
        dims = [draw(st.integers(max(2, -(-64 // r)), 600 // r))] + others
    if kind == "product":
        twos = draw(st.integers(0, 2))
        sizes = draw(st.permutations([2] * twos + [1] * (d - twos)))
        sets = [draw(st.lists(exps, min_size=k, max_size=k, unique=True)) for k in sizes]
        terms = set(itertools.product(*sets))
    else:
        rest = draw(st.lists(st.tuples(*[exps] * d), min_size=0, max_size=4))
        if kind == "chase on ints":
            # A a monomial, mostly I, and B a monomial off A's, so that
            # the two are not a product game
            first = (1,) + draw(st.tuples(*[st.sampled_from((0, 0, 1))] * (d - 1)))
            b = draw(st.tuples(*[exps] * (d - 1)).filter(lambda b: d == 1 or b != first[1:]))
            rest = [(0,) + b] + [(int(t[0] == 1),) + t[1:] for t in rest[:3]]
        elif kind == "chase on words":
            first = (1,) + (0,) * (d - 1)
            rest = [(0,) + draw(st.tuples(*[high] * (d - 1)))] + \
                [(int(t[0] == 1),) + t[1:] for t in rest[:3]]
        elif kind == "dense":
            first = draw(st.tuples(*[high] * d))
        else:
            first = draw(st.tuples(*[exps] * d))
        terms = {first, *rest}
    perm = draw(st.permutations(range(d)))
    return (tuple(dims[i] for i in perm),
            frozenset(tuple(t[i] for i in perm) for t in terms))


def test_random_games_give_the_dense_answers_on_every_backend(monkeypatch):
    """Random custom games: every backend the pick takes gives the
    kernel and solution ints of a fresh dense elimination, for all-on,
    a random target and the image of a random vector, and every answer
    passes the witness and certificate checks of
    :func:`.solver.achievable`.  The same targets solved one after
    another on the cached matrix, each later one handed the kernel the
    first stored, give the same bytes, and a later target on a product
    eliminates nothing.  Each of the five backends is reached: the
    examples are derandomized, so every run draws the same ones."""
    reached = {name: 0 for name in _BACKENDS}
    later_products = []
    calls = _rref_calls(monkeypatch)

    # 400 examples of at most 600 cells: about 3 s, budget 60 s
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(random_games(), st.randoms(use_true_random=False))
    def check(game, rng):
        dims, terms = game
        adjacency_matrix.cache_clear()
        g = GameSpec(GridShape(dims), terms)
        m = adjacency_matrix(g)
        total = m.cols
        image = m.mul_vec(BitVector.from_int(total, rng.getrandbits(total)))
        targets = [BitVector.ones(total), BitVector.from_int(total, rng.getrandbits(total)), image]
        ts = [t.to_int() for t in targets]
        backend = _backend_of(m, len(ts))
        reached[backend] += 1
        kernel, sols = (chase.pick(m) or gf2._Dense(m)).solve(ts)
        want_kernel, want_sols = gf2._Dense(_plain(m)).solve(ts)
        where = f"{sorted(terms)} on {dims}, {backend}"
        # one format between layers: every answer is a Python int
        assert all(type(x) is int for x in [*kernel, *sols] if x is not None), where
        assert kernel == want_kernel and sols == want_sols, where
        for j, t in enumerate(targets):
            assert (m._kernel is None) == (j == 0), (where, j)
            calls.clear()
            e = gf2.Elimination(m, [t])
            assert (e.kernel(), e._solutions) == (tuple(want_kernel), [want_sols[j]]), (where, j)
            if j and backend == "product":
                assert calls == [], (where, j)
                later_products.append(where)
        reports = [solver.achievable(g, t) for t in targets]
        assert [r.achievable for r in reports] == [x is not None for x in sols], where
        assert reports[2].achievable, where

    try:
        check()
    finally:
        adjacency_matrix.cache_clear()
    assert all(reached.values()), reached
    assert later_products
