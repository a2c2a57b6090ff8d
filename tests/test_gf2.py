"""Tests for the bit-packed GF(2) linear algebra kernels.

Expected values for the nontrivial cases were regenerated from the
independent oracles below (dense arithmetic on plain int lists and
exhaustive enumeration), which never touch the packed representation.
"""
import contextlib
import functools
import itertools
import math
import random
import unittest.mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sigma_forge import gf2
from sigma_forge.game import PRESET_NAMES, GameSpec, GridShape, adjacency_matrix
from sigma_forge.gf2 import BitMatrix, BitVector

from helpers import bit_matrix

J2 = bit_matrix([[0, 1], [1, 0]], symmetric=True)
J3 = bit_matrix([[0, 1, 0], [1, 0, 1], [0, 1, 0]], symmetric=True)


# ---------------------------------------------------------------------
# independent oracles (dense, unpacked)
# ---------------------------------------------------------------------

def dense_mat_vec(rows, x):
    return [sum(a * b for a, b in zip(r, x)) % 2 for r in rows]


def dense(m: BitMatrix):
    return [list(m.row(i).to_bits()) for i in range(m.rows)]


def oracle_image(m: BitMatrix):
    """Every element of the column space, by enumerating all inputs."""
    rows = dense(m)
    return {tuple(dense_mat_vec(rows, x))
            for x in itertools.product((0, 1), repeat=m.cols)}


def oracle_rank(m: BitMatrix):
    """log2 of the row-span size."""
    rows = dense(m)
    span = {tuple(dense_mat_vec(list(zip(*rows)), sel))
            for sel in itertools.product((0, 1), repeat=m.rows)}
    size = len(span)
    return size.bit_length() - 1


def _reference_rref(words, ncols):
    """Per-column RREF, the reference for the blocked ``gf2._rref``: for
    each column the first row at or below the current row with the bit
    set is swapped up and XORed into every other row with the bit set."""
    nrows = words.shape[0]
    row = 0
    pivots = []
    for col in range(ncols):
        if row == nrows:
            break
        w = col >> 6
        mask = np.uint64(1) << np.uint64(col & 63)
        cand = (words[:, w] & mask).nonzero()[0]
        pos = int(cand.searchsorted(row))
        if pos == cand.size:
            continue
        p = int(cand[pos])
        if p != row:
            words[[row, p]] = words[[p, row]]
        flips = cand[cand != p]
        if flips.size:
            words[flips] ^= words[row]
        pivots.append(col)
        row += 1
    return pivots


def fresh(m: BitMatrix) -> BitMatrix:
    """An equal matrix with no kernel stored on it yet."""
    return BitMatrix(m.rows, m.cols, m._words, symmetric=m.symmetric)


def vector_int(v):
    return None if v is None else (v.n, v.to_int())


def random_bit_matrix(rng, rows, cols, symmetric=False):
    if symmetric:
        bits = [[0] * cols for _ in range(rows)]
        for i in range(rows):
            for j in range(i, cols):
                bits[i][j] = bits[j][i] = rng.randrange(2)
        return bit_matrix(bits, symmetric=True)
    return bit_matrix([[rng.randrange(2) for _ in range(cols)]
                       for _ in range(rows)])


# ---------------------------------------------------------------------
# BitVector basics
# ---------------------------------------------------------------------

def test_vector_round_trips():
    v = BitVector.from_bits([1, 0, 1, 1, 0, 0, 1])
    assert v.to_bits() == (1, 0, 1, 1, 0, 0, 1)
    assert v.to_int() == 0b1001101
    assert BitVector.from_int(7, v.to_int()) == v
    assert v.weight() == 4
    assert v[0] == 1 and v[1] == 0
    assert len(v) == 7


def test_vector_addition_is_xor_and_involutive():
    a = BitVector.from_bits([1, 1, 0, 1])
    b = BitVector.from_bits([0, 1, 1, 1])
    assert (a ^ b).to_bits() == (1, 0, 1, 0)
    assert (a ^ a).is_zero()


def test_vector_padding_stays_zero():
    # 65 bits forces a second word; ops must not leak into padding
    v = BitVector.ones(65)
    w = v ^ BitVector.from_int(65, 1 << 64)
    assert w.to_int() < 1 << 65
    assert w.weight() == 64
    assert BitVector.from_int(65, (1 << 70) - 1) == v


def test_vector_from_int_refuses_a_negative_value():
    with pytest.raises(ValueError, match="negative"):
        BitVector.from_int(3, -1)


def test_vector_from_bits_refuses_entries_other_than_0_and_1():
    for bits in ([2, 3, -1, 0], [0, 1, 2], [-1], [0, 1, 1 << 64], ["1"]):
        with pytest.raises(ValueError, match="not 0 or 1"):
            BitVector.from_bits(bits)
    assert BitVector.from_bits([True, False, np.uint8(1), 0]) == BitVector.from_int(4, 0b101)
    assert BitVector.from_bits(np.array([0, 1, 1], dtype=np.int64)).to_bits() == (0, 1, 1)
    assert BitVector.from_bits([]) == BitVector.zeros(0)


def test_vector_dot():
    a = BitVector.from_bits([1, 0, 1])
    assert a.dot(BitVector.from_bits([1, 0, 1])) == 0
    assert a.dot(BitVector.from_bits([1, 1, 0])) == 1
    with pytest.raises(ValueError):
        a.dot(BitVector.from_bits([1, 0]))


def test_matrix_symmetric_flag_is_checked():
    with pytest.raises(ValueError):
        bit_matrix([[0, 1], [0, 0]], symmetric=True)
    with pytest.raises(ValueError):
        BitMatrix(2, 2, bit_matrix([[0, 1], [0, 0]])._words, symmetric=True)
    with pytest.raises(ValueError):
        BitMatrix.from_row_ints(2, 2, [0b10, 0b00], symmetric=True)
    with pytest.raises(ValueError):
        BitMatrix.zeros(2, 3, symmetric=True)
    assert BitMatrix.zeros(3, 3, symmetric=True).symmetric


def test_constructors_reject_malformed_words():
    # the same bits with and without a padding bit would compare unequal
    with pytest.raises(ValueError, match="past bit 2"):
        BitVector(3, np.array([0b1111], dtype=np.uint64))
    assert BitVector(3, np.array([0b111], dtype=np.uint64)).weight() == 3
    for bad in ([0b111], np.array([0b111], dtype=np.int64), np.array([7], dtype=">u8")):
        with pytest.raises(TypeError):
            BitVector(3, bad)
    with pytest.raises(ValueError, match="shape"):
        BitVector(3, np.zeros(2, dtype=np.uint64))
    with pytest.raises(ValueError, match="shape"):
        BitMatrix(2, 3, np.zeros(2, dtype=np.uint64))
    with pytest.raises(ValueError, match="past bit 64"):
        BitMatrix(1, 65, np.array([[0, 2]], dtype=np.uint64))


def test_row_ints_outside_the_columns_are_rejected():
    # a bit at or above cols, on both sides of one word, and a negative
    # int, whose bits run on forever
    for rows, cols, ints in ((2, 2, [0b111, 0b1]), (1, 2, [-1]), (1, 65, [1 << 65]),
                             (1, 0, [1])):
        with pytest.raises(ValueError, match=rf"row int {ints[0]} is outside"):
            BitMatrix.from_row_ints(rows, cols, ints)
    assert BitMatrix.from_row_ints(2, 2, [0b11, 0b1]).row_ints() == [3, 1]


@st.composite
def word_arrays(draw, max_rows=4, max_cols=150):
    """(rows, cols, words) with words of the right shape, padding bits
    past cols set in some draws; rows is None for a vector."""
    rows = draw(st.one_of(st.none(), st.integers(0, max_rows)))
    cols = draw(st.integers(0, max_cols))
    shape = ((rows,) if rows is not None else ()) + (gf2._nwords(cols),)
    flat = draw(st.lists(st.integers(0, (1 << 64) - 1),
                         min_size=int(np.prod(shape)), max_size=int(np.prod(shape))))
    words = np.array(flat, dtype=np.uint64).reshape(shape)
    if draw(st.booleans()) and cols & 63:
        words[..., -1] &= np.uint64((1 << (cols & 63)) - 1)  # clean padding
    return rows, cols, words


@given(word_arrays())
def test_public_constructors_check_and_copy_words(drawn):
    rows, cols, words = drawn
    ints = [int.from_bytes(w.tobytes(), "little")
            for w in (words[None, :] if rows is None else words)]
    padded = any(v >> cols for v in ints)
    build = ((lambda w: BitVector(cols, w)) if rows is None
             else (lambda w: BitMatrix(rows, cols, w)))
    if padded:
        with pytest.raises(ValueError, match="past bit"):
            build(words)
        return
    built = build(words)
    expect = (BitVector.from_int(cols, ints[0]) if rows is None
              else BitMatrix.from_row_ints(rows, cols, ints))
    assert built == expect and hash(built) == hash(expect)
    if rows is None:
        assert built.weight() == ints[0].bit_count()
    else:
        kernel = gf2.kernel_basis(built)
    # the caller's array stays writable and changing it leaves the
    # value, and a kernel stored on it, as they were
    words ^= np.uint64(1)
    assert built == expect
    if rows is not None:
        assert gf2.kernel_basis(built) == kernel == gf2.kernel_basis(expect)


def test_int_rows_and_words_convert_on_both_sides_of_one_word():
    """Rows of at most 64 bits go through numpy's int conversion, wider
    ones through bytes; both agree with each int cut into 64-bit words,
    give read-only words and round-trip, at 63, 64 and 65 bits."""
    rng = random.Random(64)
    for n in (0, 1, 63, 64, 65, 128, 129):
        for count in (0, 1, 5):
            ints = [rng.getrandbits(n) if n else 0 for _ in range(count)]
            if n and count:
                ints[0] = (1 << n) - 1  # the top bit set
            words = gf2._ints_to_words(ints, n)
            nw = gf2._nwords(n)
            want = np.array([[v >> 64 * w & (1 << 64) - 1 for w in range(nw)] for v in ints],
                            dtype=np.uint64).reshape(count, nw)
            assert words.dtype == np.uint64 and words.shape == want.shape
            assert np.array_equal(words, want) and not words.flags.writeable
            assert gf2._words_to_ints(words) == ints
            assert all(type(v) is int for v in gf2._words_to_ints(words))


# ---------------------------------------------------------------------
# rank
# ---------------------------------------------------------------------

def test_rank_identity():
    assert gf2.rank(BitMatrix.identity(2)) == 2


def test_rank_permutation():
    assert gf2.rank(J2) == 2


def test_rank_path3():
    # oracle: the row span of J3 has 4 elements
    assert oracle_rank(J3) == 2
    assert gf2.rank(J3) == 2


# ---------------------------------------------------------------------
# kernel_basis
# ---------------------------------------------------------------------

def test_kernel_identity_is_trivial():
    assert gf2.kernel_basis(BitMatrix.identity(4)) == []


def test_kernel_zero_matrix_is_everything():
    basis = gf2.kernel_basis(BitMatrix.zeros(3, 3))
    assert basis == [BitVector.from_int(3, 1 << i) for i in range(3)]


def test_kernel_path3():
    basis = gf2.kernel_basis(J3)
    assert basis == [BitVector.from_bits([1, 0, 1])]
    assert J3.mul_vec(basis[0]).is_zero()


# ---------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------

def test_solve_identity():
    b = BitVector.from_bits([1, 0, 1, 1])
    assert gf2.solve(BitMatrix.identity(4), b) == b


def test_solve_swap():
    assert gf2.solve(J2, BitVector.from_bits([1, 0])) == BitVector.from_bits([0, 1])


def test_solve_infeasible_path3():
    # oracle: none of the 8 inputs maps to (1,0,0)
    assert (1, 0, 0) not in oracle_image(J3)
    assert gf2.solve(J3, BitVector.from_bits([1, 0, 0])) is None


def test_solve_dimension_mismatch():
    with pytest.raises(ValueError):
        gf2.solve(J3, BitVector.from_bits([1, 0]))


def test_solve_with_certificate_needs_symmetric_matrix():
    # symmetric: Im m = (Ker m)^perp, so an infeasible target gets a
    # kernel vector not orthogonal to it
    b = BitVector.from_bits([1, 0, 0])
    x, k = gf2.solve_with_certificate(J3, b)
    assert x is None and J3.mul_vec(k).is_zero() and k.dot(b) == 1
    # non-symmetric and non-square: a kernel vector has the wrong length
    # to certify anything, and none is returned
    m = bit_matrix([[1, 0, 0], [1, 0, 0]])
    assert gf2.solve_with_certificate(m, BitVector.from_bits([1, 0])) == (None, None)


# ---------------------------------------------------------------------
# image membership
# ---------------------------------------------------------------------

def test_in_image_zero_vector():
    for m in (J2, J3, BitMatrix.zeros(3, 3)):
        assert gf2.in_image_many(m, [BitVector.zeros(m.rows)]) == [True]


def test_in_image_path3_members():
    assert J3.mul_vec(BitVector.from_bits([0, 1, 0])) == BitVector.from_bits([1, 0, 1])
    assert gf2.in_image_many(J3, [BitVector.from_bits([1, 0, 1])]) == [True]


def test_in_image_path3_all_on():
    # regenerated from the exhaustive oracle: the image of J3 is
    # {000, 010, 101, 111}, so the all-on configuration IS reachable
    assert oracle_image(J3) == {(0, 0, 0), (0, 1, 0), (1, 0, 1), (1, 1, 1)}
    assert gf2.in_image_many(J3, [BitVector.from_bits([1, 1, 1])]) == [True]


# ---------------------------------------------------------------------
# kronecker
# ---------------------------------------------------------------------

def kron(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    """a (x) b from the one Kronecker builder, :func:`gf2._kron_sum`."""
    return gf2._kron_sum([((a.cols, a.row_ints()), (b.cols, b.row_ints()))],
                         a.rows * b.rows, a.cols * b.cols)


def test_kron_identity_factor():
    got = kron(BitMatrix.identity(2), J2)
    expect = bit_matrix([
        [0, 1, 0, 0],
        [1, 0, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
    ])
    assert got == expect


def test_kron_j2_j2():
    got = kron(J2, J2)
    expect = bit_matrix([
        [0, 0, 0, 1],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [1, 0, 0, 0],
    ])
    assert got == expect


def test_kron_unit_factor():
    one = BitMatrix.identity(1)
    assert kron(J3, one) == J3
    assert kron(one, J3) == J3


def test_kron_definition_entrywise():
    rng = random.Random(7)
    a = random_bit_matrix(rng, 3, 4)
    b = random_bit_matrix(rng, 2, 5)
    k = kron(a, b)
    for i, j, r, c in itertools.product(range(3), range(4), range(2), range(5)):
        assert k.get(i * 2 + r, j * 5 + c) == a.get(i, j) * b.get(r, c)


def test_kron_associative():
    rng = random.Random(11)
    a = random_bit_matrix(rng, 2, 3)
    b = random_bit_matrix(rng, 3, 2)
    c = random_bit_matrix(rng, 2, 2)
    assert kron(kron(a, b), c) == kron(a, kron(b, c))


def test_kron_sum_is_xor_of_kronecker_products():
    rng = random.Random(13)
    a, b, c, e = (random_bit_matrix(rng, r, k) for r, k in ((2, 3), (3, 2), (2, 3), (3, 2)))
    got = gf2._kron_sum([((3, a.row_ints()), (2, b.row_ints())),
                         ((3, c.row_ints()), (2, e.row_ints()))], 6, 6)
    want = (np.kron(a.to_bit_array(), b.to_bit_array())
            ^ np.kron(c.to_bit_array(), e.to_bit_array()))
    assert np.array_equal(got.to_bit_array(), want)
    assert gf2._kron_sum([], 6, 4) == BitMatrix.zeros(6, 4)
    assert gf2._kron_sum([((3, a.row_ints()),)], 2, 3) == a
    assert gf2._kron_sum([((3, a.row_ints()),), ((3, c.row_ints()),)], 2, 3) == a ^ c


@st.composite
def kron_sums(draw):
    """Axis shapes (rows, width), 1 to 4 axes of width 1 to 9, each
    square or shaped like the fold map S ((width + 1) // 2 rows), and 0
    to 3 products of random factors (row ints) of those shapes."""
    widths = draw(st.lists(st.integers(1, 9), min_size=1, max_size=4))
    shapes = [(draw(st.sampled_from((n, (n + 1) // 2))), n) for n in widths]
    factor = [st.lists(st.integers(0, (1 << n) - 1), min_size=r, max_size=r) for r, n in shapes]
    return shapes, draw(st.lists(st.tuples(*factor), max_size=3))


def dense_factor(width, rows):
    return np.array([[v >> j & 1 for j in range(width)] for v in rows], dtype=np.uint8)


@settings(deadline=None)
@given(kron_sums())
def test_kron_sum_and_kron_vec_equal_numpy_kron(case):
    shapes, products = case
    rows, cols = math.prod(r for r, _ in shapes), math.prod(n for _, n in shapes)
    want = np.zeros((rows, cols), dtype=np.uint8)
    for factors in products:
        dense = [dense_factor(n, f) for (_, n), f in zip(shapes, factors)]
        want ^= functools.reduce(np.kron, dense)
    got = gf2._kron_sum([[(n, f) for (_, n), f in zip(shapes, factors)] for factors in products],
                        rows, cols)
    assert (got.rows, got.cols) == (rows, cols)
    assert np.array_equal(got.to_bit_array(), want)
    for factors in products:
        vec = [(n, f[-1]) for (_, n), f in zip(shapes, factors)]
        want_vec = functools.reduce(np.kron, [dense_factor(n, [v])[0] for n, v in vec])
        assert np.array_equal(BitVector.from_int(cols, gf2._kron_vec(vec)).to_array(), want_vec)


def test_dense_build_over_the_limit_fails_before_allocating(monkeypatch):
    side = 1 << 15  # 32,768 cells: exactly DENSE_MAX_BYTES
    assert side * side == gf2.DENSE_MAX_BYTES

    def no_allocation(*args, **kwargs):
        raise AssertionError("allocated before the size check")

    monkeypatch.setattr(gf2.np, "zeros", no_allocation)
    for rows, cols in ((side, side + 1), (side + 1, side), (40_000, 40_000)):
        with pytest.raises(ValueError, match=f"{rows}x{cols}.*1,073,741,824"):
            gf2._kron_sum([], rows, cols)


# ---------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------

@st.composite
def bit_matrices(draw, max_rows=8, max_cols=8):
    r = draw(st.integers(1, max_rows))
    c = draw(st.integers(1, max_cols))
    ints = draw(st.lists(st.integers(0, (1 << c) - 1), min_size=r, max_size=r))
    return BitMatrix.from_row_ints(r, c, ints)


@given(bit_matrices())
def test_rank_nullity(m):
    assert gf2.rank(m) + len(gf2.kernel_basis(m)) == m.cols


@given(bit_matrices(), st.integers(0, (1 << 8) - 1))
def test_solve_is_exact(m, tbits):
    b = BitVector.from_int(m.rows, tbits)
    x = gf2.solve(m, b)
    if x is not None:
        assert m.mul_vec(x) == b
    else:
        assert tuple(b.to_bits()) not in oracle_image(m)


@given(bit_matrices())
def test_kernel_vectors_annihilate(m):
    for k in gf2.kernel_basis(m):
        assert m.mul_vec(k).is_zero()


def orthogonal_to_kernel(m: BitMatrix, b: BitVector) -> bool:
    return all(k.dot(b) == 0 for k in gf2.kernel_basis(m))


def test_binary_farkas_random_symmetric():
    # orthogonality decision == solvability, symmetric matrices to 20x20
    rng = random.Random(2024)
    for n in range(1, 21):
        m = random_bit_matrix(rng, n, n, symmetric=True)
        for _ in range(8):
            b = BitVector.from_int(n, rng.getrandbits(n))
            by_orth = orthogonal_to_kernel(m, b)
            assert by_orth == (gf2.solve(m, b) is not None)


def test_binary_farkas_exhaustive_small():
    # against full enumeration up to 12 columns
    rng = random.Random(5)
    for n in (2, 4, 7, 10, 12):
        m = random_bit_matrix(rng, n, n, symmetric=True)
        image = oracle_image(m)
        for _ in range(20):
            b = BitVector.from_int(n, rng.getrandbits(n))
            assert orthogonal_to_kernel(m, b) == (b.to_bits() in image)


def test_in_image_many_matches_in_image():
    rng = random.Random(31)
    for _ in range(20):
        r = rng.randrange(1, 10)
        c = rng.randrange(1, 10)
        m = random_bit_matrix(rng, r, c)
        targets = [BitVector.from_int(r, rng.getrandbits(r)) for _ in range(7)]
        many = gf2.in_image_many(m, targets)
        assert many == [gf2.solve(m, t) is not None for t in targets]


def test_elimination_is_deterministic():
    rng = random.Random(17)
    m = random_bit_matrix(rng, 15, 15, symmetric=True)
    b = BitVector.from_int(15, rng.getrandbits(15))
    first = gf2.solve(m, b)
    for _ in range(3):
        assert gf2.solve(m, b) == first
    assert gf2.kernel_basis(m) == gf2.kernel_basis(m)


def _parity_rows(rows, x):
    """m x as an int, for m given by its int rows."""
    return sum(((r & x).bit_count() & 1) << i for i, r in enumerate(rows))


def _int_rank(rows):
    """The rank of int rows, each reduced by the rows kept so far by its
    highest set bit."""
    kept = {}
    for v in rows:
        while v and v.bit_length() in kept:
            v ^= kept[v.bit_length()]
        if v:
            kept[v.bit_length()] = v
    return len(kept)


@st.composite
def augmented_systems(draw):
    """(int rows, cols, target ints) of 1-128 rows and columns: a random
    matrix or a product through 1-128 inner columns (rank deficient
    when that is fewer), with 0-3 targets, each random (often outside
    the image) or the image of a random vector."""
    nrows, cols = draw(st.integers(1, 128)), draw(st.integers(1, 128))
    if draw(st.booleans()):
        rows = draw(st.lists(st.integers(0, (1 << cols) - 1), min_size=nrows, max_size=nrows))
    else:
        inner = draw(st.integers(1, 128))
        b = draw(st.lists(st.integers(0, (1 << cols) - 1), min_size=inner, max_size=inner))
        a = draw(st.lists(st.integers(0, (1 << inner) - 1), min_size=nrows, max_size=nrows))
        rows = [functools.reduce(int.__xor__, (b[k] for k in range(inner) if v >> k & 1), 0)
                for v in a]
    targets = []
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            targets.append(draw(st.integers(0, (1 << nrows) - 1)))
        else:
            targets.append(_parity_rows(rows, draw(st.integers(0, (1 << cols) - 1))))
    return rows, cols, targets


def _straddling_system(cols):
    """(rows, cols, three targets): a vanishing row, a target outside the
    image, one inside and a third; with cols = 63 or 127 the target bits
    cols .. cols + 2 straddle a word boundary."""
    top = 0b1011 << (cols - 4)
    rows = [top, (1 << cols) - 1, 1 << (cols - 1), top, 0b101]
    return rows, cols, [0b00001, 0b01001, 0b10110]


@settings(deadline=None)
@example(_straddling_system(63))
@example(_straddling_system(64))
@example(_straddling_system(127))
@given(augmented_systems())
def test_int_and_words_readers_agree(system):
    """The int-row reader and the words reader give the same answers,
    bit for bit: the kernel, and each target's solution or None."""
    rows, cols, targets = system
    # target j at bit cols + j of the rows it has
    tagged = [r | sum((t >> i & 1) << (cols + j) for j, t in enumerate(targets))
              for i, r in enumerate(rows)]
    kernel, solutions = gf2._solve_rows(tagged, cols, len(targets))
    # the words reader on the same system, with no int-row elimination
    # to fall back on
    with unittest.mock.patch.object(gf2, "_INT_PATH_MAX", 0), \
            unittest.mock.patch.object(gf2, "_echelon_rows", None):
        want_kernel, want_solutions = gf2._solve_rows(tagged, cols, len(targets))
    assert kernel == want_kernel
    assert solutions == want_solutions
    rank = _int_rank(rows)
    assert len(kernel) == cols - rank
    assert all(_parity_rows(rows, k) == 0 for k in kernel)
    for t, x in zip(targets, solutions):
        # t is outside the image iff appending it as a column adds to the rank
        augmented = [r | (t >> i & 1) << cols for i, r in enumerate(rows)]
        assert (x is None) == (_int_rank(augmented) > rank)
        assert x is None or _parity_rows(rows, x) == t


def test_stored_kernel_answers_match_a_fresh_elimination():
    # every preset on boards on both sides of the int-path cutoff, with
    # targets inside and outside the image
    rng = random.Random(128)
    seen = set()
    for name in PRESET_NAMES:
        for dims in ((3, 5, 7), (9, 14), (11, 13), (15, 15)):
            m = fresh(adjacency_matrix(GameSpec.preset(name, GridShape(dims))))
            n = m.cols
            targets = [BitVector.ones(n)]
            targets += [BitVector.from_int(n, rng.getrandbits(n)) for _ in range(4)]
            targets += [m.mul_vec(BitVector.from_int(n, rng.getrandbits(n))) for _ in range(3)]
            cold = [[vector_int(v) for v in gf2.solve_with_certificate(fresh(m), t)]
                    for t in targets]
            cold_rank = gf2.rank(fresh(m))
            cold_kernel = [vector_int(k) for k in gf2.kernel_basis(fresh(m))]
            assert m._kernel is None
            warm_kernel = [vector_int(k) for k in gf2.kernel_basis(m)]
            assert m._kernel is not None
            warm = [[vector_int(v) for v in gf2.solve_with_certificate(m, t)]
                    for t in targets]
            assert (warm, gf2.rank(m), warm_kernel) == (cold, cold_rank, cold_kernel)
            seen |= {(n > gf2._INT_PATH_MAX, x is not None) for x, _ in warm}
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


def test_kernel_basis_returns_a_new_list():
    m = fresh(J3)
    first = gf2.kernel_basis(m)
    first.append(BitVector.zeros(3))
    second = gf2.kernel_basis(m)
    assert second == [BitVector.from_bits([1, 0, 1])] and second is not first


def _augmented(rng, bits, ntargets):
    """Words of [bits | t_1 ... t_k] laid out as ``Elimination`` lays
    them out, with k random target columns."""
    tbits = rng.integers(0, 2, (bits.shape[0], ntargets), dtype=np.uint8)
    return np.hstack([gf2._pack_rows(bits), gf2._pack_rows(tbits)])


def _blocked_rref_cases():
    """(words, ncols) pairs with 0, 1 and 65 targets (65 spans two words)."""
    rng = np.random.default_rng(2197)
    counts = itertools.cycle((0, 1, 65))
    # every preset on boards crossing byte and word boundaries, and one
    # board of 2,197 cells with nullity 37
    shapes = [(3, 43), (8, 17), (13, 13), (4, 6, 8), (7, 7, 7), (20, 20)]
    boards = [(name, dims, next(counts)) for name in PRESET_NAMES for dims in shapes]
    boards.append(("sigma-:box", (13, 13, 13), 65))
    for name, dims, k in boards:
        m = adjacency_matrix(GameSpec.preset(name, GridShape(dims)))
        yield _augmented(rng, m.to_bit_array(), k), m.cols
    for _ in range(12):
        # non-square, rank-deficient, ncols % 8 != 0
        r, c = int(rng.integers(1, 300)), 8 * int(rng.integers(0, 37)) + int(rng.integers(1, 8))
        inner = int(rng.integers(1, min(r, c) + 1))
        bits = (rng.integers(0, 2, (r, inner)) @ rng.integers(0, 2, (inner, c))) % 2
        for k in (0, 1, 65):
            yield _augmented(rng, bits.astype(np.uint8), k), c
    for k in (0, 1, 65):
        # all-zero column blocks, inside and at the start of a word
        bits = rng.integers(0, 2, (150, 141), dtype=np.uint8)
        bits[:, 8:16] = 0
        bits[:, 64:80] = 0
        bits[:, 130:] = 0
        yield _augmented(rng, bits, k), 141
    yield _augmented(rng, np.zeros((20, 30), dtype=np.uint8), 65), 30


def test_diagonal_matches_dense_diagonal():
    rng = np.random.default_rng(17)
    for rows, cols in [(1, 1), (3, 5), (5, 3), (70, 130), (130, 70), (200, 67), (65, 199)]:
        assert cols % 64 != 0
        bits = rng.integers(0, 2, size=(rows, cols), dtype=np.uint8)
        m = bit_matrix(bits.tolist(), cols=cols)
        d = m.diagonal()
        assert d.n == min(rows, cols)
        assert d.to_bits() == tuple(np.diagonal(m.to_bit_array()).tolist())


def test_blocked_rref_matches_per_column_reference():
    for words, ncols in _blocked_rref_cases():
        expected = words.copy()
        pivots = _reference_rref(expected, ncols)
        # the int routine gives the same pivots and reduced matrix
        # columns at every size; the target columns may differ by left
        # kernel rows
        int_pivots, rows = gf2._echelon_rows(gf2._words_to_ints(words), ncols)
        assert int_pivots == pivots
        ints = gf2._ints_to_words(rows, words.shape[1] * 64)
        assert np.array_equal(gf2._unpack_words_2d(ints, ncols),
                              gf2._unpack_words_2d(expected, ncols))
        assert gf2._rref(words, ncols) == pivots
        assert np.array_equal(words, expected)


def test_matmul_against_dense():
    rng = random.Random(23)
    a = random_bit_matrix(rng, 4, 6)
    b = random_bit_matrix(rng, 6, 5)
    ab = a @ b
    da, db = dense(a), dense(b)
    for i in range(4):
        for j in range(5):
            assert ab.get(i, j) == sum(da[i][k] * db[k][j] for k in range(6)) % 2


@st.composite
def product_operands(draw):
    """(a words, ncols, b words) of a random rows x ncols by ncols x
    bcols product: 0-300 rows, so a one-word b lands on both sides of
    ``_DIRECT_MAX_BITS``, ncols often not a multiple of 8, and b one
    word or several words wide; each side dense or sparse."""
    rows, ncols = draw(st.integers(0, 300)), draw(st.integers(0, 200))
    bcols = draw(st.sampled_from([1, 5, 8, 50, 63, 64, 65, 130]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.05, 0.5, 0.95]))
    a = (rng.random((rows, ncols)) < density).astype(np.uint8)
    b = (rng.random((ncols, bcols)) < density).astype(np.uint8)
    return a, b


def _shaped_operands(rows, ncols, bcols, seed=0):
    rng = np.random.default_rng(seed)
    return (rng.integers(0, 2, (rows, ncols), dtype=np.uint8),
            rng.integers(0, 2, (ncols, bcols), dtype=np.uint8))


@settings(deadline=None)
@example(_shaped_operands(2500, 2, 50))
@example(_shaped_operands(0, 17, 3))
@example(_shaped_operands(256, 64, 64))
@example(_shaped_operands(257, 64, 64))
@example(_shaped_operands(128, 128, 64))
@example(_shaped_operands(89, 89, 4))
@given(product_operands())
def test_product_routines_equal_numpy(operands):
    """Both routines of ``_product``, each forced, and the routine it
    picks give the words of (A @ B) % 2 in numpy, byte for byte; a
    one-word b within the bound takes the direct routine and builds no
    table."""
    a, b = operands
    ncols = a.shape[1]
    want = gf2._pack_rows((a.astype(np.int64) @ b.astype(np.int64) % 2).astype(np.uint8))
    aw, bw = gf2._pack_rows(a), gf2._pack_rows(b)
    direct = bw.shape[1] == 1 and aw.shape[0] * aw.shape[1] * 64 <= gf2._DIRECT_MAX_BITS
    with unittest.mock.patch.object(gf2, "_subset_sums", None) if direct \
            else contextlib.nullcontext():
        assert gf2._product(aw, ncols, bw).tobytes() == want.tobytes()
    with unittest.mock.patch.object(gf2, "_DIRECT_MAX_BITS", -1):
        assert gf2._product(aw, ncols, bw).tobytes() == want.tobytes()
    if bw.shape[1] == 1:
        with unittest.mock.patch.object(gf2, "_DIRECT_MAX_BITS", 1 << 62), \
                unittest.mock.patch.object(gf2, "_subset_sums", None):
            assert gf2._product(aw, ncols, bw).tobytes() == want.tobytes()


def test_transpose_round_trip():
    rng = random.Random(41)
    m = random_bit_matrix(rng, 5, 9)
    assert m.transpose().transpose() == m
    assert m.transpose().get(3, 2) == m.get(2, 3)
