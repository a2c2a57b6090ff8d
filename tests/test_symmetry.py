import itertools
import random

import numpy as np
import pytest

from sigma_forge import algebra, gf2
from sigma_forge.algebra import QuotientShape
from sigma_forge.game import (PRESET_NAMES, GameSpec, GridShape, adjacency_matrix,
                              parse_game, quotient_shape)
from sigma_forge.gf2 import BitMatrix, BitVector
from sigma_forge.solver import symmetric_achievability
from sigma_forge.symmetry import (central_configuration, central_element, orbit_parities,
                                  symmetric_basis)

from helpers import bit_matrix, path_matrix, vector_at

# every preset game of the sweeps: d = 1 up to 30, d = 2 up to 13, d = 3 up to 7
SWEEP_SHAPES = ([(n,) for n in range(1, 31)]
                + list(itertools.product(range(1, 14), repeat=2))
                + list(itertools.product(range(1, 8), repeat=3)))
# every d <= 3 shape of at most 48 cells
SMALL_SHAPES = [dims for d in (1, 2, 3) for dims in itertools.product(range(1, 49), repeat=d)
                if np.prod(dims) <= 48]
BIG_SHAPES = [(49, 49), (50, 50), (13, 13, 13)]


# ---------------------------------------------------------------------
# symmetric subspace
# ---------------------------------------------------------------------

def test_basis_single_cell():
    sub = symmetric_basis(GridShape((1, 1)))
    assert [b.to_bits() for b in sub.basis] == [(1,)]


def test_basis_path3():
    sub = symmetric_basis(GridShape((3,)))
    assert [b.to_bits() for b in sub.basis] == [(1, 0, 1), (0, 1, 0)]


def test_basis_2x2_single_orbit():
    sub = symmetric_basis(GridShape((2, 2)))
    assert [b.to_bits() for b in sub.basis] == [(1, 1, 1, 1)]


def test_basis_dimension():
    for dims in [(4,), (5, 2), (3, 3), (2, 3, 4), (5, 5, 5), (2, 3, 2, 3)]:
        sub = symmetric_basis(GridShape(dims))
        expect = 1
        for n in dims:
            expect *= (n + 1) // 2
        assert len(sub.basis) == expect


def test_basis_vectors_are_reflection_invariant():
    for dims in [(4,), (3, 4), (2, 3, 3)]:
        shape = GridShape(dims)
        for v in symmetric_basis(shape).basis:
            arr = v.to_array().reshape(dims)
            for axis in range(len(dims)):
                assert np.array_equal(arr, np.flip(arr, axis=axis))


def test_basis_vectors_are_disjoint_and_cover():
    shape = GridShape((4, 3))
    basis = symmetric_basis(shape).basis
    total = np.zeros(12, dtype=int)
    for v in basis:
        total += v.to_array()
    assert (total == 1).all()  # orbits partition the grid


# ---------------------------------------------------------------------
# the folded kernel against the orbit walk
# ---------------------------------------------------------------------

def _reference_orbit_basis(shape):
    """The orbit indicators by walking each orbit's cells, one vector
    per representative of the low quadrant in lexicographic order."""
    basis = []
    for rep in itertools.product(*[range((n + 1) // 2) for n in shape.dims]):
        axis_sets = [sorted({j, n - 1 - j}) for j, n in zip(rep, shape.dims)]
        basis.append(vector_at(shape.total, [np.ravel_multi_index(cell, shape.dims)
                                             for cell in itertools.product(*axis_sets)]))
    return basis


def _reference_symmetric_achievability(g):
    """(achievable, target, certificate) by one mat-vec of the kernel
    against each orbit indicator in turn: the first orbit some kernel
    vector meets oddly, and the first such kernel vector."""
    m = adjacency_matrix(g)
    kernel = gf2.kernel_basis(m)
    if kernel:
        kmat = bit_matrix(kernel, cols=m.cols)
        for w in _reference_orbit_basis(g.shape):
            hits = kmat.mul_vec(w)
            if not hits.is_zero():
                return False, w, kernel[next(i for i in range(hits.n) if hits[i])]
    return True, None, None


def test_symmetric_basis_matches_orbit_walk():
    for dims in SWEEP_SHAPES:
        shape = GridShape(dims)
        got = symmetric_basis(shape).basis
        want = _reference_orbit_basis(shape)
        assert [v.to_int() for v in got] == [v.to_int() for v in want], dims
        assert all(v.n == shape.total for v in got)


def test_symmetric_achievability_matches_orbit_walk():
    games = [GameSpec.preset(name, GridShape(dims))
             for dims in SWEEP_SHAPES for name in PRESET_NAMES]
    games += [parse_game(text, GridShape(dims)) for dims, text in [
        ((4, 6), "custom:0,1;1,0;1,1"), ((7, 7), "custom:0,0;2,0;0,2"),
        ((5, 5, 3), "custom:1,0,0;0,1,1"), ((9,), "custom:1;3"), ((6, 5), "custom:1,1")]]
    failing = 0
    for g in games:
        rep = symmetric_achievability(g)
        ok, target, cert = _reference_symmetric_achievability(g)
        assert rep.achievable == ok, (g.shape, g.label())
        if not ok:
            failing += 1
            assert rep.target.to_int() == target.to_int(), (g.shape, g.label())
            assert rep.certificate.to_int() == cert.to_int(), (g.shape, g.label())
    assert 0 < failing < len(games)  # both verdicts are exercised


# ---------------------------------------------------------------------
# central configuration
# ---------------------------------------------------------------------

def test_central_path3():
    assert central_configuration(GridShape((3,))).to_bits() == (0, 1, 0)


def test_central_path4():
    # algebraic form Q_2 + Q_1 = X^2+X+1 maps to the two central cells
    assert central_configuration(GridShape((4,))).to_bits() == (0, 1, 1, 0)


def test_central_3x3():
    shape = GridShape((3, 3))
    assert central_configuration(shape) == \
        vector_at(9, [np.ravel_multi_index((1, 1), shape.dims)])


def geometric_central(shape):
    centers = []
    for n in shape.dims:
        centers.append([(n - 1) // 2] if n % 2 else [n // 2 - 1, n // 2])
    idx = []
    for cell in itertools.product(*centers):
        flat = 0
        for c, n in zip(cell, shape.dims):
            flat = flat * n + c
        idx.append(flat)
    return vector_at(shape.total, idx)


def test_central_matches_geometric_description():
    # the algebraic definition coincides with the 2^(#even axes) central cells
    for n in range(1, 17):
        shape = GridShape((n,))
        assert central_configuration(shape) == geometric_central(shape)
    for dims in [(3, 4), (4, 4), (5, 5), (2, 3, 4), (3, 3, 3), (2, 3, 2, 3)]:
        shape = GridShape(dims)
        assert central_configuration(shape) == geometric_central(shape)


def test_central_configuration_builds_no_phi_matrix(monkeypatch):
    shapes = [GridShape(dims) for dims in SMALL_SHAPES + BIG_SHAPES]
    want = [algebra.phi(central_element(shape)) for shape in shapes]

    def no_phi_matrix(self):
        raise AssertionError("central_configuration built a total x total phi")
    monkeypatch.setattr(QuotientShape, "phi_matrix", no_phi_matrix)
    for shape, w in zip(shapes, want):
        assert central_configuration(shape) == w, shape


# ---------------------------------------------------------------------
# fold maps
# ---------------------------------------------------------------------

def s_fold(v, n):
    """S on one axis of length n, as :func:`orbit_parities` folds it."""
    return tuple(orbit_parities(v.to_array()[None], GridShape((n,)))[0].tolist())


def test_s_map_palindrome_folds_to_zero():
    assert s_fold(BitVector.from_bits([1, 0, 0, 1]), 4) == (0, 0)


def test_s_map_odd_keeps_middle_last():
    assert s_fold(BitVector.from_bits([1, 1, 0]), 3) == (1, 1)


def test_s_map_direct_fold():
    assert s_fold(BitVector.from_bits([1, 0, 1, 0]), 4) == (1, 1)


def test_s_map_length_mismatch():
    with pytest.raises(ValueError):
        s_fold(BitVector.from_bits([1, 0]), 3)


def test_s_map_kills_symmetric_folded_positions():
    rng = random.Random(8)
    for n in range(1, 12):
        half = np.array([rng.randrange(2) for _ in range((n + 1) // 2)], dtype=np.uint8)
        full = np.concatenate([half, half[: n // 2][::-1]])
        out = s_fold(BitVector.from_bits(full), n)
        folded = out[: n // 2]
        assert all(b == 0 for b in folded)
        if n % 2:
            assert out[-1] == half[-1]  # middle survives


# ---------------------------------------------------------------------
# orbit parities: S on every axis
# ---------------------------------------------------------------------

def apply_axis(arr, axis):
    """S along one axis of a dense array."""
    a = np.moveaxis(arr, axis, 0)
    half = a.shape[0] // 2
    out = a[:half] ^ a[::-1][:half]
    if a.shape[0] % 2:
        out = np.concatenate([out, a[half: half + 1]])
    return np.moveaxis(out, 0, axis).astype(np.uint8)


def test_fold_is_order_independent():
    rng = random.Random(99)
    for dims in [(2, 3), (3, 4), (2, 3, 4), (3, 3, 3)]:
        shape = GridShape(dims)
        for _ in range(5):
            v = BitVector.from_int(shape.total, rng.getrandbits(shape.total))
            arr = v.to_array().reshape(dims)
            fwd = arr
            for ax in range(len(dims)):
                fwd = apply_axis(fwd, ax)
            bwd = arr
            for ax in reversed(range(len(dims))):
                bwd = apply_axis(bwd, ax)
            assert np.array_equal(fwd, bwd)
            got = orbit_parities(v.to_array()[None], shape)[0]
            assert np.array_equal(got, fwd.ravel())


def test_fold_all_s_reproduces_quadrant():
    # on a symmetric vector with odd axes, all-S folding recovers the
    # orbit-representative quadrant (doubled entries cancel)
    shape = GridShape((3, 5))
    basis = symmetric_basis(shape).basis
    rng = random.Random(4)
    v = BitVector.zeros(shape.total)
    picks = [b for b in basis if rng.random() < 0.5]
    for b in picks:
        v ^= b
    folded = orbit_parities(v.to_array()[None], shape).reshape(2, 3)
    arr = v.to_array().reshape(3, 5)
    manual = apply_axis(apply_axis(arr, 0), 1)
    assert np.array_equal(folded, manual)
    # doubled orbit cells cancel: folded quadrant has weight parity of picks
    assert folded.sum() % 2 == (sum(b.weight() for b in picks) % 2)


# ---------------------------------------------------------------------
# divisibility lemmas (small slices; the acceptance suite runs them full)
# ---------------------------------------------------------------------

def test_symmetric_vectors_divisible_by_central_small():
    for dims in [(4,), (5,), (3, 4), (2, 2, 3)]:
        shape = GridShape(dims)
        qs = quotient_shape(shape)
        central = central_element(shape)
        targets = [algebra.phi_inverse(w, qs) for w in symmetric_basis(shape).basis]
        assert all(algebra.divides_all(central, targets)), dims


def test_central_divisible_by_all_on_odd_axes_small():
    for dims in [(3,), (5,), (3, 5), (3, 3, 3)]:
        shape = GridShape(dims)
        qs = quotient_shape(shape)
        allon = algebra.phi_inverse(BitVector.ones(shape.total), qs)
        assert algebra.divides(allon, central_element(shape)), dims


# ---------------------------------------------------------------------
# the J-stable even-subspace lemma
# ---------------------------------------------------------------------

def parity(v):
    """c: the parity of the number of nonzero entries."""
    return v.weight() & 1


def max_j_stable_kernel_of_c(n):
    """The largest J-stable subspace inside Ker c: vectors killed by
    the parity form composed with every power of J."""
    j = path_matrix(n)
    rows = []
    power = BitMatrix.identity(n)
    for _ in range(n):
        rows.append(power.mul_vec(BitVector.ones(n)))
        power = power @ j
    return gf2.kernel_basis(bit_matrix(rows, cols=n))


def test_symlin_maximal_subspace():
    s_found = 0
    for n in range(1, 13):
        basis = max_j_stable_kernel_of_c(n)
        j = path_matrix(n)
        for v in basis:
            assert parity(v) == 0
            # stability: J maps the subspace into itself
            jv = j.mul_vec(v)
            for _ in range(n):
                assert parity(jv) == 0
                jv = j.mul_vec(jv)
            # the lemma: the subspace is annihilated by the fold map
            assert not any(s_fold(v, n))
        s_found += len(basis)
    assert s_found > 0  # the test is not vacuous


def test_symlin_cyclic_spans():
    rng = random.Random(606)
    for n in range(2, 13):
        basis = max_j_stable_kernel_of_c(n)
        if not basis:
            continue
        j = path_matrix(n)
        for _ in range(5):
            w = BitVector.zeros(n)
            for b in basis:
                if rng.random() < 0.5:
                    w ^= b
            # the J-orbit span of w is J-stable and inside Ker c
            vec = w
            for _ in range(n):
                assert parity(vec) == 0
                assert not any(s_fold(vec, n))
                vec = j.mul_vec(vec)
