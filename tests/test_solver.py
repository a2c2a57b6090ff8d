import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigma_forge import chase, game, gf2, solver
from sigma_forge.game import GameSpec, GridShape, adjacency_matrix
from sigma_forge.gf2 import BitVector
from sigma_forge.poly2 import two_valuation
from sigma_forge.solver import (achievable, all_on, brute_force_oracle, closed_form_value,
                                principal_predicate, sweep,
                                sweep_csv, sweep_disagreements,
                                symmetric_achievability)

from helpers import brute_force_image, preset


# ---------------------------------------------------------------------
# achievable
# ---------------------------------------------------------------------

def test_single_cell_sigma_plus():
    g = preset("sigma+:box", 1, 1)
    rep = achievable(g, all_on(g.shape))
    assert rep.achievable
    assert rep.witness == BitVector.from_bits([1])


def test_achievable_rejects_a_wrong_witness(monkeypatch, fresh_matrices):
    g = preset("sigma+:box", 3, 3)
    monkeypatch.setattr(gf2.Elimination, "solution",
                        lambda self, j=0: BitVector.ones(self.m.cols))
    with pytest.raises(RuntimeError, match="M x = t"):
        achievable(g, all_on(g.shape))


@pytest.mark.parametrize("wrong", [BitVector.ones, BitVector.zeros],
                         ids=["not-in-kernel", "orthogonal"])
def test_achievable_rejects_a_wrong_certificate(monkeypatch, fresh_matrices, wrong):
    g = preset("sigma-:boxtimes", 3, 3)
    monkeypatch.setattr(gf2.Elimination, "certificate",
                        lambda self, j=0: wrong(self.m.cols))
    with pytest.raises(RuntimeError, match="M k = 0"):
        achievable(g, all_on(g.shape))


def test_a_wrong_stored_kernel_is_caught(fresh_matrices):
    g = preset("sigma-:boxtimes", 3, 3)
    m = adjacency_matrix(g)
    # the all-ones vector meets all-on and the centre's one-cell orbit
    # oddly, but M ones != 0 (a corner has 3 neighbours)
    assert not m.mul_vec(BitVector.ones(m.cols)).is_zero()
    m._kernel = (BitVector.ones(m.cols).to_int(),)
    with pytest.raises(RuntimeError, match="M k = 0"):
        achievable(g, all_on(g.shape))
    with pytest.raises(RuntimeError, match="M k = 0"):
        symmetric_achievability(g)


def test_symmetric_achievability_rejects_a_wrong_certificate(monkeypatch):
    g = preset("sigma-:boxtimes", 3, 3)
    assert not symmetric_achievability(g).achievable
    # bit 0 of every stored kernel vector flipped
    kernel = tuple(k ^ 1 for k in gf2._kernel_of(adjacency_matrix(g)))
    monkeypatch.setattr(gf2, "_kernel_of", lambda m: kernel)
    with pytest.raises(RuntimeError, match="M k = 0"):
        symmetric_achievability(g)


def test_a_board_is_eliminated_once_per_medium_op(monkeypatch, fresh_matrices):
    # achievable(all-on), kernel_basis, symmetric_achievability: the first
    # elimination leaves the kernel on the cached matrix for the other two
    calls = []
    for module, path in ((gf2, "_rref"), (gf2, "_echelon_rows"), (chase, "_echelon_rows")):
        def counted(words, ncols, path=path, real=getattr(module, path)):
            calls.append(path)
            return real(words, ncols)
        monkeypatch.setattr(module, path, counted)
    # the routine follows the system eliminated: 4x6 whole, on int rows;
    # the chased 12x12 boards' end systems of 12 cells by the chase on
    # ints itself (12 unit starts and one target fit one word); the
    # 13x13x13 boards' end systems of 169 cells by Four Russians;
    # sigma+:boxtimes's one axis factor I + J, shared by every axis, is
    # invertible on 12 and 13 columns, so nothing is eliminated, and
    # singular on 11 (11 = 2 mod 3), where _axis_echelon eliminates it on
    # int rows itself
    boards = [(name, dims, [path]) for name in game.PRESET_NAMES
              for dims, path in (((4, 6), "_echelon_rows"), ((12, 12), "_echelon_rows"),
                                 ((13, 13, 13), "_rref"))]
    boards.append(("sigma+:boxtimes", (11, 11), ["_echelon_rows"]))
    for name, dims, want in boards:
        g = preset(name, *dims)
        if name == "sigma+:boxtimes" and dims in ((12, 12), (13, 13, 13)):
            want = []
        calls.clear()
        achievable(g, all_on(g.shape), "all-on")
        gf2.kernel_basis(adjacency_matrix(g))
        symmetric_achievability(g)
        assert calls == want, (name, dims)


def test_vaillant_3x3_unachievable():
    g = preset("sigma-:boxtimes", 3, 3)
    rep = achievable(g, all_on(g.shape))
    assert not rep.achievable
    assert rep.witness is None
    k = rep.certificate
    assert adjacency_matrix(g).mul_vec(k).is_zero()
    assert k.dot(all_on(g.shape)) == 1


def test_3x5_achievable_with_valid_witness():
    # 2-valuations differ: v2(4) = 2, v2(6) = 1
    assert two_valuation(4) != two_valuation(6)
    g = preset("sigma-:boxtimes", 3, 5)
    rep = achievable(g, all_on(g.shape))
    assert rep.achievable
    assert adjacency_matrix(g).mul_vec(rep.witness) == all_on(g.shape)


def test_achievable_length_mismatch():
    g = preset("sigma-:box", 2, 2)
    with pytest.raises(ValueError):
        achievable(g, BitVector.zeros(5))


def test_witness_and_certificate_invariants_random():
    rng = random.Random(1234)
    shapes = [(4,), (2, 3), (5,), (2, 2, 2), (3, 3)]
    for name in game.PRESET_NAMES:
        for dims in shapes:
            g = preset(name, *dims)
            m = adjacency_matrix(g)
            for _ in range(6):
                t = BitVector.from_int(g.shape.total, rng.getrandbits(g.shape.total))
                rep = achievable(g, t)
                if rep.achievable:
                    assert m.mul_vec(rep.witness) == t
                else:
                    assert m.mul_vec(rep.certificate).is_zero()
                    assert rep.certificate.dot(t) == 1


# ---------------------------------------------------------------------
# symmetric achievability
# ---------------------------------------------------------------------

def test_sigma_plus_symmetric_always_achievable():
    for name in ("sigma+:box", "sigma+:boxtimes"):
        for dims in [(4, 5), (3, 3), (2, 3, 4), (3, 3, 3)]:
            assert symmetric_achievability(preset(name, *dims)).achievable


def test_3x3_sigma_minus_box_blocked():
    rep = symmetric_achievability(preset("sigma-:box", 3, 3))
    assert not rep.achievable
    m = adjacency_matrix(preset("sigma-:box", 3, 3))
    assert m.mul_vec(rep.certificate).is_zero()
    assert rep.certificate.dot(rep.target) == 1


def test_corollary_2x3x3():
    assert symmetric_achievability(preset("sigma-:boxtimes", 2, 3, 3)).achievable


def test_symmetric_achievability_matches_per_vector_solves():
    from sigma_forge.symmetry import symmetric_basis
    for name in game.PRESET_NAMES:
        for dims in [(3, 3), (4, 2), (5,), (2, 2, 3)]:
            g = preset(name, *dims)
            expect = all(achievable(g, w).achievable
                         for w in symmetric_basis(g.shape).basis)
            assert symmetric_achievability(g).achievable == expect


# ---------------------------------------------------------------------
# principal predicate
# ---------------------------------------------------------------------

def test_predicate_vaillant_case():
    v = principal_predicate(preset("sigma-:boxtimes", 3, 3))
    assert v.closed_form is False and v.ground_truth is False and v.agree


def test_predicate_5x5_box():
    # v2(6) = v2(6), u(0,0) = 0, both odd: blocked
    v = principal_predicate(preset("sigma-:box", 5, 5))
    assert v.closed_form is False
    assert v.ground_truth is False
    assert v.agree


def test_predicate_4x7_boxtimes():
    v = principal_predicate(preset("sigma-:boxtimes", 4, 7))
    assert v.closed_form is True and v.agree


def test_predicate_needs_2d():
    with pytest.raises(ValueError):
        principal_predicate(preset("sigma-:box", 3, 3, 3))


# ---------------------------------------------------------------------
# Sutner
# ---------------------------------------------------------------------

def test_sutner_examples():
    # every sigma+ game reaches the all-on configuration
    for g in (preset("sigma+:box", 1, 1), preset("sigma+:boxtimes", 5, 7),
              preset("sigma+:box", 3, 3, 3)):
        assert game.is_sigma_plus(g)
        assert achievable(g, all_on(g.shape)).achievable


# ---------------------------------------------------------------------
# brute force oracle
# ---------------------------------------------------------------------

def test_oracle_1x2_path():
    g = preset("sigma-:box", 1, 2)
    assert brute_force_oracle(g, all_on(g.shape)) is True


def test_oracle_1x3_path_all_on():
    # enumerating all 8 push subsets: pushing cells {1,2} lights all
    # three, so the 3-path IS achievable (pattern: fails iff n = 1 mod 4)
    g = preset("sigma-:box", 1, 3)
    assert brute_force_oracle(g, all_on(g.shape)) is True
    m = adjacency_matrix(g)
    w = BitVector.from_bits([1, 1, 0])
    assert m.mul_vec(w) == all_on(g.shape)


def test_path_achievability_pattern():
    # 1-d sigma- paths: unachievable exactly when n = 1 (mod 4)
    for n in range(1, 14):
        g = preset("sigma-:box", n)
        assert achievable(g, all_on(g.shape)).achievable == (n % 4 != 1)


def test_oracle_zero_target():
    g = preset("sigma-:boxtimes", 2, 2)
    assert brute_force_oracle(g, BitVector.zeros(4)) is True


def test_oracle_cap(monkeypatch):
    monkeypatch.delenv(solver.ORACLE_CAP_ENV, raising=False)
    g = preset("sigma+:box", 5, 5)
    with pytest.raises(ValueError):
        brute_force_oracle(g, all_on(g.shape))
    # the environment variable overrides the default
    monkeypatch.setenv(solver.ORACLE_CAP_ENV, "3")
    assert brute_force_oracle(preset("sigma+:box", 3), BitVector.ones(3))


def test_oracle_cap_env_is_bounded(monkeypatch):
    def no_loop(g):
        raise AssertionError("the Gray-code loop started")
    monkeypatch.setattr(solver, "_push_columns", no_loop)
    monkeypatch.setenv(solver.ORACLE_CAP_ENV, str(solver.MAX_ORACLE_CAP + 1))
    g = preset("sigma+:box", 5, 5)
    with pytest.raises(ValueError, match=solver.ORACLE_CAP_ENV):
        brute_force_oracle(g, all_on(g.shape))
    with pytest.raises(ValueError, match=solver.ORACLE_CAP_ENV):
        brute_force_image(g)


def test_oracle_cap_env_override(monkeypatch):
    g = preset("sigma+:box", 2, 2)
    monkeypatch.setenv(solver.ORACLE_CAP_ENV, "3")
    with pytest.raises(ValueError):
        brute_force_oracle(g, all_on(g.shape))
    monkeypatch.setenv(solver.ORACLE_CAP_ENV, "4")
    assert brute_force_oracle(g, all_on(g.shape))


@pytest.mark.parametrize("value", ["abc", "2.5", "-1"])
def test_oracle_cap_env_rejects_bad_values(monkeypatch, value):
    g = preset("sigma+:box", 2, 2)
    monkeypatch.setenv(solver.ORACLE_CAP_ENV, value)
    with pytest.raises(ValueError, match=solver.ORACLE_CAP_ENV):
        brute_force_oracle(g, all_on(g.shape))


def test_oracle_agrees_with_solver_exhaustively():
    # every target on small shapes, all four presets
    for name in game.PRESET_NAMES:
        for dims in [(3,), (4,), (2, 2), (1, 5), (2, 3), (2, 2, 2)]:
            g = preset(name, *dims)
            total = g.shape.total
            image = brute_force_image(g)
            for bits in range(1 << total):
                t = BitVector.from_int(total, bits)
                assert achievable(g, t).achievable == (t.to_int() in image)


def test_oracle_image_matches_oracle():
    g = preset("sigma-:box", 2, 3)
    image = brute_force_image(g)
    for bits in range(1 << 6):
        t = BitVector.from_int(6, bits)
        assert brute_force_oracle(g, t) == (t.to_int() in image)


# ---------------------------------------------------------------------
# closed forms beyond d=2
# ---------------------------------------------------------------------

def test_closed_form_sigma_plus_any_dimension():
    assert closed_form_value(preset("sigma+:box", 7)) is True
    assert closed_form_value(preset("sigma+:boxtimes", 3, 3, 3)) is True


def test_closed_form_1d_lift_matches_ground_truth():
    for n in range(1, 14):
        g = preset("sigma-:box", n)
        assert closed_form_value(g) == symmetric_achievability(g).achievable


def _closed_form_by_u_element(g):
    """The 2-d criterion with u(0, 0) read from :func:`.game.u_element`."""
    n, m = g.shape.dims
    u00 = game.u_element(g).coeffs[0]
    return not (n % 2 and m % 2 and u00 == 0 and two_valuation(n + 1) == two_valuation(m + 1))


def test_the_closed_form_reads_u00_from_the_terms():
    """u(0, 0) comes from the game's products (chase.kron_factors), not
    from u_element, and agrees with it: on every preset and on custom games, some with exponent 10^7, in
    2-d and in 1-d lifted to 1 x n; the odd shapes with equal
    2-valuations (1x1, 3x3, 1x5, 3x11, 7x7, ...) are the ones where the
    verdict turns on u(0, 0)."""
    assert not hasattr(solver, "u_element")
    big = 10 ** 7
    customs = {1: [{(big,)}, {(0,), (big,)}, {(1,), (3,)}, {(2,), (big,), (5,)}],
               2: [{(big, 0)}, {(0, big), (1, 1)}, {(big, big), (0, 0), (2, 0)},
                   {(0, 0), (2, 2), (3, 1)}, {(4, 0), (0, 4)}]}
    blocked = 0
    for d in (1, 2):
        for dims in itertools.product(range(1, 16), repeat=d):
            shape = GridShape(dims)
            games = [GameSpec.preset(name, shape) for name in game.PRESET_NAMES]
            games += [GameSpec(shape, frozenset(t)) for t in customs[d]]
            for g in games:
                if d == 1:
                    g = GameSpec(GridShape((1,) + dims), frozenset((0,) + t for t in g.terms))
                want = _closed_form_by_u_element(g)
                assert solver._principal_closed_form(g) == want, (g.label(), dims)
                blocked += not want
    assert blocked > 20


def test_closed_form_corollary_even_axis_any_position():
    # the even axis may sit anywhere; permutation symmetry applies
    assert closed_form_value(preset("sigma-:boxtimes", 3, 4, 5)) is True
    assert closed_form_value(preset("sigma-:box", 3, 5, 2)) is True


def test_closed_form_open_case_is_none():
    assert closed_form_value(preset("sigma-:box", 3, 3, 3)) is None
    assert closed_form_value(preset("sigma-:boxtimes", 5, 7, 3)) is None


def test_closed_form_custom_structure_not_covered():
    g = GameSpec(GridShape((3, 4, 5)), frozenset({(2, 0, 0), (0, 1, 0)}))
    assert not game.is_sigma_plus(g)
    assert closed_form_value(g) is None


# ---------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------

def test_sweep_small_no_disagreement():
    rows = sweep("sigma-:boxtimes", d=2, max_n=6)
    assert len(rows) == 36
    assert not sweep_disagreements(rows)
    shapes = [r.shape.dims for r in rows]
    assert shapes == sorted(shapes)  # lexicographic order


def test_sweep_odd_only():
    rows = sweep("sigma-:boxtimes", d=2, max_n=7, odd_only=True)
    assert len(rows) == 16
    assert all(n % 2 and m % 2 for (n, m) in (r.shape.dims for r in rows))


def test_sweep_d3_open_rows_have_no_closed_form():
    rows = sweep("sigma-:box", d=3, max_n=3, odd_only=True)
    assert all(r.closed_form is None and r.agree is None for r in rows)
    assert not sweep_disagreements(rows)


def test_sweep_csv_format():
    rows = sweep("sigma-:boxtimes", d=2, max_n=3)
    text = sweep_csv(rows)
    lines = text.splitlines()
    assert lines[0] == "shape,game,closed_form,ground_truth,agree"
    assert lines[1] == "1x1,sigma-:boxtimes,0,0,1"
    assert lines[3] == "1x3,sigma-:boxtimes,1,1,1"
    assert len(lines) == 10


def test_sweep_csv_empty_fields_for_open_rows():
    rows = sweep("sigma-:box", d=3, max_n=3, odd_only=True)
    line = sweep_csv(rows).splitlines()[1]
    assert line == "1x1x1,sigma-:box,,0,"


def test_sweep_parallel_is_deterministic():
    seq = sweep_csv(sweep("sigma-:boxtimes", d=2, max_n=5))
    par = sweep_csv(sweep("sigma-:boxtimes", d=2, max_n=5, jobs=2))
    assert seq == par


@pytest.mark.parametrize("kwargs,name", [
    (dict(d=-1, max_n=3), "d"), (dict(d=0, max_n=3), "d"),
    (dict(d=2, max_n=0), "max_n"), (dict(d=2, max_n=-3), "max_n"),
    (dict(d=2, max_n=3, jobs=0), "jobs"), (dict(d=2, max_n=3, jobs=-2), "jobs"),
])
def test_sweep_rejects_arguments_below_one(monkeypatch, kwargs, name):
    monkeypatch.setattr(solver, "_sweep_one", None)  # no shape is evaluated
    with pytest.raises(ValueError, match=f"sweep needs {name} >= 1"):
        sweep("sigma-:box", **kwargs)


def test_sweep_clamps_jobs(monkeypatch):
    # a fake pool records the worker count, so no process starts
    workers = []

    class FakePool:
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr(solver, "ProcessPoolExecutor", FakePool)
    seq = sweep("sigma-:boxtimes", d=2, max_n=2)  # 4 shapes, 3 classes
    for cpus, jobs, expect in [(3, 64, [3]), (8, 64, [3]), (8, 2, [2]), (1, 64, [])]:
        workers.clear()
        monkeypatch.setattr(solver, "_available_cpus", lambda: cpus)
        assert sweep("sigma-:boxtimes", d=2, max_n=2, jobs=jobs) == seq
        assert workers == expect


def per_shape_sweep(game_text, d, max_n, odd_only):
    """The sweep's rows with every shape evaluated on its own."""
    axis = range(1, max_n + 1, 2) if odd_only else range(1, max_n + 1)
    return [solver._sweep_one((game_text, dims))
            for dims in itertools.product(axis, repeat=d)]


@pytest.mark.parametrize("odd_only", [False, True], ids=["all", "odd"])
@pytest.mark.parametrize("d,max_n", [(2, 13), (3, 7)])
@pytest.mark.parametrize("name", game.PRESET_NAMES)
def test_sweep_equals_a_per_shape_sweep_on_presets(name, d, max_n, odd_only):
    assert sweep(name, d, max_n, odd_only) == per_shape_sweep(name, d, max_n, odd_only)


@st.composite
def custom_games(draw):
    """A custom game text on d = 2 or 3 axes: 1-4 terms with exponents
    0-3, left as drawn or closed under swapping axes 0 and 1, or under
    every axis permutation, so both symmetric and asymmetric sets come."""
    d = draw(st.integers(2, 3))
    terms = set(draw(st.lists(st.tuples(*[st.integers(0, 3)] * d), min_size=1, max_size=4)))
    closure = draw(st.sampled_from(["none", "swap01", "all"]))
    if closure == "swap01":
        terms |= {(t[1], t[0]) + t[2:] for t in terms}
    elif closure == "all":
        terms = {tuple(t[p] for p in perm) for t in terms
                 for perm in itertools.permutations(range(d))}
    return d, "custom:" + ";".join(",".join(map(str, t)) for t in sorted(terms))


# 55 examples on boards up to 7x7 and 4x4x4: about 0.4 s, budget 30 s
@settings(max_examples=55, deadline=None)
@given(custom_games(), st.booleans())
def test_sweep_equals_a_per_shape_sweep_on_custom_games(drawn, odd_only):
    d, text = drawn
    max_n = 7 if d == 2 else 4
    assert sweep(text, d, max_n, odd_only) == per_shape_sweep(text, d, max_n, odd_only)


@pytest.mark.parametrize("text,d,max_n,calls", [
    *[(name, 2, 13, 91) for name in game.PRESET_NAMES],
    *[(name, 3, 7, 84) for name in game.PRESET_NAMES],
    ("custom:1,0", 2, 6, 36),  # swapping the axes moves the term: no merging
    ("custom:1,0;0,1", 2, 6, 21),
])
def test_sweep_evaluates_each_class_once(monkeypatch, text, d, max_n, calls):
    evaluated = []
    one = solver._sweep_one

    def counted(task):
        evaluated.append(task[1])
        return one(task)

    monkeypatch.setattr(solver, "_sweep_one", counted)
    rows = sweep(text, d, max_n)
    assert len(evaluated) == len(set(evaluated)) == calls
    assert len(rows) == max_n ** d
