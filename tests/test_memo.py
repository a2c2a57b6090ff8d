"""The byte-budgeted store behind the per-axis factors and per-grid phi
maps: it stays within its budget, answers as the uncached functions
do, and is emptied by the cache scan the benchmark runs before every
pass."""
import importlib.util
import random
import sys
from pathlib import Path

import pytest

import sigma_forge
from sigma_forge import _memo, algebra, chase, gf2, poly2, solver, symmetry
from sigma_forge.algebra import QuotientShape, TensorElement
from sigma_forge.game import adjacency_matrix, quotient_shape, u_element
from sigma_forge.gf2 import BitMatrix, BitVector

from helpers import preset

RUN_PY = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def benchmark_cache_scan():
    """Every cache that perfbench/run.py empties before a pass, found by
    its own ``lru_caches``: each attribute with a ``cache_clear`` in the
    loaded sigma_forge modules."""
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN_PY)
    run = importlib.util.module_from_spec(spec)
    sys.path.insert(0, str(RUN_PY.parent))
    try:
        spec.loader.exec_module(run)
    finally:
        sys.path.remove(str(RUN_PY.parent))
    return run.lru_caches(sigma_forge)


@pytest.fixture
def empty_store():
    """The store emptied before and after the test."""
    caches = benchmark_cache_scan()
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


def fill_through_the_public_api():
    for name, dims in (("sigma+:boxtimes", (50, 50)), ("sigma-:box", (13, 13)),
                       ("sigma+:box", (7, 11))):
        g = preset(name, *dims)
        solver.symmetric_achievability(g)
        solver.achievable(g, solver.all_on(g.shape), "all-on")
        qs = quotient_shape(g.shape)
        assert qs.phi_inverse_matrix() @ adjacency_matrix(g) @ qs.phi_matrix() \
            == algebra.mult_operator(u_element(g))
        symmetry.central_configuration(g.shape)
        algebra.phi_inverse(BitVector.ones(qs.total), qs)


def package_calls(fn) -> int:
    """How many sigma_forge functions run while fn does."""
    package = str(Path(sigma_forge.__file__).parent)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(package):
            calls += 1
    sys.setprofile(count)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


def test_a_pass_starts_with_an_empty_store(empty_store):
    """Filled through the public API, the store is emptied by the
    benchmark's scan, and the same work then makes as many calls as it
    did cold: a cache that scan missed would carry entries from one
    pass to the next and make the second run cheaper."""
    cold = package_calls(fill_through_the_public_api)
    assert _memo._held > 0
    assert package_calls(fill_through_the_public_api) < cold
    for cache in benchmark_cache_scan():
        cache.cache_clear()
    assert _memo._held == 0
    assert not _memo._charges
    assert package_calls(fill_through_the_public_api) == cold


def test_the_store_keeps_within_its_budget(empty_store, monkeypatch):
    """60 distinct monomial operators on a 3,000-long axis, each C^e
    about 1 MiB, under a 4 MiB budget: the charges never pass it, the
    oldest entries go first, and every answer, evicted or not, equals
    the uncached function's."""
    budget = 4 << 20
    monkeypatch.setattr(_memo, "BUDGET_BYTES", budget)
    shape = QuotientShape.chebyshev((3000,))
    m = shape.moduli[0]
    exponents = [7 * k + 1 for k in range(60)]
    for e in exponents:
        op = algebra.mult_operator(TensorElement.monomial(shape, [e]))
        assert op == BitMatrix.from_row_ints(3000, 3000, algebra._companion_power.__wrapped__(m, e))
        assert _memo._held <= budget
    # per operator, C^e and then the axis sum of the one exponent e
    inserted = [key for e in exponents for key in ((m, e), (m, (e,)))]
    kept = [key for _, key in _memo._charges]
    assert 1 <= len(kept) < 4
    assert kept == inserted[-len(kept):]
    first = exponents[0]
    assert algebra._companion_power(m, first) == algebra._companion_power.__wrapped__(m, first)
    assert _memo._held <= budget


def test_an_entry_over_the_budget_is_returned_and_not_kept(empty_store, monkeypatch):
    """It is not kept, and it evicts nothing to make room."""
    monkeypatch.setattr(_memo, "BUDGET_BYTES", 1 << 10)
    assert poly2._path_poly_rows(3, 0b10) == (2, 5, 2)
    small = dict(_memo._charges)
    assert len(small) == 1
    for _ in range(2):
        assert poly2._path_poly_rows(200, 0b1011) == poly2._path_poly_rows.__wrapped__(200, 0b1011)
        assert _memo._charges == small


def test_every_memoized_function_answers_as_its_uncached_one(empty_store):
    """Hits and misses of each function under the store, on the axes and
    grids of small boards, equal the uncached function's value."""
    cases = [(poly2._path_poly_rows, (n, f)) for n in (1, 5, 13) for f in (0, 1, 6, 0b10111)]
    cases += [(algebra._companion_power, (poly2.chebyshev_q(n), e))
              for n in (1, 4, 9) for e in (0, 3, 40)]
    cases += [(algebra._companion_sum, (poly2.chebyshev_q(n), e_set))
              for n in (1, 4, 9) for e_set in ((0,), (1, 3), (0, 2, 5, 40))]
    cases += [(fn, (n,)) for fn in (algebra._phi_axis, algebra._phi_inv_axis) for n in (1, 6, 11)]
    cases += [(fn, (dims,)) for fn in (algebra._phi_grid, algebra._phi_inv_grid)
              for dims in ((3,), (2, 5), (3, 1, 4))]
    cases += [(chase._inverse_mod, (f, poly2.chebyshev_q(n).value))
              for n in (5, 11) for f in (3, 6, 7)]
    cases += [(chase._axis_echelon, (n, f)) for n, f in ((5, 3), (11, 3), (8, 0b101))]
    for _ in range(2):
        for fn, args in cases:
            got, want = fn(*args), fn.__wrapped__(*args)
            if fn is chase._axis_echelon:
                # the pivots and T as arrays, W as a tuple of row ints
                assert (got[0] == want[0]).all() and (got[1] == want[1]).all(), args
                assert got[2] == want[2], args
            else:
                assert got == want, (fn.__name__, args)


def test_a_list_is_charged_as_a_tuple(empty_store):
    """A list's items are read as a tuple's are, so a product backend,
    whose pivots, transforms and parts are lists, is charged the bytes
    they hold."""
    rows = [(1 << 2000) - 1 - k for k in range(50)]
    header = sys.getsizeof(rows) - sys.getsizeof(tuple(rows))
    assert _memo._sizeof(rows) == _memo._sizeof(tuple(rows)) + header > 50 * 250
    nested = [tuple(rows), [rows[0]]]
    assert _memo._sizeof(nested) > _memo._sizeof(tuple(rows)) + _memo._sizeof(rows[0])
    backend = chase.pick(adjacency_matrix(preset("sigma+:boxtimes", 2, 137)))
    assert isinstance(backend, chase._Product)
    held = sum(_memo._sizeof(t) + _memo._sizeof(w)
               for t, w in zip(backend.transforms, backend.parts))
    assert held > 6000 and _memo._sizeof(backend) > held


@pytest.mark.parametrize("name,dims", [("sigma-:boxtimes", (50, 50)), ("sigma+:box", (13, 13, 13)),
                                       ("sigma+:boxtimes", (50, 50)), ("sigma+:box", (7, 11))])
def test_a_cached_game_matrix_and_a_backend_do_not_grow(fresh_matrices, name, dims):
    """After an achievability and a symmetric check, a cached game
    matrix holds its kernel and little else: 50x50 sigma-:boxtimes is
    eliminated whole, from rows built for the solve and not kept.
    13x13x13 sigma+:box is chased on words, 7x11 sigma+:box on ints and
    50x50 sigma+:boxtimes is a product; each backend holds as many bytes
    after a first solve and a later one, handed the stored kernel, as
    before.  Later targets, reachable or not, leave m as it was."""
    g = preset(name, *dims)
    m = adjacency_matrix(g)
    backend = chase.pick(m)
    held = _memo._sizeof(backend)
    solver.achievable(g, solver.all_on(g.shape))
    solver.symmetric_achievability(g)
    assert adjacency_matrix(g) is m and m._rows is None
    assert _memo._sizeof(m) <= _memo._sizeof(m._kernel) + 4096
    ones = [BitVector.ones(m.cols).to_int()]
    if backend is None:
        gf2._Dense(m).solve(ones)
        assert m._rows is None and _memo._sizeof(m) <= _memo._sizeof(m._kernel) + 4096
    else:
        kind = chase._Product if name == "sigma+:boxtimes" else chase._Chase
        assert type(backend) is kind and (dims != (13, 13, 13) or backend.r > 64)
        for kernel in (None, m._kernel):
            backend.solve(ones, kernel)
            assert _memo._sizeof(backend) == held
    bare = _memo._sizeof(m)
    rng = random.Random(7)
    image = m.mul_vec(BitVector.from_int(m.cols, rng.getrandbits(m.cols)))
    for target in (symmetry.central_configuration(g.shape), image,
                   BitVector.from_int(m.cols, rng.getrandbits(m.cols))):
        solver.achievable(g, target)
        assert _memo._sizeof(m) == bare
