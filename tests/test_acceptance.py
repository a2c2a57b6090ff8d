"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict
lines as they complete.  Every check is exact (GF(2) arithmetic); the
tolerances are mismatch counts, all zero.
"""
import itertools
import random
import time

import numpy as np

from sigma_forge import algebra, game, gf2, solver
from sigma_forge.algebra import QuotientShape, TensorElement
from sigma_forge.game import GameSpec, GridShape, adjacency_matrix, is_sigma_plus
from sigma_forge.gf2 import BitMatrix, BitVector
from sigma_forge.poly2 import X, chebyshev_q, two_valuation, val_x
from sigma_forge.solver import (achievable, all_on, brute_force_oracle, sweep,
                                sweep_disagreements, symmetric_achievability)
from sigma_forge.symmetry import central_configuration, central_element, symmetric_basis

from helpers import brute_force_image, variable

SIGMA_PLUS = ("sigma+:box", "sigma+:boxtimes")
ALL_PRESETS = game.PRESET_NAMES


def report(num, name, mismatches, extra=""):
    label = f"criterion {num:2d}" if isinstance(num, int) else "invariant   "
    status = "PASS" if not mismatches else f"FAIL ({mismatches} mismatches)"
    print(f"{label} [{name}]: {status}{extra}")
    assert mismatches == 0, f"{label} ({name}): {mismatches} mismatches"


def shapes_with_total_at_most(cap, dmax=3):
    """All 1-, 2-, 3-dimensional shapes with at most cap cells, lex order."""
    out = []
    for n1 in range(1, cap + 1):
        out.append((n1,))
    for n1 in range(1, cap + 1):
        for n2 in range(1, cap // n1 + 1):
            out.append((n1, n2))
    for n1 in range(1, cap + 1):
        for n2 in range(1, cap // n1 + 1):
            for n3 in range(1, cap // (n1 * n2) + 1):
                out.append((n1, n2, n3))
    return out


def test_criterion_1_vaillant_sweep():
    start = time.perf_counter()
    mismatches = 0
    pairs = 0
    for n in range(1, 14, 2):
        for m in range(1, 14, 2):
            pairs += 1
            g = GameSpec.preset("sigma-:boxtimes", GridShape((n, m)))
            unachievable = not achievable(g, all_on(g.shape)).achievable
            if unachievable != (two_valuation(n + 1) == two_valuation(m + 1)):
                mismatches += 1
            verdict = solver.principal_predicate(g)
            if not verdict.agree:
                mismatches += 1
    elapsed = time.perf_counter() - start
    assert pairs == 49
    assert elapsed < 10.0, f"Vaillant sweep took {elapsed:.1f}s (budget 10s)"
    report(1, "Vaillant sweep", mismatches, f" ({pairs} odd pairs, {elapsed:.2f}s)")


def test_criterion_2_principal_sweep():
    start = time.perf_counter()
    rows = []
    for preset in ALL_PRESETS:
        rows.extend(sweep(preset, d=2, max_n=13))
    elapsed = time.perf_counter() - start
    assert len(rows) == 676
    bad = sweep_disagreements(rows)
    assert elapsed < 60.0, f"principal sweep took {elapsed:.1f}s (budget 60s)"
    report(2, "2-d predicate sweep", len(bad), f" (676 instances, {elapsed:.2f}s)")


def test_criterion_3_sutner_property():
    start = time.perf_counter()
    failures = 0
    count = 0
    for preset in SIGMA_PLUS:
        for dims in shapes_with_total_at_most(343):
            g = GameSpec.preset(preset, GridShape(dims))
            count += 1
            if not (is_sigma_plus(g) and achievable(g, all_on(g.shape)).achievable):
                failures += 1
    elapsed = time.perf_counter() - start
    report(3, "Sutner all-on", failures, f" ({count} games, {elapsed:.2f}s)")


def test_criterion_4_ddim_symmetric_achievability():
    start = time.perf_counter()
    failures = 0
    count = 0
    for preset in SIGMA_PLUS:
        for dims in itertools.product(range(1, 8), repeat=3):
            g = GameSpec.preset(preset, GridShape(dims))
            count += 1
            if not symmetric_achievability(g).achievable:
                failures += 1
    elapsed = time.perf_counter() - start
    assert count == 2 * 343
    report(4, "d=3 sigma+ symmetric", failures, f" ({count} games, {elapsed:.2f}s)")


def test_criterion_5_corollary_even_first_axis():
    failures = 0
    count = 0
    for n1 in (2, 4):
        for n2 in range(1, 6):
            for n3 in range(1, 6):
                g = GameSpec.preset("sigma-:boxtimes", GridShape((n1, n2, n3)))
                count += 1
                if not symmetric_achievability(g).achievable:
                    failures += 1
    # J_n invertible exactly for even n (the corollary's key step)
    for n in range(1, 21):
        j = np.eye(n, k=1, dtype=np.uint8) | np.eye(n, k=-1, dtype=np.uint8)
        if (gf2.rank(BitMatrix._from_bit_array(j)) == n) != (n % 2 == 0):
            failures += 1
    report(5, "even-axis corollary", failures, f" ({count} games + 20 ranks)")


def test_criterion_6_oracle_equivalence():
    start = time.perf_counter()
    mismatches = 0
    games = 0
    for preset in ALL_PRESETS:
        for dims in shapes_with_total_at_most(16):
            shape = GridShape(dims)
            g = GameSpec.preset(preset, shape)
            total = shape.total
            games += 1
            image = brute_force_image(g)
            if total <= 10:
                targets = [BitVector.from_int(total, bits) for bits in range(1 << total)]
            else:
                rng = random.Random(f"targets:{preset}:{dims}")
                targets = [all_on(shape), central_configuration(shape)]
                targets += [BitVector.from_int(total, rng.getrandbits(total))
                            for _ in range(100)]
                # exercise the per-call oracle path directly as well
                for t in targets[:2]:
                    if brute_force_oracle(g, t) != (t.to_int() in image):
                        mismatches += 1
            for t in targets:
                if achievable(g, t).achievable != (t.to_int() in image):
                    mismatches += 1
    elapsed = time.perf_counter() - start
    report(6, "oracle equivalence", mismatches, f" ({games} games, {elapsed:.2f}s)")


def test_criterion_7_chebyshev_suite():
    failures = 0
    # recurrence, doubling, valuations, X-divisibility
    for n in range(1, 64):
        if chebyshev_q(n + 1) != X * chebyshev_q(n) + chebyshev_q(n - 1):
            failures += 1
    for n in range(1, 33):
        q = chebyshev_q(n - 1)
        if chebyshev_q(2 * n - 1) != X * q * q:
            failures += 1
    for n in range(1, 64, 2):
        j = two_valuation(n + 1)
        if val_x(chebyshev_q(n)) != (1 << j) - 1:
            failures += 1
        if n >= 3 and val_x(chebyshev_q(n)) != 1 + 2 * val_x(chebyshev_q((n - 1) // 2)):
            failures += 1
    for n in range(65):
        if ((chebyshev_q(n) % X).value == 0) != (n % 2 == 1):
            failures += 1
    # Q_n annihilates its multiplication operator; phi is bijective
    for n in range(1, 17):
        qs = QuotientShape.chebyshev([n])
        c = algebra.mult_operator(variable(qs, 0))
        acc = BitMatrix.zeros(n, n)
        q = chebyshev_q(n)
        for k in range(q.degree, -1, -1):
            acc = acc @ c
            if q.value >> k & 1:
                acc = acc ^ BitMatrix.identity(n)
        if acc != BitMatrix.zeros(n, n):
            failures += 1
        if gf2.rank(qs.phi_matrix()) != n:
            failures += 1
        if qs.phi_matrix() @ qs.phi_inverse_matrix() != BitMatrix.identity(n):
            failures += 1
    report(7, "Chebyshev suite", failures)


def test_criterion_8_technic_grid():
    from sigma_forge.poly2 import Poly2
    mismatches = 0
    checked = 0
    for p, q in itertools.product(range(1, 6), repeat=2):
        qs = QuotientShape.monomial([p, q])
        x = variable(qs, 0)
        y = variable(qs, 1)
        for u in (x + y, x + y + x * y):
            targets = []
            expected = []
            for r, s in itertools.product(range(6), repeat=2):
                targets.append(TensorElement.from_axis_polys(
                    qs, [Poly2.x_power(r), Poly2.x_power(s)]))
                expected.append(r + s >= min(p, q))
            got = algebra.divides_all(u, targets)
            checked += len(targets)
            mismatches += sum(1 for a, b in zip(got, expected) if a != b)
    report(8, "local divisibility grid", mismatches, f" ({checked} cases)")


def test_criterion_9_reduc_divisibility():
    start = time.perf_counter()
    failures = 0
    # every symmetric orbit vector is divisible by the central element
    shapes = []
    for d in (1, 2, 3):
        shapes += list(itertools.product(range(1, 7), repeat=d))
    for dims in shapes:
        shape = GridShape(dims)
        qs = game.quotient_shape(shape)
        central = central_element(shape)
        targets = [algebra.phi_inverse(w, qs) for w in symmetric_basis(shape).basis]
        failures += sum(1 for ok in algebra.divides_all(central, targets) if not ok)
    # with all axes odd, the central element is divisible by all-on
    odd_shapes = []
    for d in (1, 2, 3):
        odd_shapes += list(itertools.product(range(1, 10, 2), repeat=d))
    for dims in odd_shapes:
        shape = GridShape(dims)
        qs = game.quotient_shape(shape)
        allon = algebra.phi_inverse(BitVector.ones(shape.total), qs)
        if not algebra.divides(allon, central_element(shape)):
            failures += 1
    elapsed = time.perf_counter() - start
    report(9, "central divisibility", failures,
           f" ({len(shapes)}+{len(odd_shapes)} shapes, {elapsed:.2f}s)")


def test_criterion_10_kernel_parity():
    start = time.perf_counter()
    failures = 0
    kernels = 0
    for preset in SIGMA_PLUS:
        for dims in shapes_with_total_at_most(400):
            g = GameSpec.preset(preset, GridShape(dims))
            for k in gf2.kernel_basis(adjacency_matrix(g)):
                kernels += 1
                if k.weight() % 2:
                    failures += 1
    elapsed = time.perf_counter() - start
    report(10, "sigma+ kernel parity", failures,
           f" ({kernels} kernel vectors, {elapsed:.2f}s)")


# -- full-range module invariants (not numbered criteria) ---------------

def test_invariant_sigma_plus_symmetric_full_range():
    # sigma+ symmetric achievability across every d <= 3 shape up to
    # 343 cells, not just the d=3 cube range of criterion 4
    start = time.perf_counter()
    failures = 0
    count = 0
    for preset in SIGMA_PLUS:
        for dims in shapes_with_total_at_most(343):
            g = GameSpec.preset(preset, GridShape(dims))
            count += 1
            if not symmetric_achievability(g).achievable:
                failures += 1
    elapsed = time.perf_counter() - start
    report("+", "sigma+ symmetric, all d<=3", failures,
           f" ({count} games, {elapsed:.2f}s)")


def test_invariant_conjugacy_all_presets_to_64():
    # phi^-1 M phi equals the multiplication operator of u for every
    # preset on every d <= 3 shape with at most 64 cells (plus d=4 spots)
    start = time.perf_counter()
    failures = 0
    count = 0
    shapes = [dims for dims in shapes_with_total_at_most(64)]
    shapes += [(2, 2, 2, 2), (1, 2, 1, 3)]
    for dims in shapes:
        qs = QuotientShape.chebyshev(dims)
        pinv, pmat = qs.phi_inverse_matrix(), qs.phi_matrix()
        for preset in ALL_PRESETS:
            g = GameSpec.preset(preset, GridShape(dims))
            count += 1
            if pinv @ adjacency_matrix(g) @ pmat != \
                    algebra.mult_operator(game.u_element(g)):
                failures += 1
    elapsed = time.perf_counter() - start
    report("+", "phi conjugacy to 64 cells", failures,
           f" ({count} games, {elapsed:.2f}s)")
