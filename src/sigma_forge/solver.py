"""Achievability decisions, closed-form predicates, and sweeps.

Ground truth is always exact linear algebra over GF(2): a target is
achievable iff it lies in the image of the generalized adjacency
matrix.  For the (symmetric) game matrices the decision goes through
kernel orthogonality, a witness push set comes from the solver, and a
failed target is accompanied by a certificate: a kernel vector not
orthogonal to it.

The closed-form predicates (the two-dimensional parity/valuation
criterion, the sigma-plus theorems, the even-first-axis corollary) are
hypotheses under test: sweeps evaluate them next to ground truth and
flag any disagreement.
"""
from __future__ import annotations

import itertools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from . import gf2
from .game import GameSpec, GridShape, adjacency_matrix, is_sigma_plus, parse_game
from .gf2 import BitMatrix, BitVector
from .poly2 import _power_sum, two_valuation
from .symmetry import orbit_indicator, orbit_parities

DEFAULT_ORACLE_CAP = 20
# the oracle walks 2^cap Gray-code steps; 24 bounds that at 16.8 million
MAX_ORACLE_CAP = 24
ORACLE_CAP_ENV = "SIGMA_FORGE_ORACLE_CAP"


@dataclass
class AchievabilityReport:
    game: GameSpec
    target_kind: str
    target: Optional[BitVector]
    achievable: bool
    witness: Optional[BitVector]
    certificate: Optional[BitVector]


@dataclass
class PredicateVerdict:
    shape: GridShape
    game: str
    closed_form: Optional[bool]
    ground_truth: bool
    agree: Optional[bool]


def all_on(shape: GridShape) -> BitVector:
    return BitVector.ones(shape.total)


def achievable(g: GameSpec, target: BitVector,
               target_kind: str = "explicit") -> AchievabilityReport:
    """Decide target in Im M; attach a witness or a certificate.

    For the symmetric game matrices the failure certificate is a kernel
    vector not orthogonal to the target, which proves unachievability;
    the orthogonality decision and the solver agree (tested) and share
    one elimination here.  The answer is checked with one mat-vec before
    it is returned (M x = t, or M k = 0 and k . t = 1), M applied to the
    grid axis by axis without its dense words; a failed check raises
    RuntimeError.
    """
    m = adjacency_matrix(g)
    if target.n != m.rows:
        raise ValueError(f"target length {target.n} != grid size {m.rows}")
    x, cert = gf2.solve_with_certificate(m, target)
    if x is not None:
        if m.mul_vec(x) != target:
            raise RuntimeError(f"witness for {g.label()} on {g.shape} fails M x = t")
    else:
        _check_certificate(g, m, cert, target)
    return AchievabilityReport(g, target_kind, target, x is not None,
                               witness=x, certificate=cert)


def _check_certificate(g: GameSpec, m: BitMatrix, k: Optional[BitVector],
                       target: BitVector) -> None:
    """Raise unless k proves target outside Im m: M k = 0 and k . t = 1."""
    if k is None:
        raise RuntimeError(f"infeasible symmetric system for {g.label()} on "
                           f"{g.shape} without a kernel certificate")
    if not m.mul_vec(k).is_zero() or k.dot(target) != 1:
        raise RuntimeError(f"certificate for {g.label()} on {g.shape} "
                           "fails M k = 0, k . t = 1")


def symmetric_achievability(g: GameSpec) -> AchievabilityReport:
    """Whether every completely symmetric configuration is achievable.

    M is symmetric, so Im M = (Ker M)^perp: the answer is yes iff
    F k = 0 for every kernel vector k, where the rows of
    F = S (x) ... (x) S are the orbit indicators (see :mod:`.symmetry`).
    The packed kernel stored on M is unpacked once and folded axis by
    axis; no orbit vector is built unless one fails, and only the
    certificate becomes a :class:`BitVector`.  On failure the report
    carries as target the first orbit indicator that some kernel vector
    meets oddly, and as certificate the first such kernel vector,
    checked as in :func:`achievable`.
    """
    m = adjacency_matrix(g)
    kernel = gf2._kernel_of(m)
    if kernel.shape[0]:
        hits = orbit_parities(gf2._unpack_words_2d(kernel, m.cols), g.shape)
        failing = np.flatnonzero(hits.any(axis=0))
        if failing.size:
            i = int(failing[0])
            k = BitVector._of(m.cols, kernel[int(np.argmax(hits[:, i]))])
            w = orbit_indicator(g.shape, i)
            _check_certificate(g, m, k, w)
            return AchievabilityReport(g, "symmetric-subspace", w, False,
                                       witness=None, certificate=k)
    return AchievabilityReport(g, "symmetric-subspace", None, True,
                               witness=None, certificate=None)


def _principal_closed_form(g: GameSpec) -> bool:
    """The 2-d criterion: achievable unless n, m odd, u(0,0) = 0 and
    the 2-valuations of n+1 and m+1 coincide.  u(0,0), the constant
    coefficient of the game's element, is read from the terms: a term
    adds the product of its axes' constant coefficients of x^e mod Q_n."""
    n, m = g.shape.dims
    u00 = sum(math.prod(_power_sum(k, [e]) & 1 for k, e in zip(g.shape.dims, t))
              for t in g.terms) & 1
    blocked = (n % 2 == 1 and m % 2 == 1 and u00 == 0
               and two_valuation(n + 1) == two_valuation(m + 1))
    return not blocked


def principal_predicate(g: GameSpec) -> PredicateVerdict:
    """Closed form versus linear-algebra ground truth on an n x m grid.

    The partial-derivative hypothesis of the underlying theorem is not
    checked mechanically; for the four presets it is known to hold (or
    the sigma-plus theorem covers the verdict outright).
    """
    if g.shape.d != 2:
        raise ValueError(f"the 2-d predicate needs a 2-d grid, got {g.shape}")
    closed = _principal_closed_form(g)
    ground = symmetric_achievability(g).achievable
    return PredicateVerdict(g.shape, g.label(), closed, ground, closed == ground)


def _corollary_applies(g: GameSpec) -> bool:
    """Even-first-axis criterion for sigma-minus games, up to an axis
    permutation: some reordering has an even first axis, contains the
    first unit tuple, and every other term sets some later exponent
    to 1."""
    d = g.shape.d
    unit0 = tuple(1 if i == 0 else 0 for i in range(d))
    for perm in itertools.permutations(range(d)):
        if g.shape.dims[perm[0]] % 2:
            continue
        terms = {tuple(t[p] for p in perm) for t in g.terms}
        if unit0 not in terms:
            continue
        if all(any(t[j] == 1 for j in range(1, d)) for t in terms if t != unit0):
            return True
    return False


def closed_form_value(g: GameSpec) -> Optional[bool]:
    """The strongest applicable closed-form verdict, or None when the
    theory leaves the instance open (sigma-minus, d >= 3, all axes odd
    or irregular terms)."""
    if is_sigma_plus(g):
        return True
    if g.shape.d == 2:
        return _principal_closed_form(g)
    if g.shape.d == 1:
        lifted = GameSpec(GridShape((1,) + g.shape.dims),
                          frozenset((0,) + t for t in g.terms))
        return _principal_closed_form(lifted)
    if _corollary_applies(g):
        return True
    return None


def _oracle_cap() -> int:
    env = os.environ.get(ORACLE_CAP_ENV)
    if not env:
        return DEFAULT_ORACLE_CAP
    if not env.strip().isdecimal() or int(env) > MAX_ORACLE_CAP:
        raise ValueError(f"{ORACLE_CAP_ENV} must be an integer from 0 to "
                         f"{MAX_ORACLE_CAP}, got {env!r}")
    return int(env)


def _check_oracle_size(shape: GridShape) -> None:
    """ValueError when a board has more cells than the brute-force cap
    (:data:`ORACLE_CAP_ENV`, else the default)."""
    limit = _oracle_cap()
    if shape.total > limit:
        raise ValueError(f"shape {shape} too large for brute force "
                         f"(total {shape.total} > cap {limit})")


def _push_columns(g: GameSpec) -> list:
    """The columns of the (symmetric) game matrix, as ints: its rows."""
    return adjacency_matrix(g).row_ints()


def brute_force_oracle(g: GameSpec, target: BitVector) -> bool:
    """Exhaustive search over all push subsets, Gray-code order."""
    total = g.shape.total
    _check_oracle_size(g.shape)
    if target.n != total:
        raise ValueError(f"target length {target.n} != grid size {total}")
    t = target.to_int()
    if t == 0:
        return True
    cols = _push_columns(g)
    cur = 0
    for s in range(1, 1 << total):
        cur ^= cols[(s & -s).bit_length() - 1]
        if cur == t:
            return True
    return False


def brute_force_image(g: GameSpec) -> frozenset:
    """All reachable configurations (as ints), by the same enumeration."""
    total = g.shape.total
    _check_oracle_size(g.shape)
    cols = _push_columns(g)
    seen = {0}
    cur = 0
    for s in range(1, 1 << total):
        cur ^= cols[(s & -s).bit_length() - 1]
        seen.add(cur)
    return frozenset(seen)


def _sweep_one(task) -> PredicateVerdict:
    game_text, dims = task
    g = parse_game(game_text, GridShape(dims))
    ground = symmetric_achievability(g).achievable
    closed = closed_form_value(g)
    agree = None if closed is None else closed == ground
    return PredicateVerdict(g.shape, game_text, closed, ground, agree)


def _available_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def sweep(game: str, d: int, max_n: int, odd_only: bool = False,
          jobs: int = 1) -> List[PredicateVerdict]:
    """Evaluate closed form against ground truth over a shape range.

    Shapes run in lexicographic order; with jobs > 1 the shapes are
    evaluated in parallel and the row order is restored, so output is
    byte-identical to a sequential run.  Workers are capped at the
    available CPUs and the number of shapes.  d, max_n or jobs below 1,
    or a range whose largest shape is too large for a dense build,
    raises ValueError up front.
    """
    for name, value in (("d", d), ("max_n", max_n), ("jobs", jobs)):
        if value < 1:
            raise ValueError(f"sweep needs {name} >= 1, got {value}")
    axis = range(1, max_n + 1, 2) if odd_only else range(1, max_n + 1)
    gf2._check_dense(axis[-1] ** d, axis[-1] ** d)
    tasks = [(game, dims) for dims in itertools.product(axis, repeat=d)]
    jobs = min(jobs, _available_cpus(), len(tasks))
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as ex:
            return list(ex.map(_sweep_one, tasks, chunksize=max(1, len(tasks) // (4 * jobs))))
    return [_sweep_one(t) for t in tasks]


def sweep_disagreements(rows: Sequence[PredicateVerdict]) -> List[PredicateVerdict]:
    return [r for r in rows if r.agree is False]


def _fmt_opt(b: Optional[bool]) -> str:
    return "" if b is None else str(int(b))


def sweep_csv(rows: Sequence[PredicateVerdict]) -> str:
    """CSV report: header shape,game,closed_form,ground_truth,agree."""
    lines = ["shape,game,closed_form,ground_truth,agree"]
    for r in rows:
        lines.append(f"{r.shape},{r.game},{_fmt_opt(r.closed_form)},"
                     f"{int(r.ground_truth)},{_fmt_opt(r.agree)}")
    return "\n".join(lines) + "\n"
