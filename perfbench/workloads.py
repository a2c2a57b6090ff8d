"""The workloads: seeded inputs, the ops that drive sigma_forge through
its public functions, and the check of every op's answer.

Each of the two workloads is made of two parts.  ``boards`` runs the
ops of ``BigBoards`` and ``MediumSweep``, the boards on the numpy
elimination path; ``small_shapes`` runs those of ``SmallSweep`` and
``AlgebraIdentities``, the shapes that bypass it.

A part is a list of units.  ``unit(call)`` runs one unit, passing
each call into sigma_forge through ``call(fn, *args)`` (plain, or inside
a span when tracing), and returns one (latency_s, error) pair per op,
error None when the answer checked out.  Answers are checked after the
op's clock stops.

Ops are timed on ``clock``, the CPU time of the benchmark process.  The
program is single-threaded, so on an idle host this equals wall time;
on a shared host it leaves out the time other processes held the CPU,
which made wall-clock medians of identical runs differ by 20% or more.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
import time
from pathlib import Path

import numpy as np

import check

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"

SIGMA_PLUS = ("sigma+:box", "sigma+:boxtimes")

# Four boards of 2,197-2,500 cells, 2-d and 3-d, one per preset, with
# similar op times so the tail percentile does not jump between boards.
# sigma-:boxtimes 49x49 and sigma-:box 13x13x13 cannot reach all-on (the
# answer is a certificate); sigma+:boxtimes 50x50 has an axis = 2 (mod 3),
# where an algebraic backend must fall back to dense elimination.
BIG_BOARDS = (
    ("sigma-:boxtimes", (49, 49)),
    ("sigma+:boxtimes", (50, 50)),
    ("sigma+:box", (13, 13, 13)),
    ("sigma-:box", (13, 13, 13)),
)
BIG_RANDOM_TARGETS = 2

MEDIUM_CELLS = (129, 400)
MEDIUM_STRATA = 100

# (dims, max_n) of the small sweep: 4 presets x (169 + 343) = 2,048 rows
SMALL_RANGES = ((2, 13), (3, 7))

ALGEBRA_MAX_CELLS = 48

clock = time.process_time


def cells(dims) -> int:
    return math.prod(dims)


def shape_text(dims) -> str:
    return "x".join(map(str, dims))


def board_key(preset: str, dims) -> str:
    return f"{preset} {shape_text(dims)}"


def load_expected() -> dict:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


def medium_candidates() -> list:
    """2-d and 3-d shapes, axes >= 2 in nondecreasing order, 129-400
    cells, sorted by cell count.  (In 1-d the two sigma+ presets are the
    same game, so their boards would not be distinct.)"""
    lo, hi = MEDIUM_CELLS
    out = []
    for a in range(2, hi + 1):
        for b in range(a, hi // a + 1):
            if lo <= a * b:
                out.append((a, b))
            for c in range(b, hi // (a * b) + 1):
                if lo <= a * b * c:
                    out.append((a, b, c))
    out.sort(key=lambda dims: (cells(dims), dims))
    return out


def algebra_shapes() -> list:
    """Every d <= 3 shape with at most ALGEBRA_MAX_CELLS cells."""
    cap = ALGEBRA_MAX_CELLS
    out = []
    for d in (1, 2, 3):
        out += [dims for dims in itertools.product(range(1, cap + 1), repeat=d)
                if cells(dims) <= cap]
    return out


def _timed(call, fn, *args):
    t0 = clock()
    out = call(fn, *args)
    return clock() - t0, out


def run_guarded(unit_fn, call):
    """One unit; an exception counts as a failed op."""
    try:
        return unit_fn(call)
    except Exception as exc:  # the benchmark reports, it does not stop
        return [(0.0, f"{type(exc).__name__}: {exc}")]


class BigBoards:
    """`sigma-forge solve` and `check-symmetric` through cli.main."""

    def __init__(self, sf, seed: int, workdir: Path):
        self.sf = sf
        self.expected = load_expected()["big_boards"]
        rng = np.random.default_rng(seed)
        # the seed draws the random targets; the op order is fixed, so the
        # heap grows, and peak RSS is set, the same way for every seed
        self.ops = []
        for b, (preset, dims) in enumerate(BIG_BOARDS):
            base = ["--shape", shape_text(dims), "--game", preset]
            self.ops += [(preset, dims, "all-on", ["solve", *base, "--target", "all-on"],
                          np.ones(dims, dtype=np.uint8)),
                         (preset, dims, "central", ["solve", *base, "--target", "central"],
                          check.central_cells(dims))]
            for i in range(BIG_RANDOM_TARGETS):
                target = rng.integers(0, 2, size=dims, dtype=np.uint8)
                path = workdir / f"target-{b}-{i}.txt"
                path.write_text(_grid_text(target))
                self.ops.append((preset, dims, None,
                                 ["solve", *base, "--target", f"file:{path}"], target))
            self.ops.append((preset, dims, "symmetric", ["check-symmetric", *base], None))

    def units(self) -> list:
        return [lambda call, op=op: self._run(call, op) for op in self.ops]

    def _run(self, call, op):
        preset, dims, pinned, argv, target = op
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            latency, rc = _timed(call, self.sf.cli.main, argv)
        out = buf.getvalue()
        if target is None:
            decision, err = check.check_symmetric_output(rc, out, dims, preset)
        else:
            decision, err = check.check_solve_output(rc, out, dims, preset, target)
        if err is None and pinned is not None:
            want = self.expected[board_key(preset, dims)][pinned]
            if decision != want:
                err = f"{pinned} decision {decision}, pinned {want}"
        if err is not None:
            err = f"{board_key(preset, dims)} {' '.join(argv[:1] + argv[-1:])}: {err}"
        return [(latency, err)]


def _grid_text(a: np.ndarray) -> str:
    return "\n".join(" ".join(map(str, row)) for row in a.reshape(-1, a.shape[-1])) + "\n"


class MediumSweep:
    """Per board: achievable(all-on), kernel_basis, symmetric_achievability."""

    def __init__(self, sf, seed: int, workdir: Path):
        self.sf = sf
        rng = random.Random(seed)
        pool = medium_candidates()
        # one shape from each of MEDIUM_STRATA equal slices of the
        # cell-sorted pool, so every seed samples the same size profile
        edges = [len(pool) * i // MEDIUM_STRATA for i in range(MEDIUM_STRATA + 1)]
        shapes = [pool[rng.randrange(lo, hi)] for lo, hi in zip(edges, edges[1:])]
        self.expected = load_expected()["medium_sweep"]
        self.ops = [(preset, dims) for dims in shapes for preset in SIGMA_PLUS]
        rng.shuffle(self.ops)

    def units(self) -> list:
        return [lambda call, op=op: self._run(call, op) for op in self.ops]

    def _board(self, preset, dims):
        sf = self.sf
        g = sf.game.GameSpec.preset(preset, sf.game.GridShape(dims))
        report = sf.solver.achievable(g, sf.solver.all_on(g.shape), "all-on")
        kernel = sf.gf2.kernel_basis(sf.game.adjacency_matrix(g))
        sym = sf.solver.symmetric_achievability(g)
        return report, kernel, sym

    def _run(self, call, op):
        preset, dims = op
        latency, (report, kernel, sym) = _timed(call, self._board, preset, dims)
        err = self._check(preset, dims, report, kernel, sym)
        return [(latency, None if err is None else f"{board_key(preset, dims)}: {err}")]

    def _check(self, preset, dims, report, kernel, sym):
        nullity, allon, symmetric = map(int, self.expected[preset][shape_text(dims)].split())
        ones = np.ones(dims, dtype=np.uint8)
        if report.achievable != bool(allon):
            return f"all-on decision {report.achievable}, pinned {bool(allon)}"
        if report.achievable:
            err = check.check_witness(report.witness.to_array().reshape(dims), ones, preset)
        else:
            err = check.check_certificate(report.certificate.to_array().reshape(dims),
                                          ones, preset)
        if err:
            return f"all-on: {err}"
        if len(kernel) != nullity:
            return f"nullity {len(kernel)}, pinned {nullity}"
        if kernel:
            ks = np.stack([k.to_array() for k in kernel]).reshape((len(kernel),) + dims)
            if check.push_effect(ks, preset, len(dims)).any():
                return "kernel vector is not in the kernel"
            if (np.count_nonzero(ks.reshape(len(kernel), -1), axis=1) & 1).any():
                return "sigma+ kernel vector of odd weight"
            if check.gf2_rank([check.bits_to_int(k) for k in ks]) != len(kernel):
                return "kernel basis is not independent"
        if sym.achievable != bool(symmetric):
            return f"symmetric decision {sym.achievable}, pinned {bool(symmetric)}"
        if not sym.achievable:
            w = sym.target.to_array().reshape(dims)
            if not w.any() or not check.is_symmetric(w):
                return "failing configuration is not a nonzero symmetric one"
            err = check.check_certificate(sym.certificate.to_array().reshape(dims), w, preset)
            if err:
                return f"symmetric: {err}"
        return None


class SmallSweep:
    """solver.sweep(jobs=1) over every preset; one op is one sweep row."""

    def __init__(self, sf, seed: int, workdir: Path):
        self.sf = sf
        self.expected = load_expected()["small_sweep"]
        self.calls = [(preset, d, max_n) for preset in sf.game.PRESET_NAMES
                      for d, max_n in SMALL_RANGES]
        random.Random(seed).shuffle(self.calls)

    def units(self) -> list:
        return [lambda call, c=c: self._run(call, *c) for c in self.calls]

    def _run(self, call, preset, d, max_n):
        solver = self.sf.solver
        inner = getattr(solver, "_sweep_one", None)
        stamps = []

        def row_timed(task):
            row = inner(task)
            stamps.append(clock())
            return row

        # rows are timed by wrapping the per-row function sweep calls;
        # without it, each row gets an equal share of the call
        if inner is not None:
            solver._sweep_one = row_timed
        try:
            t0 = clock()
            rows = call(solver.sweep, preset, d, max_n, False, 1)
            t1 = clock()
        finally:
            if inner is not None:
                solver._sweep_one = inner
        if len(stamps) == len(rows):
            latencies = np.diff([t0] + stamps).tolist()
        else:
            latencies = [(t1 - t0) / max(len(rows), 1)] * len(rows)
        codes = self.expected[f"{preset} d{d} n{max_n}"]
        want = [codes[i:i + 3] for i in range(0, len(codes), 3)]
        got = sweep_codes(rows)
        dims = list(itertools.product(range(1, max_n + 1), repeat=d))
        out = []
        for i, latency in enumerate(latencies):
            err = None
            if i >= len(want) or got[i] != want[i]:
                err = f"{preset} {shape_text(dims[i])}: row {got[i:i + 1]}, pinned {want[i:i + 1]}"
            elif rows[i].agree is False or tuple(rows[i].shape.dims) != dims[i]:
                err = f"{preset} {shape_text(dims[i])}: closed form disagrees or shape out of order"
            out.append((latency, err))
        if len(rows) != len(want):
            out.append((0.0, f"{preset} d{d}: {len(rows)} rows, pinned {len(want)}"))
        return out


def sweep_codes(rows) -> list:
    """One 3-character code per row: closed_form, ground_truth, agree."""
    def c(b):
        return "-" if b is None else str(int(b))
    return [c(r.closed_form) + c(r.ground_truth) + c(r.agree) for r in rows]


class AlgebraIdentities:
    """phi^-1 M phi == mult_operator(u) per preset, and central-element
    divisibility of the symmetric basis per shape."""

    def __init__(self, sf, seed: int, workdir: Path):
        self.sf = sf
        self.ops = []
        for dims in algebra_shapes():
            self.ops += [("conjugacy", dims, preset) for preset in sf.game.PRESET_NAMES]
            self.ops.append(("central", dims, None))
        random.Random(seed).shuffle(self.ops)

    def units(self) -> list:
        return [lambda call, op=op: self._run(call, op) for op in self.ops]

    def _conjugacy(self, dims, preset):
        sf = self.sf
        shape = sf.game.GridShape(dims)
        g = sf.game.GameSpec.preset(preset, shape)
        qs = sf.game.quotient_shape(shape)
        lhs = qs.phi_inverse_matrix() @ sf.game.adjacency_matrix(g) @ qs.phi_matrix()
        return lhs == sf.algebra.mult_operator(sf.game.u_element(g))

    def _central(self, dims):
        sf = self.sf
        shape = sf.game.GridShape(dims)
        qs = sf.game.quotient_shape(shape)
        central = sf.symmetry.central_element(shape)
        targets = [sf.algebra.phi_inverse(w, qs)
                   for w in sf.symmetry.symmetric_basis(shape).basis]
        return sf.algebra.divides_all(central, targets)

    def _run(self, call, op):
        kind, dims, preset = op
        if kind == "conjugacy":
            latency, ok = _timed(call, self._conjugacy, dims, preset)
            err = None if ok is True else f"{board_key(preset, dims)}: phi conjugacy fails"
        else:
            latency, got = _timed(call, self._central, dims)
            orbits = math.prod((n + 1) // 2 for n in dims)
            err = None if (len(got) == orbits and all(got)) else \
                f"{shape_text(dims)}: central element does not divide every orbit"
        return [(latency, err)]


class Workload:
    """The units of its parts, part after part, in one pass."""

    name = ""
    parts: tuple = ()

    def __init__(self, sf, seed: int, workdir: Path):
        self.members = [part(sf, seed, workdir) for part in self.parts]

    def units(self) -> list:
        return [unit for member in self.members for unit in member.units()]

    def warmup_units(self) -> list:
        """One unit of each part, run untimed before the first pass."""
        return [member.units()[0] for member in self.members]


class Boards(Workload):
    name = "boards"
    parts = (BigBoards, MediumSweep)


class SmallShapes(Workload):
    name = "small_shapes"
    parts = (SmallSweep, AlgebraIdentities)


WORKLOADS = {w.name: w for w in (Boards, SmallShapes)}
