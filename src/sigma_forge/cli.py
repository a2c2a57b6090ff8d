"""Command-line front end.

Exit codes: 0 success / achievable / agreement, 1 not achievable or
sweep disagreement, 2 usage error.  Output is deterministic: identical
invocations produce byte-identical output.
"""
from __future__ import annotations

import argparse
import sys
from functools import lru_cache
from typing import Optional

import numpy as np

from . import gf2, solver, symmetry
from .game import PRESET_NAMES, GridShape, adjacency_matrix, parse_game, parse_shape
from .gf2 import BitVector
from .poly2 import chebyshev_q


def format_grid(v: BitVector, shape: GridShape) -> str:
    """Rows of the last axis, one line each, entries separated by a space;
    for d >= 3, the 2-d slices of the last two axes are separated by one
    blank line.  The text is laid out as one byte array."""
    dims = shape.dims
    n = dims[-1]
    lines = np.full((shape.total // n, 2 * n), ord(" "), dtype=np.uint8)
    lines[:, ::2] = v.to_array().reshape(-1, n) + ord("0")
    lines[:, -1] = ord("\n")
    if shape.d < 3:
        return lines.tobytes()[:-1].decode("ascii")
    slices = np.full((shape.total // (dims[-2] * n), dims[-2] * 2 * n + 1), ord("\n"),
                     dtype=np.uint8)
    slices[:, :-1] = lines.reshape(slices.shape[0], -1)
    return slices.tobytes()[:-2].decode("ascii")


def parse_grid(text: str, shape: GridShape) -> BitVector:
    """Whitespace-separated 0/1 entries (contiguous digit runs allowed);
    any other character, a non-ASCII digit included, is refused."""
    digits = "".join(text.split()).encode("utf-8", "surrogatepass")
    # uint8: a byte below "0" wraps above 1, and every byte of a
    # non-ASCII character is 0x80 or more
    bits = np.frombuffer(digits, dtype=np.uint8) - ord("0")
    if bits.size != shape.total or (bits > 1).any():
        raise ValueError(f"grid data does not match shape {shape} "
                         f"(need {shape.total} 0/1 entries)")
    return BitVector._of(shape.total, gf2._bits_int(bits))


def _load_grid_file(path: str, shape: GridShape) -> BitVector:
    try:
        with open(path) as fh:
            return parse_grid(fh.read(), shape)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None


def _board(args):
    """(shape, game) of --shape and --game; a board too large for the
    dense game matrix is refused here, before a target is built."""
    shape = parse_shape(args.shape)
    gf2._check_dense(shape.total, shape.total)
    return shape, parse_game(args.game, shape)


def _resolve_target(spec: str, shape: GridShape) -> BitVector:
    if spec == "all-on":
        return solver.all_on(shape)
    if spec == "central":
        return symmetry.central_configuration(shape)
    if spec.startswith("file:"):
        return _load_grid_file(spec[len("file:"):], shape)
    raise ValueError(f"bad target {spec!r}; expected all-on, central, or file:PATH")


def _cmd_solve(args) -> int:
    shape, g = _board(args)
    target = _resolve_target(args.target, shape)
    if args.verify:
        witness = _load_grid_file(args.verify, shape)
        produced = adjacency_matrix(g).mul_vec(witness)
        if produced == target:
            print("VERIFIED")
            return 0
        print("MISMATCH")
        print(format_grid(produced, shape))
        return 1
    report = solver.achievable(g, target, args.target)
    if report.achievable:
        print(format_grid(report.witness, shape))
        return 0
    print("UNACHIEVABLE")
    print("certificate (kernel vector not orthogonal to target):")
    print(format_grid(report.certificate, shape))
    return 1


def _cmd_check_symmetric(args) -> int:
    shape, g = _board(args)
    report = solver.symmetric_achievability(g)
    if report.achievable:
        print("ACHIEVABLE: every completely symmetric configuration is reachable")
        return 0
    print("UNACHIEVABLE")
    print("failing symmetric configuration:")
    print(format_grid(report.target, shape))
    print("certificate (kernel vector not orthogonal to it):")
    print(format_grid(report.certificate, shape))
    return 1


def _cmd_predicate(args) -> int:
    shape, g = _board(args)
    verdict = solver.principal_predicate(g)
    note = "" if args.game in PRESET_NAMES else " (hypothesis unverified)"
    print(f"closed_form: {int(verdict.closed_form)}{note}")
    print(f"ground_truth: {int(verdict.ground_truth)}")
    print(f"agree: {int(verdict.agree)}")
    return 0 if verdict.agree else 1


def _cmd_sweep(args) -> int:
    rows = solver.sweep(args.game, args.dims, args.max_n,
                        odd_only=args.odd_only, jobs=args.jobs)
    if args.format == "csv":
        sys.stdout.write(solver.sweep_csv(rows))
    else:
        for r in rows:
            cf = "-" if r.closed_form is None else int(r.closed_form)
            ag = "-" if r.agree is None else int(r.agree)
            print(f"{r.shape} {r.game} closed_form={cf} "
                  f"ground_truth={int(r.ground_truth)} agree={ag}")
    bad = solver.sweep_disagreements(rows)
    if bad:
        print(f"{len(bad)} disagreement(s) between closed form and ground truth",
              file=sys.stderr)
        return 1
    return 0


def _cmd_cheb(args) -> int:
    print(chebyshev_q(args.n).to_string())
    return 0


def _cmd_oracle(args) -> int:
    shape, g = _board(args)
    solver._check_oracle_size(shape)  # before a target is built
    target = _resolve_target(args.target, shape)
    by_oracle = solver.brute_force_oracle(g, target)
    by_solver = solver.achievable(g, target, args.target).achievable
    print(f"oracle: {int(by_oracle)}")
    print(f"solver: {int(by_solver)}")
    print(f"agree: {int(by_oracle == by_solver)}")
    return 0 if by_oracle == by_solver else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sigma-forge",
        description="Exact GF(2) solver and theorem cross-checker for "
                    "sigma games on d-dimensional grids.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_game_args(p):
        p.add_argument("--shape", required=True, help="grid shape, e.g. 3x5 or 3x4x5")
        p.add_argument("--game", required=True,
                       help="sigma+:box | sigma-:box | sigma+:boxtimes | "
                            "sigma-:boxtimes | custom:<tuple>;<tuple>;...")

    p = sub.add_parser("solve", help="find a push set for a target configuration")
    add_game_args(p)
    p.add_argument("--target", default="all-on", help="all-on | central | file:PATH")
    p.add_argument("--verify", metavar="FILE",
                   help="verify a printed push grid against the target instead of solving")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("check-symmetric",
                       help="decide achievability of the whole symmetric subspace")
    add_game_args(p)
    p.set_defaults(func=_cmd_check_symmetric)

    p = sub.add_parser("predicate",
                       help="2-d closed form vs linear-algebra ground truth")
    add_game_args(p)
    p.set_defaults(func=_cmd_predicate)

    p = sub.add_parser("sweep", help="cross-validate predicates over shape ranges")
    p.add_argument("--game", required=True)
    p.add_argument("--dims", type=int, default=2, help="grid dimension d")
    p.add_argument("--max-n", type=int, required=True, help="largest axis size")
    p.add_argument("--odd-only", action="store_true", help="odd axis sizes only")
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.add_argument("--jobs", type=int, default=1, help="parallel workers")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("cheb", help="print the degree-n Chebyshev-type polynomial")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_cheb)

    p = sub.add_parser("oracle", help="brute-force check against the solver")
    add_game_args(p)
    p.add_argument("--target", default="all-on", help="all-on | central | file:PATH")
    p.set_defaults(func=_cmd_oracle)

    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built on its first call and reused."""
    return build_parser()


def main(argv: Optional[list] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
