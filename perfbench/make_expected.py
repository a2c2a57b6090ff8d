"""Regenerate perfbench/expected.json, the answers the benchmark pins.

    python3 perfbench/make_expected.py

Run it only on a commit whose answers are trusted: the committed file
holds the decisions, nullities and sweep rows of the initial code, and
the benchmark counts any op that disagrees with them as failed.  Witness
and certificate bytes are not pinned; they are checked directly.
"""
from __future__ import annotations

import json
import sys

from run import import_sigma_forge
import workloads


def main() -> int:
    sf = import_sigma_forge()
    game, gf2, solver, symmetry = sf.game, sf.gf2, sf.solver, sf.symmetry

    def board(preset, dims):
        g = game.GameSpec.preset(preset, game.GridShape(dims))
        m = game.adjacency_matrix(g)
        return g, len(gf2.kernel_basis(m))

    big = {}
    for preset, dims in workloads.BIG_BOARDS:
        g, nullity = board(preset, dims)
        big[workloads.board_key(preset, dims)] = {
            "nullity": nullity,
            "all-on": solver.achievable(g, solver.all_on(g.shape)).achievable,
            "central": solver.achievable(
                g, symmetry.central_configuration(g.shape)).achievable,
            "symmetric": solver.symmetric_achievability(g).achievable,
        }
        game.adjacency_matrix.cache_clear()

    medium = {}
    for preset in workloads.SIGMA_PLUS:
        medium[preset] = {}
        for dims in workloads.medium_candidates():
            g, nullity = board(preset, dims)
            allon = solver.achievable(g, solver.all_on(g.shape)).achievable
            sym = solver.symmetric_achievability(g).achievable
            medium[preset][workloads.shape_text(dims)] = f"{nullity} {int(allon)} {int(sym)}"
        game.adjacency_matrix.cache_clear()

    small = {}
    for preset in game.PRESET_NAMES:
        for d, max_n in workloads.SMALL_RANGES:
            rows = solver.sweep(preset, d, max_n)
            small[f"{preset} d{d} n{max_n}"] = "".join(workloads.sweep_codes(rows))

    data = {"big_boards": big, "medium_sweep": medium, "small_sweep": small}
    with open(workloads.EXPECTED_PATH, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
