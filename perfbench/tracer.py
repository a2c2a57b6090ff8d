"""Spans around the calls into each sigma_forge layer, from outside it.

``Tracer.install`` replaces every reference to a traced function in
every loaded ``sigma_forge`` module, so names imported with ``from ...
import`` (``solver`` and ``cli`` import ``adjacency_matrix``, ``solver``
imports ``symmetric_basis``) are intercepted as well as module
attributes.  Spans are kept in memory as (name, parent, start, end,
extra) and summarised, or written, only when the run ends.  They are
timed on the wall clock, which is five times cheaper to read than the
CPU clock the ops are timed on, so tracing disturbs small calls less.

A span's self time is its duration minus the durations of its direct
children.  A group's ``calls`` counts only its outermost spans (a span
whose parent is in another group), so ``pow`` calling ``@`` is one
product call and ``in_image`` calling ``kernel_basis`` one elimination.
"""
from __future__ import annotations

import functools
import gzip
import sys
import time

# group -> (module or class path, attribute) of the traced entry points
GROUPS = {
    "gf2.eliminate": [("gf2", "rank"), ("gf2", "kernel_basis"), ("gf2", "solve"),
                      ("gf2", "solve_with_certificate"), ("gf2", "in_image"),
                      ("gf2", "in_image_many")],
    "gf2.product": [("gf2.BitMatrix", "mul_vec"), ("gf2.BitMatrix", "__matmul__"),
                    ("gf2.BitMatrix", "pow"), ("gf2", "kronecker")],
    "game.adjacency_matrix": [("game", "adjacency_matrix")],
    "symmetry.symmetric_basis": [("symmetry", "symmetric_basis")],
    "symmetry.central_configuration": [("symmetry", "central_configuration")],
    "solver.achievable": [("solver", "achievable")],
    "solver.symmetric_achievability": [("solver", "symmetric_achievability")],
    "solver.closed_form_value": [("solver", "closed_form_value")],
    "solver.sweep": [("solver", "sweep")],
    "algebra.mult_operator": [("algebra", "mult_operator")],
    "algebra.divides_all": [("algebra", "divides_all")],
    "algebra.phi_inverse": [("algebra", "phi_inverse")],
    "algebra.axis_mult_ops": [("algebra.QuotientShape", "axis_mult_ops")],
    "poly2.chebyshev_q": [("poly2", "chebyshev_q")],
    "cli.main": [("cli", "main")],
    "cli.format_grid": [("cli", "format_grid")],
}

BENCH_OP = "bench.op"

# the per-layer metrics a traced run reports: (name, unit)
LAYER_METRICS = [
    ("gf2.eliminate.calls", "count"), ("gf2.eliminate.s", "s"),
    ("gf2.eliminate.share", "frac"), ("gf2.eliminate.cells", "count"),
    ("gf2.product.calls", "count"), ("gf2.product.s", "s"),
    ("gf2.product.share", "frac"),
    ("game.adjacency_matrix.calls", "count"), ("game.adjacency_matrix.s", "s"),
    ("game.adjacency_matrix.hit_frac", "frac"),
    ("game.adjacency_matrix.dense_bytes", "B"),
    ("symmetry.symmetric_basis.calls", "count"), ("symmetry.symmetric_basis.s", "s"),
    ("symmetry.central_configuration.s", "s"),
    ("solver.achievable.s", "s"), ("solver.symmetric_achievability.s", "s"),
    ("solver.closed_form_value.s", "s"), ("solver.sweep.s", "s"),
    ("algebra.mult_operator.calls", "count"), ("algebra.mult_operator.s", "s"),
    ("algebra.divides_all.calls", "count"), ("algebra.divides_all.s", "s"),
    ("algebra.phi_inverse.calls", "count"), ("algebra.phi_inverse.s", "s"),
    ("algebra.axis_mult_ops.calls", "count"),
    ("poly2.chebyshev_q.calls", "count"), ("poly2.chebyshev_q.s", "s"),
    ("cli.main.s", "s"), ("cli.format_grid.s", "s"),
    ("trace.wall_s", "s"), ("trace.overhead_s", "s"), ("trace.overhead_frac", "frac"),
    ("trace.spans", "count"),
]


def _resolve(pkg, path: str):
    obj = pkg
    for part in path.split("."):
        obj = getattr(obj, part, None)
    return obj


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._patches: list = []
        self.cache_hits = 0
        self.cache_misses = 0

    # -- recording ------------------------------------------------------

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span called name."""
        rec = [name, self._stack[-1] if self._stack else -1, 0.0, 0.0, 0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[2] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[3] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, group: str, fn):
        span = self.span
        if group == "gf2.eliminate":
            @functools.wraps(fn)
            def traced(m, *args, **kwargs):
                n = len(self.spans)
                try:
                    return span(group, fn, m, *args, **kwargs)
                finally:
                    self.spans[n][4] = m.rows * m.cols
        elif group == "game.adjacency_matrix" and hasattr(fn, "cache_info"):
            @functools.wraps(fn)
            def traced(g):
                misses = fn.cache_info().misses
                n = len(self.spans)
                try:
                    return span(group, fn, g)
                finally:
                    if fn.cache_info().misses != misses:
                        self.cache_misses += 1
                        self.spans[n][4] = g.shape.total ** 2
                    else:
                        self.cache_hits += 1
        else:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                return span(group, fn, *args, **kwargs)
        return traced

    # -- patching -------------------------------------------------------

    def install(self, pkg) -> list:
        """Wrap every traced entry point at every place it is bound;
        returns the entry points the package does not have."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == pkg.__name__
                                         or name.startswith(pkg.__name__ + "."))]
        missing = []
        for group, targets in GROUPS.items():
            for path, attr in targets:
                owner = _resolve(pkg, path)
                if isinstance(owner, type) and attr in owner.__dict__:
                    original = owner.__dict__[attr]
                    self._patch(owner, attr, original, self._wrap(group, original))
                    continue
                original = getattr(owner, attr, None)
                if isinstance(owner, type) or original is None:
                    missing.append(f"{path}.{attr}")
                    continue
                wrapped = self._wrap(group, original)
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, name, original, wrapped)
        return missing

    def _patch(self, owner, name, original, wrapped):
        setattr(owner, name, wrapped)
        self._patches.append((owner, name, original))

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # -- summary --------------------------------------------------------

    def layer_metrics(self, passes: int) -> dict:
        """Per-group calls, self time and extras per pass, and self time
        as a share of the wall time of the traced ops."""
        spans = self.spans
        child = [0.0] * len(spans)
        wall_s = 0.0
        for name, parent, t0, t1, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
            elif name == BENCH_OP:
                wall_s += t1 - t0
        calls: dict = {}
        self_s: dict = {}
        extra: dict = {}
        for i, (name, parent, t0, t1, x) in enumerate(spans):
            self_s[name] = self_s.get(name, 0.0) + (t1 - t0) - child[i]
            if parent < 0 or spans[parent][0] != name:
                calls[name] = calls.get(name, 0) + 1
                extra[name] = extra.get(name, 0) + x

        def per_pass(total):
            v = total / passes
            return int(v) if isinstance(total, int) and v.is_integer() else v

        out = {}
        for group in GROUPS:
            s = self_s.get(group, 0.0)
            out[f"{group}.calls"] = per_pass(calls.get(group, 0))
            out[f"{group}.s"] = s / passes
            out[f"{group}.share"] = s / wall_s if wall_s > 0 else 0.0
        out["gf2.eliminate.cells"] = per_pass(extra.get("gf2.eliminate", 0))
        out["game.adjacency_matrix.dense_bytes"] = per_pass(extra.get("game.adjacency_matrix", 0))
        lookups = self.cache_hits + self.cache_misses
        out["game.adjacency_matrix.hit_frac"] = self.cache_hits / lookups if lookups else 0.0
        out["trace.wall_s"] = wall_s / passes
        out["trace.spans"] = per_pass(len(spans))
        return out

    def write_spans(self, path):
        """Spans as gzipped CSV: index,name,parent,start_s,end_s,extra."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("index,name,parent,start_s,end_s,extra\n")
            for i, (name, parent, t0, t1, x) in enumerate(self.spans):
                fh.write(f"{i},{name},{parent},{t0:.9f},{t1:.9f},{x}\n")
