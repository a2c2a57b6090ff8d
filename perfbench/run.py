"""sigma-forge benchmark: run one workload, check every answer, print metrics.

    python3 perfbench/run.py --workload boards --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout; sigma_forge is imported from its
``src`` directory.  With ``--trace 0`` the last stdout line is a JSON
object holding the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics of a traced run and the tracing overhead.  Earlier
lines give the host, the tail percentile with its sample count, and the
failed / attempted ops.  Detail files go to ``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 7

sys.path.insert(0, str(HERE))
import reference  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def import_sigma_forge():
    """The package under test, from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import sigma_forge
        from sigma_forge import algebra, cli, game, gf2, poly2, solver, symmetry  # noqa: F401
    except ImportError as exc:
        raise SystemExit(f"error: cannot import sigma_forge from {src}: {exc}")
    if Path(sigma_forge.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"error: sigma_forge was imported from {sigma_forge.__file__}, "
                         f"not from {src}")
    return sigma_forge


def host_info(load_at_start) -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "cpu_model": model or platform.processor(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "loadavg_start": list(load_at_start),
    }


def lru_caches(pkg) -> list:
    """Every functools cache in the package's modules."""
    found = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == pkg.__name__ or name.startswith(pkg.__name__ + ".")):
            continue
        for value in vars(mod).values():
            if callable(getattr(value, "cache_clear", None)):
                found[id(value)] = value
    return list(found.values())


def clear_caches(caches):
    for c in caches:
        c.cache_clear()


def run_pass(units, caches, call, latencies, errors, between_ops=None):
    """One pass over every unit, caches emptied first, so no pass reuses
    an entry an earlier pass left behind."""
    clear_caches(caches)
    for unit in units:
        for latency, err in workloads.run_guarded(unit, call):
            latencies.append(latency)
            errors.append(err)
        if between_ops is not None:
            between_ops()


def plain_call(fn, *args):
    return fn(*args)


def tail_percentile(n: int) -> float:
    """Highest percentile, in 0.1 steps and at most p98, with at least
    ten of n samples above it.  Above p98 the millisecond ops of
    small_shapes time the shared host's stalls more than the program:
    their p99 moved by 10% between identical runs."""
    for tenths in range(980, 499, -1):
        if n - math.ceil(tenths * n / 1000) >= 10:
            return tenths / 10
    return 50.0


def percentile(sorted_values, p: float) -> float:
    """Nearest-rank percentile."""
    k = max(1, math.ceil(p * len(sorted_values) / 100))
    return sorted_values[k - 1]


def op_time_metrics(latencies, p_tail: float) -> dict:
    lat = sorted(latencies)
    return {"ops_per_s": (len(lat) / sum(lat), "1/s"),
            "op_p50_ms": (1000 * statistics.median(lat), "ms"),
            "op_tail_ms": (1000 * percentile(lat, p_tail), "ms")}


def setup_probe_seconds(workload: str, seed: int) -> float:
    """CPU seconds a fresh process spends from its start until it has
    imported sigma_forge and generated the workload's inputs, as the
    process itself reads them from its CPU clock."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        proc.stdout.read()
        rc = proc.wait(timeout=60)
    word, _, seconds = line.partition(" ")
    if word != "ready" or rc != 0:
        raise SystemExit(f"error: setup probe failed (exit {rc}): {line!r}")
    return float(seconds)


def report_failures(errors):
    failed = [e for e in errors if e is not None]
    for e in sorted(set(failed))[:20]:
        print(f"FAILED: {e}")
    return len(failed)


def main(argv=None) -> int:
    load_at_start = os.getloadavg()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="import and generate inputs, print 'ready' and the "
                         "CPU seconds spent, exit")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    sf = import_sigma_forge()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        workload = workloads.WORKLOADS[args.workload](sf, args.seed, workdir)
        if args.setup_probe:
            print(f"ready {workloads.clock()!r}", flush=True)
            return 0
        return measure(sf, workload, args, load_at_start)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(sf, workload, args, load_at_start) -> int:
    host = host_info(load_at_start)
    print("host: " + json.dumps(host))
    setups = []
    if not args.trace:
        setups = [setup_probe_seconds(args.workload, args.seed) for _ in range(SETUP_PROBES)]

    caches = lru_caches(sf)
    units = workload.units()
    # glibc raises its mmap threshold the first time a large block is
    # freed, so where a run's peak RSS lands would depend on the order of
    # the first big allocations.  Freeing one untouched 30 MiB block now
    # puts the allocator in that state before any op runs.
    block = np.empty(30 << 20, dtype=np.uint8)
    del block
    # one untimed unit of each part, so lazy set-up inside numpy and the
    # interpreter is not charged to the first op; its cache entries are
    # dropped
    for unit in workload.warmup_units():
        workloads.run_guarded(unit, plain_call)
    clear_caches(caches)
    gc.collect()

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "host": host}
    if args.trace:
        metrics, errors = traced_run(sf, units, caches, args, tag, detail)
    else:
        speed = reference.HostSpeed()
        raw, latencies, errors, pass_walls, factors = [], [], [], [], []
        start = time.perf_counter()
        while time.perf_counter() - start < args.seconds:
            t0 = time.perf_counter()
            speed.start_pass()
            done = len(raw)
            run_pass(units, caches, plain_call, raw, errors, speed.between_ops)
            factor = speed.end_pass()
            latencies += [x * factor for x in raw[done:]]
            factors.append(factor)
            pass_walls.append(time.perf_counter() - t0)
            if len(pass_walls) == 1:
                # later passes find a heap the earlier ones fragmented,
                # which moved the high-water mark by 9% between seeds
                rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        passes = len(pass_walls)
        # the percentile is fixed by the size of two passes, so runs that
        # fit a different number of passes report the same percentile
        p_tail = tail_percentile(min(len(raw), 2 * len(raw) // passes))
        values = {"setup_s": (statistics.median(setups), "s"),
                  **op_time_metrics(latencies, p_tail),
                  "peak_rss_mb": (rss_mb, "MB")}
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
        cpu = {k: v for k, (v, _) in op_time_metrics(raw, p_tail).items()}
        detail.update(passes=passes, ops=len(raw), tail_percentile=p_tail,
                      setup_samples_s=setups, pass_factors=factors, pass_wall_s=pass_walls,
                      kernel_samples_s=speed.passes, unscaled_metrics=cpu)
        print(f"passes: {passes}, ops: {len(raw)}, op_tail_ms is p{p_tail:g} "
              f"of {len(raw)} samples")
        print("host speed factor per pass: " + " ".join(f"{f:.3f}" for f in factors))
        print("unscaled CPU time: " + ", ".join(f"{k} = {v:.6g}" for k, v in cpu.items()))

    failed = report_failures(errors)
    attempted = len(errors)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"fail_frac = {failed / max(attempted, 1):g} ({failed} failed / {attempted} attempted)")
    detail.update(failed=failed, attempted=attempted, metrics=metrics)
    (OUT / f"result-{tag}.json").write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def traced_run(sf, units, caches, args, tag, detail):
    """Untraced and traced passes in turn until the budget is spent; the
    difference in op CPU time between the two halves is the tracing
    overhead.  Layer values are per pass over the op list."""
    tracer = tracing.Tracer()
    traced_call = lambda fn, *a: tracer.span(tracing.BENCH_OP, fn, *a)  # noqa: E731
    lat_a, lat_b, errors = [], [], []
    passes = 0
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds:
        # alternate which half goes first, so drift in host speed cancels
        for traced in (passes % 2, 1 - passes % 2):
            if not traced:
                run_pass(units, caches, plain_call, lat_a, errors)
                continue
            missing = tracer.install(sf)
            try:
                run_pass(units, caches, traced_call, lat_b, errors)
            finally:
                tracer.uninstall()
        passes += 1
    if missing:
        print("not traced, absent from sigma_forge: " + ", ".join(missing))
    untraced, traced = sum(lat_a), sum(lat_b)
    layer = tracer.layer_metrics(passes)
    layer["trace.overhead_s"] = (traced - untraced) / passes
    layer["trace.overhead_frac"] = (traced - untraced) / untraced
    metrics = {name: {"value": layer[name], "unit": unit}
               for name, unit in tracing.LAYER_METRICS}
    spans_path = OUT / f"spans-{tag}.csv.gz"
    tracer.write_spans(spans_path)
    detail.update(passes=passes, untraced_s=untraced, traced_s=traced,
                  spans_file=spans_path.name)
    print(f"passes: {passes} untraced and {passes} traced, in turn; op CPU time "
          f"{untraced:.3f} s untraced, {traced:.3f} s traced; "
          f"spans in {spans_path.relative_to(ROOT)}")
    return metrics, errors


if __name__ == "__main__":
    sys.exit(main())
