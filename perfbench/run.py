"""Run one benchmark workload and print its metrics as JSON.

Usage (from the root of a source checkout)::

    python3 perfbench/run.py --workload knw-stream --seed 1 --seconds 10 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs a fixed
number of untraced passes, then one traced pass on the same inputs, and
prints every per-layer metric.  The last stdout line is the result
object (``correct``, ``attempted``, ``failed``, ``metrics``); the line
before it records the input fingerprint and the pinned environment.

The program is imported from ``src/`` of the current directory, with the
compiled kernel backend forced and its build cache kept in
``.bench_build/``.  Without ``src/repro`` the run fails before printing a
result.  See ``README.md`` for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))

#: Fresh interpreters timed for ``setup_s`` before the timed passes, and as
#: many again after them; the median over both batches is reported, so one
#: slow minute of a shared host does not set it.
SETUP_REPS = {"full": 4, "small": 1}

#: Untraced passes before the traced one; their median rate is the
#: baseline the tracing overhead is reported against.
UNTRACED_PASSES = {"full": 3, "small": 1}

END_TO_END_UNITS = {
    "setup_s": "s",
    "ingest_items_per_s": "items/s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "commit_p50_ms": "ms",
    "commit_p90_ms": "ms",
    "recovery_s": "s",
    "sketch_bytes": "bytes",
    "peak_rss_mb": "MiB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["knw-stream", "keyed-hll", "durable-l0"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", choices=["full", "small"], default="full",
                        help="input sizes; 'small' is for the benchmark's own test")
    return parser.parse_args(argv)


def pin_environment(root):
    """Import ``repro`` from ``root/src`` with the compiled backend forced."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise SystemExit("perfbench: no repro sources under %s" % src)
    bench_dir = os.path.join(root, ".bench_build")
    # Temporary files (the compiler's, the pool's staged payloads) stay
    # inside the checkout too.
    os.makedirs(os.path.join(bench_dir, "tmp"), exist_ok=True)
    os.environ["TMPDIR"] = os.path.join(bench_dir, "tmp")
    tempfile.tempdir = None
    os.environ["REPRO_KERNEL_BACKEND"] = "compiled"
    os.environ["REPRO_KERNEL_BUILD_DIR"] = os.path.join(bench_dir, "kernels")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [src, HERE] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    sys.path[:0] = [src, HERE]
    import repro
    import repro.kernels

    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        raise SystemExit("perfbench: imported repro from %s, not %s" % (repro.__file__, src))
    # Forced backend: a machine that cannot build it fails here instead of
    # silently measuring the NumPy reference.  This also warms the cache.
    if repro.kernels.active().name != "compiled":
        raise SystemExit("perfbench: compiled kernel backend not active")


def time_setups(workload, reps, workdir, rec):
    """Spawn → ready wall times of ``reps`` fresh interpreters."""
    samples = []
    for rep in range(reps):
        directory = os.path.join(workdir, "setup-%d" % rep)
        rec.attempted += 1
        start = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), workload, directory],
            stdout=subprocess.PIPE,
            text=True,
        )
        line = child.stdout.readline().strip()
        elapsed = time.perf_counter() - start
        child.stdout.read()
        code = child.wait(timeout=60)
        shutil.rmtree(directory, ignore_errors=True)
        if line == "ready" and code == 0:
            samples.append(elapsed)
        else:
            rec.failed += 1
            rec.failures.append("setup probe %d: %r, exit %d" % (rep, line, code))
    return samples


def time_cold_build(workdir):
    """Wall time of a cold kernel build (compile + load-time self-test)."""
    env = dict(os.environ, REPRO_KERNEL_BUILD_DIR=os.path.join(workdir, "cold-build"))
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c",
         "import repro.kernels as k; k.load_backend('compiled')"],
        env=env, check=True,
    )
    return time.perf_counter() - start


def percentile_ms(samples, q):
    import numpy as np

    return float(np.percentile(np.asarray(samples), q)) * 1e3 if samples else float("nan")


def median(samples):
    return statistics.median(samples) if samples else float("nan")


def environment():
    import numpy as np
    import repro.kernels
    import repro.parallel

    return {
        "kernel_backend": repro.kernels.kernel_backend_info(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "pool_stats": repro.parallel.pool_stats(),
    }


def end_to_end(workload, rec, setup_s):
    reads, writes = rec.fastest("read"), rec.fastest("write")
    values = {
        "setup_s": setup_s,
        "ingest_items_per_s": median(rec.ingest_rates()),
        "query_p50_ms": percentile_ms(reads, 50),
        "query_p90_ms": percentile_ms(reads, 90),
        "commit_p50_ms": percentile_ms(writes, 50),
        "commit_p90_ms": percentile_ms(writes, 90),
        "recovery_s": median(rec.fastest("recover")),
        "sketch_bytes": workload.sketch_bytes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()}


def per_layer(workload, args, workdir, rec):
    import repro.parallel
    from tracing import Tracer, instrument

    untraced = UNTRACED_PASSES[args.scale]
    workload.run(rec, passes=untraced)
    baseline = median(rec.ingest_rates())
    tracer = Tracer(trace_id=args.seed)
    traced = type(rec)(tracer)
    instrument(tracer)
    try:
        workload.run(traced, passes=1, first=untraced)
        workload.cross_check(traced)
    finally:
        tracer.restore()
    workload.finish(rec)
    for name in ("attempted", "failed"):
        setattr(rec, name, getattr(rec, name) + getattr(traced, name))
    rec.failures += traced.failures
    tracer.gauges["store.rows"] = getattr(workload, "rows", 0)
    if workload.name == "durable-l0":
        tracer.gauges["durability.updates"] = workload.updates
    violations = tracer.nesting_violations()
    rec.check(not violations, "child spans exceed their parent: %s" % violations[:5])
    metrics = tracer.metrics()
    stats = repro.parallel.pool_stats()
    metrics["parallel.pool.created"] = stats["created"]
    metrics["parallel.pool.restarts"] = stats["restarts"]
    metrics["kernels.build_s"] = time_cold_build(workdir)
    rate = median(traced.ingest_rates())
    metrics["trace.ingest_items_per_s"] = rate
    metrics["trace.untraced_ingest_items_per_s"] = baseline
    metrics["trace.overhead_pct"] = (baseline / rate - 1.0) * 100.0
    return {name: {"value": value, "unit": _layer_unit(name)}
            for name, value in metrics.items()}


def _layer_unit(name):
    suffix = name.rsplit(".", 1)[-1]
    if suffix.endswith("items_per_s"):
        return "items/s"
    if suffix.endswith("_ms"):
        return "ms"
    if suffix.endswith("_s"):
        return "s"
    if suffix in ("bytes", "items"):
        return suffix
    if suffix == "bytes_per_update":
        return "bytes/update"
    if suffix == "overhead_pct":
        return "%"
    return "count"


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    pin_environment(root)
    import repro.parallel
    from workloads import Recorder, build

    workdir = tempfile.mkdtemp(prefix="work-", dir=os.path.join(root, ".bench_build"))
    rec = Recorder()
    try:
        if not args.trace:
            setups = time_setups(args.workload, SETUP_REPS[args.scale], workdir, rec)
        workload = build(args.workload, args.seed, args.scale, workdir)
        workload.prepare(rec)
        if args.trace:
            metrics = per_layer(workload, args, workdir, rec)
        else:
            workload.run(rec, seconds=args.seconds)
            setups += time_setups(args.workload, SETUP_REPS[args.scale], workdir, rec)
            workload.cross_check(rec)
            workload.finish(rec)
            metrics = end_to_end(workload, rec, median(setups))
        info = {
            "workload": args.workload,
            "seed": args.seed,
            "scale": args.scale,
            "input_fingerprint": workload.fingerprint,
            "environment": environment(),
            "failures": rec.failures[:20],
        }
    finally:
        repro.parallel.shutdown_pool(wait=True)
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"perfbench": info}, sort_keys=True))
    print(json.dumps({
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
