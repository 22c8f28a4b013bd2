"""One fresh-interpreter set-up for ``setup_s``; run by ``run.py``.

Usage: ``python3 setup_probe.py <workload> <empty-dir>``.  Imports
``repro``, resolves the kernel backend, builds the workload's state and
prints ``ready`` once it could ingest; the parent times spawn → ``ready``.
The durable workload also opens a ``Checkpointer`` on the empty directory
and starts the two-worker pool, waiting for both workers.
"""

from __future__ import annotations

import os
import sys


def main(workload: str, directory: str) -> None:
    import repro
    import repro.kernels
    import repro.parallel
    from repro.estimators.registry import make_f0_estimator, make_l0_estimator
    from repro.store import SketchStore

    from workloads import SNAPSHOT_EVERY, WORKLOADS

    if repro.kernels.active().name != "compiled":
        raise SystemExit("compiled kernel backend not active")
    eps = WORKLOADS[workload].eps
    universe = WORKLOADS[workload].universe
    closers = []
    if workload == "knw-stream":
        make_f0_estimator("knw", universe, eps, 1)
    elif workload == "keyed-hll":
        SketchStore.for_family("hyperloglog", universe, eps=eps, seed=1)
    else:
        # durable-l0: the Checkpointer on the empty directory, and both
        # workers of the pool its passes shard through forked and answering.
        sketch = make_l0_estimator("knw-l0", universe, eps, 1 << 20, 1)
        checkpointer = repro.Checkpointer(
            sketch, directory, snapshot_every=SNAPSHOT_EVERY
        )
        closers.append(checkpointer.close)
        pool = repro.parallel.get_pool(2)
        for future in [pool.submit(os.getpid) for _ in range(2)]:
            future.result()
        closers.append(repro.parallel.shutdown_pool)
    print("ready", flush=True)
    for close in closers:
        close()


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
