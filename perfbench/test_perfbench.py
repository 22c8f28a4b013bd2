"""The benchmark's own test, at ``--scale small``.

Two same-seed runs of every workload must agree exactly on their counts,
every run must pass its output checks, and per-layer self times must never
exceed the spans they belong to.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("knw-stream", "keyed-hll", "durable-l0")

#: Counts that must repeat exactly between two same-seed traced runs.
COUNTS = (
    "hashing.uniform.draws",
    "kernels.calls",
    "kernels.kwise_mod_range.items",
    "kernels.affine_mod_range.items",
    "vectorize.as_key_array.items",
    "store.rows",
    "store.array.grow.calls",
    "store.store.estimate.calls",
    "serialize.dumps.bytes",
    "serialize.dumps_tree.bytes",
    "durability.append.calls",
    "durability.append.bytes",
    "durability.write_snapshot.bytes",
    "durability.recover.records_replayed",
    "parallel.transport.bytes",
    "trace.spans",
)


def _run(workload, trace, seed=3):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
         "--scale", "small"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    info, result = (json.loads(line) for line in out.stdout.strip().splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, info["perfbench"]["failures"]
    assert result["attempted"] >= 1
    declared = _declared("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    return info["perfbench"], {k: v["value"] for k, v in result["metrics"].items()}


def _declared(section):
    """``{name: unit}`` of one metric section of BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return {metric["name"]: metric["unit"] for metric in json.load(handle)[section]}


def _pair(workload, trace):
    """Two same-seed runs, side by side (one per core)."""
    with ThreadPoolExecutor(max_workers=2) as pool:
        runs = [pool.submit(_run, workload, trace) for _ in range(2)]
        return [run.result() for run in runs]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_runs_repeat_exactly(workload):
    (first_info, first), (second_info, second) = _pair(workload, trace=1)
    assert first_info["input_fingerprint"] == second_info["input_fingerprint"]
    assert first_info["environment"]["kernel_backend"]["name"] == "compiled"
    for name in COUNTS:
        assert first[name] == second[name], name
    for name, value in first.items():
        if name.endswith("self_s"):
            assert value >= 0, name

    plain = [metrics for _, metrics in _pair(workload, trace=0)]
    assert plain[0]["sketch_bytes"] == plain[1]["sketch_bytes"] > 0
    assert all(value > 0 for value in plain[0].values())


def test_self_time_never_exceeds_parent_span():
    from tracing import Tracer

    tracer = Tracer(trace_id=1)
    leaf = tracer.spanned("kernels.leaf", lambda: time.sleep(0.002))
    counted = tracer.counted_call("hashing.uniform", lambda: time.sleep(0.001))

    def middle():
        leaf()
        counted()
        leaf()

    tracer.call("write", tracer.spanned("core.middle", middle))
    spans = {span[2]: span for span in tracer.spans}
    assert tracer.nesting_violations() == []
    metrics = tracer.metrics()
    write = spans["write"][4] - spans["write"][3]
    middle_span = spans["core.middle"][4] - spans["core.middle"][3]
    assert 0 <= metrics["split.write.core_s"] * 1e9 <= middle_span <= write
    assert metrics["split.write.hashing_s"] > 0
    total = sum(metrics["split.write.%s_s" % layer] for layer in
                ("other", "kernels", "hashing", "core"))
    assert total == pytest.approx(write / 1e9, rel=1e-9)
