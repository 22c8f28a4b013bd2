"""The three benchmark workloads: seeded inputs, passes and output checks.

Every workload is a closed loop with one caller.  A *pass* ingests the
workload's whole input into fresh state, issuing one read request after
every write call, then persists and restores the final state.  Passes
repeat until the run's time is spent (and at least ``min_passes`` ran).

Inputs come from this module's own seeded NumPy code, never from
``repro.streams``, so no change to the program can alter them.  Exact
ground truth is computed with ``np.unique`` before any timing.

The program is reached through module attributes at call time
(``repro.recover``, ``repro.parallel.parallel_ingest_l0``, ...), so the
traced run's wrappers see every call.
"""

from __future__ import annotations

import gc
import hashlib
import os
import shutil
import statistics
import time

import numpy as np

import repro
import repro.parallel
from repro.estimators.registry import make_f0_estimator, make_l0_estimator
from repro.store import SketchStore

UNIVERSE = 1 << 32

#: Point reads in one read request; a request, not a single read, is the
#: timed unit, so no latency sample is a lone microsecond-scale call.
READS_PER_REQUEST = 256

#: Accuracy is checked like the envelope tests: the median relative error
#: over a workload's sketch seeds must stay within ENVELOPE_FACTOR * eps.
#: Seeds are configuration, not input: the run seed varies the inputs only.
#: Timed passes use the first; the others are ingested untimed for the check.
SKETCH_SEEDS = (1, 2, 3, 4, 5)
ENVELOPE_FACTOR = 3

#: ``snapshot_every`` of the durable workload.  With commits split so that
#: ``COMMITS % SNAPSHOT_EVERY == RECORDS_PAST_SNAPSHOT``, a fixed share of
#: commits (4 of 18) carries a snapshot and recovery always replays the
#: same number of records.
SNAPSHOT_EVERY = 4
COMMITS = 18
RECORDS_PAST_SNAPSHOT = COMMITS % SNAPSHOT_EVERY

SCALES = {
    "full": {
        "knw_items": 10 * 8192,
        "knw_distinct": 65_536,
        "knw_batch": 8192,
        "keyed_items": 1 << 20,
        "keyed_keys": 40_000,
        "keyed_batch": 16384,
        "churn_waves": 4,
        "churn_wave": 16384,
    },
    "small": {
        "knw_items": 6 * 2048,
        "knw_distinct": 2_000,
        "knw_batch": 2048,
        "keyed_items": 1 << 14,
        "keyed_keys": 2_000,
        "keyed_batch": 2048,
        "churn_waves": 3,
        "churn_wave": 2048,
    },
}


# ---------------------------------------------------------------------------
# Seeded inputs
# ---------------------------------------------------------------------------


def distinct_ids(rng, count, bound):
    """``count`` distinct uniform ids in ``[0, bound)``, in random order."""
    pool = np.empty(0, dtype=np.uint64)
    while len(pool) < count:
        fresh = rng.integers(0, bound, count + count // 50 + 16, dtype=np.uint64)
        pool = np.unique(np.concatenate([pool, fresh]))
    return rng.permutation(pool)[:count]


def churn_updates(rng, waves, wave_size, universe):
    """Insert-then-delete waves: each wave deletes 80% of what it inserted.

    Returns ``(items, deltas, truth)``; the L0 truth is driven down after
    every wave and ends at the survivors of all waves.
    """
    ids = distinct_ids(rng, waves * wave_size, universe)
    deleted = wave_size * 4 // 5
    items, deltas = [], []
    for wave in range(waves):
        inserted = ids[wave * wave_size : (wave + 1) * wave_size]
        items += [inserted, rng.permutation(inserted)[:deleted]]
        deltas += [
            np.ones(wave_size, dtype=np.int64),
            -np.ones(deleted, dtype=np.int64),
        ]
    items = np.concatenate(items)
    deltas = np.concatenate(deltas)
    unique, inverse = np.unique(items, return_inverse=True)
    net = np.zeros(len(unique), dtype=np.int64)
    np.add.at(net, inverse, deltas)
    return items, deltas, int(np.count_nonzero(net))


def fingerprint(*arrays):
    """SHA-256 over the arrays' dtypes, shapes and bytes."""
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(str((array.dtype.str, array.shape)).encode())
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()[:16]


def relative_error(estimate, truth):
    return abs(estimate - truth) / max(truth, 1)


# ---------------------------------------------------------------------------
# Recording
# ---------------------------------------------------------------------------


class Recorder:
    """Timing samples plus attempted/failed counts for one run.

    Every timed operation carries a key naming the *logical* operation:
    the same starting state and the same input (its position in the pass).
    Each pass repeats every logical operation, and an operation's sample is
    its fastest execution, as ``timeit`` reports: on a shared host,
    interference only ever adds time.  Percentiles are then taken over
    logical operations.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.times = {"write": {}, "read": {}, "recover": {}, "ingest": {}}
        self.ingest_items = {}
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def timed(self, kind, key, fn, *args):
        """Run one operation, recording its wall time under ``kind``/``key``."""
        self.attempted += 1
        start = time.perf_counter()
        if self.tracer is None:
            result = fn(*args)
        else:
            result = self.tracer.call(kind, fn, *args)
        elapsed = time.perf_counter() - start
        self.times[kind].setdefault(key, []).append(elapsed)
        return result, elapsed

    def ingested(self, key, items, seconds):
        """One unit of ingest: ``items`` applied in ``seconds`` of writes."""
        self.times["ingest"].setdefault(key, []).append(seconds)
        self.ingest_items[key] = items

    def fastest(self, kind):
        return [min(runs) for runs in self.times[kind].values()]

    def ingest_rates(self):
        return [
            self.ingest_items[key] / min(runs)
            for key, runs in self.times["ingest"].items()
        ]

    def untimed(self, fn, *args):
        """Work outside the metrics (snapshots for checks, references)."""
        if self.tracer is None:
            return fn(*args)
        return self.tracer.call("other", fn, *args)

    def check(self, ok, message):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(message)

    def error(self, exc):
        self.failed += 1
        self.failures.append("%s: %s" % (type(exc).__name__, exc))


def _ingest(sketch, batch):
    sketch.update_batch(batch)


def _ingest_and_estimate(sketch, batch):
    """The last write of a knw-stream pass: the final estimate is timed too."""
    sketch.update_batch(batch)
    return sketch.estimate()


def _read_request(sketch):
    for _ in range(READS_PER_REQUEST):
        sketch.estimate()


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    """Shared pass loop: subclasses build inputs and define ``run_pass``."""

    min_passes = 3
    universe = UNIVERSE
    sketch_seeds = SKETCH_SEEDS
    #: Timed restores of the final bytes per pass, all of one logical
    #: operation; a run with few passes still gets many recovery samples.
    recoveries_per_pass = 1

    def __init__(self, scale):
        self.scale = SCALES[scale]
        self.estimates = {}  # sketch seed -> final estimate
        self.first_bytes = None
        self.sketch_bytes = 0

    def prepare(self, rec):
        """Untimed set-up inside the measuring process (pool warm-up)."""

    def cross_check(self, rec):
        """Untimed work after the passes, traced in the traced run."""

    def finish(self, rec):
        """Accuracy over all sketch seeds; the seeds timed passes do not
        use are ingested here, untimed."""
        for seed in self.sketch_seeds:
            if seed not in self.estimates:
                sketch = self.make(seed)
                rec.untimed(self.feed, sketch)
                self.estimates[seed] = sketch.estimate()
        errors = [relative_error(value, self.truth) for value in self.estimates.values()]
        envelope = ENVELOPE_FACTOR * self.eps
        rec.check(
            statistics.median(errors) <= envelope,
            "median relative error %s over envelope %.3f (truth %d)"
            % (sorted(errors), envelope, self.truth),
        )

    def run(self, rec, seconds=None, passes=None, first=0):
        """Run passes for ``seconds`` (at least ``min_passes``), or exactly
        ``passes`` passes numbered from ``first``."""
        start = time.perf_counter()
        index = first
        while True:
            if passes is not None:
                if index >= first + passes:
                    break
            elif index >= self.min_passes and time.perf_counter() - start >= seconds:
                break
            gc.collect()
            try:
                self.run_pass(index, rec)
            except Exception as exc:  # counted against the run, not raised
                rec.error(exc)
            index += 1

    def restore(self, rec, from_bytes, blob):
        """Time ``recoveries_per_pass`` restores of ``blob``; return the last."""
        for _ in range(self.recoveries_per_pass):
            # Drop the previous copy first: peak RSS counts one restore.
            restored = None
            restored, _ = rec.timed("recover", 0, from_bytes, blob)
        return restored

    def record_bytes(self, rec, index, blob):
        """Every pass must end in the same bytes as the first recorded."""
        if self.first_bytes is None:
            self.first_bytes = blob
            self.sketch_bytes = len(blob)
        else:
            rec.check(
                blob == self.first_bytes,
                "pass %d: final state differs from the reference bytes" % index,
            )


class KnwStream(Workload):
    """One registry ``knw`` sketch over a mostly-distinct insertion stream."""

    name = "knw-stream"
    #: K = 2048 bins; see README.md for why this eps and 21 seeds: one
    #: ``knw`` sketch misses 3 * eps in about a sixth of seeds.
    eps = 0.0312
    sketch_seeds = tuple(range(1, 22))
    recoveries_per_pass = 2
    #: The sizing of the ROADMAP profile.  It keeps the rough estimator's
    #: lazy-hash memo (at most K_RE^3 = 20^3 values per copy) small.
    universe = 1 << 20

    def __init__(self, seed, scale):
        super().__init__(scale)
        rng = np.random.default_rng([seed, 1])
        ids = distinct_ids(rng, self.scale["knw_distinct"], self.universe)
        repeats = rng.choice(ids, self.scale["knw_items"] - len(ids))
        self.items = rng.permutation(np.concatenate([ids, repeats]))
        self.truth = len(np.unique(self.items))
        size = self.scale["knw_batch"]
        self.batches = [
            self.items[start : start + size]
            for start in range(0, len(self.items), size)
        ]
        self.fingerprint = fingerprint(self.items)
        self.updates = len(self.items)

    def make(self, seed):
        return make_f0_estimator("knw", self.universe, self.eps, seed)

    def run_pass(self, index, rec):
        seed = self.sketch_seeds[0]
        sketch = self.make(seed)
        last = len(self.batches) - 1
        for position, batch in enumerate(self.batches):
            write = _ingest_and_estimate if position == last else _ingest
            estimate, elapsed = rec.timed("write", position, write, sketch, batch)
            rec.ingested(position, len(batch), elapsed)
            rec.timed("read", position, _read_request, sketch)
        self.estimates[seed] = estimate
        blob = rec.untimed(sketch.to_bytes)
        self.record_bytes(rec, index, blob)
        restored = self.restore(rec, type(sketch).from_bytes, blob)
        rec.check(
            restored.estimate() == estimate,
            "pass %d: restored estimate differs" % index,
        )

    def feed(self, sketch):
        sketch.update_batch(self.items)


class KeyedHll(Workload):
    """A HyperLogLog ``SketchStore`` under Zipf-keyed grouped writes."""

    name = "keyed-hll"
    eps = 0.05
    recoveries_per_pass = 2
    zipf_exponent = 1.1
    checked_keys = 16

    def __init__(self, seed, scale):
        super().__init__(scale)
        rng = np.random.default_rng([seed, 2])
        key_count = self.scale["keyed_keys"]
        count = self.scale["keyed_items"]
        weights = 1.0 / np.arange(1, key_count + 1) ** self.zipf_exponent
        ranks = rng.choice(key_count, count, p=weights / weights.sum())
        key_ids = distinct_ids(rng, key_count, 1 << 40).astype(np.int64)
        self.keys = key_ids[ranks]
        self.items = rng.integers(0, self.universe, count, dtype=np.uint64)
        pairs = np.unique((ranks.astype(np.uint64) << np.uint64(32)) | self.items)
        truth = np.bincount((pairs >> np.uint64(32)).astype(np.int64), minlength=key_count)
        heavy = np.argsort(-truth, kind="stable")[: self.checked_keys]
        self.heavy = [(int(key_ids[rank]), int(truth[rank])) for rank in heavy]
        self.key_count = int(np.count_nonzero(truth))
        size = self.scale["keyed_batch"]
        present, first = np.unique(ranks, return_index=True)
        first_seen = np.full(key_count, count, dtype=np.int64)
        first_seen[present] = first
        self.batches = []
        for start in range(0, count, size):
            end = min(start + size, count)
            seen = key_ids[first_seen < end]
            sample = rng.choice(seen, READS_PER_REQUEST)
            self.batches.append(
                (self.keys[start:end], self.items[start:end], sample.tolist())
            )
        self.fingerprint = fingerprint(self.keys, self.items)
        self.updates = count

    def run_pass(self, index, rec):
        store = SketchStore.for_family(
            "hyperloglog", self.universe, eps=self.eps, seed=self.sketch_seeds[0]
        )
        for position, (keys, items, sample) in enumerate(self.batches):
            elapsed = rec.timed("write", position, store.update_grouped, keys, items)[1]
            rec.ingested(position, len(items), elapsed)
            rec.timed("read", position, _read_keys, store, sample)
        estimates = [store.estimate(key) for key, _ in self.heavy]
        errors = [relative_error(value, truth) for value, (_, truth) in zip(estimates, self.heavy)]
        envelope = ENVELOPE_FACTOR * self.eps
        rec.check(
            statistics.median(errors) <= envelope,
            "pass %d: median error %.3f over envelope %.3f on the heaviest keys"
            % (index, statistics.median(errors), envelope),
        )
        rec.check(
            len(store.keys) == self.key_count,
            "pass %d: store holds %d keys, input has %d"
            % (index, len(store.keys), self.key_count),
        )
        self.rows = len(store.keys)
        blob = rec.untimed(store.to_bytes)
        self.record_bytes(rec, index, blob)
        restored = self.restore(rec, SketchStore.from_bytes, blob)
        rec.check(
            [restored.estimate(key) for key, _ in self.heavy] == estimates,
            "pass %d: restored store estimates differ" % index,
        )

    def finish(self, rec):
        """Accuracy is checked on every pass, against per-key truth."""


def _read_keys(store, keys):
    for key in keys:
        store.estimate(key)


class DurableL0(Workload):
    """``knw-l0`` behind a ``Checkpointer``: WAL commits, snapshots, recovery.

    After the passes, the same churn input goes once through two-process
    sharded ingest on the warm pool and must land on the live bytes.  That
    call is untimed, so the parallel layer shows only in the traced run;
    README.md says why it has no end-to-end metric of its own.
    """

    name = "durable-l0"
    eps = 0.05
    workers = 2

    def __init__(self, seed, scale, workdir):
        super().__init__(scale)
        rng = np.random.default_rng([seed, 3])
        self.items, self.deltas, self.truth = churn_updates(
            rng, self.scale["churn_waves"], self.scale["churn_wave"], self.universe
        )
        self.fingerprint = fingerprint(self.items, self.deltas)
        self.updates = len(self.items)
        self.workdir = workdir
        self.commits = list(
            zip(np.array_split(self.items, COMMITS), np.array_split(self.deltas, COMMITS))
        )

    def make(self, seed):
        return make_l0_estimator("knw-l0", self.universe, self.eps, self.updates, seed)

    def feed(self, sketch):
        sketch.update_batch(self.items, self.deltas)

    def prepare(self, rec):
        self.pool_before = repro.parallel.pool_stats()
        warm = slice(0, 64)
        self.ingest_sharded(self.items[warm], self.deltas[warm])
        self.pool_warm = repro.parallel.pool_stats()

    def ingest_sharded(self, items, deltas):
        return repro.parallel.parallel_ingest_l0(
            "knw-l0",
            (items, deltas),
            self.eps,
            self.sketch_seeds[0],
            universe_size=self.universe,
            magnitude_bound=self.updates,
            workers=self.workers,
            execution="processes",
        )

    def run_pass(self, index, rec):
        seed = self.sketch_seeds[0]
        directory = os.path.join(self.workdir, "pass-%d" % index)
        sketch = self.make(seed)
        checkpointer = repro.Checkpointer(
            sketch, directory, snapshot_every=SNAPSHOT_EVERY
        )
        try:
            cycle_items, cycle_seconds = 0, 0.0
            for position, (items, deltas) in enumerate(self.commits):
                elapsed = rec.timed(
                    "write", position, checkpointer.ingest, items, deltas
                )[1]
                rec.timed("read", position, _read_request, sketch)
                cycle_items += len(items)
                cycle_seconds += elapsed
                if checkpointer.seq % SNAPSHOT_EVERY == 0:
                    # One unit per snapshot cycle, snapshot commit included.
                    rec.ingested(position, cycle_items, cycle_seconds)
                    cycle_items, cycle_seconds = 0, 0.0
        finally:
            checkpointer.close()
        self.estimates[seed] = sketch.estimate()
        live = rec.untimed(sketch.to_bytes)
        self.record_bytes(rec, index, live)
        (target, report), _ = rec.timed("recover", 0, repro.recover, directory)
        recovered = rec.untimed(target.to_bytes)
        rec.check(recovered == live, "pass %d: recovered bytes differ from live" % index)
        rec.check(
            report.clean and report.replayed_records == RECORDS_PAST_SNAPSHOT,
            "pass %d: recovery replayed %d records (want %d), clean=%s"
            % (index, report.replayed_records, RECORDS_PAST_SNAPSHOT, report.clean),
        )
        shutil.rmtree(directory)

    def cross_check(self, rec):
        """The whole input through one sharded ingest on the warm pool."""
        sharded = rec.untimed(self.ingest_sharded, self.items, self.deltas)
        rec.check(
            rec.untimed(sharded.to_bytes) == self.first_bytes,
            "sharded ingest differs from the live bytes",
        )

    def finish(self, rec):
        stats = repro.parallel.pool_stats()
        rec.check(
            stats["restarts"] == self.pool_before["restarts"]
            and stats["created"] == self.pool_warm["created"],
            "pool restarted or was recreated during the run: %r" % stats,
        )
        super().finish(rec)


WORKLOADS = {
    cls.name: cls for cls in (KnwStream, KeyedHll, DurableL0)
}


def build(name, seed, scale, workdir):
    cls = WORKLOADS[name]
    if cls is DurableL0:
        return cls(seed, scale, workdir)
    return cls(seed, scale)
