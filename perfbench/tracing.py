"""Layer-boundary tracing for the benchmark's traced run.

Spans are recorded from outside the program: :func:`instrument` replaces
public functions and methods at each layer boundary of ``repro`` with
wrappers that time the call, and :meth:`Tracer.restore` puts the
originals back.  Nothing under ``src/`` is edited.

* A *span* records name, start, end, its parent span and the run's trace
  id.  Spans stay in memory until :meth:`Tracer.metrics` reduces them.
* A *counted* boundary (a per-item call such as
  ``LazyUniformHash.draw_value``) records no span: it adds one to a call
  count and its duration to an accumulator, and that duration is charged
  to the enclosing span as child time.
* A span's self time is its duration minus the time its child spans and
  counted calls cover.

The benchmark opens one root span per operation (``write``, ``read``,
``recover``, ``other``); per-layer self times inside ``write`` operations
are also reported as a split (see ``README.md``).
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import Counter, defaultdict

_clock = time.perf_counter_ns

#: Layers in the order they are reported; a span's layer is the first
#: dotted component of its name.  ``other`` is root-span self time: work
#: inside an operation that no instrumented boundary covers.
LAYERS = (
    "other",
    "kernels",
    "vectorize",
    "hashing",
    "core",
    "bitstructs",
    "store",
    "l0",
    "serialize",
    "durability",
    "parallel",
)

#: Kernel methods of ``repro.kernels.active()`` that get spans.
KERNELS = (
    "kwise_mod_range",
    "affine_mod_range",
    "lsb64_batch",
    "grouped_max_scatter",
    "grouped_residue_sums",
    "mulmod_arrays",
    "mulmod",
    "affine_mod",
    "mod_range",
    "grouped_or_scatter",
)


def _result_len(args, result):
    return len(result)


def _arg_len(position):
    return lambda args, result: len(args[position])


def _result_int(args, result):
    return int(result)


def _replayed(args, result):
    return result[1].replayed_records


class Tracer:
    """In-memory span recorder for one workload run."""

    def __init__(self, trace_id: int) -> None:
        self.trace_id = trace_id
        #: Finished spans: (span_id, parent_id, name, start_ns, end_ns,
        #: counted_child_ns, amount).  All share ``trace_id``.
        self.spans = []
        self.counted = defaultdict(lambda: [0, 0])  # name -> [calls, ns]
        self.gauges = {}
        self._stack = []  # open spans: [span_id, counted_child_ns]
        self._next_id = 1
        self._undo = []

    # -- recording -----------------------------------------------------------

    def _open(self):
        frame = [self._next_id, 0]
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else 0
        self._stack.append(frame)
        return frame, parent

    def _close(self, frame, parent, name, start, amount):
        end = _clock()
        self._stack.pop()
        self.spans.append((frame[0], parent, name, start, end, frame[1], amount))

    def call(self, name, fn, *args):
        """Run ``fn(*args)`` inside a span named ``name``."""
        frame, parent = self._open()
        start = _clock()
        try:
            return fn(*args)
        finally:
            self._close(frame, parent, name, start, 0)

    def spanned(self, name, fn, amount=None):
        """Return ``fn`` wrapped in a span; ``amount(args, result)`` sizes it."""
        tracer = self

        def wrapper(*args, **kwargs):
            frame, parent = tracer._open()
            start = _clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                size = 0 if amount is None or result is None else amount(args, result)
                tracer._close(frame, parent, name, start, size)

        return wrapper

    def counted_call(self, name, fn):
        """Return ``fn`` wrapped as a counted (not spanned) boundary."""
        cell = self.counted[name]
        stack = self._stack

        def wrapper(*args):
            start = _clock()
            result = fn(*args)
            elapsed = _clock() - start
            cell[0] += 1
            cell[1] += elapsed
            if stack:
                stack[-1][1] += elapsed
            return result

        return wrapper

    # -- patching ------------------------------------------------------------

    def wrap_method(self, cls, attr, name, amount=None, counted=False):
        original = cls.__dict__[attr]
        wrapper = (
            self.counted_call(name, original)
            if counted
            else self.spanned(name, original, amount)
        )
        setattr(cls, attr, wrapper)
        self._undo.append(lambda: setattr(cls, attr, original))

    def wrap_attribute(self, owner, attr, name, amount=None):
        """Wrap an attribute of an instance or module (kernel backends)."""
        had_own = attr in vars(owner)
        original = getattr(owner, attr)
        setattr(owner, attr, self.spanned(name, original, amount))
        if had_own:
            self._undo.append(lambda: setattr(owner, attr, original))
        else:
            self._undo.append(lambda: delattr(owner, attr))

    def wrap_function(self, module, attr, name, amount=None):
        """Wrap a module function everywhere ``repro`` imported it by name."""
        original = getattr(module, attr)
        wrapper = self.spanned(name, original, amount)
        for loaded in list(sys.modules.values()):
            if getattr(loaded, "__name__", "").partition(".")[0] != "repro":
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, key, wrapper)
                    self._undo.append(
                        lambda loaded=loaded, key=key: setattr(loaded, key, original)
                    )

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- reduction -----------------------------------------------------------

    def nesting_violations(self):
        """Spans whose children cover more than the span itself, or lie
        outside it; an empty list means every self time is well defined."""
        by_id = {span[0]: span for span in self.spans}
        covered = Counter()
        bad = []
        for span_id, parent, name, start, end, counted, _ in self.spans:
            if counted > end - start:
                bad.append(name)
            if parent:
                outer = by_id[parent]
                covered[parent] += end - start
                if start < outer[3] or end > outer[4]:
                    bad.append(name)
        for span_id, total in covered.items():
            span = by_id[span_id]
            if total + span[5] > span[4] - span[3]:
                bad.append(span[2])
        return bad

    def metrics(self) -> dict:
        """Reduce the recorded spans to the per-layer metrics."""
        spans = self.spans
        by_id = {span[0]: span for span in spans}
        child_ns = Counter()
        for span_id, parent, _, start, end, _, _ in spans:
            if parent:
                child_ns[parent] += end - start
        self_ns = {}
        root_of = {}
        for span in sorted(spans, key=lambda s: s[0]):
            span_id, parent, name, start, end, counted, _ = span
            self_ns[span_id] = end - start - child_ns[span_id] - counted
            root_of[span_id] = root_of[parent] if parent else span_id

        totals = Counter()
        calls = Counter()
        amounts = Counter()
        for span_id, _, name, _, _, _, amount in spans:
            totals[name] += self_ns[span_id]
            calls[name] += 1
            amounts[name] += amount
        for name, (count, ns) in self.counted.items():
            totals[name] += ns
            calls[name] += count

        def seconds(stem):
            return totals[stem] / 1e9

        out = {}
        for kernel in ("kwise_mod_range", "affine_mod_range"):
            out["kernels.%s.self_s" % kernel] = seconds("kernels." + kernel)
            out["kernels.%s.items" % kernel] = amounts["kernels." + kernel]
        for kernel in (
            "lsb64_batch",
            "grouped_max_scatter",
            "grouped_residue_sums",
            "mulmod_arrays",
        ):
            out["kernels.%s.self_s" % kernel] = seconds("kernels." + kernel)
        out["kernels.calls"] = sum(calls["kernels." + k] for k in KERNELS)
        out["vectorize.as_key_array.self_s"] = seconds("vectorize.as_key_array")
        out["vectorize.as_key_array.items"] = amounts["vectorize.as_key_array"]
        out["hashing.uniform.draws"] = self.counted["hashing.uniform"][0]
        out["hashing.uniform.self_s"] = seconds("hashing.uniform")
        out["hashing.kwise.self_s"] = seconds("hashing.kwise")
        for stem in (
            "core.rough_estimator.update_batch",
            "core.knw.update_batch",
            "core.knw.estimate",
            "bitstructs.packed.maximize_many",
            "store.store.update_grouped",
            "store.array.update_grouped",
        ):
            out[stem + ".self_s"] = seconds(stem)
        out["store.array.grow.calls"] = calls["store.array.grow"]
        out["store.rows"] = self.gauges.get("store.rows", 0)
        out["store.store.estimate.self_s"] = seconds("store.store.estimate")
        out["store.store.estimate.calls"] = calls["store.store.estimate"]
        for stem in (
            "l0.knw_l0.update_batch",
            "l0.fingerprint.update_many",
            "l0.rough_l0.update_batch",
        ):
            out[stem + ".self_s"] = seconds(stem)
        for stem in ("dumps_tree", "dumps"):
            out["serialize.%s.self_s" % stem] = seconds("serialize." + stem)
            out["serialize.%s.bytes" % stem] = amounts["serialize." + stem]
        out["serialize.loads_tree.self_s"] = seconds("serialize.loads_tree")
        out["serialize.loads.self_s"] = seconds("serialize.loads")
        out["durability.append.self_s"] = seconds("durability.append")
        out["durability.append.calls"] = calls["durability.append"]
        out["durability.append.bytes"] = amounts["durability.append"]
        updates = self.gauges.get("durability.updates", 0)
        out["durability.bytes_per_update"] = (
            amounts["durability.append"] / updates if updates else 0.0
        )
        out["durability.write_snapshot.self_s"] = seconds("durability.write_snapshot")
        out["durability.write_snapshot.bytes"] = amounts["durability.write_snapshot"]
        out["durability.recover.self_s"] = seconds("durability.recover")
        out["durability.recover.records_replayed"] = amounts["durability.recover"]
        out.update(self._parallel_metrics(spans, by_id, self_ns))
        out.update(self._write_split(spans, self_ns, root_of))
        out["trace.spans"] = len(spans)
        return out

    def _parallel_metrics(self, spans, by_id, self_ns):
        """Wall, wait, merge and transport of ``execute_plan`` calls."""

        def inside_plan(span):
            parent = span[1]
            while parent:
                ancestor = by_id[parent]
                if ancestor[2] == "parallel.execute_plan":
                    return True
                parent = ancestor[1]
            return False

        wall = sum(s[4] - s[3] for s in spans if s[2] == "parallel.execute_plan")
        decode_merge = 0
        transport = 0
        merge = 0
        for span in spans:
            if span[2] not in ("serialize.loads", "serialize.dumps", "parallel.merge"):
                continue
            if not inside_plan(span):
                continue
            if span[2] == "serialize.dumps":
                transport += span[6]
                continue
            decode_merge += span[4] - span[3]
            if span[2] == "serialize.loads":
                transport += span[6]
            else:
                merge += self_ns[span[0]]
        return {
            "parallel.execute_plan.wall_s": wall / 1e9,
            "parallel.wait_s": (wall - decode_merge) / 1e9,
            "parallel.merge.self_s": merge / 1e9,
            "parallel.transport.bytes": transport,
        }

    def _write_split(self, spans, self_ns, root_of):
        """Self time per layer inside ``write`` operations.

        ``split.write.<layer>_s`` sums every write; ``split.write_p50.
        <layer>_ms`` is the mean per write over the writes no slower than
        the median write, the operations ``commit_p50_ms`` prices.
        """
        writes = {s[0]: s[4] - s[3] for s in spans if s[2] == "write" and not s[1]}
        per_write = defaultdict(Counter)
        for span_id, _, name, _, _, counted, _ in spans:
            root = root_of[span_id]
            if root not in writes:
                continue
            layer = "other" if span_id == root else name.partition(".")[0]
            per_write[root][layer] += self_ns[span_id]
            if counted:
                # Only hashing.uniform draws are counted boundaries.
                per_write[root]["hashing"] += counted
        median = statistics.median(writes.values()) if writes else 0
        fast = [root for root, wall in writes.items() if wall <= median]
        out = {}
        for layer in LAYERS:
            total = sum(per_write[root][layer] for root in writes)
            out["split.write.%s_s" % layer] = total / 1e9
            out["split.write_p50.%s_ms" % layer] = (
                sum(per_write[root][layer] for root in fast) / len(fast) / 1e6
                if fast
                else 0.0
            )
        return out


def instrument(tracer: Tracer) -> None:
    """Install spans at every layer boundary the benchmark reports."""
    import repro
    import repro.kernels
    import repro.parallel
    import repro.serialize
    import repro.vectorize
    from repro.bitstructs.packed import PackedCounterArray
    from repro.core.knw import KNWDistinctCounter
    from repro.core.rough_estimator import RoughEstimator
    from repro.durability.checkpoint import Checkpointer
    from repro.durability.log import DurableLog
    from repro.hashing.kwise import KWiseHash
    from repro.hashing.uniform import LazyUniformHash
    from repro.l0.fingerprint import FingerprintMatrix
    from repro.l0.knw_l0 import KNWHammingNormEstimator
    from repro.l0.rough_l0 import RoughL0Estimator
    from repro.store.sketch_array import SketchArray
    from repro.store.store import SketchStore

    backend = repro.kernels.active()
    amounts = {"kwise_mod_range": _result_len, "affine_mod_range": _result_len}
    for kernel in KERNELS:
        tracer.wrap_attribute(
            backend, kernel, "kernels." + kernel, amounts.get(kernel)
        )
    tracer.wrap_function(
        repro.vectorize, "as_key_array", "vectorize.as_key_array", _result_len
    )
    tracer.wrap_method(
        LazyUniformHash, "draw_value", "hashing.uniform", counted=True
    )
    tracer.wrap_method(LazyUniformHash, "hash_batch", "hashing.uniform")
    tracer.wrap_method(KWiseHash, "hash_batch_validated", "hashing.kwise")
    tracer.wrap_method(RoughEstimator, "update_batch", "core.rough_estimator.update_batch")
    tracer.wrap_method(KNWDistinctCounter, "update_batch", "core.knw.update_batch")
    tracer.wrap_method(KNWDistinctCounter, "estimate", "core.knw.estimate")
    tracer.wrap_method(
        PackedCounterArray, "maximize_many", "bitstructs.packed.maximize_many"
    )
    tracer.wrap_method(SketchStore, "update_grouped", "store.store.update_grouped")
    tracer.wrap_method(SketchStore, "estimate", "store.store.estimate")
    # The store hands vetted batches to the array's grouped ingest.
    tracer.wrap_method(SketchArray, "ingest_validated", "store.array.update_grouped")
    tracer.wrap_method(SketchArray, "grow", "store.array.grow")
    tracer.wrap_method(
        KNWHammingNormEstimator, "update_batch", "l0.knw_l0.update_batch"
    )
    # The parallel engine is the only caller of merge in these workloads.
    tracer.wrap_method(KNWHammingNormEstimator, "merge", "parallel.merge")
    tracer.wrap_method(FingerprintMatrix, "update_many", "l0.fingerprint.update_many")
    tracer.wrap_method(RoughL0Estimator, "update_batch", "l0.rough_l0.update_batch")
    for name in ("dumps", "dumps_tree"):
        tracer.wrap_function(repro.serialize, name, "serialize." + name, _result_len)
    for name in ("loads", "loads_tree"):
        tracer.wrap_function(repro.serialize, name, "serialize." + name, _arg_len(0))
    tracer.wrap_method(Checkpointer, "ingest", "durability.ingest")
    tracer.wrap_method(DurableLog, "append", "durability.append", _result_int)
    tracer.wrap_method(
        DurableLog, "write_snapshot", "durability.write_snapshot", _arg_len(2)
    )
    tracer.wrap_function(
        repro.durability, "recover", "durability.recover", _replayed
    )
    tracer.wrap_function(repro.parallel, "execute_plan", "parallel.execute_plan")
