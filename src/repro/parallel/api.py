"""Public sharded-ingestion entry points, as thin plan constructors.

Every function here builds an :class:`~repro.parallel.plan.IngestPlan`
(shard axis × worker state recipe × merge discipline) and hands it to
:func:`~repro.parallel.plan.execute_plan` — there are no per-path
shard/worker/merge loops left; the engine owns sharded execution,
pipelined handoff, shard retry, and the persistent pool for all five
pipelines at once.

Correctness contract.  For every estimator that supports :meth:`merge
<repro.estimators.base.CardinalityEstimator.merge>`, shard-and-merge is
**bit-identical** to sequential ingestion (every hash function is fully
seed-determined): the merged sketch's state and estimate equal those of
a single sketch fed the concatenated stream, for any shard count, any
execution mode, and any handoff discipline.  The per-counter reductions
are maxima, ORs, set unions, and modular counter sums — commutative and
associative — which also makes the engine safe to use *mid-stream*:
idempotent families clone the coordinator's state into every worker
(re-merging it is a no-op), while additive families give the workers
*cleared* clones so the prior state enters the sum exactly once.
"""

from __future__ import annotations

import os
from concurrent.futures import Executor
from typing import Dict, List, Optional, Sequence

from ..estimators.base import CardinalityEstimator, TurnstileEstimator
from ..estimators.registry import (
    f0_algorithm_names,
    l0_algorithm_names,
    make_f0_estimator,
    make_l0_estimator,
)
from ..exceptions import ParameterError, UpdateError
from ..streams.model import MaterializedStream
from .plan import DEFAULT_SHARD_BATCH, IngestPlan, _supports_merge, execute_plan
from .pool import default_workers
from .shards import (
    ItemSource,
    UpdateShard,
    _as_update_arrays,
    shard_epoch_slices,
    shard_items,
    shard_keyed_updates,
    shard_updates,
)

__all__ = [
    "parallel_merge_shards",
    "parallel_merge_update_shards",
    "parallel_ingest_into",
    "parallel_ingest_updates_into",
    "parallel_ingest_f0",
    "parallel_ingest_l0",
    "parallel_ingest_keyed",
    "parallel_ingest_windowed",
    "parallel_ingest_windowed_keyed",
    "mergeable_f0_names",
    "mergeable_l0_names",
]


def parallel_merge_shards(
    estimator: CardinalityEstimator,
    shards: Sequence,
    workers: Optional[int] = None,
    batch_size: Optional[int] = DEFAULT_SHARD_BATCH,
    execution: Optional[str] = None,
    executor: Optional[Executor] = None,
    handoff: Optional[str] = None,
) -> CardinalityEstimator:
    """Ingest caller-partitioned shards into ``estimator`` via merge-reduce.

    The ``(range, clone, merge-reduce)`` plan: each shard (an integer
    array — e.g. one network link's traffic, one table partition's
    column values) is ingested by a worker into a clone of
    ``estimator``'s current state, and the resulting sketches merge back
    as they complete.

    Args:
        estimator: the target sketch.  Must support merging (and so must
            have been built with an explicit seed) unless there are zero
            or one non-empty shards, in which case the engine feeds it
            directly.
        shards: the partition, as produced by :func:`shard_items` or by
            the caller's own sharding (per-link, per-partition, ...).
        workers: process count for the ``"processes"`` mode; defaults to
            :func:`~repro.parallel.pool.default_workers`, capped at the
            number of non-empty shards.
        batch_size: chunk length for the workers' ``update_batch``
            driving; ``None`` forces the scalar per-item loop (the
            shard/merge result is identical either way, by the batch
            equivalence contract).
        execution: ``"processes"``, ``"inline"``, or ``None`` to pick
            ``"processes"`` exactly when more than one worker can do
            useful work.
        executor: an existing :class:`concurrent.futures.Executor` to
            submit shard work to instead of the engine-owned persistent
            pool.  The caller keeps ownership (it is not shut down here)
            and ``workers``/``execution`` are ignored when it is given.
        handoff: ``"pipelined"`` (default) or ``"barrier"`` — see
            :func:`~repro.parallel.plan.execute_plan`.

    Returns:
        ``estimator`` (mutated in place), for chaining.
    """
    plan = IngestPlan(
        axis="range",
        recipe="clone",
        discipline="merge-reduce",
        kind="items",
        shards=list(shards),
        batch_size=batch_size,
    )
    return execute_plan(
        plan, estimator, workers=workers, execution=execution,
        executor=executor, handoff=handoff,
    )


def parallel_ingest_into(
    estimator: CardinalityEstimator,
    items: ItemSource,
    workers: Optional[int] = None,
    shards: Optional[int] = None,
    batch_size: Optional[int] = DEFAULT_SHARD_BATCH,
    execution: Optional[str] = None,
    executor: Optional[Executor] = None,
    handoff: Optional[str] = None,
) -> CardinalityEstimator:
    """Shard ``items`` and ingest them into ``estimator`` (see above).

    Equivalent to ``parallel_merge_shards(estimator, shard_items(items,
    shards or workers), ...)``; the one-shard case degenerates to a
    plain batched feed, so ``workers=1`` has no multiprocessing
    overhead and is byte-identical to calling ``update_batch`` yourself.
    """
    if workers is None and shards is None:
        workers = default_workers()
    count = shards if shards is not None else workers
    return parallel_merge_shards(
        estimator,
        shard_items(items, count),
        workers=workers,
        batch_size=batch_size,
        execution=execution,
        executor=executor,
        handoff=handoff,
    )


def parallel_ingest_f0(
    algorithm: str,
    stream: ItemSource,
    eps: float,
    seed: int,
    universe_size: Optional[int] = None,
    workers: Optional[int] = None,
    shards: Optional[int] = None,
    batch_size: Optional[int] = DEFAULT_SHARD_BATCH,
    execution: Optional[str] = None,
) -> CardinalityEstimator:
    """Build a registered F0 estimator and ingest a stream sharded.

    Args:
        algorithm: registry name (see :func:`repro.estimators.registry
            .f0_algorithm_names`).
        stream: a materialized insertion-only stream, or raw identifiers
            (then ``universe_size`` is required).
        eps: target relative error.
        seed: estimator seed; must be explicit — the shard sketches
            derive identical hash functions from it.
        universe_size: universe bound when ``stream`` is a raw sequence.
        workers / shards / batch_size / execution: as in
            :func:`parallel_ingest_into`.

    Returns:
        The merged estimator (call ``estimate()`` on it).
    """
    if seed is None:
        raise ParameterError("parallel_ingest_f0 requires an explicit seed")
    if isinstance(stream, MaterializedStream):
        universe_size = stream.universe_size
    elif universe_size is None:
        raise ParameterError("universe_size is required for raw item sequences")
    estimator = make_f0_estimator(algorithm, universe_size, eps, seed)
    return parallel_ingest_into(
        estimator,
        stream,
        workers=workers,
        shards=shards,
        batch_size=batch_size,
        execution=execution,
    )


def parallel_merge_update_shards(
    estimator: TurnstileEstimator,
    shards: Sequence[UpdateShard],
    workers: Optional[int] = None,
    batch_size: Optional[int] = DEFAULT_SHARD_BATCH,
    execution: Optional[str] = None,
    executor: Optional[Executor] = None,
    handoff: Optional[str] = None,
) -> TurnstileEstimator:
    """Ingest caller-partitioned turnstile shards via additive merges.

    The ``(range, cleared-clone, additive)`` plan — same contract and
    execution modes as :func:`parallel_merge_shards`, for signed update
    shards: each ``(items, deltas)`` shard is ingested by a worker into
    an *empty* same-randomness clone of ``estimator`` (turnstile merges
    are additive, so — unlike the idempotent F0 reductions — the
    coordinator's existing state must enter the sum exactly once)
    through the vectorized turnstile ``update_batch`` pipeline.  For
    every library L0 sketch the result is bit-identical to sequential
    ingestion (linear sketches, seed-determined hashes), including
    mid-stream take-over of an already-started coordinator sketch.
    """
    plan = IngestPlan(
        axis="range",
        recipe="cleared-clone",
        discipline="additive",
        kind="updates",
        shards=list(shards),
        batch_size=batch_size,
    )
    return execute_plan(
        plan, estimator, workers=workers, execution=execution,
        executor=executor, handoff=handoff,
    )


def parallel_ingest_updates_into(
    estimator: TurnstileEstimator,
    source,
    workers: Optional[int] = None,
    shards: Optional[int] = None,
    batch_size: Optional[int] = DEFAULT_SHARD_BATCH,
    execution: Optional[str] = None,
    executor: Optional[Executor] = None,
    handoff: Optional[str] = None,
) -> TurnstileEstimator:
    """Shard a turnstile stream and ingest it into ``estimator``.

    The L0 counterpart of :func:`parallel_ingest_into`: equivalent to
    ``parallel_merge_update_shards(estimator, shard_updates(source,
    shards or workers), ...)``, with the one-shard case degenerating to a
    plain batched feed.
    """
    if workers is None and shards is None:
        workers = default_workers()
    count = shards if shards is not None else workers
    return parallel_merge_update_shards(
        estimator,
        shard_updates(source, count),
        workers=workers,
        batch_size=batch_size,
        execution=execution,
        executor=executor,
        handoff=handoff,
    )


def parallel_ingest_l0(
    algorithm: str,
    source,
    eps: float,
    seed: int,
    universe_size: Optional[int] = None,
    magnitude_bound: Optional[int] = None,
    workers: Optional[int] = None,
    shards: Optional[int] = None,
    batch_size: Optional[int] = DEFAULT_SHARD_BATCH,
    execution: Optional[str] = None,
) -> TurnstileEstimator:
    """Build a registered L0 estimator and ingest a turnstile stream sharded.

    Args:
        algorithm: registry name (see :func:`repro.estimators.registry
            .l0_algorithm_names`).
        source: a materialized turnstile stream, or an ``(items, deltas)``
            pair (then ``universe_size`` is required).
        eps: target relative error.
        seed: estimator seed; must be explicit so shard sketches share
            hash functions.
        universe_size: universe bound when ``source`` is a raw pair.
        magnitude_bound: upper bound on ``mM``; derived from the stream
            (``len * max|delta|``) when omitted, as in the analysis runner.
        workers / shards / batch_size / execution: as in
            :func:`parallel_ingest_into`.
    """
    if seed is None:
        raise ParameterError("parallel_ingest_l0 requires an explicit seed")
    if isinstance(source, MaterializedStream):
        universe_size = source.universe_size
        if magnitude_bound is None:
            magnitude_bound = max(len(source) * source.max_update_magnitude(), 1)
    elif universe_size is None:
        raise ParameterError("universe_size is required for raw update pairs")
    if magnitude_bound is None:
        items, deltas = _as_update_arrays(source)
        peak = max((abs(int(delta)) for delta in deltas), default=1)
        magnitude_bound = max(len(items) * peak, 1)
    estimator = make_l0_estimator(algorithm, universe_size, eps, magnitude_bound, seed)
    return parallel_ingest_updates_into(
        estimator,
        source,
        workers=workers,
        shards=shards,
        batch_size=batch_size,
        execution=execution,
    )


def parallel_ingest_keyed(
    store,
    keys,
    items,
    deltas=None,
    workers: Optional[int] = None,
    shards: Optional[int] = None,
    batch_size: Optional[int] = DEFAULT_SHARD_BATCH,
    execution: Optional[str] = None,
    executor: Optional[Executor] = None,
    handoff: Optional[str] = None,
):
    """Shard a keyed batch by key range and ingest it into ``store``.

    The ``(key, cleared-clone, merge-reduce)`` plan — the
    :class:`~repro.store.store.SketchStore` counterpart of
    :func:`parallel_ingest_into`: the batch is partitioned with
    :func:`shard_keyed_updates`, each worker process ingests its key
    range into an *empty* clone of the store (same family, parameters,
    and seed — :meth:`~repro.store.store.SketchStore.spawn_empty`), and
    the worker stores merge back key-wise in shard order.  Every key's
    updates stay in one shard, so the merged store is exactly the store
    sequential grouped ingestion would produce — for idempotent (max/OR)
    families *and* additive turnstile families.

    Args:
        store: the target sketch store (mutated in place).
        keys / items / deltas: the keyed batch, as accepted by
            :meth:`~repro.store.store.SketchStore.update_grouped`
            (integer keys — the shard assignment sorts them).
        workers: process count; defaults to
            :func:`~repro.parallel.pool.default_workers`.
        shards: shard count; defaults to ``workers``.
        batch_size: chunk length for the workers' grouped driving.
        execution: ``"processes"``, ``"inline"``, or ``None`` to pick
            automatically.
        executor: an existing pool to reuse (``workers``/``execution``
            are then ignored).
        handoff: ``"pipelined"`` (default) or ``"barrier"``.

    Returns:
        ``store``, for chaining.
    """
    if workers is None and shards is None:
        workers = default_workers()
    count = shards if shards is not None else workers
    plan = IngestPlan(
        axis="key",
        recipe="cleared-clone",
        discipline="merge-reduce",
        kind="keyed",
        shards=shard_keyed_updates(keys, items, deltas, shards=count),
        batch_size=batch_size,
    )
    return execute_plan(
        plan, store, workers=workers, execution=execution,
        executor=executor, handoff=handoff,
    )


def _epoch_shards(epochs, items, deltas, keys, workers, shards):
    """Cut a timestamped stream into epoch-run shard payloads.

    Returns one run-list per non-empty epoch-range span; each run is
    ``(epoch, items, deltas)`` — or ``(epoch, keys, items, deltas)``
    when ``keys`` is given — over NumPy views of the caller's arrays.
    """
    from ..window.windowed import epoch_runs

    if workers is None and shards is None:
        workers = default_workers()
    count = shards if shards is not None else workers
    spans = [
        span for span in shard_epoch_slices(epochs, count) if span[1] > span[0]
    ]
    shard_payloads = []
    for start, stop in spans:
        runs = []
        for epoch, run_start, run_stop in epoch_runs(epochs[start:stop]):
            lo, hi = start + run_start, start + run_stop
            sliced_deltas = None if deltas is None else deltas[lo:hi]
            if keys is None:
                runs.append((epoch, items[lo:hi], sliced_deltas))
            else:
                runs.append((epoch, keys[lo:hi], items[lo:hi], sliced_deltas))
        shard_payloads.append(runs)
    return shard_payloads


def parallel_ingest_windowed(
    window,
    epochs,
    items,
    deltas=None,
    workers: Optional[int] = None,
    shards: Optional[int] = None,
    batch_size: Optional[int] = None,
    execution: Optional[str] = None,
    executor: Optional[Executor] = None,
    handoff: Optional[str] = None,
):
    """Shard a timestamped stream by epoch range and ingest it into ``window``.

    The ``(epoch, template-epochs, adopt-in-order)`` plan: equivalent to
    ``window.ingest_timestamped(epochs, items, deltas,
    batch_size=batch_size)`` — including bit-identical epoch states,
    since every epoch is built wholly inside one shard from the ring's
    empty epoch template and adopted back in epoch order
    (:meth:`~repro.window.windowed._EpochRing.load_epoch_sketches`) —
    with the epoch construction fanned out over worker processes.

    Args:
        window: the target :class:`~repro.window.windowed.WindowedSketch`
            (mutated in place).
        epochs: one non-decreasing epoch number per update; none may
            precede the window's open epoch.
        items: identifiers, aligned with ``epochs``.
        deltas: signed deltas for turnstile families.
        workers: process count (defaults to
            :func:`~repro.parallel.pool.default_workers`).
        shards: epoch-range count (defaults to ``workers``).
        batch_size: per-epoch ``update_batch`` chunk length (``None`` =
            one batch per epoch run), applied identically by sequential
            and sharded ingestion.
        execution: ``"processes"``, ``"inline"``, or ``None`` to pick
            automatically.
        executor: an existing pool to reuse (``workers``/``execution``
            are then ignored).
        handoff: ``"pipelined"`` (default) or ``"barrier"``.

    Returns:
        ``window``, for chaining.
    """
    from ..window.windowed import WindowedSketch

    if not isinstance(window, WindowedSketch):
        raise ParameterError("parallel_ingest_windowed expects a WindowedSketch")
    if len(epochs) != len(items):
        raise ParameterError("windowed ingestion needs one epoch per update")
    # Mirror ingest_timestamped's model validation up front, so the
    # outcome does not depend on the shard count.
    if window.turnstile:
        if deltas is None:
            raise UpdateError("turnstile windowed ingestion needs deltas")
        if len(deltas) != len(items):
            raise UpdateError("windowed ingestion needs one delta per item")
    elif deltas is not None:
        raise UpdateError("insertion-only windowed ingestion takes no deltas")
    plan = IngestPlan(
        axis="epoch",
        recipe="template-epochs",
        discipline="adopt-in-order",
        kind="epochs",
        shards=_epoch_shards(epochs, items, deltas, None, workers, shards),
        batch_size=batch_size,
        meta=("sketch", window.turnstile),
    )
    return execute_plan(
        plan, window, workers=workers, execution=execution,
        executor=executor, handoff=handoff,
    )


def parallel_ingest_windowed_keyed(
    window,
    epochs,
    keys,
    items,
    deltas=None,
    workers: Optional[int] = None,
    shards: Optional[int] = None,
    batch_size: Optional[int] = None,
    execution: Optional[str] = None,
    executor: Optional[Executor] = None,
    handoff: Optional[str] = None,
):
    """Shard a timestamped *keyed* stream by epoch range into a windowed store.

    The :class:`~repro.window.windowed.WindowedSketchStore` counterpart
    of :func:`parallel_ingest_windowed` — the same ``(epoch,
    template-epochs, adopt-in-order)`` plan, with each worker building
    whole epoch *stores* from the ring's empty store template via
    grouped vectorized ingestion.  Epochs never span shards, so — as
    with key-range sharding — the result is exact for max/OR families
    and additive turnstile families alike.
    """
    from ..window.windowed import WindowedSketchStore

    if not isinstance(window, WindowedSketchStore):
        raise ParameterError(
            "parallel_ingest_windowed_keyed expects a WindowedSketchStore"
        )
    if len(keys) != len(items):
        raise ParameterError("windowed keyed ingestion needs one key per item")
    if len(epochs) != len(items):
        raise ParameterError("windowed ingestion needs one epoch per update")
    if deltas is not None and len(deltas) != len(items):
        raise ParameterError("windowed keyed ingestion needs one delta per item")
    plan = IngestPlan(
        axis="epoch",
        recipe="template-epochs",
        discipline="adopt-in-order",
        kind="epochs",
        shards=_epoch_shards(epochs, items, deltas, keys, workers, shards),
        batch_size=batch_size,
        meta=("store", window.turnstile),
    )
    return execute_plan(
        plan, window, workers=workers, execution=execution,
        executor=executor, handoff=handoff,
    )


_MERGEABLE_CACHE: Optional[Dict[str, bool]] = None


def _drop_capability_caches() -> None:
    """Reset the registry-derived memo caches in forked pool workers.

    The caches are pure functions of the estimator registry, but a child
    should re-derive them against whatever registry *it* sees rather than
    inherit the coordinator's snapshot through fork.
    """
    global _MERGEABLE_CACHE
    _MERGEABLE_CACHE = None


os.register_at_fork(after_in_child=_drop_capability_caches)


def mergeable_f0_names() -> List[str]:
    """Return the registered F0 algorithms usable with sharded ingestion.

    Every one of them shards *bit-identically*: sharded ingest equals
    sequential ingest in every state word.
    """
    global _MERGEABLE_CACHE
    if _MERGEABLE_CACHE is None:
        _MERGEABLE_CACHE = {
            name: _supports_merge(make_f0_estimator(name, 1 << 12, 0.25, seed=0))
            for name in f0_algorithm_names()
        }
    return [name for name, able in sorted(_MERGEABLE_CACHE.items()) if able]


_L0_MERGEABLE_CACHE: Optional[Dict[str, bool]] = None


def mergeable_l0_names() -> List[str]:
    """Return the registered L0 algorithms usable with sharded ingestion.

    Every mergeable L0 sketch in the library is linear with seed-determined
    hash functions, so sharded ingest is *bit-identical* to sequential
    ingest.
    """
    global _L0_MERGEABLE_CACHE
    if _L0_MERGEABLE_CACHE is None:
        _L0_MERGEABLE_CACHE = {
            name: _supports_merge(
                make_l0_estimator(name, 1 << 12, 0.25, 1 << 10, seed=0)
            )
            for name in l0_algorithm_names()
        }
    return [name for name, able in sorted(_L0_MERGEABLE_CACHE.items()) if able]
