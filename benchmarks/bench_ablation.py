"""E12 — Ablations of the KNW design choices (see docs/architecture.md).

Three ablations, each isolating one design decision of the paper:

* **Offset rebasing** — the compressed Figure 3 representation vs. the
  uncompressed Figure 4 bitmatrix: same estimator, very different space.
* **Offset divisor** — the paper's conservative ``K/32`` subsampling target
  vs. the practical ``K/2`` setting (accuracy at identical space).
* **h3 independence** — the Lemma 2 k-wise family vs. plain pairwise
  hashing vs. the Siegel-style family used by the fast variant (accuracy
  at the same structure).
"""

from __future__ import annotations

from conftest import SMALL_BENCH_UNIVERSE, emit, metric, record, run_once

from repro.analysis import Table, format_bits
from repro.analysis.metrics import relative_error
from repro.core import BitMatrixSkeleton, KNWDistinctCounter, KNWFigure3Sketch
from repro.streams import distinct_items_stream

DISTINCT = 8_000
SEEDS = [1, 2, 3]
EPS = 0.05


def _mean(values):
    return sum(values) / len(values)


def test_ablation_offset_rebasing_space(benchmark):
    def experiment():
        stream = distinct_items_stream(SMALL_BENCH_UNIVERSE, DISTINCT, seed=41)
        compressed = KNWFigure3Sketch(
            SMALL_BENCH_UNIVERSE, eps=EPS, seed=1, offset_divisor=2
        )
        uncompressed = BitMatrixSkeleton(SMALL_BENCH_UNIVERSE, eps=EPS, seed=1)
        compressed.process_stream(stream)
        uncompressed.process_stream(stream)
        return {
            "figure-3 compressed counters": compressed.space_bits(),
            "figure-4 full bitmatrix": uncompressed.space_bits(),
        }

    spaces = run_once(benchmark, experiment)
    table = Table(
        "E12a: offset rebasing ablation — space of the counter state (eps=%.2f)" % EPS,
        ["representation", "space"],
    )
    for name, bits in spaces.items():
        table.add_row([name, format_bits(bits)])
    emit("E12a: offset rebasing (Figure 3 vs Figure 4)", table.render_text())
    record(
        "ablation",
        {
            "figure3_space_bits": metric(
                spaces["figure-3 compressed counters"], "lower", "space", "bits"
            ),
            "figure4_space_bits": metric(
                spaces["figure-4 full bitmatrix"], "lower", "space", "bits"
            ),
        },
        scale={"universe": SMALL_BENCH_UNIVERSE, "distinct": DISTINCT},
    )
    assert spaces["figure-3 compressed counters"] < spaces["figure-4 full bitmatrix"]


def test_ablation_offset_divisor_accuracy(benchmark):
    def experiment():
        results = {}
        for divisor in (32, 8, 2):
            errors = []
            for seed in SEEDS:
                stream = distinct_items_stream(
                    SMALL_BENCH_UNIVERSE, DISTINCT, seed=500 + seed
                )
                counter = KNWDistinctCounter(
                    SMALL_BENCH_UNIVERSE, eps=EPS, seed=seed, offset_divisor=divisor
                )
                errors.append(relative_error(counter.process_stream(stream), DISTINCT))
            results[divisor] = _mean(errors)
        return results

    results = run_once(benchmark, experiment)
    table = Table(
        "E12b: offset divisor ablation (paper uses 32), eps=%.2f, F0=%d" % (EPS, DISTINCT),
        ["offset divisor c (b = est - log2(K/c))", "mean rel. error"],
    )
    for divisor, error in sorted(results.items()):
        table.add_row([divisor, "%.3f" % error])
    emit("E12b: offset divisor", table.render_text())
    record(
        "ablation",
        {
            "offset_divisor_%d_error" % divisor: metric(error, "lower", "error")
            for divisor, error in results.items()
        },
    )
    # The practical divisor keeps more sampled items and must not be less
    # accurate than the paper's conservative setting.
    assert results[2] <= results[32] + 0.02


def test_ablation_h3_independence(benchmark):
    def experiment():
        from repro.core import FastKNWDistinctCounter

        results = {}
        errors = []
        for seed in SEEDS:
            stream = distinct_items_stream(SMALL_BENCH_UNIVERSE, DISTINCT, seed=700 + seed)
            counter = KNWDistinctCounter(SMALL_BENCH_UNIVERSE, eps=EPS, seed=seed)
            errors.append(relative_error(counter.process_stream(stream), DISTINCT))
        results["k-wise (Lemma 2)"] = _mean(errors)
        errors = []
        for seed in SEEDS:
            stream = distinct_items_stream(SMALL_BENCH_UNIVERSE, DISTINCT, seed=700 + seed)
            counter = FastKNWDistinctCounter(SMALL_BENCH_UNIVERSE, eps=EPS, seed=seed)
            errors.append(relative_error(counter.process_stream(stream), DISTINCT))
        results["Siegel-style (Theorem 7, fast variant)"] = _mean(errors)
        return results

    results = run_once(benchmark, experiment)
    table = Table(
        "E12c: h3 hash-family ablation, eps=%.2f, F0=%d, %d seeds" % (EPS, DISTINCT, len(SEEDS)),
        ["h3 family", "mean rel. error"],
    )
    for family, error in results.items():
        table.add_row([family, "%.3f" % error])
    emit("E12c: h3 independence", table.render_text())
    record(
        "ablation",
        {
            "h3_kwise_error": metric(results["k-wise (Lemma 2)"], "lower", "error"),
            "h3_siegel_error": metric(
                results["Siegel-style (Theorem 7, fast variant)"], "lower", "error"
            ),
        },
    )
    for family, error in results.items():
        assert error <= 4 * EPS, family
