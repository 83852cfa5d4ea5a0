"""Sharded experiment execution: split clients, run kernels, merge.

The million-user configs are *open systems*: every arrival is an
independent client, so an experiment at rate R with population P is
statistically the union of S experiments at rate R/S with population
P/S each — and those S shards can run as separate kernels in separate
processes on the persistent :class:`~repro.harness.parallel.
WorkerPool`.  This module owns the three pieces that make that safe:

``shard_configs``
    Deterministically partitions one :class:`ExperimentConfig` into
    per-shard configs — rate and ``load_population`` split evenly,
    each shard on a seed derived from ``(seed, shard, shards)`` so no
    two shards share a random stream.  One shard passes the config
    through verbatim: ``run_sharded(config, 1)`` is exactly
    ``Experiment(config).run()``.

``merge_results``
    Order-preserving deterministic merge of the per-shard results:
    transaction records interleave by issue time (stable in shard
    order on exact ties), scalar series concatenate in shard order,
    and obs metric dumps combine (counters and histogram buckets sum,
    gauges take the max).  Merging is pure data-plumbing — no RNG, no
    floating-point reassociation on records — so the merged result is
    byte-identical no matter where or in what order the shards ran.
    The serial-vs-pooled equivalence tests pin that.

``run_sharded``
    The driver: shard, fan out via :func:`~repro.harness.parallel.
    run_experiments` (per-shard results cross process boundaries
    through plain pickle), merge.

Note what sharding deliberately does **not** promise: a 4-shard run
is not sample-for-sample identical to the 1-shard run — the shards
draw from different streams by construction.  The determinism
guarantee is that any given shard decomposition produces one exact
answer, serial or pooled, on any worker count.
"""

from __future__ import annotations

import heapq
from dataclasses import replace
from typing import Dict, List, Optional, Sequence

from repro.harness.experiment import (
    Experiment,
    ExperimentConfig,
    ExperimentResult,
)
from repro.harness.parallel import WorkerPool, run_experiments
from repro.obs.txmetrics import MetricsCollector, TxRecord


def split_evenly(total: int, parts: int) -> List[int]:
    """Partition ``total`` into ``parts`` near-equal integers (first
    ``total % parts`` parts get the extra unit)."""
    if parts < 1:
        raise ValueError(f"parts {parts} must be >= 1")
    base, extra = divmod(total, parts)
    return [base + 1 if index < extra else base for index in range(parts)]


def derive_shard_seed(seed: int, shard: int, shards: int) -> int:
    """Deterministic seed for one shard of a sharded run.

    Mixes the parent seed with the shard coordinates so (a) no two
    shards of one run share a stream, and (b) the same decomposition
    always lands on the same seeds — re-running shard 2 of 4
    reproduces it exactly.
    """
    mixed = (seed * 1_000_003 + shards * 10_007 + shard * 7_919 + 12_289)
    return mixed & 0x7FFFFFFF


def shard_configs(config: ExperimentConfig,
                  shards: int) -> List[ExperimentConfig]:
    """Split one experiment config into ``shards`` independent slices.

    With ``shards == 1`` the config passes through verbatim (same
    object), pinning ``run_sharded(config, 1)`` to the plain run.
    """
    if shards < 1:
        raise ValueError(f"shards {shards} must be >= 1")
    if shards == 1:
        return [config]
    populations = split_evenly(config.load_population, shards)
    rate = config.rate_tps / shards
    return [
        replace(
            config,
            name=f"{config.name}#s{index}of{shards}",
            seed=derive_shard_seed(config.seed, index, shards),
            rate_tps=rate,
            load_population=populations[index],
            # Tenants are open systems too: each shard carries every
            # tenant at 1/shards of its rate (mix and shape intact).
            tenants=(None if config.tenants is None else tuple(
                replace(tenant, rate_tps=tenant.rate_tps / shards)
                for tenant in config.tenants)),
        )
        for index in range(shards)
    ]


def _merge_metric_dumps(dumps: Sequence[Dict[str, object]],
                        ) -> Dict[str, object]:
    """Combine per-shard MetricsRegistry dumps into one.

    Counters and histogram bucket vectors sum; gauges (point-in-time,
    last-write-wins within a shard) take the max across shards, which
    is the honest aggregate for the high-water marks they track.
    """
    counters: Dict[str, Dict[str, float]] = {}
    gauges: Dict[str, Dict[str, float]] = {}
    histograms: Dict[str, Dict[str, object]] = {}
    for dump in dumps:
        for name, series in dump["counters"].items():  # type: ignore[union-attr]
            out = counters.setdefault(name, {})
            for label, value in series.items():
                out[label] = out.get(label, 0.0) + value
        for name, series in dump["gauges"].items():  # type: ignore[union-attr]
            out = gauges.setdefault(name, {})
            for label, value in series.items():
                out[label] = max(out.get(label, value), value)
        for name, histogram in dump["histograms"].items():  # type: ignore[union-attr]
            merged = histograms.get(name)
            if merged is None:
                histograms[name] = {
                    "bounds": list(histogram["bounds"]),
                    "series": {label: dict(data, buckets=list(
                        data["buckets"]))
                        for label, data in histogram["series"].items()},
                }
                continue
            if merged["bounds"] != list(histogram["bounds"]):
                raise ValueError(
                    f"histogram {name!r} bounds differ across shards")
            out_series = merged["series"]
            for label, data in histogram["series"].items():
                target = out_series.get(label)
                if target is None:
                    out_series[label] = dict(
                        data, buckets=list(data["buckets"]))
                    continue
                both = target["count"] and data["count"]
                target["min"] = (min(target["min"], data["min"]) if both
                                 else target["min"] or data["min"])
                target["max"] = (max(target["max"], data["max"]) if both
                                 else target["max"] or data["max"])
                target["count"] += data["count"]
                target["sum"] += data["sum"]
                target["buckets"] = [a + b for a, b in zip(
                    target["buckets"], data["buckets"])]
    return {
        "counters": {name: dict(sorted(series.items()))
                     for name, series in sorted(counters.items())},
        "gauges": {name: dict(sorted(series.items()))
                   for name, series in sorted(gauges.items())},
        "histograms": dict(sorted(histograms.items())),
    }


def merge_results(config: ExperimentConfig,
                  results: Sequence[ExperimentResult]) -> ExperimentResult:
    """Deterministic order-preserving merge of per-shard results.

    Records interleave by ``issued_ms`` (each shard's records are
    already issue-ordered; ``heapq.merge`` is stable, so exact ties
    resolve in shard order).  Scalar series concatenate in shard
    order.  Obs artifacts merge when every shard carried them:
    metric dumps combine via :func:`_merge_metric_dumps`, spans
    concatenate in shard order.
    """
    if not results:
        raise ValueError("no shard results to merge")
    if len(results) == 1:
        return results[0]
    first = results[0].metrics
    for result in results:
        window = (result.metrics.window_start_ms,
                  result.metrics.window_end_ms)
        if window != (first.window_start_ms, first.window_end_ms):
            raise ValueError(
                f"shard windows disagree: {window} vs "
                f"{(first.window_start_ms, first.window_end_ms)}")
    collector = MetricsCollector(first.window_start_ms,
                                 first.window_end_ms)
    merged: List[TxRecord] = list(heapq.merge(
        *(result.metrics.all_records for result in results),
        key=lambda record: record.issued_ms))
    collector.all_records = merged
    obs: Optional[Dict[str, object]] = None
    if all(result.obs is not None for result in results):
        meta = dict(results[0].obs["meta"])  # type: ignore[index, arg-type]
        meta["name"] = config.name
        meta["seed"] = config.seed
        meta["shards"] = len(results)
        spans: List[object] = []
        for result in results:
            spans.extend(result.obs["spans"])  # type: ignore[index, arg-type]
        obs = {
            "version": results[0].obs["version"],  # type: ignore[index]
            "meta": meta,
            "metrics": _merge_metric_dumps(
                [result.obs["metrics"]  # type: ignore[index, misc]
                 for result in results]),
            "spans": spans,
        }
    return ExperimentResult(
        config=config,
        metrics=collector,
        initial_likelihoods=[value for result in results
                             for value in result.initial_likelihoods],
        read_latencies_ms=[value for result in results
                           for value in result.read_latencies_ms],
        obs=obs)


def run_sharded(config: ExperimentConfig, shards: int,
                pool: Optional[WorkerPool] = None,
                processes: Optional[int] = None) -> ExperimentResult:
    """Run ``config`` as ``shards`` independent slices and merge.

    ``pool``/``processes`` select the execution vehicle exactly as in
    :func:`run_experiments`; ``processes=1`` (or a pool with one
    effective worker) runs the shards serially in-process, producing
    a byte-identical result — the equivalence tests pin that.
    """
    configs = shard_configs(config, shards)
    if len(configs) == 1 and pool is None and processes is None:
        return Experiment(config).run()
    results = run_experiments(configs, processes=processes, pool=pool)
    if len(results) == 1:
        return results[0]
    return merge_results(config, results)
