"""Experiment harness: configuration, execution, metrics, and reports.

One :class:`Experiment` reproduces one experimental run of the paper's
§6: it assembles the cluster, statistics, likelihood model, and load
generator from an :class:`ExperimentConfig`, runs warmup + measurement
windows in virtual time, and returns an :class:`ExperimentResult`
whose :class:`MetricsCollector` exposes the series each figure plots.
"""

from repro.harness.experiment import (
    Experiment,
    ExperimentConfig,
    ExperimentResult,
    TenantSpec,
)
from repro.harness.report import (
    format_table,
    print_table,
    render_bars,
    render_curves,
)
from repro.harness.parallel import (
    default_pool_size,
    parallel_map,
    run_experiments,
)
from repro.harness.sharding import (
    merge_results,
    run_sharded,
    shard_configs,
)
from repro.obs import MetricsCollector, TxRecord
from repro.obs.monitor import ClusterSnapshot, HealthMonitor, snapshot
from repro.obs.txtrace import TransactionTrace, TransactionTracer

__all__ = [
    "ClusterSnapshot",
    "Experiment",
    "ExperimentConfig",
    "ExperimentResult",
    "HealthMonitor",
    "MetricsCollector",
    "TenantSpec",
    "TransactionTrace",
    "TransactionTracer",
    "TxRecord",
    "default_pool_size",
    "format_table",
    "merge_results",
    "parallel_map",
    "print_table",
    "render_bars",
    "render_curves",
    "run_experiments",
    "run_sharded",
    "shard_configs",
    "snapshot",
]
