"""Cluster-internals monitoring: protocol and server-health counters.

Aggregates the observability counters scattered across the stack —
option decisions at leaders, Paxos round losses, transport traffic,
RPC queue depths, client commit/abort tallies — into one snapshot for
reports and regression checks.

:class:`HealthMonitor` also publishes each sample as ``cluster.*``
gauges into an installed
:class:`~repro.obs.metrics.MetricsRegistry`, so the polling counters
land in the same metric dump as the event-driven instrumentation.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import List


@dataclass(frozen=True)
class ClusterSnapshot:
    """Aggregate counters at one instant of virtual time."""

    at_ms: float
    messages_sent: int
    messages_delivered: int
    messages_dropped: int
    proposals: int
    options_accepted: int
    options_rejected: int
    rounds_lost: int
    pending_options: int
    max_queue_depth: int
    records_materialized: int
    clients_started: int
    clients_committed: int
    clients_aborted: int

    @property
    def option_reject_rate(self) -> float:
        total = self.options_accepted + self.options_rejected
        return self.options_rejected / total if total else 0.0

    @property
    def client_commit_rate(self) -> float:
        decided = self.clients_committed + self.clients_aborted
        return self.clients_committed / decided if decided else 0.0

    def render(self) -> str:
        from repro.harness.report import format_table

        rows = [
            ["virtual time (s)", round(self.at_ms / 1000.0, 1)],
            ["messages sent / delivered / dropped",
             f"{self.messages_sent} / {self.messages_delivered} / "
             f"{self.messages_dropped}"],
            ["proposals", self.proposals],
            ["options accepted / rejected",
             f"{self.options_accepted} / {self.options_rejected} "
             f"({self.option_reject_rate:.1%} rejected)"],
            ["paxos rounds lost", self.rounds_lost],
            ["pending options (now)", self.pending_options],
            ["max RPC queue depth", self.max_queue_depth],
            ["records materialized", self.records_materialized],
            ["client txns started", self.clients_started],
            ["client commit rate", f"{self.client_commit_rate:.1%}"],
        ]
        return format_table(["counter", "value"], rows,
                            title="cluster snapshot")


def snapshot(cluster) -> ClusterSnapshot:
    """Collect a :class:`ClusterSnapshot` from a live cluster."""
    proposals = accepted = rejected = lost = 0
    pending = depth = materialized = 0
    for nodes in cluster.nodes.values():
        for node in nodes:
            proposals += node.proposals
            accepted += node.options_accepted
            rejected += node.options_rejected
            lost += node.rounds_lost
            depth = max(depth, node.endpoint.max_queue_depth)
            materialized += len(node.records)
            pending += sum(len(r.pending) for r in node.records.values())
    started = committed = aborted = 0
    for tm in cluster._clients.values():
        started += tm.started
        committed += tm.committed
        aborted += tm.aborted
    transport = cluster.transport
    return ClusterSnapshot(
        at_ms=cluster.env.now,
        messages_sent=transport.sent,
        messages_delivered=transport.delivered,
        messages_dropped=transport.dropped,
        proposals=proposals,
        options_accepted=accepted,
        options_rejected=rejected,
        rounds_lost=lost,
        pending_options=pending,
        max_queue_depth=depth,
        records_materialized=materialized,
        clients_started=started,
        clients_committed=committed,
        clients_aborted=aborted,
    )


class HealthMonitor:
    """Periodic snapshots over a run (a time series of counters).

    When the kernel has a metrics registry installed
    (``env.metrics``), every sampled counter is also published as a
    ``cluster.<field>`` gauge, time-stamped by the sampling loop.
    """

    def __init__(self, cluster, interval_ms: float = 10_000.0):
        if interval_ms <= 0:
            raise ValueError("interval must be positive")
        self.cluster = cluster
        self.interval_ms = float(interval_ms)
        self.samples: List[ClusterSnapshot] = []
        cluster.env.process(self._loop())

    def _loop(self):
        while True:
            yield self.cluster.env.timeout(self.interval_ms)
            sample = snapshot(self.cluster)
            self.samples.append(sample)
            metrics = getattr(self.cluster.env, "metrics", None)
            if metrics is not None:
                for field_ in fields(ClusterSnapshot):
                    metrics.set_gauge(f"cluster.{field_.name}",
                                      float(getattr(sample, field_.name)))

    def series(self, field: str) -> List[float]:
        """One counter's trajectory across the samples."""
        return [getattr(sample, field) for sample in self.samples]

    def deltas(self, field: str) -> List[float]:
        """Per-interval increments of a monotone counter."""
        values = self.series(field)
        return [b - a for a, b in zip([0.0] + values, values)]
