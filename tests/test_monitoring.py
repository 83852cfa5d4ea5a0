"""Tests for the cluster-internals monitoring module."""

import pytest

from repro.core import PlanetSession
from repro.obs.monitor import ClusterSnapshot, HealthMonitor, snapshot
from repro.mdcc import Cluster
from repro.net import uniform_topology
from repro.sim import Environment, RandomStreams
from repro.storage import Update, WriteOp


def run_some_load(n_txns=10, seed=61):
    env = Environment()
    topo = uniform_topology(3, one_way_ms=20.0, sigma=0.02)
    cluster = Cluster(env, topo, RandomStreams(seed=seed))
    cluster.load({f"item:{i}": 100 for i in range(5)})
    session = PlanetSession(cluster, "web", 0)

    def driver(env):
        for i in range(n_txns):
            (session.transaction([WriteOp(f"item:{i % 5}",
                                          Update.delta(-1))],
                                 timeout_ms=5_000)
             .on_failure(lambda info: None)).execute()
            yield env.timeout(200)

    env.process(driver(env))
    return env, cluster


def test_snapshot_counts_protocol_activity():
    env, cluster = run_some_load()
    env.run()
    snap = snapshot(cluster)
    assert snap.proposals == 10
    assert snap.options_accepted + snap.options_rejected == 10
    assert snap.clients_started == 10
    assert snap.clients_committed + snap.clients_aborted == 10
    assert snap.pending_options == 0  # everything settled
    assert snap.messages_delivered > 50
    assert snap.messages_dropped == 0
    assert snap.records_materialized >= 5


def test_snapshot_rates():
    snap = ClusterSnapshot(
        at_ms=1000.0, messages_sent=10, messages_delivered=10,
        messages_dropped=0, proposals=10, options_accepted=8,
        options_rejected=2, rounds_lost=0, pending_options=0,
        max_queue_depth=3, records_materialized=5, clients_started=10,
        clients_committed=8, clients_aborted=2)
    assert snap.option_reject_rate == pytest.approx(0.2)
    assert snap.client_commit_rate == pytest.approx(0.8)


def test_snapshot_rates_empty():
    snap = ClusterSnapshot(
        at_ms=0.0, messages_sent=0, messages_delivered=0,
        messages_dropped=0, proposals=0, options_accepted=0,
        options_rejected=0, rounds_lost=0, pending_options=0,
        max_queue_depth=0, records_materialized=0, clients_started=0,
        clients_committed=0, clients_aborted=0)
    assert snap.option_reject_rate == 0.0
    assert snap.client_commit_rate == 0.0


def test_snapshot_render():
    env, cluster = run_some_load()
    env.run()
    text = snapshot(cluster).render()
    assert "proposals" in text
    assert "commit rate" in text


def test_health_monitor_samples_over_time():
    env, cluster = run_some_load(n_txns=10)
    monitor = HealthMonitor(cluster, interval_ms=500.0)
    env.run(until=2_600)
    assert len(monitor.samples) == 5
    starts = monitor.series("clients_started")
    assert starts == sorted(starts)  # monotone counter
    deltas = monitor.deltas("clients_started")
    assert sum(deltas) == starts[-1]


def test_health_monitor_validation():
    env, cluster = run_some_load(n_txns=1)
    with pytest.raises(ValueError):
        HealthMonitor(cluster, interval_ms=0)
