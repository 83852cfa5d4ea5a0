"""Tests for the full §5.2.1 statistics-dissemination pipeline."""

import numpy as np
import pytest

from repro.core import DynamicPolicy
from repro.core.dissemination import (
    ClientStatsAgent,
    DisseminationService,
    NodeStatsStore,
)
from repro.core.likelihood import CommitLikelihoodModel
from repro.harness import Experiment, ExperimentConfig
from repro.mdcc import Cluster
from repro.net import uniform_topology
from repro.sim import Environment, RandomStreams


def make_world(n_dc=3, one_way=20.0, seed=55):
    env = Environment()
    topo = uniform_topology(n_dc, one_way_ms=one_way, sigma=0.05)
    streams = RandomStreams(seed=seed)
    cluster = Cluster(env, topo, streams)
    service = DisseminationService(env, cluster, streams, n_bins=256)
    return env, topo, cluster, service


# ---------------------------------------------------------------- node store


def test_store_aggregates_across_clients():
    store = NodeStatsStore(n_bins=4)
    store.absorb("a", {(0, 1): np.array([1.0, 0.0, 0.0, 0.0])})
    store.absorb("b", {(0, 1): np.array([0.0, 2.0, 0.0, 0.0])})
    aggregate = store.aggregate()
    assert aggregate[(0, 1)].tolist() == [1.0, 2.0, 0.0, 0.0]
    assert store.n_clients == 2


def test_store_repush_replaces_not_accumulates():
    store = NodeStatsStore(n_bins=2)
    store.absorb("a", {(0, 1): np.array([5.0, 0.0])})
    store.absorb("a", {(0, 1): np.array([6.0, 0.0])})  # cumulative repush
    assert store.aggregate()[(0, 1)].tolist() == [6.0, 0.0]


def test_store_size_aggregation():
    store = NodeStatsStore(n_bins=2)
    store.absorb("a", {}, size_counts={1: 3, 2: 1})
    store.absorb("b", {}, size_counts={2: 2})
    assert store.aggregate_sizes() == {1: 3, 2: 3}


def test_store_shape_validation():
    store = NodeStatsStore(n_bins=4)
    with pytest.raises(ValueError):
        store.absorb("a", {(0, 1): np.zeros(3)})


# ---------------------------------------------------------------- convergence


def test_single_agent_measures_its_own_row():
    env, topo, cluster, service = make_world()
    agent = service.start_agent(0, ping_interval_ms=400.0)
    env.run(until=4_000)
    # The agent measured (0, b) for every b itself.
    for b in range(3):
        hist = agent.own.get((0, b))
        assert hist is not None and hist.total_count() > 0


def test_agents_converge_to_full_matrix_via_aggregates():
    env, topo, cluster, service = make_world()
    agents = [service.start_agent(dc, ping_interval_ms=400.0)
              for dc in range(3)]
    env.run(until=6_000)
    # Every agent can now build a full matrix WITHOUT fallback: the
    # pairs it cannot measure came back in node aggregates.
    for agent in agents:
        matrix = agent.latency_matrix()
        for a in range(3):
            for b in range(3):
                if a != b:
                    assert matrix.rtt(a, b).mean() == pytest.approx(
                        topo.mean_rtt(a, b), rel=0.3)


def test_fresh_agent_bootstraps_from_global_view():
    env, topo, cluster, service = make_world()
    for dc in range(3):
        service.start_agent(dc, ping_interval_ms=400.0)
    env.run(until=5_000)
    # A latecomer joins; within a couple of probe rounds it has the
    # whole matrix even though it measured almost nothing itself.
    late = service.start_agent(1, ping_interval_ms=400.0)
    env.run(until=6_500)
    assert late.coverage() >= 6
    matrix = late.latency_matrix()
    assert matrix.rtt(0, 2).mean() == pytest.approx(
        topo.mean_rtt(0, 2), rel=0.3)


def test_own_measurements_win_over_global_view():
    env, topo, cluster, service = make_world()
    agent = service.start_agent(0, ping_interval_ms=400.0)
    # Poison the global view for a pair the agent measures directly.
    agent.global_view[(0, 1)] = np.zeros(256)
    agent.global_view[(0, 1)][255] = 100.0  # absurd 510ms RTTs
    env.run(until=4_000)
    matrix = agent.latency_matrix(fallback=topo)
    assert matrix.rtt(0, 1).mean() < 100.0  # own data, not the poison


def test_size_distribution_merges_local_and_global():
    env, topo, cluster, service = make_world()
    agents = [service.start_agent(dc, ping_interval_ms=300.0)
              for dc in range(2)]
    agents[0].observe_transaction_size(1)
    agents[0].observe_transaction_size(3)
    env.run(until=3_000)
    # Agent 1 learned agent 0's sizes through the node aggregate.
    dist = agents[1].size_distribution()
    assert set(dist) == {1, 3}
    with pytest.raises(ValueError):
        agents[0].observe_transaction_size(0)


def test_windowed_aging_of_own_measurements():
    env, topo, cluster, service = make_world()
    agent = service.start_agent(0, ping_interval_ms=200.0,
                                rotate_ms=1_000.0)
    env.run(until=2_000)
    counts_live = sum(h.total_count() for h in agent.own.values())
    assert counts_live > 0
    # Stop probing (kill by advancing with an isolated network).
    for b in range(3):
        cluster.transport.partition(0, b)
    env.run(until=12_000)
    counts_after = sum(h.total_count() for h in agent.own.values())
    assert counts_after <= counts_live


def test_agent_builds_model_end_to_end():
    env, topo, cluster, service = make_world()
    agents = [service.start_agent(dc, ping_interval_ms=400.0)
              for dc in range(3)]
    agents[0].observe_transaction_size(2)
    env.run(until=6_000)
    model = agents[0].build_model(fallback=topo)
    assert model.ready
    likelihood = model.record_likelihood(0, 1, 0.001)
    assert 0.0 < likelihood < 1.0


def count_builds(monkeypatch):
    """Log every precompute/refresh call as (kind, model)."""
    calls = []
    for kind in ("precompute", "refresh"):
        original = getattr(CommitLikelihoodModel, kind)

        def logged(model, *args, _kind=kind, _original=original, **kwargs):
            calls.append((_kind, model))
            return _original(model, *args, **kwargs)
        monkeypatch.setattr(CommitLikelihoodModel, kind, logged)
    return calls


def test_agent_incremental_build_reuses_the_model(monkeypatch):
    env, topo, cluster, service = make_world()
    agents = [service.start_agent(dc, ping_interval_ms=400.0)
              for dc in range(3)]
    env.run(until=3_000)
    calls = count_builds(monkeypatch)
    first = agents[0].build_model(fallback=topo, incremental=True)
    assert calls == [("precompute", first)]
    env.run(until=5_000)  # new probes: own samples and adopted views
    again = agents[0].build_model(fallback=topo, incremental=True)
    assert again is first
    assert calls == [("precompute", first), ("refresh", first)]
    # The patched model matches a cold build of the same view.
    cold = agents[0].build_model(fallback=topo)
    assert cold is not first
    for l in range(3):
        diff = np.abs(first.conflict_window_pmf(0, l).probs
                      - cold.conflict_window_pmf(0, l).probs).max()
        assert diff < 1e-12


def distributed_config(**kwargs):
    return ExperimentConfig(
        name="dist", seed=11, topology="uniform", n_datacenters=3,
        uniform_one_way_ms=30.0, sigma=0.05, spike_prob=0.0,
        partitions_per_dc=1, n_items=400, hotspot_size=20,
        rate_tps=60.0, max_items=3, admission=DynamicPolicy(50),
        spec_threshold=0.95, stats_mode="distributed",
        ping_interval_ms=500.0, model_refresh_ms=1_000.0,
        warmup_ms=3_000.0, duration_ms=6_000.0, drain_ms=3_000.0,
        **kwargs)


def test_distributed_refresh_incremental_matches_cold_rebuilds():
    runs = [Experiment(distributed_config(model_refresh_incremental=flag))
            for flag in (True, False)]
    results = [experiment.run() for experiment in runs]
    assert runs[0].model_refreshes == runs[1].model_refreshes >= 5
    incremental, cold = results
    # Same decisions everywhere; the predictions themselves agree to
    # the refresh path's 1e-12 pin.
    assert incremental.metrics.records == cold.metrics.records
    assert incremental.summary() == cold.summary()
    assert incremental.initial_likelihoods == pytest.approx(
        cold.initial_likelihoods, abs=1e-12)


def test_distributed_agents_build_one_row_per_refresh(monkeypatch):
    config = distributed_config()
    experiment = Experiment(config)
    log = []
    original = CommitLikelihoodModel.refresh

    def logged(model, *args, **kwargs):
        changed = original(model, *args, **kwargs)
        log.append((model, experiment.env.now, bool(changed),
                    model.rows_built))
        return changed
    monkeypatch.setattr(CommitLikelihoodModel, "refresh", logged)
    experiment.run()
    # One model per agent, kept across every refresh.
    models = {session.datacenter: session.model
              for session in experiment.sessions}
    assert {id(entry[0]) for entry in log} == {
        id(model) for model in models.values()}
    load_end = config.warmup_ms + config.duration_ms
    for dc, model in models.items():
        entries = [entry for entry in log
                   if entry[0] is model and entry[1] <= load_end]
        assert len(entries) >= 5
        assert all(changed for _, _, changed, _ in entries)
        # The session reads its own row after every refresh: exactly
        # one row built per refresh, never another client's row.
        rows = [rows_built for _, _, _, rows_built in entries]
        assert [b - a for a, b in zip(rows, rows[1:])] == [1] * (len(rows) - 1)
        assert set(model._stale_rows) >= set(range(3)) - {dc}


def test_plain_ping_still_answered():
    # Legacy "ping" probes (the hub StatisticsService) get a bare ack
    # from the dissemination handler rather than crashing it.
    env, topo, cluster, service = make_world()
    from repro.net.rpc import RpcEndpoint
    probe = RpcEndpoint(env, cluster.transport, "probe", 0)
    replies = []

    def caller(env):
        reply = yield probe.call(cluster.node_address(1, 0), "ping", None)
        replies.append(reply)

    env.process(caller(env))
    env.run(until=1_000)
    assert replies == [None]
