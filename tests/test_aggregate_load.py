"""The batched aggregate load engine.

``AggregateLoad`` draws its own (numpy) sample path, so it is pinned
for determinism: literal digests of a whole experiment and of a
large-N run, plus the scheduling contract that every arrival is issued
at exactly its drawn time, in order, on a plain-float clock.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.harness.experiment import Experiment, ExperimentConfig
from repro.sim import Environment, RandomStreams
from repro.workload import (
    AggregateLoad,
    BuyTransactionFactory,
    HotspotAccess,
    UniformAccess,
    ZipfianAccess,
)


def _result_digest(result):
    hasher = hashlib.sha256()
    for record in result.metrics.all_records:
        hasher.update(repr(dataclasses.astuple(record)).encode())
    return hasher.hexdigest()


def _run(seed=3, **overrides):
    config = ExperimentConfig(
        name="agg-probe", seed=seed, system="traditional",
        topology="uniform", n_datacenters=3, uniform_one_way_ms=20.0,
        partitions_per_dc=1, n_items=100, rate_tps=100.0,
        warmup_ms=500.0, duration_ms=2_000.0, drain_ms=1_500.0,
        **overrides)
    return Experiment(config).run()


class _Recorder:
    """Issuer capturing (time, keys, hot) triples."""

    def __init__(self, env):
        self.env = env
        self.calls = []

    def issue(self, writes, touches_hotspot):
        self.calls.append(
            (self.env.now, tuple(op.key for op in writes), touches_hotspot))


def test_default_engine_unchanged():
    config = ExperimentConfig()
    assert config.load_engine == "per-client"


# -- determinism and scheduling ---------------------------------------------

def test_vectorized_mode_deterministic_at_large_n():
    def run_once():
        env = Environment()
        streams = RandomStreams(seed=29)
        factory = BuyTransactionFactory(ZipfianAccess(10_000, s=0.99))
        issuer = _Recorder(env)
        load = AggregateLoad(env, factory, issuer, 5_000.0, streams,
                             batch_size=2_048, population=100_000)
        load.start(duration_ms=10_000.0)
        env.run(until=10_000.0)
        hasher = hashlib.sha256()
        for call in issuer.calls:
            hasher.update(repr(call).encode())
        return len(issuer.calls), load.distinct_clients(), hasher.hexdigest()

    first = run_once()
    assert first == run_once()
    # ~5k tx/s for 10 simulated seconds, all attributed to users.
    assert first == (
        50_258, 39_539,
        "8645152a2597fa85788033803110a76902cee181bcdf3df53e7989cb74dc979d")


def test_vectorized_experiment_deterministic():
    one = _result_digest(_run(load_engine="aggregate-vectorized"))
    two = _result_digest(_run(load_engine="aggregate-vectorized"))
    assert one == two == (
        "1aee431eb7e9af1a71ccb34d89a44ff21bed7b207f4c2a220f295198010176d4")


def test_arrivals_issued_at_their_drawn_times():
    """Every arrival fires at exactly its drawn time, in draw order,
    as its drawn kind (read or write), across batch boundaries and run
    windows, on a plain-float clock."""
    env = Environment()
    streams = RandomStreams(seed=13)
    factory = BuyTransactionFactory(HotspotAccess(200, 20, hot_prob=0.8))
    issued = []

    class Issuer:
        def issue(self, writes, touches_hotspot):
            issued.append((env.now, type(env.now), False))

        def issue_read(self, keys):
            issued.append((env.now, type(env.now), True))

    load = AggregateLoad(env, factory, Issuer(), 300.0, streams,
                         read_fraction=0.3, batch_size=7)
    drawn = []
    load_batch = load._load_batch

    def recording_load_batch():
        n = load_batch()
        if n:
            drawn.extend(zip(load._times, load._reads.tolist()))
        return n

    load._load_batch = recording_load_batch
    load.start(duration_ms=2_000.0)
    env.run(until=900.0)
    env.run(until=2_000.0)
    assert len(drawn) > 7 * 50  # many batch boundaries crossed
    assert [(when, read) for when, _type, read in issued] == drawn
    assert drawn == sorted(drawn)
    assert all(kind is float for _when, kind, _read in issued)
    assert load.reads_issued == sum(read for _when, read in drawn) > 0
    assert load.issued + load.reads_issued == len(drawn)


def test_population_requires_the_aggregate_engine():
    with pytest.raises(ValueError, match="load_population"):
        _run(load_population=100)


def test_stop_cancels_pending_batch():
    env = Environment()
    streams = RandomStreams(seed=1)
    factory = BuyTransactionFactory(UniformAccess(50))
    issuer = _Recorder(env)
    load = AggregateLoad(env, factory, issuer, 100.0, streams)
    load.start()

    def stopper(env):
        yield env.timeout(500.0)
        load.stop()

    env.process(stopper(env))
    env.run()
    assert env.now == 500.0
    assert all(when <= 500.0 for when, _keys, _hot in issuer.calls)
    assert load.issued == len(issuer.calls)


def test_validation():
    env = Environment()
    streams = RandomStreams(seed=1)
    factory = BuyTransactionFactory(UniformAccess(50))
    issuer = _Recorder(env)
    with pytest.raises(ValueError):
        AggregateLoad(env, factory, issuer, 100.0, streams, batch_size=0)
    with pytest.raises(ValueError):
        AggregateLoad(env, factory, issuer, 100.0, streams, population=-1)
    with pytest.raises(ValueError):
        AggregateLoad(env, factory, issuer, 100.0, streams,
                      read_fraction=1.5)


# -- vectorized batch samplers -------------------------------------------

def test_uniform_sample_batch_distinct_and_cold():
    rng = RandomStreams(seed=5).numpy_generator("t")
    pattern = UniformAccess(100)
    counts = np.array([1, 2, 3, 4] * 25)
    keys, hot = pattern.sample_batch(rng, counts)
    assert len(keys) == 100
    assert not hot.any()
    for row, count in zip(keys, counts):
        assert len(row) == count
        assert len(set(row)) == count


def test_uniform_sample_batch_rejects_oversize():
    rng = RandomStreams(seed=5).numpy_generator("t")
    with pytest.raises(ValueError):
        UniformAccess(3).sample_batch(rng, np.array([4]))


def test_hotspot_sample_batch_regions_and_flags():
    rng = RandomStreams(seed=6).numpy_generator("t")
    pattern = HotspotAccess(1_000, 10, hot_prob=0.9)
    keys, hot = pattern.sample_batch(rng, np.full(500, 3))
    hot_fraction = hot.mean()
    assert 0.8 < hot_fraction < 0.97
    for row, is_hot in zip(keys, hot):
        assert len(set(row)) == len(row)
        for key in row:
            assert pattern.is_hot(key) == bool(is_hot)


def test_hotspot_sample_batch_clamps_to_hot_pool():
    """A hot transaction asking for more items than the hotspot holds
    is clamped, exactly like the scalar path."""
    rng = RandomStreams(seed=7).numpy_generator("t")
    pattern = HotspotAccess(100, 2, hot_prob=1.0)
    keys, hot = pattern.sample_batch(rng, np.array([4, 4]))
    assert hot.all()
    for row in keys:
        assert len(row) == 2
        assert len(set(row)) == 2


def test_hotspot_sample_batch_degenerate_all_hot():
    rng = RandomStreams(seed=8).numpy_generator("t")
    pattern = HotspotAccess(10, 10, hot_prob=0.0)
    keys, hot = pattern.sample_batch(rng, np.full(20, 2))
    assert hot.all()
    for row in keys:
        assert all(pattern.is_hot(key) for key in row)


def test_zipf_sample_batch_skew_and_hot_flags():
    rng = RandomStreams(seed=9).numpy_generator("t")
    pattern = ZipfianAccess(1_000, s=1.1, hot_top=10)
    keys, hot = pattern.sample_batch(rng, np.full(2_000, 2))
    head = sum(1 for row in keys for key in row
               if int(key.rsplit(":", 1)[1]) < 10)
    total = sum(len(row) for row in keys)
    assert head / total > 0.3  # power-law head mass
    for row, is_hot in zip(keys, hot):
        assert len(set(row)) == len(row)
        assert bool(is_hot) == any(pattern.is_hot(key) for key in row)


def test_build_batch_matches_scalar_shape():
    rng = RandomStreams(seed=10).numpy_generator("t")
    factory = BuyTransactionFactory(UniformAccess(500), min_items=2,
                                    max_items=3, quantity=5,
                                    enforce_stock_floor=True)
    writes, hot = factory.build_batch(rng, 50)
    assert len(writes) == 50
    assert len(hot) == 50
    for txn in writes:
        assert 2 <= len(txn) <= 3
        for op in txn:
            assert op.update.value == -5
            assert op.update.floor == 0
