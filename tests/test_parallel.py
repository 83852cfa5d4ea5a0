"""repro.harness.parallel: order, determinism, and serial fallback."""

import dataclasses
import os

import pytest

from repro.harness.parallel import (
    WorkerPool,
    default_pool_size,
    experiment_cost_hint,
    parallel_map,
    run_experiments,
    worker_context,
)
from repro.harness.experiment import ExperimentConfig


def _square(value):
    return value * value


def test_serial_path_preserves_order_and_streams_results():
    seen = []
    results = parallel_map(_square, [3, 1, 2], processes=1,
                           on_result=seen.append)
    assert results == [9, 1, 4]
    assert seen == [9, 1, 4]


def test_pooled_path_matches_serial():
    items = list(range(20))
    serial = parallel_map(_square, items, processes=1)
    pooled = parallel_map(_square, items, processes=2)
    assert pooled == serial


def test_pooled_on_result_arrives_in_input_order():
    seen = []
    parallel_map(_square, [5, 4, 3, 2, 1], processes=2,
                 on_result=seen.append)
    assert seen == [25, 16, 9, 4, 1]


def test_empty_input():
    assert parallel_map(_square, [], processes=4) == []


def test_single_cpu_host_falls_back_to_serial(monkeypatch):
    """On a 1-CPU machine the pool is skipped outright: requesting many
    workers must never construct a Pool, and the results (and their
    streaming order) must be exactly the serial loop's."""
    import repro.harness.parallel as parallel_module

    def _no_pool(*args, **kwargs):  # pragma: no cover - must not run
        raise AssertionError("Pool constructed on a single-CPU host")

    monkeypatch.setattr(parallel_module, "effective_cpu_count", lambda: 1)
    monkeypatch.setattr(
        parallel_module.multiprocessing, "Pool", _no_pool)
    seen = []
    results = parallel_map(_square, [4, 2, 3], processes=8,
                           on_result=seen.append)
    assert results == [_square(v) for v in [4, 2, 3]]
    assert seen == results


def test_pool_capped_at_item_count(monkeypatch):
    """One item never pays pool overhead, however many workers asked."""
    import repro.harness.parallel as parallel_module

    def _no_pool(*args, **kwargs):  # pragma: no cover - must not run
        raise AssertionError("Pool constructed for a single item")

    monkeypatch.setattr(
        parallel_module.multiprocessing, "Pool", _no_pool)
    assert parallel_map(_square, [7], processes=8) == [49]


def test_default_pool_size_env_override(monkeypatch):
    from repro.harness.parallel import effective_cpu_count

    monkeypatch.setenv("PLANET_POOL", "3")
    assert default_pool_size() == 3
    monkeypatch.delenv("PLANET_POOL")
    # Unset, the default is the *affinity* mask (what this process may
    # actually run on), not the machine-wide cpu_count.
    assert default_pool_size() == effective_cpu_count()


def test_effective_cpu_count_uses_affinity(monkeypatch):
    """A container pinned to one core must size pools at 1, no matter
    how many CPUs the host advertises via cpu_count."""
    import repro.harness.parallel as parallel_module

    monkeypatch.setattr(parallel_module.os, "cpu_count", lambda: 64)
    if hasattr(os, "sched_getaffinity"):
        monkeypatch.setattr(parallel_module.os, "sched_getaffinity",
                            lambda pid: {0})
        from repro.harness.parallel import effective_cpu_count
        assert effective_cpu_count() == 1
    else:  # pragma: no cover - non-Linux fallback
        from repro.harness.parallel import effective_cpu_count
        assert effective_cpu_count() == 64


def test_cgroup_cpu_quota_parses_cpu_max(tmp_path):
    from repro.harness.parallel import _cgroup_cpu_quota

    def write(content):
        path = tmp_path / "cpu.max"
        path.write_text(content)
        return str(path)

    assert _cgroup_cpu_quota(write("200000 100000\n")) == 2.0
    assert _cgroup_cpu_quota(write("150000 100000\n")) == 1.5
    # "max" means unlimited; the period field defaults to 100ms.
    assert _cgroup_cpu_quota(write("max 100000\n")) is None
    assert _cgroup_cpu_quota(write("100000\n")) == 1.0
    # Missing, garbage, or nonsensical content never raises.
    assert _cgroup_cpu_quota(str(tmp_path / "absent")) is None
    assert _cgroup_cpu_quota(write("")) is None
    assert _cgroup_cpu_quota(write("banana split\n")) is None
    assert _cgroup_cpu_quota(write("-100000 100000\n")) is None
    assert _cgroup_cpu_quota(write("100000 0\n")) is None


def test_effective_cpu_count_caps_at_cgroup_quota(monkeypatch):
    """A time-share limit (docker --cpus=2 on a wide host) must cap the
    pool even though the affinity mask still shows every core."""
    import repro.harness.parallel as parallel_module
    from repro.harness.parallel import effective_cpu_count

    if hasattr(os, "sched_getaffinity"):
        monkeypatch.setattr(parallel_module.os, "sched_getaffinity",
                            lambda pid: set(range(64)))
    monkeypatch.setattr(parallel_module.os, "cpu_count", lambda: 64)
    monkeypatch.setattr(parallel_module, "_cgroup_cpu_quota", lambda: 2.0)
    assert effective_cpu_count() == 2
    # The quota floors to whole workers, never below one.
    monkeypatch.setattr(parallel_module, "_cgroup_cpu_quota", lambda: 2.9)
    assert effective_cpu_count() == 2
    monkeypatch.setattr(parallel_module, "_cgroup_cpu_quota", lambda: 0.5)
    assert effective_cpu_count() == 1
    # No quota file: affinity alone decides.
    monkeypatch.setattr(parallel_module, "_cgroup_cpu_quota", lambda: None)
    assert effective_cpu_count() == 64


def test_run_experiments_returns_configs_in_order():
    configs = [
        ExperimentConfig(
            name=f"tiny-{seed}", seed=seed, system="traditional",
            topology="uniform", n_datacenters=3, uniform_one_way_ms=20.0,
            partitions_per_dc=1, n_items=50, rate_tps=50.0,
            warmup_ms=200.0, duration_ms=400.0, drain_ms=400.0)
        for seed in (1, 2)
    ]
    results = run_experiments(configs, processes=2)
    assert [result.config.name for result in results] == ["tiny-1", "tiny-2"]
    for result in results:
        assert result.metrics.n_issued >= 0


# -- persistent pool: serial equivalence ---------------------------------

def _probe_configs(seeds=(3, 4, 5)):
    return [
        ExperimentConfig(
            name=f"pool-probe-{seed}", seed=seed, system="traditional",
            topology="uniform", n_datacenters=3, uniform_one_way_ms=20.0,
            partitions_per_dc=1, n_items=100, rate_tps=100.0,
            warmup_ms=500.0, duration_ms=1_000.0, drain_ms=1_000.0)
        for seed in seeds
    ]


def _fingerprint(result):
    return (result.summary(),
            [dataclasses.astuple(rec) for rec in result.metrics.records])


def test_persistent_pool_matches_serial_across_reuse():
    """The headline guarantee: a persistent pool (forked once, reused
    across map calls, results pickled back) yields byte-identical
    results to the serial loop — on every reuse, for every seed."""
    configs = _probe_configs()
    serial = [_fingerprint(r) for r in run_experiments(
        configs, processes=1)]
    with WorkerPool(processes=2, oversubscribe=True) as pool:
        for _ in range(2):  # reuse the same workers across sweep points
            pooled = [_fingerprint(r) for r in run_experiments(
                configs, pool=pool)]
            assert pooled == serial


def test_persistent_pool_streams_in_input_order():
    configs = _probe_configs(seeds=(3, 4))
    seen = []
    with WorkerPool(processes=2, oversubscribe=True) as pool:
        results = run_experiments(configs, pool=pool,
                                  on_result=seen.append)
    assert [r.config.name for r in results] == ["pool-probe-3",
                                                "pool-probe-4"]
    assert seen == results  # same objects, streamed, in input order


# -- work distribution ---------------------------------------------------

class _FakePool:
    """Stands in for multiprocessing.Pool: records submission order and
    completes tasks in deliberately scrambled (reverse) order."""

    def __init__(self):
        self.submitted = []

    def imap_unordered(self, fn, tasks, chunksize=1):
        tasks = list(tasks)
        assert chunksize == 1  # per-item dispatch IS the work stealing
        self.submitted = [task[1] for task in tasks]
        for task in reversed(tasks):
            yield fn(task)

    def close(self):
        pass

    def join(self):
        pass


def _fake_pooled():
    pool = WorkerPool(processes=1)
    fake = _FakePool()
    pool._pool = fake
    pool.processes = 2
    return pool, fake


def test_lpt_submission_order_with_skewed_costs():
    """With a cost hint, predicted-longest items are submitted first
    (ties keep input order) so stragglers never start last."""
    pool, fake = _fake_pooled()
    costs = [1.0, 9.0, 3.0, 9.0, 0.5]
    results = pool.map(_square, [0, 1, 2, 3, 4],
                       cost_hint=lambda i: costs[i])
    assert fake.submitted == [1, 3, 2, 0, 4]
    assert results == [0, 1, 4, 9, 16]  # reassembled by input position


def test_scrambled_completion_still_streams_in_input_order():
    pool, fake = _fake_pooled()
    seen = []
    results = pool.map(_square, [3, 1, 2], on_result=seen.append)
    assert fake.submitted == [0, 1, 2]  # no hint: input order
    assert results == [9, 1, 4]
    assert seen == [9, 1, 4]  # despite reverse completion order


def test_experiment_cost_hint_ranks_by_event_volume():
    small, large = _probe_configs(seeds=(3, 4))
    large = dataclasses.replace(large, duration_ms=10_000.0,
                                rate_tps=500.0)
    assert experiment_cost_hint(large) > experiment_cost_hint(small)


# -- worker context broadcast --------------------------------------------

def _read_context(item):
    return item, worker_context()


def test_worker_context_broadcast_to_forked_workers():
    with WorkerPool(processes=2, context={"tag": 7},
                    oversubscribe=True) as pool:
        results = pool.map(_read_context, [1, 2, 3])
    assert results == [(1, {"tag": 7}), (2, {"tag": 7}), (3, {"tag": 7})]


def test_worker_context_installed_on_serial_fallback():
    with WorkerPool(processes=1, context={"tag": 9}) as pool:
        assert pool.effective == 1
        results = pool.map(_read_context, [1])
    assert results == [(1, {"tag": 9})]
