"""Deterministic parallel fan-out for independent simulation runs.

Every paper figure is a sweep of independent ``(config, seed)`` runs,
and the fuzzer's seed sweeps are hundreds of them — embarrassingly
parallel work.  This module shards such runs across a persistent
``multiprocessing`` pool while keeping the one property everything
downstream depends on: **the result list is exactly what the serial
loop would have produced**, in the same order, byte for byte.

That guarantee is cheap to give because each run builds its own
:class:`~repro.sim.Environment` and :class:`~repro.sim.RandomStreams`
from its config — no state crosses run boundaries, so neither worker
scheduling nor completion order can perturb a result.  The merge is
order-*independent* by construction: results are reassembled by input
position, never by arrival time.

Two lessons from the committed baseline (which showed parallel at
0.94× serial) shaped the architecture:

* **Pool sizing respects the cgroup, not the box.**  The baseline ran
  ``pool=4`` on a container with 1 visible CPU — four workers taking
  turns on one core, paying fork and pickle for nothing.
  :func:`default_pool_size` now asks ``os.sched_getaffinity`` (the
  CPUs this process may actually run on) and
  :func:`parallel_map` caps at that; an effective pool of 1 degrades
  to the plain serial loop with zero multiprocessing overhead.
* **The pool persists across sweep points.**  :class:`WorkerPool`
  forks once and is reused for every ``map`` call of a sweep, so
  worker startup (interpreter fork, module imports, any broadcast
  context) is paid once per sweep instead of once per point.

Results cross the process boundary through plain pickle.  On one
default-config experiment (41 s of run time on a 2-vCPU host),
dumping and loading its result took about 0.3 s, under 1% of the run.

Work distribution is self-balancing: tasks are dispatched one at a
time (``imap_unordered``), so an idle worker always steals the next
pending task instead of being stuck behind a static shard, and an
optional cost hint submits the predicted-longest runs first (LPT
scheduling) so a big run never starts last and overhangs the sweep.
"""

from __future__ import annotations

import multiprocessing
import os
from typing import (
    Any,
    Callable,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from repro.harness.experiment import (
    Experiment,
    ExperimentConfig,
    ExperimentResult,
)

_Item = TypeVar("_Item")
_Result = TypeVar("_Result")


#: cgroup-v2 CPU controller file; ``_cgroup_cpu_quota`` parses it.
_CPU_MAX_PATH = "/sys/fs/cgroup/cpu.max"


def _cgroup_cpu_quota(path: str = _CPU_MAX_PATH) -> Optional[float]:
    """CPU quota in cores from the cgroup-v2 ``cpu.max`` file.

    The file holds ``"$QUOTA $PERIOD"`` in microseconds, or ``"max"``
    for unlimited.  Returns ``quota / period`` (e.g. ``2.0`` for a
    container capped at two CPUs of time), or ``None`` when there is
    no limit, no file (cgroup v1, non-Linux), or unparsable content.
    """
    try:
        with open(path, "r", encoding="ascii") as stream:
            fields = stream.read().split()
    except (OSError, UnicodeDecodeError):
        return None
    if not fields or fields[0] == "max":
        return None
    try:
        quota = int(fields[0])
        period = int(fields[1]) if len(fields) > 1 else 100_000
    except (ValueError, IndexError):
        return None
    if quota <= 0 or period <= 0:
        return None
    return quota / period


def effective_cpu_count() -> int:
    """CPUs this process may actually burn (affinity ∧ cgroup quota).

    In a container pinned to one core, ``os.cpu_count()`` happily
    reports the host's core count — sizing a pool from it is how the
    old baseline ended up benchmarking a 4-worker pool on 1 CPU.  The
    affinity mask catches cpuset-style pinning; the cgroup-v2
    ``cpu.max`` quota catches time-share limits (``--cpus=2`` on a
    64-core host leaves the mask at 64 but the quota at 2.0).  The
    quota floors to whole workers, never below one.
    """
    try:
        usable = len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # non-Linux or restricted
        usable = os.cpu_count() or 1
    quota = _cgroup_cpu_quota()
    if quota is not None:
        usable = min(usable, max(1, int(quota)))
    return usable


def default_pool_size() -> int:
    """Worker count: ``PLANET_POOL`` if set, else one per usable CPU."""
    override = os.environ.get("PLANET_POOL", "").strip()
    if override:
        return max(1, int(override))
    return effective_cpu_count()


# -- persistent worker pool ----------------------------------------------

#: Broadcast context installed in each worker by the pool initializer
#: (one pickle per worker at fork, instead of one per task).
_worker_context: Any = None


def _init_worker(context: Any) -> None:
    global _worker_context
    _worker_context = context


def worker_context() -> Any:
    """The context broadcast by :class:`WorkerPool` (None if unset)."""
    return _worker_context


def _call_indexed(task: Tuple[Callable, int, Any]) -> Tuple[int, Any]:
    fn, index, item = task
    return index, fn(item)


class WorkerPool:
    """A process pool forked once and reused across ``map`` calls.

    ``processes`` is capped at the affinity mask unless
    ``oversubscribe=True`` (useful for correctness tests on single-CPU
    hosts, pointless for performance).  An effective pool of 1 never
    forks: ``map`` runs the plain serial loop, and any ``context`` is
    installed in-process so worker functions behave identically.

    Use as a context manager, or call :meth:`close` when the sweep is
    done.
    """

    def __init__(self, processes: Optional[int] = None,
                 context: Any = None,
                 oversubscribe: bool = False):
        requested = (default_pool_size() if processes is None
                     else max(1, int(processes)))
        if not oversubscribe:
            requested = min(requested, effective_cpu_count())
        self.processes = requested
        self.context = context
        self._pool = None
        if self.processes > 1:
            try:
                self._pool = multiprocessing.Pool(
                    self.processes, initializer=_init_worker,
                    initargs=(context,))
            except OSError:
                # No pool available here (e.g. sandboxed CI without a
                # usable /dev/shm): degrade to the serial loop.
                self.processes = 1
        if self._pool is None and context is not None:
            _init_worker(context)

    @property
    def effective(self) -> int:
        """Workers actually running tasks (1 = serial fallback)."""
        return self.processes if self._pool is not None else 1

    def map(self, fn: Callable[[_Item], _Result],
            items: Sequence[_Item],
            on_result: Optional[Callable[[_Result], None]] = None,
            cost_hint: Optional[Callable[[_Item], float]] = None,
            ) -> List[_Result]:
        """``[fn(item) for item in items]``, work-stealing, input order.

        Tasks are dispatched one at a time, so whichever worker frees
        up first takes the next pending task (skewed run lengths never
        idle the pool behind a static shard).  With ``cost_hint``,
        items are *submitted* longest-first (LPT): the predicted
        stragglers start immediately instead of overhanging the end of
        the sweep.  Neither affects results: they are reassembled by
        input position, and ``on_result`` streams them in input order.
        """
        items = list(items)
        if self._pool is None or len(items) <= 1:
            results: List[_Result] = []
            for item in items:
                result = fn(item)
                if on_result is not None:
                    on_result(result)
                results.append(result)
            return results
        order = list(range(len(items)))
        if cost_hint is not None:
            # Stable LPT: ties keep input order, so submission order —
            # and therefore everything — is deterministic.
            order.sort(key=lambda i: (-cost_hint(items[i]), i))
        tasks = [(fn, i, items[i]) for i in order]
        slots: List[Any] = [None] * len(items)
        done = [False] * len(items)
        emitted = 0
        for index, value in self._pool.imap_unordered(
                _call_indexed, tasks, chunksize=1):
            slots[index] = value
            done[index] = True
            while emitted < len(items) and done[emitted]:
                if on_result is not None:
                    on_result(slots[emitted])
                emitted += 1
        return slots

    def close(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None
            self.processes = 1

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def parallel_map(fn: Callable[[_Item], _Result],
                 items: Sequence[_Item],
                 processes: Optional[int] = None,
                 chunksize: int = 1,
                 on_result: Optional[Callable[[_Result], None]] = None,
                 ) -> List[_Result]:
    """One-shot :meth:`WorkerPool.map` (pool built and torn down here).

    Results come back in input order regardless of which worker
    finishes first; ``on_result`` (progress reporting) is likewise
    invoked in input order, as ordered results stream in.  ``fn`` and
    the items must be picklable (``fn`` a module-level function).

    ``chunksize`` is accepted for backward compatibility; dispatch is
    always per-item (simulation runs are seconds each, so fine-grained
    stealing beats chunked sharding whenever run times vary).
    """
    items = list(items)
    if processes is None:
        processes = default_pool_size()
    # A pool wider than min(jobs, usable CPUs) buys nothing for
    # CPU-bound single-threaded workers; when only one worker would
    # run, skip the fork entirely.
    processes = min(processes, len(items), effective_cpu_count())
    with WorkerPool(processes) as pool:
        return pool.map(fn, items, on_result=on_result)


# -- experiment fan-out --------------------------------------------------

def _run_one(config: ExperimentConfig) -> ExperimentResult:
    """Worker body: one experiment, built and run in isolation."""
    return Experiment(config).run()


def experiment_cost_hint(config: ExperimentConfig) -> float:
    """Predicted run weight for LPT submission: events ~ time × rate."""
    horizon = config.warmup_ms + config.duration_ms + config.drain_ms
    return horizon * max(config.rate_tps, 1.0)


def run_experiments(configs: Sequence[ExperimentConfig],
                    processes: Optional[int] = None,
                    on_result: Optional[
                        Callable[[ExperimentResult], None]] = None,
                    pool: Optional[WorkerPool] = None,
                    ) -> List[ExperimentResult]:
    """Run independent experiment configs, possibly in parallel.

    Equivalent to ``[Experiment(c).run() for c in configs]`` — the
    serial-vs-parallel equivalence tests compare metric digests byte
    for byte — but sharded across workers.  Pass a :class:`WorkerPool`
    to reuse one pool across many sweep points; otherwise a one-shot
    pool is sized from ``processes`` (default: the affinity mask).

    Pool workers hand each result back through plain pickle.
    """
    configs = list(configs)
    if pool is not None:
        return pool.map(_run_one, configs, on_result=on_result,
                        cost_hint=experiment_cost_hint)
    if processes is None:
        processes = default_pool_size()
    processes = min(processes, len(configs), effective_cpu_count())
    with WorkerPool(processes) as one_shot:
        return run_experiments(configs, on_result=on_result, pool=one_shot)
