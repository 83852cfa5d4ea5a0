"""Batched aggregate load generation for million-client scale.

:class:`~repro.workload.load.OpenSystemLoad` models the open system
with one generator process and one heap event per arrival — faithful,
but at 10⁴ tx/s the kernel spends most of its time resuming the load
generator and re-drawing scalars one at a time.  ``AggregateLoad``
replaces that with *batch* drawing: arrival times, item counts, key
indices, and read/write coin flips for a whole batch come from a
handful of vectorized numpy calls on the seeded numpy stream
(:meth:`repro.sim.RandomStreams.numpy_generator`) — the same
distributions as the per-client path, on a different (deterministic)
sample path.  Python work per arrival is O(1) and numpy work O(batch)
per batch.

Scheduling uses one cancellable timer on the kernel's timer wheel
(:meth:`repro.sim.Environment.arm_timer`) for the next pending
arrival; its callback issues that arrival and arms the one after it,
drawing a fresh batch once the current one is spent.  Each batch's
times are converted to Python floats once, so ``env.now`` stays a
plain float.  The issuer-facing behaviour matches the per-client
path: each arrival calls
:meth:`~repro.workload.load.TransactionIssuer.issue` (or
``issue_read``) at its exact simulated arrival time.

With ``population`` set, every arrival is also attributed to one of
``population`` simulated users (uniformly, from a dedicated stream)
and a bitmap tracks which users have appeared — this is how the
``scale`` bench represents 10⁶ clients in ~1 MB instead of 10⁶
generator processes.
"""

from __future__ import annotations

from typing import Any, List, Optional

import numpy as np

from repro.sim import Environment, RandomStreams, WheelTimer
from repro.workload.buying import BuyTransactionFactory
from repro.workload.load import PoissonArrivals, TransactionIssuer


class AggregateLoad:
    """Issues buy transactions at an aggregate rate, batch-drawn.

    Drop-in alternative to :class:`OpenSystemLoad`: same constructor
    shape, same ``start``/``stop`` lifecycle, same ``issued`` /
    ``reads_issued`` counters, same :class:`TransactionIssuer`
    protocol on the far side.
    """

    def __init__(self, env: Environment, factory: BuyTransactionFactory,
                 issuer: TransactionIssuer, rate_tps: float,
                 streams: RandomStreams, name: str = "load",
                 arrivals: Optional[object] = None,
                 read_fraction: float = 0.0,
                 batch_size: int = 1024,
                 population: int = 0):
        if batch_size < 1:
            raise ValueError("batch size must be >= 1")
        if population < 0:
            raise ValueError("population must be >= 0")
        if not 0.0 <= read_fraction < 1.0:
            raise ValueError(f"read fraction {read_fraction} outside [0, 1)")
        if read_fraction > 0 and not hasattr(issuer, "issue_read"):
            raise ValueError(
                "issuer does not support read-only transactions")
        self.env = env
        self.factory = factory
        self.issuer = issuer
        self.arrivals = arrivals or PoissonArrivals(rate_tps)
        self.read_fraction = float(read_fraction)
        self.batch_size = int(batch_size)
        self.population = int(population)
        # Client attribution has its own stream so enabling it never
        # perturbs the arrival sequence.
        self._rng = streams.numpy_generator(f"load-{name}")
        self._client_rng = streams.numpy_generator(f"load-{name}-clients")
        self._clients_seen = (np.zeros(population, dtype=bool)
                              if population else None)
        self.issued = 0
        self.reads_issued = 0
        self._running = False
        self._finished = False
        self._deadline: Optional[float] = None
        self._next_time = 0.0
        # Arrival times are sorted and never behind the clock, so arm
        # straight on the wheel, skipping arm_timer's past-deadline check.
        self._arm = env.timer_wheel.arm
        self._timer: Optional[WheelTimer] = None
        # Current batch payload (parallel, indexed by arrival).
        self._times: List[float] = []
        self._writes: List[list] = []
        self._hot: Any = ()
        self._reads: Any = None
        self._index = 0

    # -- lifecycle ----------------------------------------------------

    def start(self, duration_ms: Optional[float] = None) -> None:
        """Begin issuing; stops after ``duration_ms`` (or on stop())."""
        if self._running:
            raise RuntimeError("load generator already running")
        self._running = True
        self._finished = False
        self._next_time = self.env.now
        self._deadline = (self.env.now + duration_ms
                          if duration_ms is not None else None)
        self._next_batch()

    def stop(self) -> None:
        self._running = False
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def distinct_clients(self) -> int:
        """How many of the ``population`` users have issued so far."""
        if self._clients_seen is None:
            return 0
        return int(self._clients_seen.sum())

    # -- batch construction -------------------------------------------

    def _load_batch(self) -> int:
        """Draw the next batch into the payload arrays; return size."""
        rng = self._rng
        timed = getattr(self.arrivals, "batch_interarrivals_at", None)
        if timed is not None:
            gaps = timed(rng, self.batch_size, self._next_time)
        else:
            gaps = self.arrivals.batch_interarrivals(rng, self.batch_size)
        times = np.cumsum(gaps)
        times += self._next_time
        if self._deadline is not None:
            keep = int(np.searchsorted(times, self._deadline, side="left"))
            if keep < times.shape[0]:
                self._finished = True
                times = times[:keep]
        n = times.shape[0]
        if n:
            self._next_time = float(times[-1])
            self._writes, self._hot = self.factory.build_batch(rng, n)
            self._reads = (rng.random(n) < self.read_fraction
                           if self.read_fraction else None)
            if self._clients_seen is not None:
                clients = self._client_rng.integers(
                    0, self.population, size=n)
                self._clients_seen[clients] = True
        # One C-speed conversion per batch: scalar reads off a numpy
        # array would box an np.float64 per arrival and leak it into
        # the clock.
        self._times = times.tolist()
        return n

    # -- delivery -----------------------------------------------------

    def _next_batch(self) -> None:
        """Draw a batch and arm its first arrival, or finish the load."""
        if self._finished or not self._load_batch():
            self._running = False
            self._timer = None
            return
        self._index = 0
        self._timer = self._arm(self._times[0], self._fire)

    def _fire(self) -> None:
        """Wheel-timer callback: issue one arrival, arm the next."""
        index = self._index
        if self._reads is not None and self._reads[index]:
            self.issuer.issue_read(  # type: ignore[attr-defined]
                [op.key for op in self._writes[index]])
            self.reads_issued += 1
        else:
            self.issuer.issue(self._writes[index], bool(self._hot[index]))
            self.issued += 1
        if not self._running:
            return  # the issuer stopped the load
        index += 1
        if index < len(self._times):
            self._index = index
            self._timer = self._arm(self._times[index], self._fire)
        else:
            self._next_batch()
