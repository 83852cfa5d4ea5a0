"""Likelihood-based admission control (§4.2).

When the predicted commit likelihood of a transaction is low, it is
often better not to attempt it at all: the doomed attempt would waste
resources and — worse — hold options that increase contention for
everyone else.  Two policies from the paper:

* ``Fixed(threshold, attempt_rate)`` — below the threshold, attempt
  with a fixed probability;
* ``Dynamic(threshold)`` — below the threshold, attempt with
  probability equal to the likelihood itself.

Thresholds and rates are expressed in **percent** to match the paper's
notation (``Fixed(40, 20)``, ``Dynamic(50)``).

The likelihoods come from
:class:`~repro.core.likelihood.CommitLikelihoodModel`, which answers
repeated admission queries from :class:`LikelihoodMemo`, an LRU keyed
on the exact inputs of each eq. 8b integral.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from collections import OrderedDict
from typing import Optional, Tuple


class LikelihoodMemo:
    """Admission-time LRU over per-record likelihood evaluations.

    Every admission decision re-runs the eq. 8b Poisson integral —
    a ~1000-term dot product — even though the inputs repeat heavily:
    the (client DC, leader DC) cell is one of N², the processing time
    *w* is usually a per-workload constant, and hot records share
    arrival-rate buckets.  This cache sits in front of
    :meth:`~repro.core.likelihood.CommitLikelihoodModel.record_likelihood`
    and keys on the exact ``(client_dc, leader_dc, rate, w)`` inputs,
    so a hit returns the bit-identical value a fresh evaluation would
    have produced and memoization never changes an admission decision.

    The likelihood model clears it on every rebuild, so entries never
    outlive the matrix they were computed from.
    """

    __slots__ = ("capacity", "hits", "misses", "_entries")

    def __init__(self, capacity: int = 4096):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self.hits = 0
        self.misses = 0
        self._entries: "OrderedDict[tuple, float]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, client_dc: int, leader_dc: int, rate: float,
               w_ms: float) -> Tuple[tuple, Optional[float]]:
        """``(key, cached value or None)`` for one evaluation."""
        key = (client_dc, leader_dc, rate, w_ms)
        value = self._entries.get(key)
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
            self._entries.move_to_end(key)
        return key, value

    def store(self, key: tuple, value: float) -> None:
        entries = self._entries
        entries[key] = value
        if len(entries) > self.capacity:
            entries.popitem(last=False)

    def clear(self) -> None:
        self._entries.clear()

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class AdmissionPolicy(ABC):
    """Decides whether to attempt a transaction given its likelihood."""

    @abstractmethod
    def decide(self, likelihood: float, rng: random.Random) -> bool:
        """True to attempt the transaction, False to reject it."""

    @abstractmethod
    def describe(self) -> str:
        """Short label for reports (e.g. ``"Dyn(50)"``)."""


class NoAdmission(AdmissionPolicy):
    """Attempt everything (the paper's baseline configuration)."""

    def decide(self, likelihood: float, rng: random.Random) -> bool:
        return True

    def describe(self) -> str:
        return "none"


class FixedPolicy(AdmissionPolicy):
    """``Fixed(threshold, attempt_rate)``: coin-flip below the threshold.

    ``Fixed(40, 20)`` attempts transactions whose likelihood is below
    40 % only 20 % of the time; an attempt rate of 100 disables the
    policy.
    """

    def __init__(self, threshold_pct: float, attempt_rate_pct: float):
        if not 0.0 <= threshold_pct <= 100.0:
            raise ValueError(f"threshold {threshold_pct} outside [0, 100]")
        if not 0.0 <= attempt_rate_pct <= 100.0:
            raise ValueError(
                f"attempt rate {attempt_rate_pct} outside [0, 100]")
        self.threshold = threshold_pct / 100.0
        self.attempt_rate = attempt_rate_pct / 100.0

    def decide(self, likelihood: float, rng: random.Random) -> bool:
        if likelihood >= self.threshold:
            return True
        return rng.random() < self.attempt_rate

    def describe(self) -> str:
        return (f"F({self.threshold * 100:.0f},"
                f"{self.attempt_rate * 100:.0f})")


class AdaptiveProbingPolicy(AdmissionPolicy):
    """Likelihood-blind adaptive load control (Heiss & Wagner style).

    The comparison baseline from the paper's related work (§7, [18]):
    instead of predicting per-transaction commit likelihood, maintain a
    single global admit probability and *probe* — periodically compare
    the achieved goodput against the previous period and hill-climb the
    admit rate in whichever direction improves it.

    The harness must feed outcomes back through
    :meth:`observe_outcome`; :class:`~repro.core.transaction.PlanetTransaction`
    does so automatically for any policy exposing that method.
    """

    def __init__(self, env, probe_interval_ms: float = 5_000.0,
                 initial_rate: float = 1.0, step: float = 0.1,
                 min_rate: float = 0.05):
        if probe_interval_ms <= 0:
            raise ValueError("probe interval must be positive")
        if not 0.0 < initial_rate <= 1.0:
            raise ValueError("initial rate outside (0, 1]")
        if not 0.0 < step < 1.0:
            raise ValueError("step outside (0, 1)")
        if not 0.0 < min_rate <= initial_rate:
            raise ValueError("min rate outside (0, initial]")
        self.env = env
        self.admit_rate = float(initial_rate)
        self.step = float(step)
        self.min_rate = float(min_rate)
        self._commits_this_period = 0
        self._last_goodput = 0.0
        self._direction = -1.0  # first move backs off from full admit
        self.probe_interval_ms = float(probe_interval_ms)
        #: (time, admit_rate) trail for observability/ablations.
        self.history = []
        env.process(self._probe_loop())

    def decide(self, likelihood: float, rng: random.Random) -> bool:
        return rng.random() < self.admit_rate

    def observe_outcome(self, committed: bool) -> None:
        if committed:
            self._commits_this_period += 1

    def _probe_loop(self):
        while True:
            yield self.env.timeout(self.probe_interval_ms)
            goodput = self._commits_this_period / self.probe_interval_ms
            self._commits_this_period = 0
            if goodput < self._last_goodput:
                self._direction = -self._direction  # worse: turn around
            self._last_goodput = goodput
            self.admit_rate = min(
                1.0, max(self.min_rate,
                         self.admit_rate + self._direction * self.step))
            self.history.append((self.env.now, self.admit_rate))
            if self.env.metrics is not None:
                self.env.metrics.set_gauge("admission.admit_rate",
                                           self.admit_rate)

    def describe(self) -> str:
        return f"Adaptive({self.admit_rate:.2f})"


class DynamicPolicy(AdmissionPolicy):
    """``Dynamic(threshold)``: attempt rate follows the likelihood.

    Below the threshold, a transaction with likelihood ``L`` is
    attempted with probability ``L``.  ``Dynamic(0)`` is equivalent to
    no admission control; ``Dynamic(100)`` throttles everything in
    proportion to its likelihood — the paper's recommended default is
    Dynamic with a high threshold.
    """

    def __init__(self, threshold_pct: float):
        if not 0.0 <= threshold_pct <= 100.0:
            raise ValueError(f"threshold {threshold_pct} outside [0, 100]")
        self.threshold = threshold_pct / 100.0

    def decide(self, likelihood: float, rng: random.Random) -> bool:
        if likelihood >= self.threshold:
            return True
        return rng.random() < likelihood

    def describe(self) -> str:
        return f"Dyn({self.threshold * 100:.0f})"
