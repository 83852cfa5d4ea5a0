"""Conflict/likelihood models for other commit protocols (§5.1.3).

The paper notes that the likelihood machinery is not MDCC-specific:

* a PBS-style model predicts the chance of *losing an update* in an
  eventually consistent quorum store (Dynamo, Cassandra);
* restricting conflicts to whole partitions (entity groups) models
  Megastore, which runs one transaction at a time per partition;
* adding extra lock-hold delays models classical two-phase commit;
* MDCC *fast ballots* are the same chain at the ⌈3N/4⌉ quorum plus a
  collision-recovery latency branch (see
  :class:`~repro.core.likelihood.CommitLikelihoodModel` with
  ``mode="fast"``); :func:`protocol_comparison` lines all of these up
  on one topology.

All of them reuse the discrete-PMF toolbox: build the distribution of
the protocol's *vulnerability window*, then integrate the Poisson
no-arrival probability against it (the eq. 8b pattern).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.histograms import Pmf
from repro.core.likelihood import CommitLikelihoodModel, LatencyMatrix


class QuorumStoreModel:
    """Lost-update likelihood for an eventually consistent quorum store.

    A read-modify-write against a Dynamo-style store reads from ``R``
    of ``N`` replicas, computes for ``w`` ms, and writes to ``W`` of
    ``N``.  Another writer that lands inside that window can silently
    overwrite the update (last-writer-wins).  The model returns the
    probability that **no** concurrent write arrives in the window —
    the "likelihood of an update succeeding without lost updates" the
    paper describes for non-transactional stores.
    """

    def __init__(self, latency: LatencyMatrix, n_replicas: Optional[int] = None,
                 read_quorum: int = 1, write_quorum: int = 1):
        self.latency = latency
        self.n = n_replicas if n_replicas is not None else latency.n
        if not 1 <= self.n <= latency.n:
            raise ValueError(f"replica count {self.n} outside the topology")
        if not 1 <= read_quorum <= self.n:
            raise ValueError(f"read quorum {read_quorum} impossible")
        if not 1 <= write_quorum <= self.n:
            raise ValueError(f"write quorum {write_quorum} impossible")
        self.read_quorum = read_quorum
        self.write_quorum = write_quorum
        self._windows: Dict[int, Pmf] = {}

    def _window(self, client_dc: int) -> Pmf:
        window = self._windows.get(client_dc)
        if window is None:
            rtts = [self.latency.rtt(client_dc, replica_dc)
                    for replica_dc in range(self.n)]
            read_wait = Pmf.quorum_of(rtts, self.read_quorum)
            write_wait = Pmf.quorum_of(rtts, self.write_quorum)
            window = read_wait.convolve(write_wait)
            self._windows[client_dc] = window
        return window

    def update_success_likelihood(self, client_dc: int,
                                  write_rate_per_ms: float,
                                  w_ms: float = 0.0) -> float:
        """P(no concurrent writer inside the read-modify-write window)."""
        window = self._window(client_dc)
        return window.no_arrival_probability(write_rate_per_ms,
                                             extra_ms=max(w_ms, 0.0))

    def staleness_probability(self, client_dc: int,
                              write_rate_per_ms: float) -> float:
        """P(a read misses the latest write) for ``R`` below ``N``.

        With ``R + W > N`` reads are always fresh; otherwise a read is
        stale if the latest write is newer than the read quorum's
        replication lag — approximated by a write arriving within one
        write-quorum window before the read.
        """
        if self.read_quorum + self.write_quorum > self.n:
            return 0.0
        rtts = [self.latency.rtt(client_dc, replica_dc)
                for replica_dc in range(self.n)]
        lag = Pmf.quorum_of(rtts, self.n)  # full propagation time
        return 1.0 - lag.no_arrival_probability(write_rate_per_ms)


class MegastoreModel:
    """Commit likelihood with partition-granularity conflicts.

    Megastore serializes transactions per entity group: any concurrent
    update *anywhere in the partition* conflicts.  The window math is
    identical to MDCC's (one Paxos round per commit), so this wraps a
    :class:`CommitLikelihoodModel` and evaluates it against partition
    arrival rates instead of record rates.
    """

    def __init__(self, base: CommitLikelihoodModel):
        if not base.ready:
            raise ValueError("precompute the base model first")
        self.base = base

    def partition_likelihood(self, client_dc: int, leader_dc: int,
                             partition_rate_per_ms: float,
                             w_ms: float = 0.0) -> float:
        """P(commit) for one entity-group transaction."""
        return self.base.record_likelihood(client_dc, leader_dc,
                                           partition_rate_per_ms, w_ms)

    def transaction_likelihood(self, client_dc: int,
                               partitions: Sequence[Tuple[int, float]],
                               w_ms: float = 0.0) -> float:
        """Product over the entity groups a transaction touches."""
        likelihood = 1.0
        for leader_dc, rate in partitions:
            likelihood *= self.partition_likelihood(client_dc, leader_dc,
                                                    rate, w_ms)
        return likelihood


class TwoPhaseCommitModel:
    """Conflict-window likelihood for classical two-phase commit.

    2PC holds locks from the prepare message until the commit/abort
    decision reaches each participant: window = max over participants
    of one round trip (prepare + vote) + the decision's one-way delay
    + any extra coordinator wait (``extra_hold_ms``, e.g. a group-
    commit flush or participant fsync).  The paper: "the model could
    be adapted slightly to model more classical two-phase commit
    implementations by introducing extra wait delays".
    """

    def __init__(self, latency: LatencyMatrix, extra_hold_ms: float = 0.0):
        if extra_hold_ms < 0:
            raise ValueError("negative extra hold")
        self.latency = latency
        self.extra_hold_ms = float(extra_hold_ms)
        self._windows: Dict[Tuple[int, Tuple[int, ...]], Pmf] = {}

    def _window(self, coordinator_dc: int,
                participant_dcs: Tuple[int, ...]) -> Pmf:
        key = (coordinator_dc, participant_dcs)
        window = self._windows.get(key)
        if window is None:
            prepare = Pmf.max_of([
                self.latency.rtt(coordinator_dc, participant)
                for participant in participant_dcs
            ])
            decision = Pmf.max_of([
                self.latency.one_way(coordinator_dc, participant)
                for participant in participant_dcs
            ])
            window = prepare.convolve(decision)
            if self.extra_hold_ms > 0:
                window = window.shift(self.extra_hold_ms)
            self._windows[key] = window
        return window

    def record_likelihood(self, coordinator_dc: int,
                          participant_dcs: Sequence[int],
                          arrival_rate_per_ms: float,
                          w_ms: float = 0.0) -> float:
        """P(no conflicting lock request during the 2PC hold window)."""
        window = self._window(coordinator_dc, tuple(participant_dcs))
        return window.no_arrival_probability(arrival_rate_per_ms,
                                             extra_ms=max(w_ms, 0.0))

    def transaction_likelihood(self, coordinator_dc: int,
                               records: Sequence[Tuple[Sequence[int], float]],
                               w_ms: float = 0.0) -> float:
        """Product over records of per-record no-conflict likelihoods."""
        likelihood = 1.0
        for participant_dcs, rate in records:
            likelihood *= self.record_likelihood(coordinator_dc,
                                                 participant_dcs, rate, w_ms)
        return likelihood


def protocol_comparison(latency: LatencyMatrix,
                        leader_distribution: Sequence[float],
                        client_dc: int, leader_dc: int,
                        arrival_rate_per_ms: float,
                        w_ms: float = 0.0,
                        collision_probability: float = 0.0,
                        size_distribution: Optional[Dict[int, float]] = None,
                        ) -> Dict[str, float]:
    """Commit/success likelihoods of every modelled protocol, side by
    side, for one record on one topology.

    Returns a dict with keys ``mdcc_classic``, ``mdcc_fast``,
    ``quorum_store``, ``megastore``, and ``two_phase_commit`` — the
    cross-protocol view §5.1.3 sketches, extended with the fast-ballot
    variant (⌈3N/4⌉ quorum, recovery branch weighted by
    ``collision_probability``).  Megastore shares MDCC's window and is
    evaluated at the same rate, so any difference in a real comparison
    comes from feeding it partition-level rates instead.
    """
    results: Dict[str, float] = {}
    models: List[Tuple[str, CommitLikelihoodModel]] = []
    for name, mode in (("mdcc_classic", "classic"), ("mdcc_fast", "fast")):
        model = CommitLikelihoodModel(
            latency, leader_distribution,
            size_distribution=size_distribution, mode=mode,
            collision_probability=(collision_probability
                                   if mode == "fast" else 0.0))
        model.precompute()
        models.append((name, model))
        results[name] = model.record_likelihood(
            client_dc, leader_dc, arrival_rate_per_ms, w_ms)
    n = latency.n
    store = QuorumStoreModel(latency, read_quorum=1,
                             write_quorum=n // 2 + 1)
    results["quorum_store"] = store.update_success_likelihood(
        client_dc, arrival_rate_per_ms, w_ms)
    results["megastore"] = MegastoreModel(models[0][1]).partition_likelihood(
        client_dc, leader_dc, arrival_rate_per_ms, w_ms)
    results["two_phase_commit"] = TwoPhaseCommitModel(
        latency).record_likelihood(
            client_dc, list(range(n)), arrival_rate_per_ms, w_ms)
    return results
